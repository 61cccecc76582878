"""Independent oracles used by the test suite.

Everything here is deliberately written without reusing package internals:
closed forms, finite differences, exhaustive path enumeration, and direct
probability bookkeeping. These implementations check the package, so they
must not share code with it.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict

import numpy as np


# ---------------------------------------------------------------------------
# Logistic regression oracles


def loglik_logistic(X, y, w, beta):
    """Weighted Bernoulli log-likelihood, computed the slow stable way."""
    eta = X @ beta
    return float(np.sum(w * (y * eta - np.logaddexp(0.0, eta))))


def fd_gradient(fn, beta, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    grad = np.zeros_like(beta, dtype=float)
    for j in range(beta.size):
        up = beta.copy()
        dn = beta.copy()
        up[j] += h
        dn[j] -= h
        grad[j] = (fn(up) - fn(dn)) / (2 * h)
    return grad


def saturated_two_group_slope(n1, e1, n0, e0):
    """Closed-form logit slope for a 2x2 table: the log cross-ratio."""
    return math.log((e1 / (n1 - e1)) / (e0 / (n0 - e0)))


def saturated_two_group_intercept(n0, e0):
    return math.log(e0 / (n0 - e0))


# ---------------------------------------------------------------------------
# d-separation by exhaustive path enumeration


def _descendants(edges, node):
    children = defaultdict(set)
    for u, v in edges:
        children[u].add(v)
    seen, stack = set(), [node]
    while stack:
        x = stack.pop()
        for ch in children[x]:
            if ch not in seen:
                seen.add(ch)
                stack.append(ch)
    return seen


def _simple_paths(nodes, edges, a, b):
    """All simple undirected paths a..b, as node sequences."""
    neighbors = defaultdict(set)
    for u, v in edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    paths = []

    def extend(path):
        tail = path[-1]
        if tail == b:
            paths.append(list(path))
            return
        for nxt in sorted(neighbors[tail]):
            if nxt not in path:
                path.append(nxt)
                extend(path)
                path.pop()

    extend([a])
    return paths


def path_is_open(edges, path, conditioned):
    """Open/blocked status of one undirected path under d-separation rules."""
    edge_set = set(edges)
    z = set(conditioned)
    for i in range(1, len(path) - 1):
        prev, node, nxt = path[i - 1], path[i], path[i + 1]
        is_collider = (prev, node) in edge_set and (nxt, node) in edge_set
        if is_collider:
            opened = node in z or (_descendants(edges, node) & z)
            if not opened:
                return False
        else:
            if node in z:
                return False
    return True


def dsep_brute_force(nodes, edges, a, b, conditioned):
    """True iff every simple path between a and b is blocked."""
    for path in _simple_paths(nodes, edges, a, b):
        if path_is_open(edges, path, conditioned):
            return False
    return True


def backdoor_valid_brute_force(nodes, edges, exposure, outcome, adjust, latent=()):
    """Backdoor criterion by enumerating every simple path.

    Returns (valid, blocked, open_paths): ``open_paths`` is the set of open
    paths that start with an edge into the exposure, ``blocked`` says it is
    empty, and ``valid`` adds that the set holds no descendant of the
    exposure and no latent node.
    """
    edge_set = set(edges)
    z = set(adjust)
    open_paths = {
        tuple(path)
        for path in _simple_paths(nodes, edges, exposure, outcome)
        if (path[1], path[0]) in edge_set and path_is_open(edges, path, z)
    }
    blocked = not open_paths
    valid = blocked and not (z & _descendants(edges, exposure)) and not (z & set(latent))
    return valid, blocked, open_paths


def random_dag(rng, max_nodes=8, edge_prob=0.4):
    """A random DAG over letter-named nodes, edges respecting an order."""
    n = int(rng.integers(3, max_nodes + 1))
    nodes = [f"n{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edges.append((nodes[i], nodes[j]))
    return nodes, edges


# ---------------------------------------------------------------------------
# Exact joint-distribution bookkeeping for small discrete models


def enumerate_joint_brute(variables):
    """Joint probabilities of a discrete model, one config at a time.

    ``variables`` is a list of (name, levels, prob_fn) triples in topological
    order, where ``prob_fn(assignment)`` returns the distribution over the
    variable's levels given the partial assignment of earlier variables.
    """
    joint = {}
    names = [name for name, _, _ in variables]
    level_lists = [levels for _, levels, _ in variables]
    for config in itertools.product(*[range(len(lv)) for lv in level_lists]):
        assignment = dict(zip(names, config))
        p = 1.0
        for (name, levels, prob_fn), value in zip(variables, config):
            p *= prob_fn(assignment)[value]
        joint[config] = p
    return names, joint
