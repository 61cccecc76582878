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

from causalmed.data import Continuous
from causalmed.glm import PatternDesign


# ---------------------------------------------------------------------------
# Logistic regression oracles


def softplus_reference(eta):
    """log(1 + exp(eta)) by numpy's own stable np.logaddexp(0, eta)."""
    return np.logaddexp(0.0, eta)


def loglik_logistic(X, y, w, beta):
    """Weighted Bernoulli log-likelihood, computed the slow stable way."""
    eta = X @ beta
    return float(np.sum(w * (y * eta - softplus_reference(eta))))


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


def random_dag(rng, max_nodes=8, edge_prob=0.4, min_nodes=3):
    """A random DAG over letter-named nodes, edges respecting an order."""
    n = int(rng.integers(min_nodes, max_nodes + 1))
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


# ---------------------------------------------------------------------------
# Design matrices


def design_by_stacking(ds, spec, weights=None):
    """A model's design matrix built the direct way, from the dataset's codes
    and values: the intercept, the exposure's indicator, and per term of
    ``spec`` its covariate's columns (a continuous column's values, or one
    indicator per non-reference level) shifted to weighted mean zero under
    ``weights`` (the survey weights for None), times the exposure's
    indicator for an interaction. Each column is its own array, and all of
    them are stacked along a new last axis."""
    w = ds.weights() if weights is None else weights

    def indicators(name):
        col = ds[name]
        return [(col.values == col.kind.levels.index(lv)) * 1.0 for lv in col.kind.levels if lv != col.kind.reference]

    def shifted(name):
        col = ds[name]
        vecs = [col.values * 1.0] if isinstance(col.kind, Continuous) else indicators(name)
        return [vec - (vec * w).sum() / w.sum() for vec in vecs]

    vectors = [np.ones(ds.n_rows)]
    if spec.exposure is not None:
        (exposure,) = indicators(spec.exposure)
        vectors.append(exposure)
    for term in spec.terms:
        vectors.extend(exposure * vec if term.interaction else vec for vec in shifted(term.column))
    return np.stack(vectors, axis=-1)


# ---------------------------------------------------------------------------
# Covariate balance


def weighted_smd_two_pass(values, exposure, weights):
    """Standardized mean difference of one covariate column between the
    exposure groups 1 and 0 under ``weights``: each group's weighted mean,
    then its weighted variance about that mean in a second pass, and
    |m1 - m0| over the root of the average variance, or 0 where that is 0."""
    stats = {}
    for group in (0.0, 1.0):
        sel = exposure == group
        mean = float(np.average(values[sel], weights=weights[sel]))
        var = float(np.average((values[sel] - mean) ** 2, weights=weights[sel]))
        stats[group] = (mean, var)
    pooled = np.sqrt((stats[1.0][1] + stats[0.0][1]) / 2.0)
    if pooled == 0.0:
        return 0.0
    return float(abs(stats[1.0][0] - stats[0.0][0]) / pooled)


# ---------------------------------------------------------------------------
# A dense referee for pattern designs: the products a fit needs, on the
# (n, p) design matrix or the (B, n, p) stack of one per fit.


def _per_fit(X, lead):
    """X as one (n, p) matrix per entry of the leading shape ``lead``."""
    return np.broadcast_to(X, lead + X.shape[-2:])


def dense_eta(X, beta):
    """X @ beta: (n,) for one coefficient vector, (B, n) for a (B, p) stack."""
    return np.einsum("...ij,...j->...i", _per_fit(X, beta.shape[:-1]), beta)


def dense_score(X, r):
    """X'r for each row of the (B, n) array ``r``, a (B, p) array."""
    return np.einsum("...ij,...i->...j", _per_fit(X, r.shape[:-1]), r)


def dense_gram(X, v):
    """X'diag(v)X: (p, p) for n weights, (B, p, p) for a (B, n) array."""
    X = _per_fit(X, v.shape[:-1])
    return np.einsum("...ij,...i,...ik->...jk", X, v, X)


def as_pattern_design(X, names):
    """Any (n, p) matrix, or (B, n, p) stack, as a pattern design whose rows
    are all one pattern: its p columns are p continuous columns, each block
    a unit vector, so the design's dense rows are X itself. Only the input
    is the package's type; nothing here computes with it."""
    X = np.asarray(X, dtype=np.float64)
    n, p = X.shape[-2:]
    blocks = np.concatenate([np.zeros((1, p)), np.eye(p)])[:, None]
    return PatternDesign(tuple(names), np.zeros(n, dtype=np.intp), np.ascontiguousarray(np.swapaxes(X, -1, -2)), blocks, ())
