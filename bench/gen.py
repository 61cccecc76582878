"""Seeded workload inputs, built with numpy and the standard library only.

Nothing here imports ``causalmed``: a change to the package's samplers or
writers cannot change what the benchmark feeds it. Every generator takes a
``numpy.random.Generator`` and is deterministic in it.
"""

from __future__ import annotations

import csv
import itertools
import zlib

import numpy as np

NONRESPONSE_LABELS = ("Refused", "Don't know")
EXPOSED_LABELS = ("gay/lesbian", "bisexual", "something else")
ORIENTATION_LEVELS = ("straight", *EXPOSED_LABELS, *NONRESPONSE_LABELS)
DEPRESSION_LEVELS = ("No", "Yes", *NONRESPONSE_LABELS)
YEARS = ("2013", "2014", "2015", "2016")


def rng_for(workload: str, seed: int) -> np.random.Generator:
    """One generator per (workload, seed); workloads never share a stream."""
    return np.random.default_rng([zlib.crc32(workload.encode()), seed])


def _expit(x):
    return 1.0 / (1.0 + np.exp(-x))


def _bern(rng, p):
    return rng.random(np.shape(p)) < p


def _labels(rng, exposed, depressed, nr_orientation, nr_depression):
    """Raw survey labels with refused/don't-know answers mixed in."""
    n = exposed.size
    orientation = np.where(exposed, np.array(EXPOSED_LABELS)[rng.choice(3, n, p=[0.4, 0.45, 0.15])], "straight")
    depression = np.where(depressed, "Yes", "No")
    o_nr = _bern(rng, np.full(n, nr_orientation))
    d_nr = _bern(rng, np.full(n, nr_depression))
    orientation = np.where(o_nr, np.array(NONRESPONSE_LABELS)[rng.integers(0, 2, n)], orientation)
    depression = np.where(d_nr, np.array(NONRESPONSE_LABELS)[rng.integers(0, 2, n)], depression)
    return orientation.astype(object), depression.astype(object), o_nr | d_nr


def _blank(rng, values, rate):
    """Cells set to '' (missing) at the given rate, and the mask."""
    mask = _bern(rng, np.full(len(values), rate))
    out = np.asarray(values, dtype=object).copy()
    out[mask] = ""
    return out, mask


def _tally(nonresponse, missing):
    """Complete-case exclusion counts, non-response taking precedence."""
    nr = int(nonresponse.sum())
    miss = int((missing & ~nonresponse).sum())
    return {"nonresponse": nr, "missing": miss, "retained": int(nonresponse.size - nr - miss)}


def _bits(b):
    return np.where(b, "1", "0").astype(object)


def _floats(x):
    return np.array([repr(float(v)) for v in x], dtype=object)


def _write(path, header, columns):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


def paper_csv(rng, n, path) -> dict:
    """Rows with the graph and the mediator and outcome equations of the
    bundled ``mediation_binary.scm``: latent H drives exposure Q and baseline
    support X; mediator M responds to (Q, X); outcome Y to (Q, X, M). Adds
    survey weights, a few refused/don't-know answers and missing mediator
    cells. Returns the generator's own complete-case exclusion tally.

    H drives Q and X more strongly than in the fixture (P(Q=1|H) 0.15/0.55
    and P(X=1|H) 0.2/0.8 against 0.08/0.25 and 0.35/0.65). With the
    fixture's values the propensity score, a function of X alone, differs by
    about 0.05 between its two values at n=300, and the full-sample
    ``ps_regression`` fit separates on about one seed in eight. Here a few
    bootstrap replicates per thousand still fail on some seeds."""
    h = _bern(rng, np.full(n, 0.5))
    q = _bern(rng, np.where(h, 0.55, 0.15))
    x = _bern(rng, np.where(h, 0.8, 0.2))
    m = _bern(rng, _expit(-0.4 + 0.9 * q + 0.5 * x))
    y = _bern(rng, _expit(-1.6 + 1.1 * q + 0.5 * x - 0.6 * m))
    weight = rng.lognormal(0.0, 0.4, n)
    orientation, depression, nonresponse = _labels(rng, q, y, 0.02, 0.01)
    support_t1, missing = _blank(rng, _bits(m), 0.01)
    _write(
        path,
        ("orientation", "depression", "support_t0", "support_t1", "weight"),
        (orientation, depression, _bits(x), support_t1, _floats(weight)),
    )
    return _tally(nonresponse, missing)


def survey_csv(rng, n, path) -> dict:
    """NHIS-style extract: orientation and depression labels, baseline
    support, two support mediators, continuous age at full precision (so
    rows rarely repeat), a four-level survey year and survey weights, with
    refusals and missing cells. Returns the generator's exclusion tally."""
    h = _bern(rng, np.full(n, 0.5))
    year = rng.integers(0, 4, n)
    age = 18.0 + 67.0 * rng.beta(2.0, 2.5, n)
    agec = (age - 45.0) / 10.0
    q = _bern(rng, _expit(-2.2 + 1.0 * h - 0.3 * agec + 0.1 * year))
    x = _bern(rng, _expit(-0.6 + 1.1 * h + 0.2 * agec))
    m1 = _bern(rng, _expit(-0.4 + 0.9 * q + 0.5 * x + 0.1 * agec))
    m2 = _bern(rng, _expit(0.2 + 0.6 * q + 0.4 * x - 0.1 * agec))
    y = _bern(rng, _expit(-1.6 + 1.1 * q + 0.5 * x - 0.6 * m1 - 0.3 * m2 - 0.2 * agec + 0.05 * year))
    weight = rng.lognormal(0.0, 0.5, n)
    orientation, depression, nonresponse = _labels(rng, q, y, 0.02, 0.01)
    support_t0, miss_x = _blank(rng, _bits(x), 0.01)
    family, miss_m1 = _blank(rng, _bits(m1), 0.015)
    friends, miss_m2 = _blank(rng, _bits(m2), 0.015)
    age_cells, miss_age = _blank(rng, _floats(age), 0.01)
    _write(
        path,
        ("year", "orientation", "depression", "age", "support_t0", "support_family", "support_friends", "weight"),
        (
            np.array(YEARS, dtype=object)[year],
            orientation,
            depression,
            age_cells,
            support_t0,
            family,
            friends,
            _floats(weight),
        ),
    )
    return _tally(nonresponse, miss_x | miss_m1 | miss_m2 | miss_age)


# ---------------------------------------------------------------------------
# Random DAGs with a controlled search cost


def _search_steps(n, edges, a, b):
    """DFS extensions an exhaustive enumeration of simple a-b paths in the
    undirected skeleton makes."""
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    steps = 0
    on_path = [False] * n
    on_path[a] = True
    stack = [(a, iter(nbrs[a]))]
    while stack:
        node, it = stack[-1]
        nxt = next(it, None)
        if nxt is None:
            on_path[node] = False
            stack.pop()
            continue
        if on_path[nxt]:
            continue
        steps += 1
        if nxt == b:
            continue
        on_path[nxt] = True
        stack.append((nxt, iter(nbrs[nxt])))
    return steps


def _descendants(n, edges, a):
    children = [[] for _ in range(n)]
    for u, v in edges:
        children[u].append(v)
    out, stack = set(), [a]
    while stack:
        for c in children[stack.pop()]:
            if c not in out:
                out.add(c)
                stack.append(c)
    return out


def random_dag(rng, n_nodes, n_candidates, steps_band, edge_prob=0.3):
    """A random DAG structure with one latent node, whose exposure has
    exactly ``n_candidates`` observed non-descendants and whose
    exposure-outcome skeleton search takes a number of DFS steps inside
    ``steps_band``. Draws are rejected until both hold.

    Returns (n_nodes, edges, latent, exposure, outcome) over node indices
    in topological order."""
    while True:
        edges = [(i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes) if rng.random() < edge_prob]
        exposure = int(rng.integers(n_nodes // 2, n_nodes - 3))
        outcome = int(rng.integers(exposure + 1, n_nodes))
        if (exposure, outcome) not in edges:
            edges.append((exposure, outcome))
        latent = int(rng.integers(0, exposure))
        desc = _descendants(n_nodes, edges, exposure)
        candidates = [i for i in range(n_nodes) if i not in desc and i not in (exposure, outcome, latent)]
        if len(candidates) != n_candidates:
            continue
        if steps_band[0] <= _search_steps(n_nodes, edges, exposure, outcome) <= steps_band[1]:
            return n_nodes, edges, latent, exposure, outcome


def dag_text(structure, rng):
    """The structure in the package's .dag format under a random naming of
    its nodes and a random edge order; returns (text, exposure, outcome).

    Renaming changes the order in which the package visits nodes, paths and
    candidate sets, but not how many there are."""
    n_nodes, edges, latent, exposure, outcome = structure
    names = [f"v{i:02d}" for i in rng.permutation(n_nodes)]
    lines = [f"latent {names[latent]}"]
    lines += [f"edge {names[edges[k][0]]} -> {names[edges[k][1]]}" for k in rng.permutation(len(edges))]
    isolated = set(range(n_nodes)) - {i for e in edges for i in e}
    lines += [f"node {names[i]}" for i in sorted(isolated)]
    return "\n".join(lines) + "\n", names[exposure], names[outcome]


# ---------------------------------------------------------------------------
# Structural models, as text in the package's .scm format


def _fmt(values):
    return " ".join(repr(float(v)) for v in values)


def binary_mediation_scm(rng) -> str:
    """The study's shape with random coefficients (latent H -> Q, X;
    M <- Q, X; Y <- Q, X, M), with no mediator-outcome confounder."""
    ph = rng.uniform(0.3, 0.7)
    q = (rng.uniform(-1.0, 0.0), rng.uniform(-1.0, 1.0))
    x = (rng.uniform(-0.5, 0.5), rng.uniform(-1.0, 1.0))
    m = (rng.uniform(-0.5, 0.5), *rng.uniform(-1.0, 1.0, 2))
    y = (rng.uniform(-1.0, 0.0), *rng.uniform(-1.0, 1.0, 3))
    return (
        f"var H : 0 1\n  latent\n  cpt | {_fmt((1.0 - ph, ph))}\n"
        f"var Q : 0 1\n  parents H\n  logit {_fmt(q)}\n"
        f"var X : 0 1\n  parents H\n  logit {_fmt(x)}\n"
        f"var M : 0 1\n  parents Q X\n  logit {_fmt(m)}\n"
        f"var Y : 0 1\n  parents Q X M\n  logit {_fmt(y)}\n"
        "roles q=Q x=X m=M y=Y\n"
    )


def categorical_mediation_scm(rng, h, k, a, m) -> str:
    """Categorical mediation model: latent H (h levels) drives binary Q and
    baseline X (k levels); mediator M (m levels) responds to (Q, X); binary
    Y to (Q, X, M, A) with A an exogenous covariate (a levels). State space
    h*2*k*a*m*2. Every table row is a Dirichlet(2) draw, so all cells are
    positive."""
    def block(name, levels, parents, parent_levels):
        lines = [f"var {name} : " + " ".join(levels)]
        if name == "H":
            lines.append("  latent")
        if parents:
            lines.append("  parents " + " ".join(parents))
        configs = list(itertools.product(*parent_levels))
        rows = rng.dirichlet(np.full(len(levels), 2.0), len(configs))
        for config, row in zip(configs, rows):
            lines.append(f"  cpt {' '.join(config)} | {_fmt(row)}".replace("cpt  |", "cpt |"))
        return lines

    lv = {
        "H": [f"h{i}" for i in range(h)],
        "Q": ["0", "1"],
        "X": [f"x{i}" for i in range(k)],
        "A": [f"a{i}" for i in range(a)],
        "M": [f"m{i}" for i in range(m)],
        "Y": ["0", "1"],
    }
    parents = {"H": (), "Q": ("H",), "X": ("H",), "A": (), "M": ("Q", "X"), "Y": ("Q", "X", "M", "A")}
    lines = []
    for name in ("H", "Q", "X", "A", "M", "Y"):
        lines += block(name, lv[name], parents[name], [lv[p] for p in parents[name]])
    lines.append("roles q=Q x=X m=M y=Y")
    return "\n".join(lines) + "\n"
