"""Causal DAGs: backdoor paths, d-separation, and adjustment-set checks.

Graphs are immutable, small (tens of nodes) and checked once, when built:
the backdoor graph of an adjustment query is cut from a checked graph's
masks, as two mask tables, and not checked again, as a subgraph of a DAG is
a DAG. Queries are pure functions.

A graph is stored as bit masks: each node has a position, and each position
one mask of its parents and one of its children, with bit i set for the
node at position i. Python ints have no width limit, so neither has the
graph. Every query runs on the masks, and names are read and returned only
at the public functions. One collider rule serves every query: given a
conditioning set z, a collider is open exactly when it is in z ∪ An(z), z
and its ancestors. One kernel, :func:`_separated`, decides blocking: the
reachability search over active trails, run frontier by frontier. A set
blocks every backdoor path exactly when it d-separates exposure and outcome
in the backdoor graph, the graph without the exposure's out-edges.
``backdoor_paths`` enumerates simple paths explicitly only so that each one
can be reported with its open/blocked status, read from that same open set.
Every search walks an explicit stack or frontier, so a long path does not
reach Python's recursion limit.
"""

from __future__ import annotations

import graphlib
import itertools
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Iterator, Sequence

from .errors import DagError, InputError

#: Most candidates :func:`valid_adjustment_sets` searches, testing all 2**k subsets.
MAX_ADJUSTMENT_CANDIDATES = 20


@dataclass(frozen=True, slots=True)
class CausalDag:
    """Directed acyclic graph over named nodes with observability flags.

    A graph is checked once, when built: construction refuses a self-loop,
    an edge endpoint or a latent node that is not a declared node, and a
    cycle (found by :class:`graphlib.TopologicalSorter` and reported as its
    node sequence), so every instance is a DAG. The parent and child masks
    are built once, with the graph: ``_index`` maps each node to its
    position in ``nodes``, and ``_parent_masks[i]`` and ``_child_masks[i]``
    have a bit set for each parent and child of the node at position i. The
    backdoor graph of an adjustment query is cut from them as two new mask
    tables (:func:`_backdoor_masks`) and not checked again.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    latent: frozenset[str] = frozenset()
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _parent_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _child_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(dict.fromkeys(self.nodes)))
        object.__setattr__(self, "edges", tuple(dict.fromkeys(tuple(e) for e in self.edges)))
        object.__setattr__(self, "latent", frozenset(self.latent))
        index = {n: i for i, n in enumerate(self.nodes)}
        parents = [0] * len(self.nodes)
        children = [0] * len(self.nodes)
        for u, v in self.edges:
            if u == v:
                raise DagError(f"self-loop on {u!r}")
            for endpoint in (u, v):
                if endpoint not in index:
                    raise DagError(f"edge endpoint {endpoint!r} is not a declared node")
            parents[index[v]] |= 1 << index[u]
            children[index[u]] |= 1 << index[v]
        for name in self.latent:
            if name not in index:
                raise DagError(f"latent declaration for unknown node {name!r}")
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_parent_masks", tuple(parents))
        object.__setattr__(self, "_child_masks", tuple(children))
        # Parents in sorted order, so the cycle reported does not depend on
        # string hashing; each node of the cycle is a parent of the next.
        sorter = graphlib.TopologicalSorter({n: sorted(self._names(parents[i])) for i, n in enumerate(self.nodes)})
        try:
            sorter.prepare()
        except graphlib.CycleError as err:
            raise DagError(f"graph has a cycle: {' -> '.join(err.args[1][:-1])}") from None

    @property
    def observed_nodes(self) -> tuple[str, ...]:
        return tuple(n for n in self.nodes if n not in self.latent)

    def descendants(self, *nodes: str) -> set[str]:
        """Every node reached from ``nodes`` along edges; a node is in the set
        only when it is a descendant of another of them."""
        self.require(*nodes)
        return self._names(_reach(self._mask(nodes), self._child_masks))

    def ancestors(self, *nodes: str) -> set[str]:
        """Every node with an edge path into ``nodes``; a node is in the set
        only when it is an ancestor of another of them."""
        self.require(*nodes)
        return self._names(_reach(self._mask(nodes), self._parent_masks))

    def require(self, *names: str) -> None:
        for name in names:
            if name not in self._index:
                raise DagError(f"unknown node {name!r}")

    def _mask(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self._index[name]
        return mask

    def _names(self, mask: int) -> set[str]:
        return {self.nodes[i] for i in _positions(mask)}


def _positions(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union(mask: int, table: Sequence[int]) -> int:
    """The OR of ``table[i]`` over the set bits i of ``mask``."""
    # The bit loop of _positions, written out: the search is about 30%
    # slower through the generator (CPython 3.11).
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def _reach(mask: int, table: Sequence[int]) -> int:
    """Every position reached from ``mask`` by one or more moves along
    ``table`` (the parent masks for ancestors, the child masks for
    descendants), one frontier at a time."""
    out = 0
    frontier = mask
    while frontier:
        frontier = _union(frontier, table) & ~out
        out |= frontier
    return out


def _separated(parents: Sequence[int], children: Sequence[int], a: int, b: int, z: int, collider_open: int) -> bool:
    """True iff no active trail joins positions ``a`` and ``b`` of the graph
    with these parent and child masks given the conditioning mask ``z``,
    where ``collider_open`` is the mask of z ∪ An(z).

    Reachability over active trails, one frontier at a time: a node is
    entered either from a child (moving up) or from a parent (moving down).
    A node outside z passes on to its children either way, and to its
    parents when entered moving up; a collider, entered moving down, passes
    on to its parents exactly when it is in ``collider_open``."""
    target = 1 << b
    up = seen_up = 1 << a
    down = seen_down = 0
    while up or down:
        if (up | down) & target:
            return False
        up, down = (
            _union((up & ~z) | (down & collider_open), parents) & ~seen_up,
            _union((up | down) & ~z, children) & ~seen_down,
        )
        seen_up |= up
        seen_down |= down
    return True


def _node_set(names: Iterable[str], argument: str) -> frozenset[str]:
    """``names`` as a set of nodes. One string is refused, not read as the
    set of its characters."""
    if isinstance(names, str):
        raise DagError(f"{argument} must be a collection of node names, not one string")
    return frozenset(names)


def d_separated(dag: CausalDag, a: str, b: str, conditioned: Iterable[str] = ()) -> bool:
    """True iff every path between a and b is blocked given the conditioning set."""
    z = _node_set(conditioned, "conditioned")
    dag.require(a, b, *z)
    if a == b:
        raise DagError("query nodes must differ")
    if a in z or b in z:
        raise DagError("query nodes cannot be in the conditioning set")
    z_mask = dag._mask(z)
    collider_open = z_mask | _reach(z_mask, dag._parent_masks)
    return _separated(dag._parent_masks, dag._child_masks, dag._index[a], dag._index[b], z_mask, collider_open)


@dataclass(frozen=True)
class PathReport:
    """One exposure-outcome path and whether it is open under d-separation rules."""

    path: tuple[str, ...]
    is_open: bool


def _path_is_open(dag: CausalDag, path: Sequence[int], z: int, collider_open: int) -> bool:
    """A path of positions is open given the mask ``z`` unless a collider on
    it is outside ``collider_open``, the mask of z ∪ An(z), or another inner
    node is in ``z``."""
    parents = dag._parent_masks
    for prev, node, nxt in zip(path, path[1:], path[2:]):
        if parents[node] >> prev & 1 and parents[node] >> nxt & 1:
            if not collider_open >> node & 1:
                return False
        elif z >> node & 1:
            return False
    return True


def _all_simple_paths(dag: CausalDag, a: int, b: int, first: list[int]):
    """Every simple path of positions from ``a`` to ``b`` whose second node
    is in ``first``: depth-first, over ``first`` in its order and then over
    each node's neighbours in name order."""
    by_name = dag.nodes.__getitem__
    neighbors = [
        sorted(_positions(p | c), key=by_name) for p, c in zip(dag._parent_masks, dag._child_masks)
    ]
    path, on_path, branches = [a], 1 << a, [iter(first)]
    while branches:
        nxt = next(branches[-1], None)
        if nxt is None:
            on_path ^= 1 << path.pop()
            branches.pop()
        elif nxt == b:
            yield [*path, b]
        elif not on_path >> nxt & 1:
            path.append(nxt)
            on_path |= 1 << nxt
            branches.append(iter(neighbors[nxt]))


def backdoor_paths(
    dag: CausalDag, exposure: str, outcome: str, conditioned: Iterable[str] = ()
) -> tuple[PathReport, ...]:
    """All simple paths from exposure to outcome that start with an edge into
    the exposure, each annotated open/blocked under the conditioning set."""
    conditioned = _node_set(conditioned, "conditioned")
    dag.require(exposure, outcome, *conditioned)
    if exposure == outcome:
        raise DagError("exposure and outcome must differ")
    z = dag._mask(conditioned)
    collider_open = z | _reach(z, dag._parent_masks)
    a, b = dag._index[exposure], dag._index[outcome]
    first = sorted(_positions(dag._parent_masks[a]), key=dag.nodes.__getitem__)
    return tuple(
        PathReport(tuple(map(dag.nodes.__getitem__, path)), _path_is_open(dag, path, z, collider_open))
        for path in _all_simple_paths(dag, a, b, first)
    )


@dataclass(frozen=True)
class AdjustmentReport:
    """Verdict for a candidate adjustment set.

    ``valid`` means every backdoor path is blocked, no descendant of the
    exposure is conditioned and no latent node is adjusted for; descendants
    and latent nodes in the set are named in ``explanation``.
    Conditioning on a mediator is also flagged separately because it changes
    the estimand from the total to the direct effect rather than biasing it.
    """

    valid: bool
    backdoor_blocked: bool
    open_backdoor_paths: tuple[PathReport, ...]
    mediators_conditioned: tuple[str, ...]
    estimand: str
    explanation: str

    def __bool__(self) -> bool:
        return self.valid


def _backdoor_masks(dag: CausalDag, x: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The parent and child masks of the backdoor graph, the graph without
    the out-edges of the exposure at position ``x``: exposure and outcome
    are d-separated in it by exactly the sets that block every backdoor
    path. They are cut from the checked graph's masks, with no second
    check: a subgraph of a DAG is a DAG."""
    keep = ~(1 << x)
    parents = tuple(p & keep for p in dag._parent_masks)
    children = tuple(0 if i == x else c for i, c in enumerate(dag._child_masks))
    return parents, children


def is_valid_adjustment(
    dag: CausalDag, exposure: str, outcome: str, adjust: Iterable[str]
) -> AdjustmentReport:
    """Check a candidate adjustment set against the backdoor criterion.

    The set blocks every backdoor path iff it d-separates exposure and
    outcome in the backdoor graph; the open paths are enumerated only when
    it does not, to name them in the report.
    """
    z = _node_set(adjust, "adjust")
    dag.require(exposure, outcome, *z)
    if exposure in z or outcome in z:
        raise DagError("adjustment set cannot contain the exposure or outcome")
    if exposure == outcome:
        raise DagError("exposure and outcome must differ")
    a, b = dag._index[exposure], dag._index[outcome]
    parents, children = _backdoor_masks(dag, a)
    z_mask = dag._mask(z)
    blocked = _separated(parents, children, a, b, z_mask, z_mask | _reach(z_mask, parents))
    open_paths = () if blocked else tuple(r for r in backdoor_paths(dag, exposure, outcome, z) if r.is_open)
    descendants = z & dag.descendants(exposure)
    mediators = tuple(sorted(descendants & dag.ancestors(outcome)))
    latent = sorted(z & dag.latent)
    estimand = "direct" if mediators else "total"
    parts = []
    if blocked:
        parts.append("every backdoor path is blocked")
    else:
        parts.append(f"{len(open_paths)} open backdoor path(s): " + "; ".join(" -> ".join(r.path) for r in open_paths))
    if mediators:
        parts.append(
            "mediator conditioned (" + ", ".join(mediators) + "): direct-effect estimand"
        )
    others = sorted(descendants.difference(mediators))
    if others:
        parts.append("descendant of the exposure conditioned (" + ", ".join(others) + "): biased")
    if latent:
        parts.append("latent node adjusted for (" + ", ".join(latent) + "): not measured")
    return AdjustmentReport(
        valid=blocked and not descendants and not latent,
        backdoor_blocked=blocked,
        open_backdoor_paths=open_paths,
        mediators_conditioned=mediators,
        estimand=estimand,
        explanation="; ".join(parts),
    )


def valid_adjustment_sets(dag: CausalDag, exposure: str, outcome: str) -> tuple[tuple[str, ...], ...]:
    """Every set that :func:`is_valid_adjustment` calls valid, smallest first:
    the subsets of the observed nodes other than the exposure, the outcome
    and the exposure's descendants that d-separate exposure and outcome in
    the backdoor graph.

    Each candidate's closed ancestor mask (the candidate and its ancestors
    in the backdoor graph) is found once: a subset's z ∪ An(z) is the OR of
    its members' masks, as An(Z) is the union of An(v) over v in Z. It
    refuses more than :data:`MAX_ADJUSTMENT_CANDIDATES` candidates."""
    dag.require(exposure, outcome)
    if exposure == outcome:
        raise DagError("exposure and outcome must differ")
    forbidden = {exposure, outcome} | dag.descendants(exposure)
    candidates = [n for n in dag.observed_nodes if n not in forbidden]
    if len(candidates) > MAX_ADJUSTMENT_CANDIDATES:
        raise DagError(f"{len(candidates)} candidates for adjustment, more than {MAX_ADJUSTMENT_CANDIDATES}")
    a, b = dag._index[exposure], dag._index[outcome]
    parents, children = _backdoor_masks(dag, a)
    bit = {n: 1 << dag._index[n] for n in candidates}
    closed = {n: bit[n] | _reach(bit[n], parents) for n in candidates}
    valid = []
    for size in range(len(candidates) + 1):
        for subset in itertools.combinations(candidates, size):
            z = collider_open = 0
            for n in subset:
                z |= bit[n]
                collider_open |= closed[n]
            if _separated(parents, children, a, b, z, collider_open):
                valid.append(subset)
    return tuple(valid)


# ---------------------------------------------------------------------------
# Text format: one `edge FROM -> TO` per line, plus `latent NODE` and
# optional `node NODE` declarations; `#` starts a comment.


def parse_dag(text: str) -> CausalDag:
    nodes: list[str] = []
    edges: list[tuple[str, str]] = []
    latent: list[str] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "edge" and len(fields) == 4 and fields[2] == "->":
            nodes += fields[1], fields[3]
            edges.append((fields[1], fields[3]))
        elif fields[0] == "latent" and len(fields) == 2:
            nodes.append(fields[1])
            latent.append(fields[1])
        elif fields[0] == "node" and len(fields) == 2:
            nodes.append(fields[1])
        else:
            raise DagError(f"line {line_no}: cannot parse {raw!r}")
    return CausalDag(tuple(nodes), tuple(edges), frozenset(latent))


def load_fixture(name: str) -> CausalDag:
    """Load one of the bundled example graphs by file stem."""
    ref = resources.files("causalmed") / "fixtures" / f"{name}.dag"
    try:
        return parse_dag(ref.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InputError(f"no bundled graph named {name!r}") from None
