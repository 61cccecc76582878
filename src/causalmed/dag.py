"""Causal DAGs: backdoor paths, d-separation, and adjustment-set checks.

Graphs are immutable, small (tens of nodes) and checked once, when built;
queries are pure functions. One collider rule serves every query: given a
conditioning set z, a collider is open exactly when it is in z ∪ An(z), z
and its ancestors. ``d_separated``, the linear-time reachability algorithm
over active trails, is the one test that decides blocking: a set blocks
every backdoor path exactly when it d-separates exposure and outcome in the
backdoor graph, the graph without the exposure's out-edges.
``backdoor_paths`` enumerates simple paths explicitly only so that each one
can be reported with its open/blocked status, read from that same open set.
Every search walks an explicit stack, so a long path does not reach
Python's recursion limit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, Iterable, Sequence

from .errors import DagError, InputError


@dataclass(frozen=True)
class CausalDag:
    """Directed acyclic graph over named nodes with observability flags.

    Construction runs :func:`validate`, so every instance is a DAG whose edge
    endpoints and latent nodes are declared nodes. Parent and child sets are
    built once, with the graph.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    latent: frozenset[str] = frozenset()
    _parents: dict[str, frozenset[str]] = field(init=False, repr=False, compare=False)
    _children: dict[str, frozenset[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(dict.fromkeys(self.nodes)))
        object.__setattr__(self, "edges", tuple(dict.fromkeys(tuple(e) for e in self.edges)))
        object.__setattr__(self, "latent", frozenset(self.latent))
        parents: dict[str, set[str]] = {}
        children: dict[str, set[str]] = {}
        for u, v in self.edges:
            parents.setdefault(v, set()).add(u)
            children.setdefault(u, set()).add(v)
        object.__setattr__(self, "_parents", {n: frozenset(ps) for n, ps in parents.items()})
        object.__setattr__(self, "_children", {n: frozenset(cs) for n, cs in children.items()})
        validate(self)

    @property
    def observed_nodes(self) -> tuple[str, ...]:
        return tuple(n for n in self.nodes if n not in self.latent)

    def parents(self, node: str) -> frozenset[str]:
        return self._parents.get(node, frozenset())

    def children(self, node: str) -> frozenset[str]:
        return self._children.get(node, frozenset())

    def descendants(self, *nodes: str) -> set[str]:
        """Every node reached from ``nodes`` along edges; a node is in the set
        only when it is a descendant of another of them."""
        return _reach(nodes, self.children)

    def ancestors(self, *nodes: str) -> set[str]:
        """Every node with an edge path into ``nodes``; a node is in the set
        only when it is an ancestor of another of them."""
        return _reach(nodes, self.parents)

    def require(self, *names: str) -> None:
        for name in names:
            if name not in self.nodes:
                raise DagError(f"unknown node {name!r}")


def _reach(start: Iterable[str], step: Callable[[str], Iterable[str]]) -> set[str]:
    """Every node reached from ``start`` by one or more ``step`` moves."""
    out: set[str] = set()
    stack = list(start)
    while stack:
        for nxt in step(stack.pop()):
            if nxt not in out:
                out.add(nxt)
                stack.append(nxt)
    return out


def validate(dag: CausalDag) -> None:
    """Verify referential integrity and acyclicity.

    Raises DagError; a cycle is reported with its node sequence.
    """
    declared = set(dag.nodes)
    for u, v in dag.edges:
        if u == v:
            raise DagError(f"self-loop on {u!r}")
        for endpoint in (u, v):
            if endpoint not in declared:
                raise DagError(f"edge endpoint {endpoint!r} is not a declared node")
    for name in dag.latent:
        if name not in declared:
            raise DagError(f"latent declaration for unknown node {name!r}")
    cycle = _find_cycle(dag)
    if cycle is not None:
        raise DagError(f"graph has a cycle: {' -> '.join(cycle)}")


def _find_cycle(dag: CausalDag) -> list[str] | None:
    """The first cycle that a depth-first walk meets, from each node in
    declaration order and over children in sorted order, as its node
    sequence; None for an acyclic graph."""
    done: set[str] = set()
    for start in dag.nodes:
        if start in done:
            continue
        path, on_path, branches = [start], {start}, [iter(sorted(dag.children(start)))]
        while path:
            child = next(branches[-1], None)
            if child is None:
                done.add(path[-1])
                on_path.discard(path.pop())
                branches.pop()
            elif child in on_path:
                return path[path.index(child):]
            elif child not in done:
                path.append(child)
                on_path.add(child)
                branches.append(iter(sorted(dag.children(child))))
    return None


def d_separated(dag: CausalDag, a: str, b: str, conditioned: Iterable[str] = ()) -> bool:
    """True iff every path between a and b is blocked given the conditioning set."""
    z = frozenset(conditioned)
    dag.require(a, b, *z)
    if a == b:
        raise DagError("query nodes must differ")
    if a in z or b in z:
        raise DagError("query nodes cannot be in the conditioning set")
    # Reachability over active trails: a node is entered either from a parent
    # (moving "down") or from a child (moving "up"). A collider, entered
    # moving down, passes on to its parents exactly when it is in z ∪ An(z).
    collider_open = z | dag.ancestors(*z)
    UP, DOWN = 0, 1
    stack = [(a, UP)]
    seen = set()
    while stack:
        node, direction = stack.pop()
        if (node, direction) in seen:
            continue
        seen.add((node, direction))
        if node == b:
            return False
        if direction == UP and node not in z:
            for parent in dag.parents(node):
                stack.append((parent, UP))
            for child in dag.children(node):
                stack.append((child, DOWN))
        elif direction == DOWN:
            if node not in z:
                for child in dag.children(node):
                    stack.append((child, DOWN))
            if node in collider_open:
                for parent in dag.parents(node):
                    stack.append((parent, UP))
    return True


@dataclass(frozen=True)
class PathReport:
    """One exposure-outcome path and whether it is open under d-separation rules."""

    path: tuple[str, ...]
    is_open: bool


def _path_is_open(dag: CausalDag, path: Sequence[str], z: frozenset[str], collider_open: set[str]) -> bool:
    """A path is open given ``z`` unless a collider on it is outside
    ``collider_open``, which is z ∪ An(z), or another inner node is in ``z``."""
    for prev, node, nxt in zip(path, path[1:], path[2:]):
        if prev in dag.parents(node) and nxt in dag.parents(node):
            if node not in collider_open:
                return False
        elif node in z:
            return False
    return True


def _all_simple_paths(dag: CausalDag, a: str, b: str, first: list[str]):
    """Every simple path from ``a`` to ``b`` whose second node is in
    ``first``: depth-first, over ``first`` in its order and then over each
    node's neighbours in sorted order."""
    neighbors = {n: sorted(dag.parents(n) | dag.children(n)) for n in dag.nodes}
    path, on_path, branches = [a], {a}, [iter(first)]
    while branches:
        nxt = next(branches[-1], None)
        if nxt is None:
            on_path.discard(path.pop())
            branches.pop()
        elif nxt == b:
            yield [*path, b]
        elif nxt not in on_path:
            path.append(nxt)
            on_path.add(nxt)
            branches.append(iter(neighbors[nxt]))


def backdoor_paths(
    dag: CausalDag, exposure: str, outcome: str, conditioned: Iterable[str] = ()
) -> tuple[PathReport, ...]:
    """All simple paths from exposure to outcome that start with an edge into
    the exposure, each annotated open/blocked under the conditioning set."""
    z = frozenset(conditioned)
    dag.require(exposure, outcome, *z)
    if exposure == outcome:
        raise DagError("exposure and outcome must differ")
    collider_open = z | dag.ancestors(*z)
    return tuple(
        PathReport(tuple(path), _path_is_open(dag, path, z, collider_open))
        for path in _all_simple_paths(dag, exposure, outcome, sorted(dag.parents(exposure)))
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


def _backdoor_graph(dag: CausalDag, exposure: str) -> CausalDag:
    """The graph without the exposure's out-edges: exposure and outcome are
    d-separated in it by exactly the sets that block every backdoor path."""
    return CausalDag(dag.nodes, tuple(e for e in dag.edges if e[0] != exposure), dag.latent)


def is_valid_adjustment(
    dag: CausalDag, exposure: str, outcome: str, adjust: Iterable[str]
) -> AdjustmentReport:
    """Check a candidate adjustment set against the backdoor criterion.

    The set blocks every backdoor path iff it d-separates exposure and
    outcome in the backdoor graph; the open paths are enumerated only when
    it does not, to name them in the report.
    """
    z = frozenset(adjust)
    dag.require(exposure, outcome, *z)
    if exposure in z or outcome in z:
        raise DagError("adjustment set cannot contain the exposure or outcome")
    blocked = d_separated(_backdoor_graph(dag, exposure), exposure, outcome, z)
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
    the backdoor graph."""
    dag.require(exposure, outcome)
    forbidden = {exposure, outcome} | dag.descendants(exposure)
    candidates = [n for n in dag.observed_nodes if n not in forbidden]
    backdoor = _backdoor_graph(dag, exposure)
    return tuple(
        subset
        for size in range(len(candidates) + 1)
        for subset in itertools.combinations(candidates, size)
        if d_separated(backdoor, exposure, outcome, subset)
    )


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
