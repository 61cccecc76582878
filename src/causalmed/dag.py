"""Causal DAGs: backdoor paths, d-separation, and adjustment-set checks.

Graphs are immutable, small (tens of nodes) and checked once, when built;
queries are pure functions. ``d_separated``, the linear-time reachability
algorithm over active trails, is the one rule that decides blocking: a set
blocks every backdoor path exactly when it d-separates exposure and outcome
in the backdoor graph, the graph without the exposure's out-edges.
``backdoor_paths`` enumerates simple paths explicitly only so that each one
can be reported with its open/blocked status.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Sequence

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

    def descendants(self, node: str) -> set[str]:
        out: set[str] = set()
        stack = [node]
        while stack:
            for child in self.children(stack.pop()):
                if child not in out:
                    out.add(child)
                    stack.append(child)
        return out

    def ancestors(self, node: str) -> set[str]:
        out: set[str] = set()
        stack = [node]
        while stack:
            for parent in self.parents(stack.pop()):
                if parent not in out:
                    out.add(parent)
                    stack.append(parent)
        return out

    def require(self, *names: str) -> None:
        for name in names:
            if name not in self.nodes:
                raise DagError(f"unknown node {name!r}")


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
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in dag.nodes}
    parent: dict[str, str] = {}
    for start in dag.nodes:
        if color[start] != WHITE:
            continue
        stack = [(start, iter(sorted(dag.children(start))))]
        color[start] = GREY
        while stack:
            node, children = stack[-1]
            child = next(children, None)
            if child is None:
                color[node] = BLACK
                stack.pop()
                continue
            if color[child] == GREY:
                cycle = [child, node]
                cur = node
                while cur != child:
                    cur = parent[cur]
                    cycle.append(cur)
                cycle.reverse()
                return cycle[:-1]
            if color[child] == WHITE:
                color[child] = GREY
                parent[child] = node
                stack.append((child, iter(sorted(dag.children(child)))))
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
    # (moving "down") or from a child (moving "up"); colliders pass only when
    # they have a conditioned inclusive descendant.
    collider_open = set(z)
    for node in z:
        collider_open |= dag.ancestors(node)
    UP, DOWN = 0, 1
    queue = deque([(a, UP)])
    seen = set()
    while queue:
        node, direction = queue.popleft()
        if (node, direction) in seen:
            continue
        seen.add((node, direction))
        if node == b:
            return False
        if direction == UP and node not in z:
            for parent in dag.parents(node):
                queue.append((parent, UP))
            for child in dag.children(node):
                queue.append((child, DOWN))
        elif direction == DOWN:
            if node not in z:
                for child in dag.children(node):
                    queue.append((child, DOWN))
            if node in collider_open:
                for parent in dag.parents(node):
                    queue.append((parent, UP))
    return True


@dataclass(frozen=True)
class PathReport:
    """One exposure-outcome path annotated under d-separation rules."""

    path: tuple[str, ...]
    is_open: bool
    blocked_by: tuple[str, ...]
    blocking_colliders: tuple[str, ...]


def _annotate_path(dag: CausalDag, path: Sequence[str], z: frozenset[str]) -> PathReport:
    blocked_by: list[str] = []
    blocking_colliders: list[str] = []
    for i in range(1, len(path) - 1):
        prev, node, nxt = path[i - 1], path[i], path[i + 1]
        if prev in dag.parents(node) and nxt in dag.parents(node):
            if node not in z and not (dag.descendants(node) & z):
                blocking_colliders.append(node)
        elif node in z:
            blocked_by.append(node)
    is_open = not blocked_by and not blocking_colliders
    return PathReport(tuple(path), is_open, tuple(blocked_by), tuple(blocking_colliders))


def _all_simple_paths(dag: CausalDag, a: str, b: str):
    neighbors = {n: sorted(dag.parents(n) | dag.children(n)) for n in dag.nodes}
    path = [a]
    on_path = {a}

    def dfs():
        tail = path[-1]
        if tail == b:
            yield list(path)
            return
        for nxt in neighbors[tail]:
            if nxt not in on_path:
                path.append(nxt)
                on_path.add(nxt)
                yield from dfs()
                on_path.discard(nxt)
                path.pop()

    yield from dfs()


def backdoor_paths(
    dag: CausalDag, exposure: str, outcome: str, conditioned: Iterable[str] = ()
) -> tuple[PathReport, ...]:
    """All simple paths from exposure to outcome that start with an edge into
    the exposure, each annotated open/blocked under the conditioning set."""
    z = frozenset(conditioned)
    dag.require(exposure, outcome, *z)
    if exposure == outcome:
        raise DagError("exposure and outcome must differ")
    return tuple(
        _annotate_path(dag, path, z)
        for path in _all_simple_paths(dag, exposure, outcome)
        if path[1] in dag.parents(exposure)
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

    def note(name):
        if name not in nodes:
            nodes.append(name)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "edge" and len(fields) == 4 and fields[2] == "->":
            note(fields[1])
            note(fields[3])
            edges.append((fields[1], fields[3]))
        elif fields[0] == "latent" and len(fields) == 2:
            note(fields[1])
            latent.append(fields[1])
        elif fields[0] == "node" and len(fields) == 2:
            note(fields[1])
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
