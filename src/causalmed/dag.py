"""Causal DAGs: backdoor paths, d-separation, and adjustment-set checks.

Graphs are immutable and small (tens of nodes); queries are pure functions.
``d_separated`` uses the linear-time reachability algorithm over active
trails, while ``backdoor_paths`` enumerates simple paths explicitly so each
one can be reported with its open/blocked status.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Sequence

from .errors import DagError, InputError


@dataclass(frozen=True)
class CausalDag:
    """Directed graph over named nodes with observability flags.

    Construction does not verify acyclicity; call :func:`validate` (or any
    query, which validates lazily) to enforce the DAG contract.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    latent: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(dict.fromkeys(self.nodes)))
        object.__setattr__(self, "edges", tuple(dict.fromkeys(tuple(e) for e in self.edges)))
        object.__setattr__(self, "latent", frozenset(self.latent))

    @property
    def observed_nodes(self) -> tuple[str, ...]:
        return tuple(n for n in self.nodes if n not in self.latent)

    def parents(self, node: str) -> set[str]:
        return {u for u, v in self.edges if v == node}

    def children(self, node: str) -> set[str]:
        return {v for u, v in self.edges if u == node}

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
    validate(dag)
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
    is_backdoor: bool
    is_open: bool
    blocked_by: tuple[str, ...]
    blocking_colliders: tuple[str, ...]

    def render(self) -> str:
        status = "open" if self.is_open else "blocked"
        return f"[{status}] {' - '.join(self.path)}"


def _annotate_path(dag: CausalDag, path: Sequence[str], z: frozenset[str]) -> PathReport:
    edge_set = set(dag.edges)
    blocked_by: list[str] = []
    blocking_colliders: list[str] = []
    for i in range(1, len(path) - 1):
        prev, node, nxt = path[i - 1], path[i], path[i + 1]
        is_collider = (prev, node) in edge_set and (nxt, node) in edge_set
        if is_collider:
            if node not in z and not (dag.descendants(node) & z):
                blocking_colliders.append(node)
        elif node in z:
            blocked_by.append(node)
    is_backdoor = (path[1], path[0]) in edge_set
    is_open = not blocked_by and not blocking_colliders
    return PathReport(tuple(path), is_backdoor, is_open, tuple(blocked_by), tuple(blocking_colliders))


def _all_simple_paths(dag: CausalDag, a: str, b: str):
    neighbors: dict[str, list[str]] = {n: [] for n in dag.nodes}
    for u, v in dag.edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    for n in neighbors:
        neighbors[n] = sorted(set(neighbors[n]))
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
    validate(dag)
    z = frozenset(conditioned)
    dag.require(exposure, outcome, *z)
    if exposure == outcome:
        raise DagError("exposure and outcome must differ")
    edge_set = set(dag.edges)
    reports = []
    for path in _all_simple_paths(dag, exposure, outcome):
        if (path[1], path[0]) not in edge_set:
            continue
        reports.append(_annotate_path(dag, path, z))
    return tuple(reports)


@dataclass(frozen=True)
class AdjustmentReport:
    """Verdict for a candidate adjustment set.

    ``valid`` means every backdoor path is blocked and no descendant of the
    exposure is conditioned; descendants are named in ``explanation``.
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


def is_valid_adjustment(
    dag: CausalDag, exposure: str, outcome: str, adjust: Iterable[str]
) -> AdjustmentReport:
    """Check a candidate adjustment set against the backdoor criterion."""
    validate(dag)
    z = frozenset(adjust)
    dag.require(exposure, outcome, *z)
    if exposure in z or outcome in z:
        raise DagError("adjustment set cannot contain the exposure or outcome")
    reports = backdoor_paths(dag, exposure, outcome, z)
    open_paths = tuple(r for r in reports if r.is_open)
    descendants = z & dag.descendants(exposure)
    mediators = tuple(sorted(descendants & dag.ancestors(outcome)))
    blocked = not open_paths
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
    return AdjustmentReport(
        valid=blocked and not descendants,
        backdoor_blocked=blocked,
        open_backdoor_paths=open_paths,
        mediators_conditioned=mediators,
        estimand=estimand,
        explanation="; ".join(parts),
    )


def valid_adjustment_sets(dag: CausalDag, exposure: str, outcome: str) -> tuple[tuple[str, ...], ...]:
    """Exhaustively search subsets of observed non-descendant nodes that
    block every backdoor path; smallest sets first."""
    validate(dag)
    dag.require(exposure, outcome)
    forbidden = {exposure, outcome} | dag.descendants(exposure)
    candidates = [n for n in dag.observed_nodes if n not in forbidden]
    found = []
    for size in range(len(candidates) + 1):
        for subset in itertools.combinations(candidates, size):
            report = is_valid_adjustment(dag, exposure, outcome, subset)
            if report.valid:
                found.append(subset)
    return tuple(found)


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
    dag = CausalDag(tuple(nodes), tuple(edges), frozenset(latent))
    validate(dag)
    return dag


def format_dag(dag: CausalDag) -> str:
    lines = [f"node {n}" for n in dag.nodes if n in _isolated(dag)]
    lines += [f"latent {n}" for n in dag.nodes if n in dag.latent]
    lines += [f"edge {u} -> {v}" for u, v in dag.edges]
    return "\n".join(lines) + "\n"


def _isolated(dag: CausalDag) -> set[str]:
    touched = {n for e in dag.edges for n in e}
    return set(dag.nodes) - touched


def load_dag(path) -> CausalDag:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dag(fh.read())


def load_fixture(name: str) -> CausalDag:
    """Load one of the bundled example graphs by file stem."""
    ref = resources.files("causalmed") / "fixtures" / f"{name}.dag"
    try:
        return parse_dag(ref.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InputError(f"no bundled graph named {name!r}") from None
