import graphlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import causalmed
from causalmed import dag as dag_module
from causalmed.dag import (
    CausalDag,
    PathReport,
    backdoor_paths,
    d_separated,
    is_valid_adjustment,
    load_fixture,
    parse_dag,
    valid_adjustment_sets,
)
from causalmed.errors import DagError

from oracles import _simple_paths, backdoor_valid_brute_force, dsep_brute_force, path_is_open, random_dag


def dag_of(edges, latent=()):
    nodes = list(dict.fromkeys([n for e in edges for n in e]))
    return CausalDag(tuple(nodes), tuple(edges), frozenset(latent))


class TestValidate:
    def test_cycle_reported_with_nodes(self):
        with pytest.raises(DagError) as err:
            CausalDag(("A", "B"), (("A", "B"), ("B", "A")))
        assert "A" in str(err.value) and "B" in str(err.value)

    def test_parse_rejects_cycle(self):
        with pytest.raises(DagError, match="cycle"):
            parse_dag("edge A -> B\nedge B -> C\nedge C -> A\n")

    def test_empty_graph_ok(self):
        assert CausalDag((), ()).nodes == ()

    def test_joint_fixture_is_a_dag(self):
        dag = load_fixture("sgm_joint")
        assert set(dag.edges) == {
            ("H", "Q"),
            ("H", "X"),
            ("X", "Y"),
            ("Q", "M"),
            ("M", "Y"),
            ("Q", "Y"),
        }
        assert dag.latent == {"H"}

    def test_reported_cycle_is_a_cycle_of_the_graph(self):
        rng = np.random.default_rng(77)
        n_cyclic = 0
        for _ in range(300):
            nodes, edges = random_dag(rng, max_nodes=7, edge_prob=0.4)
            for _ in range(int(rng.integers(1, 4))):
                u, v = rng.choice(nodes, size=2, replace=False)
                edges.append((str(u), str(v)))
            try:
                CausalDag(tuple(nodes), tuple(edges))
            except DagError as err:
                n_cyclic += 1
                cycle = str(err).removeprefix("graph has a cycle: ").split(" -> ")
                assert len(set(cycle)) == len(cycle) >= 2
                assert set(zip(cycle, cycle[1:] + cycle[:1])) <= set(edges)
        assert n_cyclic > 100

    def test_self_loop_rejected(self):
        with pytest.raises(DagError, match="self-loop"):
            CausalDag(("A",), (("A", "A"),))

    def test_undeclared_endpoint_rejected(self):
        with pytest.raises(DagError, match="not a declared node"):
            CausalDag(("A",), (("A", "B"),))

    def test_unknown_latent_rejected(self):
        with pytest.raises(DagError, match="latent declaration for unknown node 'B'"):
            CausalDag(("A",), (), frozenset({"B"}))

    def test_checks_keep_their_order(self):
        # Edge by edge, a self-loop or an undeclared endpoint; then an
        # unknown latent node; a cycle last.
        with pytest.raises(DagError, match="self-loop on 'B'"):
            CausalDag(("A", "B"), (("A", "B"), ("B", "A"), ("B", "B"), ("C", "D")), frozenset({"E"}))
        with pytest.raises(DagError, match="edge endpoint 'C'"):
            CausalDag(("A", "B"), (("A", "B"), ("B", "A"), ("C", "D"), ("B", "B")), frozenset({"E"}))
        with pytest.raises(DagError, match="latent declaration"):
            CausalDag(("A", "B"), (("A", "B"), ("B", "A")), frozenset({"E"}))

    def test_reported_cycle_does_not_depend_on_string_hashing(self):
        # Z, declared first, has parents A and B, each on a cycle of its
        # own. Parents are read in sorted order, so under every hash seed
        # the cycle through A is reported.
        code = (
            "from causalmed.dag import parse_dag\n"
            "from causalmed.errors import DagError\n"
            "try:\n"
            "    parse_dag('node Z\\nedge A -> Z\\nedge B -> Z\\nedge A -> C\\nedge C -> A\\n"
            "edge B -> D\\nedge D -> B\\n')\n"
            "except DagError as err:\n"
            "    print(err)\n"
        )
        src = str(Path(causalmed.__file__).resolve().parents[1])
        reported = {
            subprocess.run(
                [sys.executable, "-c", code],
                cwd=src,
                env={**os.environ, "PYTHONHASHSEED": str(seed)},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in range(6)
        }
        assert reported == {"graph has a cycle: A -> C\n"}


class TestBackdoorPaths:
    @pytest.mark.parametrize("fixture", ["sgm_domains", "sgm_domains_xm"])
    def test_domains_graph_open_paths(self, fixture):
        dag = load_fixture(fixture)
        reports = backdoor_paths(dag, "behavior", "Y")
        open_paths = {r.path for r in reports if r.is_open}
        assert ("behavior", "H", "attraction", "Y") in open_paths
        assert ("behavior", "H", "support_t0", "Y") in open_paths

    @pytest.mark.parametrize("fixture", ["sgm_domains", "sgm_domains_xm"])
    def test_domains_graph_blocked_by_attraction_and_baseline_support(self, fixture):
        dag = load_fixture(fixture)
        reports = backdoor_paths(dag, "behavior", "Y", {"attraction", "support_t0"})
        assert reports  # backdoor paths exist
        assert all(not r.is_open for r in reports)
        quoted = {("behavior", "H", "attraction", "Y"), ("behavior", "H", "support_t0", "Y")}
        listed = {r.path for r in reports}
        assert quoted <= listed

    def test_no_incoming_edge_means_no_backdoor(self):
        dag = dag_of([("E", "O")])
        assert backdoor_paths(dag, "E", "O") == ()

    def test_paths_are_simple_and_start_into_exposure(self):
        dag = load_fixture("sgm_domains")
        for report in backdoor_paths(dag, "behavior", "Y"):
            assert len(set(report.path)) == len(report.path)
            assert (report.path[1], report.path[0]) in set(dag.edges)

    def test_unknown_node(self):
        dag = dag_of([("E", "O")])
        with pytest.raises(DagError):
            backdoor_paths(dag, "E", "missing")

    def test_path_longer_than_the_recursion_limit(self):
        # X <- c0 -> c1 -> ... -> c1199 -> Y: one backdoor path through 1,202
        # nodes, deeper than Python's default recursion limit. V, a parent of
        # Y alone, leaves it open.
        chain = [f"c{i}" for i in range(1200)]
        dag = dag_of([("c0", "X"), *zip(chain, chain[1:]), (chain[-1], "Y"), ("X", "Y"), ("V", "Y")])
        path = ("X", *chain, "Y")
        assert backdoor_paths(dag, "X", "Y") == (PathReport(path, True),)
        assert backdoor_paths(dag, "X", "Y", {"c600"}) == (PathReport(path, False),)
        report = is_valid_adjustment(dag, "X", "Y", {"V"})
        assert not report.backdoor_blocked
        assert report.open_backdoor_paths == (PathReport(path, True),)


class TestAdjustment:
    @pytest.mark.parametrize("fixture", ["sgm_joint", "sgm_joint_xm"])
    def test_baseline_support_is_valid(self, fixture):
        dag = load_fixture(fixture)
        report = is_valid_adjustment(dag, "Q", "Y", {"X"})
        assert report.valid
        assert report.estimand == "total"
        assert not report.mediators_conditioned

    @pytest.mark.parametrize("fixture", ["sgm_joint", "sgm_joint_xm"])
    def test_mediator_conditioning_flagged_distinctly(self, fixture):
        dag = load_fixture(fixture)
        report = is_valid_adjustment(dag, "Q", "Y", {"X", "M"})
        assert report.backdoor_blocked
        assert report.mediators_conditioned == ("M",)
        assert report.estimand == "direct"
        assert not report.valid
        assert "direct-effect estimand" in report.explanation

    def test_conditioning_on_a_collider_descendant_is_invalid(self):
        # C is a common effect of X and Y: {U} blocks the only backdoor path,
        # but adding C opens X -> C <- Y and biases the total effect.
        dag = dag_of([("X", "Y"), ("X", "C"), ("Y", "C"), ("U", "X"), ("U", "Y")])
        report = is_valid_adjustment(dag, "X", "Y", {"U", "C"})
        assert report.backdoor_blocked
        assert not report.mediators_conditioned
        assert not report.valid
        assert "descendant of the exposure conditioned (C)" in report.explanation
        assert is_valid_adjustment(dag, "X", "Y", {"U"}).valid

    def test_empty_set_leaves_backdoor_open(self):
        dag = load_fixture("sgm_joint")
        report = is_valid_adjustment(dag, "Q", "Y", set())
        assert not report.backdoor_blocked
        assert any(r.path == ("Q", "H", "X", "Y") for r in report.open_backdoor_paths)

    def test_outcome_in_set_is_error(self):
        dag = load_fixture("sgm_joint")
        with pytest.raises(DagError):
            is_valid_adjustment(dag, "Q", "Y", {"Y"})

    def test_one_string_is_not_a_set_of_nodes(self):
        # "XM" names no node of the graph; it is not the set {X, M}.
        dag = load_fixture("sgm_joint")
        with pytest.raises(DagError, match="adjust must be a collection of node names"):
            is_valid_adjustment(dag, "Q", "Y", "XM")
        with pytest.raises(DagError, match="conditioned must be a collection of node names"):
            d_separated(dag, "Q", "Y", "XM")
        with pytest.raises(DagError, match="conditioned must be a collection of node names"):
            backdoor_paths(dag, "Q", "Y", "X")
        assert is_valid_adjustment(dag, "Q", "Y", ("X",)).valid

    def test_search_refuses_exposure_as_outcome(self):
        dag = load_fixture("sgm_joint")
        with pytest.raises(DagError, match="exposure and outcome must differ"):
            valid_adjustment_sets(dag, "Q", "Q")
        with pytest.raises(DagError):
            is_valid_adjustment(dag, "Q", "Q", ())

    def test_exhaustive_search_finds_minimal_sets(self):
        dag = load_fixture("sgm_joint")
        sets = valid_adjustment_sets(dag, "Q", "Y")
        assert sets[0] == ("X",)
        # H is latent so it never appears even though it would block the path.
        assert all("H" not in s for s in sets)

    def test_latent_node_is_not_adjustable(self):
        dag = load_fixture("sgm_joint")
        report = is_valid_adjustment(dag, "Q", "Y", {"H"})
        assert report.backdoor_blocked
        assert not report.valid
        assert "latent node adjusted for (H)" in report.explanation

    def test_backdoor_graph_is_cut_without_a_second_check(self, monkeypatch):
        # The cut masks equal those of the graph built from the cut edges,
        # the checked graph keeps its edges, and the adjustment queries run
        # no cycle check: a subgraph of a DAG is a DAG.
        dag = load_fixture("sgm_joint")
        cut = dag_module._backdoor_masks(dag, dag._index["Q"])
        rebuilt = CausalDag(dag.nodes, tuple(e for e in dag.edges if e[0] != "Q"), dag.latent)
        assert rebuilt._index == dag._index
        assert cut == (rebuilt._parent_masks, rebuilt._child_masks)
        assert cut != (dag._parent_masks, dag._child_masks)
        assert dag.descendants("Q") == {"M", "Y"} and dag.ancestors("Y") == {"H", "Q", "X", "M"}
        checks = []
        prepare = graphlib.TopologicalSorter.prepare
        monkeypatch.setattr(graphlib.TopologicalSorter, "prepare", lambda self: checks.append(1) or prepare(self))
        is_valid_adjustment(dag, "Q", "Y", {"X"})
        valid_adjustment_sets(dag, "Q", "Y")
        assert checks == []
        CausalDag(dag.nodes, dag.edges, dag.latent)
        assert checks == [1]

    def test_search_refuses_more_candidates_than_its_bound(self):
        # 21 free observed nodes: 2**21 subsets, refused before any is tested.
        free = tuple(f"C{i}" for i in range(21))
        dag = CausalDag(("Q", "Y", *free), (("Q", "Y"),))
        with pytest.raises(DagError, match="21 candidates for adjustment"):
            valid_adjustment_sets(dag, "Q", "Y")
        assert dag_module.MAX_ADJUSTMENT_CANDIDATES == 20

    def test_single_rule_matches_path_enumeration_on_random_dags(self):
        rng = np.random.default_rng(405)
        for _ in range(120):
            nodes, edges = random_dag(rng, max_nodes=7, edge_prob=0.45)
            exposure, outcome = (str(n) for n in rng.choice(nodes, size=2, replace=False))
            others = [n for n in nodes if n not in (exposure, outcome)]
            latent = {n for n in others if rng.random() < 0.25}
            dag = CausalDag(tuple(nodes), tuple(edges), frozenset(latent))
            expected_sets = []
            for size in range(len(others) + 1):
                for subset in itertools.combinations(others, size):
                    valid, blocked, open_paths = backdoor_valid_brute_force(
                        nodes, edges, exposure, outcome, subset, latent
                    )
                    report = is_valid_adjustment(dag, exposure, outcome, subset)
                    assert report.valid == valid
                    assert report.backdoor_blocked == blocked
                    assert {r.path for r in report.open_backdoor_paths} == open_paths
                    if valid:
                        expected_sets.append(subset)
            assert valid_adjustment_sets(dag, exposure, outcome) == tuple(expected_sets)

    def test_search_matches_the_checked_subsets_at_benchmark_size(self):
        # On 12-14 nodes with latent ones, the size of the benchmark's random
        # DAGs: the search lists exactly the subsets of the candidates that
        # is_valid_adjustment calls valid, in combinations order.
        rng = np.random.default_rng(1214)
        n_sets = 0
        for _ in range(8):
            nodes, edges = random_dag(rng, max_nodes=14, edge_prob=0.3, min_nodes=12)
            exposure, outcome = (str(n) for n in rng.choice(nodes, size=2, replace=False))
            others = [n for n in nodes if n not in (exposure, outcome)]
            latent = {n for n in others if rng.random() < 0.2}
            dag = CausalDag(tuple(nodes), tuple(edges), frozenset(latent))
            forbidden = dag.descendants(exposure)
            candidates = [n for n in others if n not in latent | forbidden]
            expected = tuple(
                subset
                for size in range(len(candidates) + 1)
                for subset in itertools.combinations(candidates, size)
                if is_valid_adjustment(dag, exposure, outcome, subset).valid
            )
            assert valid_adjustment_sets(dag, exposure, outcome) == expected
            n_sets += len(expected)
        assert n_sets > 100


class TestDSeparation:
    def test_chain_blocked_by_middle(self):
        dag = dag_of([("A", "B"), ("B", "C")])
        assert not d_separated(dag, "A", "C")
        assert d_separated(dag, "A", "C", {"B"})

    def test_collider_rule(self):
        dag = dag_of([("A", "C"), ("B", "C")])
        assert d_separated(dag, "A", "B")
        assert not d_separated(dag, "A", "B", {"C"})

    def test_collider_descendant_opens(self):
        dag = dag_of([("A", "C"), ("B", "C"), ("C", "D")])
        assert d_separated(dag, "A", "B")
        assert not d_separated(dag, "A", "B", {"D"})

    def test_conditioning_is_not_monotone(self):
        # Conditioning on more nodes can open paths: the collider
        # counterexample, asserted explicitly.
        dag = dag_of([("A", "C"), ("B", "C")])
        assert d_separated(dag, "A", "B", set())
        assert not d_separated(dag, "A", "B", {"C"})

    def test_query_validation(self):
        dag = dag_of([("A", "B")])
        with pytest.raises(DagError):
            d_separated(dag, "A", "A")
        with pytest.raises(DagError):
            d_separated(dag, "A", "B", {"A"})

    def test_ancestors_and_descendants_refuse_an_unknown_node(self):
        dag = dag_of([("A", "B")])
        with pytest.raises(DagError, match="unknown node 'C'"):
            dag.ancestors("C")
        with pytest.raises(DagError, match="unknown node 'C'"):
            dag.descendants("A", "C")

    def test_matches_brute_force_wider_than_a_machine_word(self):
        # 80 nodes, so most masks need more than 64 bits: a random tree, each
        # node below a random earlier one, plus a few extra forward edges,
        # which keeps the simple paths few enough to enumerate.
        rng = np.random.default_rng(6480)
        nodes = [f"n{i}" for i in range(80)]
        edges = {(nodes[int(rng.integers(0, i))], nodes[i]) for i in range(1, 80)}
        while len(edges) < 85:
            i, j = sorted(int(k) for k in rng.choice(80, size=2, replace=False))
            edges.add((nodes[i], nodes[j]))
        edges = sorted(edges)
        dag = CausalDag(tuple(nodes), tuple(edges))
        verdicts = []
        for _ in range(150):
            a, b = (int(k) for k in rng.choice(range(40, 80), size=2, replace=False))
            others = [n for n in nodes if n not in (nodes[a], nodes[b])]
            z = {str(n) for n in rng.choice(others, size=int(rng.integers(0, 6)), replace=False)}
            expected = dsep_brute_force(nodes, edges, nodes[a], nodes[b], z)
            assert d_separated(dag, nodes[a], nodes[b], z) == expected
            verdicts.append(expected)
        assert 10 < sum(verdicts) < 140

    def test_matches_brute_force_on_random_dags(self):
        rng = np.random.default_rng(2024)
        for _ in range(150):
            nodes, edges = random_dag(rng)
            dag = CausalDag(tuple(nodes), tuple(edges))
            a, b = rng.choice(nodes, size=2, replace=False)
            others = [n for n in nodes if n not in (a, b)]
            k = int(rng.integers(0, len(others) + 1))
            z = set(rng.choice(others, size=k, replace=False)) if k else set()
            expected = dsep_brute_force(nodes, edges, a, b, z)
            assert d_separated(dag, str(a), str(b), {str(n) for n in z}) == expected

    def test_path_annotation_matches_oracle(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            nodes, edges = random_dag(rng, max_nodes=6, edge_prob=0.5)
            dag = CausalDag(tuple(nodes), tuple(edges))
            a, b = (str(n) for n in rng.choice(nodes, size=2, replace=False))
            edge_set = set(edges)
            into_a = [p for p in _simple_paths(nodes, edges, a, b) if (p[1], a) in edge_set]
            others = [n for n in nodes if n not in (a, b)]
            for size in range(len(others) + 1):
                for z in itertools.combinations(others, size):
                    expected = tuple(PathReport(tuple(p), path_is_open(edges, p, z)) for p in into_a)
                    assert backdoor_paths(dag, a, b, z) == expected


class TestTextFormat:
    def test_node_and_latent_lines(self):
        dag = parse_dag("node C\nlatent U\nedge U -> A\nedge A -> B\n")
        assert dag.nodes == ("C", "U", "A", "B")
        assert dag.edges == (("U", "A"), ("A", "B"))
        assert dag.latent == {"U"}

    def test_parse_error_reports_line(self):
        with pytest.raises(DagError, match="line 2"):
            parse_dag("edge A -> B\nedge A B\n")

    def test_comments_and_blank_lines(self):
        dag = parse_dag("# comment\n\nedge A -> B  # trailing\nlatent A\n")
        assert dag.edges == (("A", "B"),)
        assert dag.latent == {"A"}
