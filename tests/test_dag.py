import itertools

import numpy as np
import pytest

from causalmed.dag import (
    CausalDag,
    backdoor_paths,
    d_separated,
    format_dag,
    is_valid_adjustment,
    load_fixture,
    parse_dag,
    valid_adjustment_sets,
    validate,
)
from causalmed.errors import DagError

from oracles import backdoor_valid_brute_force, dsep_brute_force, path_is_open, random_dag


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
        validate(CausalDag((), ()))

    def test_joint_fixture_is_a_dag(self):
        dag = load_fixture("sgm_joint")
        validate(dag)
        assert set(dag.edges) == {
            ("H", "Q"),
            ("H", "X"),
            ("X", "Y"),
            ("Q", "M"),
            ("M", "Y"),
            ("Q", "Y"),
        }
        assert dag.latent == {"H"}

    def test_self_loop_rejected(self):
        with pytest.raises(DagError, match="self-loop"):
            validate(CausalDag(("A",), (("A", "A"),)))

    def test_undeclared_endpoint_rejected(self):
        with pytest.raises(DagError, match="not a declared node"):
            validate(CausalDag(("A",), (("A", "B"),)))


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
            a, b = rng.choice(nodes, size=2, replace=False)
            others = [n for n in nodes if n not in (a, b)]
            z = {str(n) for n in others[:1]}
            for report in backdoor_paths(dag, str(a), str(b), z):
                assert report.is_open == path_is_open(edges, list(report.path), z)


class TestTextFormat:
    def test_round_trip(self):
        dag = load_fixture("sgm_domains")
        again = parse_dag(format_dag(dag))
        assert set(again.edges) == set(dag.edges)
        assert again.latent == dag.latent
        assert set(again.nodes) == set(dag.nodes)

    def test_isolated_nodes_survive(self):
        dag = CausalDag(("A", "B", "C"), (("A", "B"),))
        again = parse_dag(format_dag(dag))
        assert set(again.nodes) == {"A", "B", "C"}

    def test_parse_error_reports_line(self):
        with pytest.raises(DagError, match="line 2"):
            parse_dag("edge A -> B\nedge A B\n")

    def test_comments_and_blank_lines(self):
        dag = parse_dag("# comment\n\nedge A -> B  # trailing\nlatent A\n")
        assert dag.edges == (("A", "B"),)
        assert dag.latent == {"A"}
