import numpy as np
import pytest

from causalmed.errors import DataError, InputError, PositivityError
from causalmed.scm import (
    CptVariable,
    LogitVariable,
    ScmSpec,
    counterfactual_check,
    dataset_from_values,
    enumerate_joint,
    format_scm,
    load_fixture,
    oracle_estimands,
    parse_scm,
    replay,
    sample,
    sample_trace,
)

from generators import random_categorical_scm, random_mediation_scm
from oracles import enumerate_joint_brute


def fair(name, latent=False):
    return CptVariable(name, ("0", "1"), (), ((0.5, 0.5),), latent=latent)


def brute_force_joint(spec):
    """The joint from ``enumerate_joint_brute``: each variable's distribution
    is recomputed from its parameters for every configuration, with table
    rows indexed row-major by the parents' level counts."""

    def prob_fn(var):
        def fn(assignment):
            if isinstance(var, LogitVariable):
                eta = var.intercept + sum(
                    c * assignment[p] for c, p in zip(var.coefficients, var.parents)
                )
                p1 = 1.0 / (1.0 + np.exp(-eta))
                return (1.0 - p1, p1)
            row = 0
            for parent in var.parents:
                row = row * spec.variable(parent).n_levels + assignment[parent]
            return var.table[row]

        return fn

    return enumerate_joint_brute([(var.name, var.levels, prob_fn(var)) for var in spec.variables])


def assert_frequencies_match(spec, n, seed):
    """Sampled configuration frequencies within 4 SE of the exact joint."""
    joint = enumerate_joint(spec)
    trace = sample_trace(spec, n, seed)
    counts = np.zeros(joint.probs.shape)
    idx = tuple(trace.values[name] for name in spec.names)
    np.add.at(counts, idx, 1.0)
    freq = counts / n
    se = np.sqrt(joint.probs * (1 - joint.probs) / n)
    assert (np.abs(freq - joint.probs) <= 4 * se + 1e-12).all()


class TestEnumerate:
    def test_independent_fair_binaries(self):
        spec = ScmSpec((fair("A"), fair("B")))
        joint = enumerate_joint(spec)
        np.testing.assert_allclose(joint.probs, np.full((2, 2), 0.25))

    def test_deterministic_chain_has_zero_off_diagonal(self):
        copy = CptVariable("M", ("0", "1"), ("Q",), ((1.0, 0.0), (0.0, 1.0)))
        spec = ScmSpec((fair("Q"), copy))
        joint = enumerate_joint(spec)
        assert joint.probs[0, 1] == 0.0
        assert joint.probs[1, 0] == 0.0
        assert joint.probs[0, 0] == 0.5

    def test_five_variable_fixture_sums_to_one(self):
        spec = load_fixture("mediation_binary")
        joint = enumerate_joint(spec)
        assert joint.probs.shape == (2, 2, 2, 2, 2)
        assert joint.probs.size == 32
        assert abs(joint.probs.sum() - 1.0) < 1e-12

    def test_matches_brute_force_enumeration(self):
        spec = load_fixture("mediation_binary")
        joint = enumerate_joint(spec)
        names, brute = brute_force_joint(spec)
        assert names == list(spec.names)
        for config, p in brute.items():
            assert joint.probs[config] == pytest.approx(p, abs=1e-14)

    def test_categorical_models_match_brute_force_enumeration(self):
        # 3- and 4-level parents, parents listed out of declaration order,
        # and a logistic response on a categorical parent.
        rng = np.random.default_rng(41)
        for _ in range(5):
            spec = random_categorical_scm(rng)
            joint = enumerate_joint(spec)
            assert joint.probs.shape == (3, 4, 2, 3, 2)
            names, brute = brute_force_joint(spec)
            assert names == list(spec.names)
            for config, p in brute.items():
                assert joint.probs[config] == pytest.approx(p, abs=1e-14)

    def test_marginal_refuses_a_repeated_name(self):
        joint = enumerate_joint(ScmSpec((fair("A"), fair("B"))))
        with pytest.raises(InputError, match="names a variable twice"):
            joint.marginal("A", "A")

    def test_marginal_refuses_an_unknown_name(self):
        joint = enumerate_joint(ScmSpec((fair("A"), fair("B"))))
        with pytest.raises(InputError, match="unknown variable 'Z'"):
            joint.marginal("Z")

    def test_state_space_bound(self):
        kind = tuple(str(i) for i in range(101))
        vars_ = tuple(
            CptVariable(f"V{i}", kind, (), (tuple([1.0 / 101] * 101),)) for i in range(3)
        )
        with pytest.raises(DataError, match="state space"):
            enumerate_joint(ScmSpec(vars_))

    def test_cpt_row_must_sum_to_one(self):
        with pytest.raises(InputError, match="sums to"):
            CptVariable("A", ("0", "1"), (), ((0.6, 0.5),))

    @pytest.mark.parametrize("row", [(float("nan"), float("nan")), (float("inf"), 0.0), (0.5, float("nan"))])
    def test_cpt_non_finite_probability_rejected(self, row):
        with pytest.raises(InputError, match="variable 'A': non-finite probability"):
            CptVariable("A", ("0", "1"), (), (row,))

    @pytest.mark.parametrize(
        ("intercept", "coefficients"),
        [(float("nan"), ()), (float("-inf"), ()), (0.0, (float("nan"),)), (0.0, (float("inf"),))],
    )
    def test_logit_non_finite_parameter_rejected(self, intercept, coefficients):
        parents = ("P",) * len(coefficients)
        with pytest.raises(InputError, match="variable 'A': non-finite intercept or coefficient"):
            LogitVariable("A", parents, intercept, coefficients)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: CptVariable("A", ("0", "0"), table=((0.3, 0.7),)),
            lambda: CptVariable("A", ("a", "b", "a"), table=((0.2, 0.3, 0.5),)),
            lambda: LogitVariable("A", levels=("1", "1")),
        ],
        ids=["cpt-binary", "cpt-categorical", "logit"],
    )
    def test_repeated_level_rejected(self, make):
        with pytest.raises(InputError, match="variable 'A': duplicate levels"):
            make()

    def test_more_levels_than_stored_codes_rejected(self):
        # Replayed level codes are int16, so a variable holds 32,768 levels at most.
        levels = tuple(f"l{i}" for i in range(32_769))
        with pytest.raises(InputError, match="variable 'A': discrete kind has 32769 levels; at most 32768"):
            CptVariable("A", levels, table=((1.0,) + (0.0,) * 32_768,))


class TestRoles:
    def test_variable_in_two_roles_rejected(self):
        with pytest.raises(InputError, match="variable 'A' is named in the exposure and baseline roles"):
            ScmSpec((fair("A"), fair("B")), exposure="A", baseline="A", mediator="B")

    def test_role_naming_unknown_variable_rejected(self):
        with pytest.raises(InputError, match="outcome role names unknown variable 'C'"):
            ScmSpec((fair("A"),), outcome="C")


class TestOracleEstimands:
    def test_no_mediator_effect_means_zero_indirect(self):
        spec = ScmSpec(
            (
                fair("H", latent=True),
                LogitVariable("Q", ("H",), -0.8, (0.7,)),
                LogitVariable("X", ("H",), 0.1, (0.6,)),
                LogitVariable("M", ("Q", "X"), -0.2, (0.9, 0.4)),
                LogitVariable("Y", ("Q", "X", "M"), -1.0, (1.2, 0.5, 0.0)),
            ),
            exposure="Q",
            baseline="X",
            mediator="M",
            outcome="Y",
        )
        est = oracle_estimands(spec)
        np.testing.assert_allclose(est.indirect_rd, 0.0, atol=1e-15)
        np.testing.assert_allclose(est.direct_rd, est.total_rd, atol=1e-15)

    def test_pure_mediation_means_zero_direct(self):
        spec = ScmSpec(
            (
                fair("H", latent=True),
                LogitVariable("Q", ("H",), -0.8, (0.7,)),
                LogitVariable("X", ("H",), 0.1, (0.6,)),
                LogitVariable("M", ("Q", "X"), -0.2, (1.1, 0.4)),
                LogitVariable("Y", ("X", "M"), -1.0, (0.5, 0.9)),
            ),
            exposure="Q",
            baseline="X",
            mediator="M",
            outcome="Y",
        )
        est = oracle_estimands(spec)
        np.testing.assert_allclose(est.direct_rd, 0.0, atol=1e-15)
        assert np.abs(est.indirect_rd).max() > 0.005

    def test_decomposition_identity_on_random_specs(self):
        # Binary models, then models with a 3-level mediator and a 4-level
        # baseline.
        rng = np.random.default_rng(99)
        specs = [random_mediation_scm(rng) for _ in range(200)]
        specs += [random_categorical_scm(rng) for _ in range(30)]
        for spec in specs:
            est = oracle_estimands(spec)
            gap = np.abs(est.total_rd - (est.direct_rd + est.indirect_rd)).max()
            assert gap < 1e-12

    def test_linear_outcome_recovers_exposure_coefficient(self):
        # With E[Y|q,x] literally linear in (q, x), the baseline-standardized
        # contrast equals the q coefficient.
        b0, b1, b2 = 0.2, 0.25, 0.3
        rows = []
        for q in (0, 1):
            for x in (0, 1):
                p = b0 + b1 * q + b2 * x
                rows.append((1.0 - p, p))
        spec = ScmSpec(
            (
                fair("H", latent=True),
                LogitVariable("Q", ("H",), -0.5, (0.8,)),
                LogitVariable("X", ("H",), -0.1, (0.9,)),
                CptVariable("Y", ("0", "1"), ("Q", "X"), tuple(rows)),
            ),
            exposure="Q",
            baseline="X",
            mediator=None,
            outcome="Y",
        )
        # No mediator role: standardize directly from the joint.
        joint = enumerate_joint(spec)
        p_qx = joint.marginal("Q", "X")
        p_qxy = joint.marginal("Q", "X", "Y")
        e_y = p_qxy[..., 1] / p_qx
        p_x_given_q0 = p_qx[0] / p_qx[0].sum()
        contrast = float(np.dot(e_y[1], p_x_given_q0) - np.dot(e_y[0], p_x_given_q0))
        assert abs(contrast - b1) < 1e-10

    def test_positivity_violation_reported(self):
        never = CptVariable("Q", ("0", "1"), (), ((1.0, 0.0),))
        spec = ScmSpec(
            (never, fair("X"), fair("M"), fair("Y")),
            exposure="Q",
            baseline="X",
            mediator="M",
            outcome="Y",
        )
        with pytest.raises(PositivityError) as err:
            oracle_estimands(spec)
        assert "Q" in str(err.value)

    def test_mediator_level_the_exposed_never_reach_reported(self):
        # In stratum X=0, unexposed rows reach M=1 but exposed rows never do.
        m = CptVariable("M", ("0", "1"), ("Q", "X"), ((0.5, 0.5), (0.5, 0.5), (1.0, 0.0), (1.0, 0.0)))
        y = CptVariable("Y", ("0", "1"), ("M",), ((0.7, 0.3), (0.2, 0.8)))
        spec = ScmSpec((fair("Q"), fair("X"), m, y), exposure="Q", baseline="X", mediator="M", outcome="Y")
        with pytest.raises(PositivityError) as err:
            oracle_estimands(spec)
        assert err.value.cell == ("Q", 1, "M", 1, "X", "0")
        assert [type(v) for v in err.value.cell] == [str, int, str, int, str, str]

    def test_joint_without_a_role_variable_rejected(self):
        spec = load_fixture("mediation_binary")
        joint = enumerate_joint(ScmSpec((fair("Q"), fair("X"), fair("Y"))))
        with pytest.raises(InputError, match="unknown variable 'M'"):
            oracle_estimands(spec, joint)


class TestCounterfactualCheck:
    def test_unconfounded_model_matches_observational(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            report = counterfactual_check(random_mediation_scm(rng))
            assert report.max_abs_diff < 1e-12

    def test_latent_mediator_outcome_confounder_breaks_equality(self):
        rng = np.random.default_rng(32)
        hits = 0
        n = 60
        for _ in range(n):
            report = counterfactual_check(random_mediation_scm(rng, confounded=True))
            if report.max_abs_diff > 0.01:
                hits += 1
        assert hits >= 0.95 * n

    def test_categorical_model_matches_observational(self):
        # Y depends on the latent H, but M does not, so given (Q, X) nothing
        # latent confounds M and Y: every 3-level mediator cell agrees.
        rng = np.random.default_rng(33)
        for _ in range(5):
            report = counterfactual_check(random_categorical_scm(rng))
            assert len(report.cells) == 3 * 4
            assert report.max_abs_diff < 1e-12

    def test_outcome_ignoring_mediator_gives_constant_cells(self):
        spec = ScmSpec(
            (
                fair("H", latent=True),
                LogitVariable("Q", ("H",), -0.6, (0.8,)),
                LogitVariable("X", ("H",), 0.0, (0.5,)),
                LogitVariable("M", ("Q", "X"), 0.1, (0.7, -0.3)),
                LogitVariable("Y", ("Q", "X"), -0.9, (1.0, 0.4)),
            ),
            exposure="Q",
            baseline="X",
            mediator="M",
            outcome="Y",
        )
        report = counterfactual_check(spec)
        assert report.max_abs_diff < 1e-12
        by_x = {}
        for cell in report.cells:
            by_x.setdefault(cell.x_level, set()).add(round(cell.counterfactual, 14))
        for values in by_x.values():
            assert len(values) == 1


class TestSampling:
    def test_n_zero_rejected(self):
        with pytest.raises(InputError):
            sample(load_fixture("mediation_binary"), 0, 1)

    def test_negative_seed_rejected(self):
        spec = load_fixture("mediation_binary")
        for draw in (sample, sample_trace):
            with pytest.raises(InputError, match="seed must be non-negative, got -1"):
                draw(spec, 10, -1)

    def test_seed_determinism(self):
        spec = load_fixture("mediation_binary")
        assert sample(spec, 500, 7) == sample(spec, 500, 7)

    def test_latents_excluded_unless_requested(self):
        spec = load_fixture("mediation_binary")
        ds = sample(spec, 50, 3)
        assert "H" not in ds.names
        trace = sample_trace(spec, 50, 3)
        assert "H" not in dataset_from_values(spec, trace.values).names

    def test_frequencies_match_enumeration(self):
        assert_frequencies_match(load_fixture("mediation_binary"), 1_000_000, 2718)

    def test_categorical_frequencies_match_enumeration(self):
        spec = random_categorical_scm(np.random.default_rng(42))
        assert_frequencies_match(spec, 1_000_000, 2719)

    def test_consistency_forcing_factual_mediator_reproduces_outcome(self):
        spec = load_fixture("mediation_binary")
        trace = sample_trace(spec, 20_000, 11)
        replayed = replay(spec, trace.noise, {"M": trace.values["M"]})
        for name in spec.names:
            np.testing.assert_array_equal(replayed[name], trace.values[name])

    def test_forcing_mediator_changes_only_downstream(self):
        spec = load_fixture("mediation_binary")
        trace = sample_trace(spec, 5_000, 12)
        forced = replay(spec, trace.noise, {"M": np.ones(5_000, dtype=np.int16)})
        np.testing.assert_array_equal(forced["Q"], trace.values["Q"])
        np.testing.assert_array_equal(forced["X"], trace.values["X"])
        assert (forced["M"] == 1).all()

    @pytest.mark.parametrize(
        "interventions",
        [{"Mx": 1}, {"M": 2}, {"M": -1}, {"M": 0.5}, {"H": -1}, {"H": 2}],
        ids=["unknown-name", "M=2", "M=-1", "M=0.5", "H=-1", "H=2"],
    )
    def test_forcing_requires_known_variables_and_level_codes(self, interventions):
        spec = load_fixture("mediation_binary")
        trace = sample_trace(spec, 100, 13)
        with pytest.raises(InputError):
            replay(spec, trace.noise, interventions)

    @pytest.mark.parametrize(
        "forced, shape",
        [(np.ones(99, dtype=np.int16), r"\(99,\)"), (np.ones((1, 100), dtype=np.int16), r"\(1, 100\)")],
        ids=["short", "two-dimensional"],
    )
    def test_forcing_refuses_values_that_are_not_one_per_row(self, forced, shape):
        spec = load_fixture("mediation_binary")
        trace = sample_trace(spec, 100, 13)
        with pytest.raises(InputError, match=rf"forced values of 'M' have shape {shape}, not \(\) or \(100,\)"):
            replay(spec, trace.noise, {"M": forced})

    def test_forced_scalar_is_every_row_code(self):
        spec = load_fixture("mediation_binary")
        trace = sample_trace(spec, 100, 13)
        by_scalar = replay(spec, trace.noise, {"M": 1})
        by_rows = replay(spec, trace.noise, {"M": np.ones(100, dtype=np.int16)})
        for name in spec.names:
            np.testing.assert_array_equal(by_scalar[name], by_rows[name])
        assert by_scalar["M"].shape == (100,)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda noise: noise.pop("Y"), "no noise given for variable 'Y'"),
            (lambda noise: noise.update(Y=noise["Y"][:-1]), r"noise of 'Y' has shape \(99,\); expected \(100,\)"),
            (lambda noise: noise.update(M=noise["M"][None]), r"noise of 'M' has shape \(1, 100\); expected \(100,\)"),
        ],
        ids=["missing", "short", "two-dimensional"],
    )
    def test_replay_refuses_noise_that_does_not_cover_every_variable_and_row(self, edit, message):
        spec = load_fixture("mediation_binary")
        noise = dict(sample_trace(spec, 100, 14).noise)
        edit(noise)
        with pytest.raises(InputError, match=message):
            replay(spec, noise, {})


class TestTextFormat:
    def test_fixture_round_trip(self):
        spec = load_fixture("mediation_binary")
        again = parse_scm(format_scm(spec))
        assert again == spec

    def test_parse_error_reports_line(self):
        with pytest.raises(DataError, match="line 2"):
            parse_scm("var A : 0 1\n  bogus stuff\n")

    def test_categorical_round_trip(self):
        spec = random_categorical_scm(np.random.default_rng(43))
        assert parse_scm(format_scm(spec)) == spec

    def test_binary_logit_round_trip(self):
        # Half the models carry the latent mediator-outcome confounder U.
        rng = np.random.default_rng(44)
        for i in range(20):
            spec = random_mediation_scm(rng, confounded=i % 2 == 1)
            assert parse_scm(format_scm(spec)) == spec

    @pytest.mark.parametrize(
        "block",
        [
            "var B : 0 1 2\n  parents A\n  logit 0.1 0.2\n",
            "var B : 0 1\n  cpt | 0.6 0.5\n",
            "var A : 0 1\n  cpt | 0.5 0.5\n",
        ],
        ids=["logit-with-three-levels", "cpt-row-sums-to-1.1", "duplicate-name"],
    )
    def test_invalid_variable_reports_its_var_line(self, block):
        text = "var A : 0 1\n  cpt | 0.5 0.5\n" + block + "roles q=A\n"
        with pytest.raises(DataError, match="line 3: (duplicate )?variable '[AB]'"):
            parse_scm(text)

    def test_repeated_level_reports_its_var_line(self):
        # Both of B's parent configurations would be labelled `0`, so its
        # one row would fill both.
        text = "var A : 0 0\n  cpt | 0.3 0.7\nvar B : 0 1\n  parents A\n  cpt 0 | 0.2 0.8\n"
        with pytest.raises(DataError, match=r"^line 1: variable 'A': duplicate levels: \('0', '0'\)$"):
            parse_scm(text)

    @pytest.mark.parametrize("response", ["cpt | nan nan", "logit nan"])
    def test_non_finite_parameter_reports_its_var_line(self, response):
        text = "var B : 0 1\n  cpt | 0.5 0.5\nvar A : 0 1\n  " + response + "\n"
        with pytest.raises(DataError, match="line 3: variable 'A': non-finite"):
            parse_scm(text)

    def test_linear_directive_rejected(self):
        with pytest.raises(DataError, match="line 2: cannot parse"):
            parse_scm("var A : 0 1\n  linear 0.0 | 1.0\n")

    @pytest.mark.parametrize(
        "roles, message",
        [("roles q=B", "exposure role names unknown variable 'B'"), ("roles q=A q=A x=A", "role 'q' assigned twice")],
        ids=["unknown-variable", "key-given-twice"],
    )
    def test_bad_roles_line_reports_its_line(self, roles, message):
        with pytest.raises(DataError, match=f"line 3: {message}"):
            parse_scm("var A : 0 1\n  cpt | 0.5 0.5\n" + roles + "\n")

    @pytest.mark.parametrize(
        "block, message",
        [
            ("  cpt 0 | 0.5 0.5\n  logit 0.1 0.2\n", "a block gives `cpt` rows or one `logit` line, not both"),
            ("  logit 0.1 0.2\n  cpt 0 | 0.5 0.5\n", "a block gives `cpt` rows or one `logit` line, not both"),
            ("  logit 0.1 0.2\n  logit 0.3 0.4\n", "`logit` given twice in one block"),
            ("  cpt 0 | 0.5 0.5\n  cpt 0 | 0.4 0.6\n", "cpt row for parent levels '0' given twice"),
            ("  latent\n  latent\n  logit 0.1 0.2\n", "`latent` given twice in one block"),
            ("  logit 0.1 0.2\n  parents A\n", "`parents` given twice in one block"),
        ],
        ids=["logit-after-cpt", "cpt-after-logit", "second-logit", "repeated-cpt-row", "second-latent", "second-parents"],
    )
    def test_repeated_or_conflicting_directive_reports_its_line(self, block, message):
        # Lines 1-4 declare A and open B with `parents A`; the refused
        # directive is each block's line 6.
        text = "var A : 0 1\n  cpt | 0.5 0.5\nvar B : 0 1\n  parents A\n" + block
        with pytest.raises(DataError, match=f"^line 6: {message}$"):
            parse_scm(text)

    def test_second_roles_line_reports_its_line(self):
        text = "var A : 0 1\n  cpt | 0.5 0.5\nvar B : 0 1\n  cpt | 0.5 0.5\nroles q=A\nroles y=B\n"
        with pytest.raises(DataError, match="line 6: roles already given on line 5"):
            parse_scm(text)

    def test_variable_in_two_roles_reports_the_roles_line(self):
        text = "var A : 0 1\n  cpt | 0.5 0.5\nvar B : 0 1\n  cpt | 0.5 0.5\nroles q=A x=A m=B\n"
        with pytest.raises(DataError, match="line 5: variable 'A' is named in the exposure and baseline roles"):
            parse_scm(text)

    def test_missing_cpt_row_detected(self):
        text = "var A : 0 1\n  cpt | 0.5 0.5\nvar B : 0 1\n  parents A\n  cpt 0 | 0.5 0.5\n"
        with pytest.raises(DataError, match="cover every parent configuration"):
            parse_scm(text)

    def test_roles_parsed(self):
        spec = load_fixture("mediation_binary")
        assert (spec.exposure, spec.baseline, spec.mediator, spec.outcome) == ("Q", "X", "M", "Y")
