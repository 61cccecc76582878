import math
import tracemalloc
import weakref

import numpy as np
import pytest

from causalmed import glm, mediation
from causalmed.adjustment import fit_propensity, ipw_weights
from causalmed.data import Binary, Column, Continuous, Dataset, VariableRoles, row_patterns
from causalmed.errors import BootstrapError, ConvergenceError, InputError, RankDeficiencyError, SeparationError
from causalmed.glm import (
    ModelSpec,
    build_design,
    expit,
    fit_logistic,
    interaction,
    main,
    response_vector,
)
from causalmed.mediation import (
    PS_COLUMN,
    VARIANTS,
    EffectEstimate,
    EffectTriple,
    VariantEstimator,
    bootstrap_ci,
    combine,
    direct_effect,
    effect_triple,
    total_effect,
)

from oracles import as_pattern_design, design_by_stacking


def binary_col(codes):
    return Column(Binary(), np.asarray(codes, dtype=np.int16), np.zeros(len(codes), dtype=np.uint8))


def sim_dataset(rng, n, *, bq=0.8, bx=0.5, bm=0.0, m_on_q=0.8, confound=0.8, weight=False):
    """Binary q/x/m/y rows from a logistic data-generating process."""
    x = rng.integers(0, 2, n)
    q = (rng.random(n) < expit(-1.0 + confound * x)).astype(np.int16)
    m = (rng.random(n) < expit(-0.2 + m_on_q * q + 0.3 * x)).astype(np.int16)
    y = (rng.random(n) < expit(-1.2 + bq * q + bx * x + bm * m)).astype(np.int16)
    cols = {
        "q": binary_col(q),
        "y": binary_col(y),
        "x": binary_col(x),
        "m": binary_col(m),
    }
    if weight:
        w = rng.uniform(0.5, 2.0, n)
        cols["w"] = Column(Continuous(), w, np.zeros(n, dtype=np.uint8))
        return Dataset(cols, weight_column="w")
    return Dataset(cols)


#: The fit failures that count a bootstrap replicate as failed.
FIT_FAILURES = (RankDeficiencyError, SeparationError, ConvergenceError)

ROLES = VariableRoles(exposure="q", outcome="y", baseline_support="x", mediators=("m",))
AGE_ROLES = VariableRoles(exposure="q", outcome="y", baseline_support="x", mediators=("m",), covariates=("age",))


def with_age(ds, rng):
    """``ds`` plus a continuous covariate ``age``, uniform on [18, 80), so
    its rows do not collapse into patterns."""
    age = Column(Continuous(), rng.uniform(18.0, 80.0, ds.n_rows), np.zeros(ds.n_rows, dtype=np.uint8))
    return Dataset({**ds.columns, "age": age}, weight_column=ds.weight_column)


def age_dataset_and_shift(rng):
    """2000 weighted rows with ``age``, and the same rows with 1e4 added to age."""
    ds = with_age(sim_dataset(rng, 2_000, bm=0.3, weight=True), rng)
    age = ds["age"]
    return ds, ds.replace_columns({"age": Column(Continuous(), age.values + 1e4, age.state)})


def indirect_log_or(fits, contrasts):
    """Total minus direct exposure effect of a (total, direct) fit pair,
    each read through its contrast."""
    (total, direct), (g_total, g_direct) = fits, contrasts
    return g_total @ total.beta - g_direct @ direct.beta


def effects_under(est, weights):
    """``est``'s fits under ``weights`` and the contrasts that read their effects."""
    return tuple(zip(*est(weights)))


def estimate(kind, log_or, variant="primary", ci=None, n=100):
    return EffectEstimate(kind, log_or, ci, variant, n)


class TestCombine:
    def test_reported_table_arithmetic(self):
        indirect = combine(estimate("total", math.log(3.3)), estimate("direct", math.log(3.1)))
        assert 1.05 <= indirect.odds_ratio <= 1.08
        assert indirect.odds_ratio == pytest.approx(3.3 / 3.1, rel=1e-12)

    def test_total_equals_direct_gives_unit_or(self):
        indirect = combine(estimate("total", 0.7), estimate("direct", 0.7))
        assert indirect.odds_ratio == pytest.approx(1.0, abs=1e-15)

    def test_abstract_consistency(self):
        # direct 3.07 times indirect 1.07 lands at the reported total 3.3.
        total = math.exp(math.log(3.07) + math.log(1.07))
        assert total == pytest.approx(3.28, abs=0.01)
        indirect = combine(estimate("total", math.log(total)), estimate("direct", math.log(3.07)))
        assert indirect.odds_ratio == pytest.approx(1.07, rel=1e-12)

    def test_decomposition_identity_exact(self):
        total = estimate("total", 1.19386039351)
        direct = estimate("direct", 1.13140211479)
        indirect = combine(total, direct)
        assert indirect.log_or == total.log_or - direct.log_or
        triple = EffectTriple(total, direct, indirect, seed=0, bootstrap_reps=0)
        assert triple.bootstrap_failed == 0

    def test_variant_mismatch_rejected(self):
        with pytest.raises(InputError, match="variant mismatch"):
            combine(estimate("total", 1.0, "primary"), estimate("direct", 0.9, "simple"))

    def test_sample_mismatch_rejected(self):
        with pytest.raises(InputError, match="different samples"):
            combine(estimate("total", 1.0, n=100), estimate("direct", 0.9, n=99))

    def test_kind_check(self):
        with pytest.raises(InputError):
            combine(estimate("direct", 1.0), estimate("direct", 0.9))


class TestEffects:
    def test_constant_exposure_is_rank_deficient(self):
        rng = np.random.default_rng(1)
        ds = sim_dataset(rng, 200)
        ds = ds.replace_columns({"q": binary_col(np.ones(200, dtype=np.int16))})
        with pytest.raises(RankDeficiencyError):
            total_effect(ds, ROLES, "simple")

    def test_direct_close_to_total_when_mediator_has_no_effect(self):
        rng = np.random.default_rng(7)
        ds = sim_dataset(rng, 60_000, bm=0.0)
        fits = effects_under(VariantEstimator(ds, ROLES, "simple"), ds.weights())
        total, direct = fits[0]
        se = math.hypot(*(math.sqrt(fit.cov_sandwich[1, 1]) for fit in (total, direct)))
        assert abs(indirect_log_or(*fits)) < 3 * se

    def test_primary_equals_simple_on_additive_saturated_design(self):
        # Cell odds chosen so the exposure-covariate interaction is exactly
        # zero: the primary and simple exposure coefficients coincide.
        rows = [
            (0, 0, 0, 45.0),
            (0, 0, 1, 15.0),
            (0, 1, 0, 40.0),
            (0, 1, 1, 20.0),
            (1, 0, 0, 30.0),
            (1, 0, 1, 30.0),
            (1, 1, 0, 24.0),
            (1, 1, 1, 36.0),
        ]
        q, x, y, w = (np.array(col) for col in zip(*rows))
        ds = Dataset(
            {
                "q": binary_col(q),
                "x": binary_col(x),
                "y": binary_col(y),
                "w": Column(Continuous(), w, np.zeros(len(w), dtype=np.uint8)),
            },
            weight_column="w",
        )
        roles = VariableRoles(exposure="q", outcome="y", baseline_support="x")
        primary = total_effect(ds, roles, "primary")
        simple = total_effect(ds, roles, "simple")
        assert abs(primary.log_or - simple.log_or) < 1e-6
        assert primary.log_or == pytest.approx(math.log(3.0), abs=1e-6)

    def test_indirect_near_zero_when_mediator_independent_of_exposure(self):
        # Mediator driven by the covariate only; its outcome effect is
        # nonzero, so this also exercises the non-collapsibility gap staying
        # inside the Monte Carlo noise at n = 100k.
        rng = np.random.default_rng(12)
        ds = sim_dataset(rng, 100_000, bq=0.7, bm=0.3, m_on_q=0.0)
        interval = bootstrap_ci(ds, ROLES, "simple", 100, seed=5)
        fits = effects_under(VariantEstimator(ds, ROLES, "simple"), ds.weights())
        assert abs(indirect_log_or(*fits)) < 3 * interval.se

    def test_triple_decomposition_and_cis(self):
        rng = np.random.default_rng(3)
        ds = sim_dataset(rng, 2_000, bm=-0.4, weight=True)
        triple = effect_triple(ds, ROLES, "primary", bootstrap_reps=100, seed=9)
        assert triple.indirect.log_or == pytest.approx(
            triple.total.log_or - triple.direct.log_or, abs=1e-15
        )
        for est in (triple.total, triple.direct, triple.indirect):
            lo, hi = est.ci_or
            assert lo <= est.odds_ratio <= hi or est.kind == "indirect"
        obj = triple.to_json_obj()
        assert obj["total"]["or"] == pytest.approx(math.exp(triple.total.log_or))

    def test_mediator_required_for_direct(self):
        rng = np.random.default_rng(2)
        ds = sim_dataset(rng, 300)
        roles = VariableRoles(exposure="q", outcome="y", baseline_support="x")
        with pytest.raises(InputError, match="mediator"):
            direct_effect(ds, roles, "simple")

    def test_unknown_variant(self):
        rng = np.random.default_rng(2)
        ds = sim_dataset(rng, 300)
        with pytest.raises(InputError, match="unknown variant"):
            total_effect(ds, ROLES, "weird")

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_estimator_without_an_outcome_model_is_refused(self, variant):
        # With no outcome model asked for, the ps/ipw variants would hand
        # back their propensity fit, named ('(Intercept)', 'x'), as one.
        ds = sim_dataset(np.random.default_rng(2), 300)
        with pytest.raises(InputError, match="include_mediators"):
            VariantEstimator(ds, ROLES, variant, include_mediators=())

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_total_effect_ignores_a_covariate_shift(self, variant):
        # Every model centers its covariates, which takes any constant shift
        # out of them, so adding 1e4 to age moves the at-means effect and its
        # interval by rounding only, and no fit is misread as separated.
        ds = age_dataset_and_shift(np.random.default_rng(17))
        want, got = (total_effect(d, AGE_ROLES, variant) for d in ds)
        assert rel_close(got.log_or, want.log_or)
        assert all(rel_close(a, b) for a, b in zip(got.ci_or, want.ci_or))

    def test_propensity_scores_ignore_a_covariate_shift(self):
        want, got = (fit_propensity(d, AGE_ROLES).scores for d in age_dataset_and_shift(np.random.default_rng(17)))
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_effects_do_not_depend_on_the_weight_scale(self, variant):
        # Survey weights near 2**16 on 30,000 rows: the rounding error of
        # the score alone then exceeds an absolute stop rule. The weights
        # are scaled by a power of two before every fit, so these give the
        # effects and intervals of the unscaled weights bit for bit.
        ds = sim_dataset(np.random.default_rng(37), 30_000, bm=0.3, weight=True)
        w = ds["w"]
        big = ds.replace_columns({"w": Column(Continuous(), w.values * 2.0**16, w.state)})
        assert total_effect(big, ROLES, variant) == total_effect(ds, ROLES, variant)
        assert direct_effect(big, ROLES, variant) == direct_effect(ds, ROLES, variant)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_all_zero_weights_rejected(self, variant):
        rng = np.random.default_rng(4)
        ds = sim_dataset(rng, 40)
        zero = Column(Continuous(), np.zeros(40), np.zeros(40, dtype=np.uint8))
        ds = Dataset({**ds.columns, "w": zero}, weight_column="w")
        with pytest.raises(InputError, match="weights must not all be zero"):
            total_effect(ds, ROLES, variant)


def replicate_effects(monkeypatch, stat):
    """Replace every bootstrap replicate's fits by the effects (total,
    direct) = (stat(i), 0) of replicate i, counting the replicates in the
    order they are fitted. Returns the list of the fitted blocks' weight
    arrays, which grows as blocks are fitted."""
    blocks = []

    def coefs(self, W):
        start = sum(len(block) for block in blocks)
        blocks.append(W)
        effects = np.zeros((len(W), 2))
        effects[:, 0] = [stat(i) for i in range(start, start + len(W))]
        return effects, np.ones(len(W), dtype=bool)

    monkeypatch.setattr(VariantEstimator, "coefs", coefs)
    return blocks


class TestBootstrap:
    def test_constant_statistic_gives_zero_width(self, monkeypatch):
        ds = sim_dataset(np.random.default_rng(4), 50)
        replicate_effects(monkeypatch, lambda i: 0.5)
        interval = bootstrap_ci(ds, ROLES, "simple", 200, 4)
        assert interval.n_failed == 0
        assert interval.lo == interval.hi == pytest.approx(math.exp(0.5))
        assert interval.se == 0.0

    def test_seed_determinism_bit_identical(self):
        rng = np.random.default_rng(21)
        ds = sim_dataset(rng, 400, bm=0.3)
        a = bootstrap_ci(ds, ROLES, "simple", 120, seed=77)
        b = bootstrap_ci(ds, ROLES, "simple", 120, seed=77)
        assert (a.lo, a.hi) == (b.lo, b.hi)
        c = bootstrap_ci(ds, ROLES, "simple", 120, seed=78)
        assert (a.lo, a.hi) != (c.lo, c.hi)

    def test_replicate_is_count_vector_of_seeded_draw(self, monkeypatch):
        rng = np.random.default_rng(11)
        ds = sim_dataset(rng, 30, weight=True)
        weights = ds.weights()
        # Each row its own pattern gives the per-row weights exactly.
        per_row = mediation._replicate_weights(weights, np.arange(30), 30, range(11, 111))
        first, pattern = row_patterns([ds[c] for c in ROLES.all_columns()], 30)
        per_pattern = mediation._replicate_weights(weights, pattern, first.size, range(11, 111))
        for i in range(100):
            idx = np.random.default_rng(11 + i).integers(0, 30, 30)
            np.testing.assert_array_equal(per_row[i], weights * np.bincount(idx, minlength=30))
            np.testing.assert_array_equal(per_pattern[i], np.bincount(pattern, per_row[i], first.size))
        # With a continuous role each row is its own pattern, so 7 * 30
        # cells give blocks of 7 replicates, fitted in order on the weights
        # of the rows they drew.
        ds = with_age(ds, rng)
        monkeypatch.setattr(mediation, "BLOCK_CELLS", 7 * 30)
        blocks = replicate_effects(monkeypatch, lambda i: 0.5)
        bootstrap_ci(ds, AGE_ROLES, "simple", 100, 11)
        assert [len(W) for W in blocks] == [7] * 14 + [2]
        np.testing.assert_allclose(np.concatenate([W.sum(axis=1) for W in blocks]), per_row.sum(axis=1), rtol=1e-14)

    def test_triple_reports_failed_replicates(self):
        ds = sim_dataset(np.random.default_rng(4), 50, bm=0.3)
        triple = effect_triple(ds, ROLES, "primary", bootstrap_reps=100, seed=4)
        interval = bootstrap_ci(ds, ROLES, "primary", 100, seed=4)
        assert triple.bootstrap_failed == interval.n_failed > 0
        assert triple.to_json_obj()["bootstrap_failed"] == interval.n_failed

    def test_failed_replicates_counted_and_bounded(self, monkeypatch):
        # A replicate whose fit failed has NaN effects.
        ds = sim_dataset(np.random.default_rng(1), 50)
        replicate_effects(monkeypatch, lambda i: math.nan if i < 8 else 0.5)
        assert bootstrap_ci(ds, ROLES, "simple", 100, 1).n_failed == 8
        replicate_effects(monkeypatch, lambda i: math.nan if i < 15 else 0.5)
        with pytest.raises(BootstrapError, match="15 of 100"):
            bootstrap_ci(ds, ROLES, "simple", 100, 1)

    def test_minimum_replicates(self):
        ds = sim_dataset(np.random.default_rng(1), 50)
        with pytest.raises(InputError, match="100"):
            bootstrap_ci(ds, ROLES, "simple", 99, 1)

    def test_negative_seed_rejected(self, monkeypatch):
        ds = sim_dataset(np.random.default_rng(23), 200)
        blocks = replicate_effects(monkeypatch, lambda i: 0.5)
        with pytest.raises(InputError, match="non-negative"):
            bootstrap_ci(ds, ROLES, "simple", 100, seed=-1)
        assert blocks == []


def take_replicate(ds, variant, idx, roles=ROLES):
    """Reference replicate: both models refit on the resampled rows, with
    the contrasts that read their effects."""
    return effects_under(VariantEstimator(ds, roles, variant).take(idx), ds.weights()[idx])


def rel_close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def count_weight_interval(ds, roles, variant, reps, seed):
    """Reference (lo, hi, se, n_failed): replicate by replicate, both models
    refit on the full rows under the survey weights times the counts."""
    fit = VariantEstimator(ds, roles, variant)
    stats = []
    for i in range(reps):
        idx = np.random.default_rng(seed + i).integers(0, ds.n_rows, ds.n_rows)
        try:
            stats.append(indirect_log_or(*effects_under(fit, ds.weights() * np.bincount(idx, minlength=ds.n_rows))))
        except FIT_FAILURES:
            continue
    stats = np.array(stats)
    alpha = (1.0 - 0.95) / 2.0
    lo, hi = np.percentile(np.exp(stats), [100 * alpha, 100 * (1 - alpha)])
    return float(lo), float(hi), float(stats.std(ddof=1)), reps - stats.size


class TestReplicateEquivalence:
    """A replicate fitted under the survey weights times its row counts
    equals the refit on the resampled rows."""

    @pytest.mark.parametrize("weight", [False, True])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_count_weights_match_resampled_rows(self, variant, weight):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(500 + seed)
            ds = sim_dataset(rng, 300, bm=0.3, weight=weight)
            fit = VariantEstimator(ds, ROLES, variant)
            for _ in range(3):
                idx = rng.integers(0, ds.n_rows, ds.n_rows)
                counts = np.bincount(idx, minlength=ds.n_rows)
                try:
                    ref = take_replicate(ds, variant, idx)
                except FIT_FAILURES as exc:
                    with pytest.raises(type(exc)):
                        fit(ds.weights() * counts)
                    continue
                for got, g, want, want_g in zip(*effects_under(fit, ds.weights() * counts), *ref):
                    assert got.names == want.names
                    assert got.iterations == want.iterations
                    scale = np.abs(want.beta).max()
                    np.testing.assert_allclose(got.beta, want.beta, rtol=0, atol=1e-12 * scale)
                    assert rel_close(g @ got.beta, want_g @ want.beta)

    @pytest.mark.parametrize("age", [False, True])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bootstrap_interval_matches_resampled_rows(self, variant, age):
        # With a continuous age the replicates are fitted on their drawn rows.
        rng = np.random.default_rng(31)
        ds = sim_dataset(rng, 300, bm=0.3, weight=True)
        ds, roles = (with_age(ds, rng), AGE_ROLES) if age else (ds, ROLES)
        interval = bootstrap_ci(ds, roles, variant, 100, seed=8)
        stats = []
        for i in range(100):
            idx = np.random.default_rng(8 + i).integers(0, ds.n_rows, ds.n_rows)
            try:
                stats.append(indirect_log_or(*take_replicate(ds, variant, idx, roles)))
            except FIT_FAILURES:
                pass
        stats = np.array(stats)
        assert interval.n_failed == 100 - stats.size
        lo, hi = np.percentile(np.exp(stats), [2.5, 97.5])
        assert rel_close(interval.lo, lo) and rel_close(interval.hi, hi)
        assert rel_close(interval.se, stats.std(ddof=1))

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize(
        "n, data_seed, reps, seed",
        [
            (300, 31, 200, 8),  # plain replicates
            (50, 4, 100, 4),  # failed replicates
            (60, 0, 200, 0),  # near-separated replicates
        ],
    )
    def test_bootstrap_interval_matches_count_weight_fits(self, variant, n, data_seed, reps, seed):
        ds = sim_dataset(np.random.default_rng(data_seed), n, bm=0.3, weight=n == 300)
        lo, hi, se, n_failed = count_weight_interval(ds, ROLES, variant, reps, seed)
        interval = bootstrap_ci(ds, ROLES, variant, reps, seed)
        assert interval.n_failed == n_failed
        assert rel_close(interval.lo, lo) and rel_close(interval.hi, hi)
        assert rel_close(interval.se, se)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize(
        "n, data_seed, reps, seed",
        [(300, 31, 200, 8), (50, 4, 100, 4), (60, 0, 200, 0), ("age", 43, 100, 6)],
    )
    def test_interval_does_not_depend_on_block_size(self, variant, n, data_seed, reps, seed, monkeypatch):
        # The datasets of test_bootstrap_interval_matches_count_weight_fits
        # and test_continuous_role_matches_count_weight_fits. A block is
        # fitted on the patterns any of its replicates drew; the default
        # blocks hold up to 256 replicates, and BLOCK_CELLS = 1 gives one.
        rng = np.random.default_rng(data_seed)
        if n == "age":
            ds, roles = with_age(sim_dataset(rng, 200, bm=0.3, weight=True), rng), AGE_ROLES
        else:
            ds, roles = sim_dataset(rng, n, bm=0.3, weight=n == 300), ROLES
        want = bootstrap_ci(ds, roles, variant, reps, seed)
        monkeypatch.setattr(mediation, "BLOCK_CELLS", 1)
        got = bootstrap_ci(ds, roles, variant, reps, seed)
        assert got.n_failed == want.n_failed
        assert rel_close(got.lo, want.lo) and rel_close(got.hi, want.hi)
        assert rel_close(got.se, want.se)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bootstrap_memory_stays_below_count_matrix(self, variant):
        # Replicates are reduced to pattern weights as they are drawn, so a
        # 1000-replicate bootstrap on 300 rows never holds their (1000, 300)
        # count matrix.
        ds = sim_dataset(np.random.default_rng(31), 300, bm=0.3, weight=True)
        tracemalloc.start()
        try:
            bootstrap_ci(ds, ROLES, variant, 1000, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1000 * 300 * 8

    @pytest.mark.parametrize("variant, n_failed", [("primary", 16), ("simple", 6), ("ipw", 1)])
    def test_singular_solve_counts_as_failed_fit(self, variant, n_failed):
        # Some refits here pass the Cholesky gate on an information matrix
        # that the solve then finds singular; each counts as a failed fit.
        ds = sim_dataset(np.random.default_rng(1010), 50, bm=0.3)
        lo, hi, se, want_failed = count_weight_interval(ds, ROLES, variant, 200, 4)
        interval = bootstrap_ci(ds, ROLES, variant, 200, 4)
        assert interval.n_failed == want_failed == n_failed
        assert rel_close(interval.lo, lo) and rel_close(interval.hi, hi)
        assert rel_close(interval.se, se)

    def test_failed_fits_past_the_rate_refuse_the_interval(self):
        ds = sim_dataset(np.random.default_rng(1010), 50, bm=0.3)
        n_failed = count_weight_interval(ds, ROLES, "ps_regression", 200, 4)[3]
        with pytest.raises(BootstrapError, match=f"^{n_failed} of 200"):
            bootstrap_ci(ds, ROLES, "ps_regression", 200, 4)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_condition_bound_sends_near_separated_replicates_to_refit(self, variant, monkeypatch):
        # The near-separated dataset above: kept on the stacked path, its
        # ill-conditioned replicates drift from their full-row fits by far
        # more than rounding.
        ds = sim_dataset(np.random.default_rng(0), 60, bm=0.3)
        _, _, se, _ = count_weight_interval(ds, ROLES, variant, 200, 0)
        monkeypatch.setattr(glm, "STACKED_MAX_CONDITION", np.inf)
        assert not rel_close(bootstrap_ci(ds, ROLES, variant, 200, 0).se, se)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_continuous_role_matches_count_weight_fits(self, variant):
        rng = np.random.default_rng(43)
        ds = with_age(sim_dataset(rng, 200, bm=0.3, weight=True), rng)
        lo, hi, se, n_failed = count_weight_interval(ds, AGE_ROLES, variant, 100, 6)
        interval = bootstrap_ci(ds, AGE_ROLES, variant, 100, 6)
        assert interval.n_failed == n_failed
        assert rel_close(interval.lo, lo) and rel_close(interval.hi, hi)
        assert rel_close(interval.se, se)

    @pytest.mark.parametrize("age", [False, True])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_fits_form_no_design_matrix(self, variant, age, monkeypatch):
        # Every model, with or without a continuous column, and its
        # replicates and refits run on pattern designs: no dense design is
        # expanded or fitted, on continuous-role data or on discrete roles
        # only.
        rng = np.random.default_rng(47)
        ds, roles = sim_dataset(rng, 200, bm=0.3, weight=True), ROLES
        if age:
            ds, roles = with_age(ds, rng), AGE_ROLES
        want = bootstrap_ci(ds, roles, variant, 100, 3)

        def refuse(*args, **kwargs):
            raise AssertionError("dense design formed")

        def pattern_fits_only(design, *args):
            assert isinstance(design, glm.PatternDesign), "fit on dense rows"
            return irls(design, *args)

        irls = glm._irls
        monkeypatch.setattr(glm.PatternDesign, "dense", refuse)
        monkeypatch.setattr(glm, "_irls", pattern_fits_only)
        monkeypatch.setattr(mediation, "_irls", pattern_fits_only)
        assert bootstrap_ci(fresh(ds), roles, variant, 100, 3) == want
        total_effect(ds, roles, variant)
        direct_effect(ds, roles, variant)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_drawn_row_failures_match_full_row_fits(self, variant):
        # Continuous-role replicates are fitted on their drawn rows alone.
        # On 50 rows some fail; each must fail where its full-row fit does.
        rng = np.random.default_rng(9)
        ds = with_age(sim_dataset(rng, 50, bm=0.3), rng)
        est = VariantEstimator(ds, AGE_ROLES, variant)
        failures = []
        for i in range(100):
            counts = np.bincount(np.random.default_rng(i).integers(0, ds.n_rows, ds.n_rows), minlength=ds.n_rows)
            rows, weights = np.flatnonzero(counts), ds.weights() * counts
            try:
                est(weights)
                want = None
            except FIT_FAILURES as exc:
                want = type(exc)
            coefs, _ = est.take(rows).coefs(weights[None, rows])
            assert np.isnan(coefs).any() == (want is not None), f"replicate {i}"
            if want is not None:
                failures.append(want)
        if variant in ("primary", "ps_regression"):
            assert failures
        if variant == "primary":
            assert set(failures) == {RankDeficiencyError, SeparationError}
        assert bootstrap_ci(ds, AGE_ROLES, variant, 100, 0).n_failed == len(failures)

    def test_primary_effects_equal_fits_centered_at_replicate_means(self):
        # Each replicate's effects, read through the contrast of the design
        # centered once, equal the exposure coefficients of the fits on
        # designs centered at the replicate's own means, to the slack of
        # the stop rule.
        rng = np.random.default_rng(19)
        ds = with_age(sim_dataset(rng, 300, bm=0.3, weight=True), rng)
        est = VariantEstimator(ds, AGE_ROLES, "primary")
        draws = rng.integers(0, ds.n_rows, (4, ds.n_rows))
        W = ds.weights() * np.array([np.bincount(idx, minlength=ds.n_rows) for idx in draws])
        coefs, _ = est.coefs(W)
        covariates = (main("x"), main("age"))
        specs = [
            ModelSpec("y", "q", covariates + mediators + (interaction("x"), interaction("age")))
            for mediators in ((), (main("m"),))
        ]
        for w, row in zip(W, coefs):
            for spec, design, got in zip(specs, est.designs, row):
                assert design.names == build_design(ds, spec).names
                fit = fit_logistic(as_pattern_design(design_by_stacking(ds, spec, w), design.names), est.y, w)
                want = fit.beta[fit.names.index("q")]
                assert abs(got - want) <= 1e-9 * abs(want)

    def test_primary_estimator_keeps_no_covariate_rows(self):
        # Row-length arrays reachable from the estimator are the response
        # and each design's pattern indices and continuous values; no
        # covariate column is kept beside them.
        rng = np.random.default_rng(20)
        ds = with_age(sim_dataset(rng, 300, bm=0.3, weight=True), rng)
        est = VariantEstimator(ds, AGE_ROLES, "primary")
        found = []

        def walk(obj, path):
            if isinstance(obj, np.ndarray):
                if ds.n_rows in obj.shape:
                    found.append(path)
            elif isinstance(obj, (list, tuple)):
                for i, item in enumerate(obj):
                    walk(item, f"{path}[{i}]")
            elif isinstance(obj, glm.PatternDesign):
                for name, value in vars(obj).items():
                    walk(value, f"{path}.{name}")

        for name, value in vars(est).items():
            walk(value, name)
        assert sorted(found) == [f"designs[{i}].{f}" for i in (0, 1) for f in ("pattern", "values")] + ["y"]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_draw_emptying_covariate_level_fails_alike(self, variant):
        rng = np.random.default_rng(41)
        ds = sim_dataset(rng, 300, bm=0.3, weight=True)
        idx = rng.choice(np.flatnonzero(ds["x"].values == 0), ds.n_rows)
        counts = np.bincount(idx, minlength=ds.n_rows)
        with pytest.raises(FIT_FAILURES) as ref:
            take_replicate(ds, variant, idx)
        with pytest.raises(FIT_FAILURES) as got:
            VariantEstimator(ds, ROLES, variant)(ds.weights() * counts)
        assert type(got.value) is type(ref.value)


def fresh(ds):
    """A dataset equal to ``ds`` but a distinct object."""
    return ds.take(np.arange(ds.n_rows))


def kept_table(ds):
    """The replicate table kept on ``ds`` for the next variant, or None."""
    kept = vars(ds).get("_replicate_table")
    return None if kept is None else kept[-1]


def edit_in_place(column, values):
    """Overwrite a column's read-only values where they are stored."""
    column.values.setflags(write=True)
    column.values[:] = values
    column.values.setflags(write=False)


class TestSharedReplicateTable:
    """Where a block holds several replicates, the variants bootstrapped on
    one dataset object take their replicates from one draw; any other call
    draws again and gets the interval of a fresh dataset."""

    @pytest.fixture
    def draws(self, monkeypatch):
        """The number of replicates drawn so far: the seeds passed to
        :func:`mediation._replicate_weights`, the only draw."""
        count = {"n": 0}
        draw = mediation._replicate_weights

        def counted(weights, pattern, n_patterns, seeds):
            count["n"] += len(seeds)
            return draw(weights, pattern, n_patterns, seeds)

        monkeypatch.setattr(mediation, "_replicate_weights", counted)
        return count

    def test_variants_share_one_draw(self, draws):
        ds = sim_dataset(np.random.default_rng(31), 300, bm=0.3, weight=True)
        got, tables = [], []
        for variant in VARIANTS:
            got.append(bootstrap_ci(ds, ROLES, variant, 200, 8))
            tables.append(kept_table(ds))
        assert tables[0] is not None and all(table is tables[0] for table in tables)
        shared = draws["n"]
        want = [bootstrap_ci(fresh(ds), ROLES, variant, 200, 8) for variant in VARIANTS]
        # Each fresh dataset draws its 200 replicates plus the same refits.
        assert draws["n"] - shared == shared + 3 * 200
        assert got == want

    @pytest.mark.parametrize(
        "change", ["equal dataset", "seed", "reps", "two mediators", "other mediator", "weights edited", "m edited"]
    )
    def test_any_other_call_draws_again(self, change, draws):
        rng = np.random.default_rng(31)
        ds = sim_dataset(rng, 300, bm=0.3, weight=True)
        ds = Dataset({**ds.columns, "m2": binary_col(rng.integers(0, 2, ds.n_rows))}, weight_column="w")
        roles, reps, seed = ROLES, 200, 8
        bootstrap_ci(ds, roles, "simple", reps, seed)
        before = draws["n"]
        bootstrap_ci(ds, roles, "simple", reps, seed)
        assert draws["n"] == before
        case = ds  # ds stays alive, so its table is kept
        if change == "equal dataset":
            case = fresh(ds)
        elif change == "seed":
            seed = 9
        elif change == "reps":
            reps = 100
        elif change == "two mediators":
            roles = VariableRoles(exposure="q", outcome="y", baseline_support="x", mediators=("m", "m2"))
        elif change == "other mediator":
            roles = VariableRoles(exposure="q", outcome="y", baseline_support="x", mediators=("m2",))
        elif change == "weights edited":
            edit_in_place(ds["w"], 2 * ds["w"].values)
        else:
            edit_in_place(ds["m"], 1 - ds["m"].values)
        got = bootstrap_ci(case, roles, "simple", reps, seed)
        assert draws["n"] - before >= reps
        assert got == bootstrap_ci(fresh(case), roles, "simple", reps, seed)

    def test_continuous_role_variants_share_one_draw(self, draws, monkeypatch):
        # Each of 200 rows with a continuous age is its own pattern, so a
        # block holds 20 replicates and the four variants take their 100
        # replicates from one (100, 200) table.
        rng = np.random.default_rng(43)
        ds = with_age(sim_dataset(rng, 200, bm=0.3, weight=True), rng)
        got = [bootstrap_ci(ds, AGE_ROLES, variant, 100, 6) for variant in VARIANTS]
        assert kept_table(ds).shape == (100, 200)
        shared = draws["n"]
        # Each fresh dataset draws its 100 replicates plus the same refits.
        assert [bootstrap_ci(fresh(ds), AGE_ROLES, variant, 100, 6) for variant in VARIANTS] == got
        assert draws["n"] - shared == shared + 3 * 100
        # With one replicate per block nothing is shared, and each interval
        # is the same but for the order of the blocks' sums.
        monkeypatch.setattr(mediation, "BLOCK_CELLS", 1)
        for variant, want in zip(VARIANTS, got):
            interval = bootstrap_ci(ds, AGE_ROLES, variant, 100, 6)
            assert (interval.n_failed, interval.reps) == (want.n_failed, want.reps)
            assert rel_close(interval.lo, want.lo) and rel_close(interval.hi, want.hi)
            assert rel_close(interval.se, want.se)

    @pytest.mark.parametrize("case", ["continuous age", "one replicate per block"])
    def test_unshared_bootstrap_draws_on_every_call(self, case, draws, monkeypatch):
        # No table where a block holds one replicate: the fits cost more
        # than the draws, and a (reps, K) table would near the count matrix.
        # With a continuous age that takes over BLOCK_CELLS / 2 rows, each
        # its own pattern, whatever the column kinds.
        rng = np.random.default_rng(43)
        if case == "continuous age":
            n_rows = mediation.BLOCK_CELLS // 2 + 1
            ds, roles = with_age(sim_dataset(rng, n_rows, bm=0.3, weight=True), rng), AGE_ROLES
        else:
            ds, roles = sim_dataset(rng, 200, bm=0.3, weight=True), ROLES
            monkeypatch.setattr(mediation, "BLOCK_CELLS", 1)
        counts = []
        for _ in range(2):
            before = draws["n"]
            bootstrap_ci(ds, roles, "simple", 100, 6)
            counts.append(draws["n"] - before)
        assert counts[0] == counts[1] >= 100
        assert kept_table(ds) is None

    def test_table_is_dropped_with_its_dataset(self, draws):
        ds = sim_dataset(np.random.default_rng(31), 300, bm=0.3)
        bootstrap_ci(ds, ROLES, "simple", 100, 0)
        table = weakref.ref(kept_table(ds))
        assert table() is not None
        del ds
        assert table() is None

    def test_refused_call_draws_nothing(self, draws):
        ds = sim_dataset(np.random.default_rng(23), 200)
        with pytest.raises(InputError, match="weights must not all be zero"):
            bootstrap_ci(ds.take(np.arange(0)), ROLES, "simple", 100, seed=0)
        with pytest.raises(InputError, match="100"):
            bootstrap_ci(ds, ROLES, "simple", 99, seed=0)
        with pytest.raises(InputError, match="non-negative"):
            bootstrap_ci(ds, ROLES, "simple", 100, seed=-1)
        for reps, seed, name in [(150.0, 0, "reps"), (True, 0, "reps"), (150, 1.0, "seed"), (150, True, "seed")]:
            with pytest.raises(InputError, match=f"bootstrap {name} must be an integer"):
                bootstrap_ci(ds, ROLES, "simple", reps, seed=seed)
        assert draws["n"] == 0

    def test_numpy_integer_arguments_accepted(self):
        ds = sim_dataset(np.random.default_rng(23), 200)
        got = bootstrap_ci(ds, ROLES, "simple", np.int64(100), seed=np.int32(4))
        assert got == bootstrap_ci(ds, ROLES, "simple", 100, seed=4)


class TestFullRowComposition:
    """Full-sample fits equal, bit for bit, the fits composed from the
    public design, propensity and weighting pieces."""

    @pytest.mark.parametrize("weight", [False, True])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_fits_equal_public_composition(self, variant, weight):
        ds = sim_dataset(np.random.default_rng(61), 400, bm=0.3, weight=weight)
        w, y = ds.weights(), response_vector(ds, "y")
        psfit = fit_propensity(ds, ROLES)
        covariates = () if variant in ("ps_regression", "ipw") else (main("x"),)
        interactions = (interaction("x"),) if variant == "primary" else ()
        fits = VariantEstimator(ds, ROLES, variant)(w)
        for (got, _), mediators in zip(fits, ((), (main("m"),))):
            spec = ModelSpec("y", "q", covariates + mediators + interactions)
            design, fit_weights = build_design(ds, spec), w
            if variant == "ps_regression":
                design = design.with_column(PS_COLUMN, psfit.scores)
            if variant == "ipw":
                fit_weights = w * ipw_weights(psfit.scores, psfit.exposure, w)
            want = fit_logistic(design, y, fit_weights)
            assert got.names == want.names
            assert np.array_equal(got.beta, want.beta)
            assert np.array_equal(got.cov_sandwich, want.cov_sandwich)


class TestPointAndReplicatePaths:
    """The point estimates and a bootstrap replicate's effects come from one
    computation: the same fits under the same weights."""

    @pytest.mark.parametrize("age", [False, True])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_coefs_read_the_point_fits(self, variant, age):
        # On these 50 rows some replicates fail, most of them separated.
        rng = np.random.default_rng(1010)
        ds, roles = sim_dataset(rng, 50, bm=0.3, weight=True), ROLES
        if age:
            ds, roles = with_age(ds, rng), AGE_ROLES
        est = VariantEstimator(ds, roles, variant)
        draws = [np.random.default_rng(i).integers(0, ds.n_rows, ds.n_rows) for i in range(40)]
        # A draw of rows with x = 0 only empties a level of x.
        draws.append(rng.choice(np.flatnonzero(ds["x"].values == 0), ds.n_rows))
        weights = [ds.weights()] + [ds.weights() * np.bincount(idx, minlength=ds.n_rows) for idx in draws]
        raised = []
        for w in weights:
            coefs, _ = est.coefs(w[None])
            try:
                fits = est(w)
            except FIT_FAILURES as exc:
                raised.append(exc)
                assert np.isnan(coefs).all()
                continue
            assert not np.isnan(coefs).any()
            assert coefs[0].tolist() == [(g * fit.beta).sum() for fit, g in fits]
        assert raised
        if variant in ("ps_regression", "ipw"):
            # The propensity model's failure is the one raised.
            assert type(raised[-1]) is RankDeficiencyError and raised[-1].columns == ("x",)


class TestPropensityCheck:
    """A call checks the propensity fit for its failure only, and builds a
    FitResult for each outcome model alone."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_fit_result_per_outcome_model(self, variant, monkeypatch):
        ds = sim_dataset(np.random.default_rng(53), 400, bm=0.3, weight=True)
        est = VariantEstimator(ds, ROLES, variant)
        built, build = [], glm.FitResult
        monkeypatch.setattr(glm, "FitResult", lambda **fields: built.append(fields["names"]) or build(**fields))
        fits = est(ds.weights())
        assert built == [fit.names for fit, _ in fits]
        assert len(built) == len(est.designs) == 2

    @pytest.mark.parametrize("variant", ["ps_regression", "ipw"])
    @pytest.mark.parametrize(
        "case, error, message",
        [
            ("x constant", RankDeficiencyError, "collinear design columns: x"),
            (
                "x equal to q",
                SeparationError,
                "coefficient magnitude exceeded 30.0 while the deviance still improved; "
                "data are quasi-completely separated",
            ),
        ],
    )
    def test_failing_propensity_fit_raises_its_classified_error(self, variant, case, error, message):
        # The error a full read of the propensity fit raises: with weight
        # only on rows of x = 0, x adds no rank; with x equal to q, the
        # exposure is predicted exactly.
        ds = sim_dataset(np.random.default_rng(59), 300, bm=0.3, weight=True)
        w = ds.weights()
        if case == "x constant":
            w = w * (ds["x"].values == 0)
        else:
            ds = ds.replace_columns({"x": ds["q"]})
        est = VariantEstimator(ds, ROLES, variant)
        with pytest.raises(error) as got:
            est(w)
        with pytest.raises(error) as want:
            fit_logistic(est.ps_design, est.treat, w)
        assert type(got.value) is type(want.value) is error
        assert str(got.value) == str(want.value) == message


class TestCoverage:
    def test_total_effect_null_coverage(self):
        # True conditional OR is 1; the 95% CI should cover it in at least
        # 93% of replicates.
        rng = np.random.default_rng(314)
        covered = 0
        reps = 500
        for _ in range(reps):
            ds = sim_dataset(rng, 600, bq=0.0, bm=0.0)
            est = total_effect(ds, ROLES, "primary")
            lo, hi = est.ci_or
            covered += lo <= 1.0 <= hi
        assert covered >= 0.93 * reps

    def test_bootstrap_indirect_null_coverage(self):
        # Mediator has no outcome effect, so the true indirect OR is 1.
        rng = np.random.default_rng(2718)
        covered = 0
        outer = 200
        for i in range(outer):
            ds = sim_dataset(rng, 300, bq=0.7, bm=0.0, m_on_q=0.8)
            interval = bootstrap_ci(ds, ROLES, "simple", 1000, seed=1000 + i)
            covered += interval.lo <= 1.0 <= interval.hi
        assert covered >= 0.93 * outer
