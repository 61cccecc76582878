import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import causalmed
from causalmed import glm
from causalmed.adjustment import clipped_scores
from causalmed.data import Binary, Categorical, Column, Continuous, Dataset
from causalmed.errors import (
    ConvergenceError,
    DataError,
    InputError,
    RankDeficiencyError,
    SeparationError,
)
from causalmed.glm import (
    ModelSpec,
    Z95,
    _irls,
    _log_likelihood,
    _weight_scale,
    build_design,
    expit,
    fit_logistic,
    interaction,
    main,
    response_vector,
    wald_interval,
)

from oracles import (
    as_pattern_design,
    dense_eta,
    dense_gram,
    dense_score,
    design_by_stacking,
    fd_gradient,
    loglik_logistic,
    softplus_reference,
)


def two_group_dataset(n1, e1, n0, e0):
    """Exposed group of size n1 with e1 events; unexposed n0 with e0."""
    q = ["1"] * n1 + ["0"] * n0
    y = ["1"] * e1 + ["0"] * (n1 - e1) + ["1"] * e0 + ["0"] * (n0 - e0)
    return Dataset({"q": Column.build(Binary(), q), "y": Column.build(Binary(), y)})


def column(design, name):
    """One column of a design's dense rows."""
    return design.dense()[:, design.names.index(name)]


def fit_two_group(ds, **kwargs):
    spec = ModelSpec(outcome="y", exposure="q", terms=())
    design = build_design(ds, spec)
    return fit_logistic(design, response_vector(ds, "y"), **kwargs)


class TestBuildDesign:
    def test_centering_continuous(self):
        ds = Dataset(
            {
                "q": Column.build(Binary(), ["1", "0", "1"]),
                "y": Column.build(Binary(), ["1", "0", "0"]),
                "x": Column.build(Continuous(), [1.0, 2.0, 3.0]),
            }
        )
        spec = ModelSpec("y", "q", (main("x"),))
        design = build_design(ds, spec)
        np.testing.assert_allclose(column(design, "x"), [-1.0, 0.0, 1.0])

    def test_interaction_column_is_product(self):
        ds = Dataset(
            {
                "q": Column.build(Binary(), ["1", "0"]),
                "y": Column.build(Binary(), ["1", "0"]),
                "x": Column.build(Continuous(), [1.0, 0.0]),
            }
        )
        spec = ModelSpec("y", "q", (main("x"), interaction("x")))
        design = build_design(ds, spec)
        np.testing.assert_allclose(column(design, "x"), [0.5, -0.5])
        np.testing.assert_allclose(column(design, "q:x"), [0.5, 0.0])

    def test_categorical_reference_coding(self):
        kind = Categorical(("White", "Asian", "Black"), "White")
        ds = Dataset(
            {
                "q": Column.build(Binary(), ["0", "1", "0"]),
                "y": Column.build(Binary(), ["0", "1", "1"]),
                "race": Column.build(kind, ["Asian", "White", "Black"]),
            }
        )
        # Each indicator is centered at its (unweighted) mean of 1/3.
        design = build_design(ds, ModelSpec("y", "q", (main("race"),)))
        np.testing.assert_allclose(column(design, "race=Asian"), [2 / 3, -1 / 3, -1 / 3])
        np.testing.assert_allclose(column(design, "race=Black"), [-1 / 3, -1 / 3, 2 / 3])
        assert design.names[0] == "(Intercept)"
        np.testing.assert_array_equal(column(design, "(Intercept)"), [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(column(design, "q"), [0.0, 1.0, 0.0])

    def test_missing_cells_rejected(self):
        ds = Dataset(
            {
                "q": Column.build(Binary(), ["1", "0"]),
                "y": Column.build(Binary(), ["1", "0"]),
                "x": Column.build(Continuous(), [1.0, None]),
            }
        )
        with pytest.raises(DataError, match="'x' has 1 unobserved"):
            build_design(ds, ModelSpec("y", "q", (main("x"),)))

    def test_absent_level_flagged(self):
        # Level c never occurs, so its indicator is the only column that adds
        # no rank, centered or not (built by hand), and the fit names it.
        kind = Categorical(("a", "b", "c"), "a")
        ds = Dataset(
            {
                "q": Column.build(Binary(), ["1", "0", "1", "0"]),
                "y": Column.build(Binary(), ["1", "0", "0", "1"]),
                "g": Column.build(kind, ["b", "a", "a", "b"]),
            }
        )
        centered = build_design(ds, ModelSpec("y", "q", (main("g"),)))
        g = ds["g"].values
        uncentered = np.column_stack([np.ones(4), response_vector(ds, "q"), g == 1, g == 2]).astype(float)
        for design in (centered, as_pattern_design(uncentered, centered.names)):
            with pytest.raises(RankDeficiencyError) as err:
                fit_logistic(design, response_vector(ds, "y"))
            assert err.value.columns == ("g=c",)

    def test_centered_columns_have_weighted_mean_zero(self):
        rng = np.random.default_rng(3)
        n = 200
        ds = Dataset(
            {
                "q": Column.build(Binary(), [("0", "1")[i] for i in rng.integers(0, 2, n)]),
                "y": Column.build(Binary(), [("0", "1")[i] for i in rng.integers(0, 2, n)]),
                "x": Column.build(Continuous(), rng.normal(5, 2, n)),
                "w": Column.build(Continuous(), rng.uniform(0.5, 3.0, n)),
            },
            weight_column="w",
        )
        spec = ModelSpec("y", "q", (main("x"),))
        design = build_design(ds, spec)
        w = ds.weights()
        assert abs(np.average(column(design, "x"), weights=w)) < 1e-10


class TestModelSpec:
    @pytest.mark.parametrize(
        "terms, message",
        [
            ((main("y"),), "outcome 'y'"),
            ((main("q"),), "exposure 'q'"),
            ((main("x"), interaction("q")), "exposure 'q'"),
            ((main("x"), main("race"), main("x")), "appears twice"),
            ((main("x"), interaction("x"), interaction("x")), "appears twice"),
            ((interaction("x"),), "interaction term 'x' requires its main effect"),
            ((main("x"), interaction("race")), "interaction term 'race' requires its main effect"),
        ],
    )
    def test_refused_terms(self, terms, message):
        # A term on the outcome or the exposure, a repeated term, or an
        # interaction without its main effect. A repeated term would give a
        # column collinear with another, which the fit could only report as
        # rank deficient, and the exposure contrast reads each covariate's
        # mean from its main column.
        with pytest.raises(InputError, match=message):
            ModelSpec("y", "q", terms)

    def test_main_effect_and_interaction_of_one_covariate_accepted(self):
        assert ModelSpec("y", "q", (main("x"), interaction("x"))).terms == (main("x"), interaction("x"))
        assert ModelSpec("y", "q", (interaction("x"), main("x"))).terms == (interaction("x"), main("x"))


class TestFitLogistic:
    def test_two_group_closed_form(self):
        fit = fit_two_group(two_group_dataset(100, 20, 100, 10))
        assert fit.names == ("(Intercept)", "q")
        assert fit.beta == pytest.approx([math.log(10 / 90), math.log(2.25)], abs=1e-8)
        assert fit.iterations > 0

    def test_balanced_groups_give_zero(self):
        fit = fit_two_group(two_group_dataset(10, 5, 10, 5))
        assert fit.beta.tolist() == [0.0, 0.0]
        assert fit.iterations == 0

    def test_weight_scale_invariance(self):
        ds = two_group_dataset(60, 13, 80, 22)
        spec = ModelSpec("y", "q", ())
        design = build_design(ds, spec)
        y = response_vector(ds, "y")
        f1 = fit_logistic(design, y)
        f2 = fit_logistic(design, y, np.full(ds.n_rows, 2.0))
        assert np.abs(f1.beta - f2.beta).max() < 1e-8

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(11)
        ds = two_group_dataset(40, 9, 50, 21)
        perm = rng.permutation(ds.n_rows)
        f1 = fit_two_group(ds)
        f2 = fit_two_group(ds.take(perm))
        assert np.abs(f1.beta - f2.beta).max() < 1e-10

    def test_centering_invariance_of_fitted_probabilities(self):
        rng = np.random.default_rng(5)
        n = 300
        q = rng.integers(0, 2, n)
        x = rng.normal(3.0, 1.5, n)
        p = 1 / (1 + np.exp(-(-0.5 + 0.8 * q + 0.4 * x - 0.3 * q * (x - x.mean()))))
        y = (rng.random(n) < p).astype(int)
        ds = Dataset(
            {
                "q": Column.build(Binary(), [str(v) for v in q]),
                "y": Column.build(Binary(), [str(v) for v in y]),
                "x": Column.build(Continuous(), x),
            }
        )
        centered = build_design(ds, ModelSpec("y", "q", (main("x"), interaction("x"))))
        uncentered = as_pattern_design(np.column_stack([np.ones(n), q, x, q * x]), centered.names)
        probs = []
        for design in (centered, uncentered):
            fit = fit_logistic(design, response_vector(ds, "y"))
            eta = design.dense() @ fit.beta
            probs.append(1 / (1 + np.exp(-eta)))
        assert np.abs(probs[1] - probs[0]).max() < 1e-8

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(30, 120))
            p = int(rng.integers(2, 5))
            X = np.column_stack([np.ones(n), rng.normal(0, 1, (n, p - 1))])
            beta_true = rng.normal(0, 0.7, p)
            y = (rng.random(n) < 1 / (1 + np.exp(-X @ beta_true))).astype(float)
            w = rng.uniform(0.5, 2.0, n)
            beta = rng.uniform(-0.5, 0.5, p)
            mu = 1 / (1 + np.exp(-(X @ beta)))
            analytic = X.T @ (w * (y - mu))
            numeric = fd_gradient(lambda b: loglik_logistic(X, y, w, b), beta)
            rel = np.abs(numeric - analytic).max() / (1.0 + np.abs(analytic).max())
            assert rel < 1e-5

    def test_score_below_tolerance_at_solution(self):
        ds = two_group_dataset(90, 30, 110, 25)
        fit = fit_two_group(ds)
        design = build_design(ds, ModelSpec("y", "q", ()))
        y = response_vector(ds, "y")
        mu = 1 / (1 + np.exp(-(design.dense() @ fit.beta)))
        score = design.dense().T @ (y - mu)
        assert np.abs(score).max() < 1e-8

    def test_sandwich_close_to_model_based_when_correctly_specified(self):
        rng = np.random.default_rng(42)
        n = 100_000
        x = rng.normal(0, 1, n)
        q = rng.integers(0, 2, n).astype(float)
        p = 1 / (1 + np.exp(-(-1.0 + 0.7 * q + 0.5 * x)))
        y = (rng.random(n) < p).astype(float)
        X = np.column_stack([np.ones(n), q, x])
        design = as_pattern_design(X, ("(Intercept)", "q", "x"))
        fit = fit_logistic(design, y)
        se_m = np.sqrt(np.diag(fit.cov_model))
        se_s = np.sqrt(np.diag(fit.cov_sandwich))
        assert np.abs(se_s / se_m - 1.0).max() < 0.02

    def test_rank_deficiency_names_columns(self):
        n = 50
        x = np.linspace(0, 1, n)
        X = np.column_stack([np.ones(n), x, 2 * x])
        design = as_pattern_design(X, ("(Intercept)", "x", "x2"))
        y = (x > 0.5).astype(float)
        with pytest.raises(RankDeficiencyError) as err:
            fit_logistic(design, y)
        assert set(err.value.columns) & {"x", "x2"}

    @pytest.mark.parametrize("name", ["x2", "b", "z"])
    def test_collinear_columns_named_left_to_right(self, name):
        # The column that adds no rank to those before it is named: twice x,
        # the complement of the indicator a (the dummy trap), a zero column.
        n = 50
        x = np.linspace(0, 1, n)
        a = (np.arange(n) % 2).astype(float)
        last = {"x2": 2 * x, "b": 1.0 - a, "z": np.zeros(n)}[name]
        X = np.column_stack([np.ones(n), x, a, last])
        design = as_pattern_design(X, ("(Intercept)", "x", "a", name))
        with pytest.raises(RankDeficiencyError) as err:
            fit_logistic(design, ((np.arange(n) // 3) % 2).astype(float))
        assert err.value.columns == (name,)

    def test_constant_exposure_is_rank_deficient(self):
        ds = Dataset(
            {
                "q": Column.build(Binary(), ["1"] * 20),
                "y": Column.build(Binary(), ["1", "0"] * 10),
            }
        )
        with pytest.raises(RankDeficiencyError):
            fit_two_group(ds)

    def test_separation_detected(self):
        # A 0/1 indicator that predicts the outcome perfectly: the needed
        # coefficient magnitude passes the divergence bound while the
        # deviance is still improving.
        n = 40
        x = np.concatenate([np.zeros(20), np.ones(20)])
        y = x.copy()
        design = as_pattern_design(np.column_stack([np.ones(n), x]), ("(Intercept)", "x"))
        with pytest.raises(SeparationError):
            fit_logistic(design, y)

    def test_nonconvergence_raises(self, monkeypatch):
        ds = two_group_dataset(100, 20, 100, 10)
        monkeypatch.setattr(glm, "DEFAULT_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="no convergence in 1 iterations"):
            fit_two_group(ds)

    def test_input_validation(self):
        design = as_pattern_design(np.ones((4, 1)), ("(Intercept)",))
        with pytest.raises(InputError, match="0/1"):
            fit_logistic(design, np.array([0.0, 1.0, 2.0, 0.0]))
        with pytest.raises(InputError, match="non-negative"):
            fit_logistic(design, np.array([0.0, 1.0, 1.0, 0.0]), np.array([1.0, -1.0, 1.0, 1.0]))
        with pytest.raises(InputError, match="all be zero"):
            fit_logistic(design, np.array([0.0, 1.0, 1.0, 0.0]), np.zeros(4))
        per_fit = as_pattern_design(np.ones((3, 4, 1)), ("(Intercept)",))
        with pytest.raises(InputError, match="not per fit"):
            fit_logistic(per_fit, np.array([0.0, 1.0, 1.0, 0.0]))


def survey_dataset(rng, n):
    """n weighted rows: binary exposure q and outcome y, a continuous x, a
    three-level race and a binary sex; y is logistic in q, x and race."""
    q = rng.random(n) < 0.4
    x = rng.normal(40.0, 12.0, n)
    race = rng.integers(0, 3, n)
    sex = rng.random(n) < 0.5
    eta = -1.0 + 0.8 * q + 0.03 * (x - 40.0) + 0.4 * (race == 1) - 0.3 * (race == 2)
    y = rng.random(n) < expit(eta)
    labels = np.array(["a", "b", "c"])
    return Dataset(
        {
            "q": Column.build(Binary(), np.where(q, "1", "0")),
            "y": Column.build(Binary(), np.where(y, "1", "0")),
            "x": Column.build(Continuous(), x),
            "race": Column.build(Categorical(("a", "b", "c"), "a"), labels[race]),
            "sex": Column.build(Binary(), np.where(sex, "1", "0")),
            "w": Column.build(Continuous(), rng.uniform(0.2, 5.0, n)),
        },
        weight_column="w",
    )


#: Rows of the batch and moment tests: enough that each of the at most 12
#: patterns holds hundreds of rows.
N_LARGE = 12_293


class TestBatchFits:
    def test_each_fit_of_a_batch_equals_its_single_fit(self):
        # Three weight rows, fitted together: each equals fit_logistic
        # under that row alone.
        ds = survey_dataset(np.random.default_rng(7), N_LARGE)
        spec = ModelSpec("y", "q", (main("x"), main("race"), interaction("x")))
        design, y = build_design(ds, spec), response_vector(ds, "y")
        W = ds.weights() * np.random.default_rng(8).integers(0, 3, (3, ds.n_rows))
        fits = _irls(design, y, W, _weight_scale(ds.weights()))
        assert fits.failure.tolist() == [glm.CONVERGED] * 3
        assert fits.plain.tolist() == [True] * 3
        for beta, iterations, w in zip(fits.beta, fits.iterations, W):
            want = fit_logistic(design, y, w)
            assert iterations == want.iterations
            assert np.abs(beta - want.beta).max() <= 1e-12 * np.abs(want.beta).max()

    def test_halving_fit_in_a_per_fit_batch_leaves_the_plain_path(self):
        # Six weighted points, each as a y=1 and a y=0 row. At seed 428 a
        # later Newton step overshoots and is halved; the fits at seeds 0
        # and 1 take only full steps. Fitted as one batch, each fit on its
        # own rows, the halved fit is off the plain path and still equals
        # its single fit.
        def weighted_points(seed):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(6, 2)) * np.exp(1.5 * rng.normal(size=(6, 1)))
            p, w = rng.uniform(0.0, 1.0, 6), np.exp(2.0 * rng.normal(size=6))
            return np.repeat(X, 2, axis=0), np.column_stack([w * p, w * (1.0 - p)]).ravel()

        X, W = map(np.stack, zip(*(weighted_points(seed) for seed in (0, 428, 1))))
        # Each row's weights times their own power-of-two scale: the single
        # fits are as before, and the batch fits them all at scale one.
        W *= np.array([_weight_scale(w) for w in W])[:, None]
        y = np.tile([1.0, 0.0], 6)
        fits = _irls(as_pattern_design(X, ("a", "b")), y, W, 1.0)
        assert fits.failure.tolist() == [glm.CONVERGED] * 3
        assert fits.plain.tolist() == [True, False, True]
        for Xb, w, beta, iterations in zip(X, W, fits.beta, fits.iterations):
            want = fit_logistic(as_pattern_design(Xb, ("a", "b")), y, w)
            assert iterations == want.iterations
            assert np.abs(beta - want.beta).max() <= 1e-12 * np.abs(want.beta).max()


class TestWeightScale:
    """A fit does not depend on the scale of its weights: the Newton loop
    runs on them times the power of two that brings their mean near one."""

    @pytest.fixture
    def problem(self):
        ds = survey_dataset(np.random.default_rng(29), N_LARGE)
        spec = ModelSpec("y", "q", (main("x"), main("race"), main("sex"), interaction("x")))
        return build_design(ds, spec), response_vector(ds, "y"), ds.weights()

    def test_scale_is_the_nearest_power_of_two(self):
        assert [_weight_scale(np.full(3, m)) for m in (0.75, 1.4, 3.0, 2.0**-20, 7.2e4)] == [
            1.0,
            1.0,
            0.25,
            2.0**20,
            2.0**-16,
        ]
        for refused in (np.zeros(3), np.array([]), np.array([1.0, np.inf]), np.array([1.0, np.nan])):
            assert _weight_scale(refused) == 1.0

    @pytest.mark.parametrize("k", [-40, -3, 1, 16, 40])
    def test_power_of_two_weights_fit_bit_for_bit(self, problem, k):
        # The model-based covariance, the inverse information, scales as
        # 1/w; the sandwich does not scale.
        design, y, w = problem
        want, got = fit_logistic(design, y, w), fit_logistic(design, y, w * 2.0**k)
        assert np.array_equal(got.beta, want.beta)
        assert got.iterations == want.iterations
        assert np.array_equal(got.cov_model, want.cov_model * 2.0**-k)
        assert np.array_equal(got.cov_sandwich, want.cov_sandwich)

    @pytest.mark.parametrize("factor", [1e-6, 1e6])
    def test_other_scales_move_no_coefficient_past_rounding(self, problem, factor):
        design, y, w = problem
        want, got = fit_logistic(design, y, w), fit_logistic(design, y, w * factor)
        assert (np.abs(got.beta - want.beta) <= 1e-12 * np.abs(want.beta)).all()
        assert rel_error(got.cov_model, want.cov_model / factor) <= 1e-12
        assert rel_error(got.cov_sandwich, want.cov_sandwich) <= 1e-12


class TestDenseRows:
    @pytest.mark.parametrize("interactions", [False, True])
    def test_equal_stacked_columns(self, interactions):
        ds = survey_dataset(np.random.default_rng(3), 200)
        terms = [main("x"), main("race"), main("sex")]
        if interactions:
            terms += [interaction("x"), interaction("race"), interaction("sex")]
        spec = ModelSpec("y", "q", tuple(terms))
        assert np.array_equal(build_design(ds, spec).dense(), design_by_stacking(ds, spec))

    def test_on_rows_equal_the_rows_of_the_full_design(self):
        # Centering is at the full sample's means, so the design on some
        # rows is the full design's rows.
        rng = np.random.default_rng(4)
        ds = survey_dataset(rng, 200)
        terms = (main("x"), main("race"), interaction("x"), interaction("race"))
        spec = ModelSpec("y", "q", terms)
        rows = np.flatnonzero(rng.integers(0, 3, ds.n_rows))
        assert np.array_equal(build_design(ds, spec).take(rows).dense(), design_by_stacking(ds, spec)[rows])


PATTERN_SPEC = ModelSpec("y", "q", (main("x"), main("race"), main("sex"), interaction("x"), interaction("race")))
#: The same without race, which enters the propensity score instead.
SCORE_SPEC = ModelSpec("y", "q", (main("x"), main("sex"), interaction("x"), interaction("sex")))
#: Discrete columns only: a design with no continuous values.
DISCRETE_SPEC = ModelSpec("y", "q", (main("race"), main("sex"), interaction("race")))
SPECS = {"continuous": PATTERN_SPEC, "score": SCORE_SPEC, "discrete": DISCRETE_SPEC}


def pattern_and_dense(ds, form, rows=None):
    """A pattern design on ``rows`` and the dense design it stands for,
    stacked column by column by the oracle: with one continuous column (x,
    PATTERN_SPEC), with none (DISCRETE_SPEC), or with two ("score",
    SCORE_SPEC), x and a propensity-score column appended last as in
    ``ps_regression``. The scores are those of an exposure model on x and
    race with fixed coefficients, far enough from linear in x that the
    design is well conditioned (q does not depend on x here, so fitted
    scores would be nearly so)."""
    pattern, X = build_design(ds, SPECS[form]), design_by_stacking(ds, SPECS[form])
    if form == "score":
        ps = build_design(ds, ModelSpec("q", None, (main("x"), main("race"))))
        scores = clipped_scores(ps, np.array([0.0, 0.2, 1.0, -1.0]))
        pattern = pattern.with_column("propensity_score", scores)
        X = np.column_stack([X, scores])
    if rows is None:
        return pattern, X
    return pattern.take(rows), X[rows]


def rel_error(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


FORMS = ["continuous", "score", "discrete"]


class TestPatternDesign:
    """A design fitted on per-pattern moments, against the dense referee on
    its rows."""

    @pytest.mark.parametrize("form", FORMS)
    def test_dense_expansion_equals_stacked_columns(self, form):
        rng = np.random.default_rng(21)
        ds = survey_dataset(rng, 400)
        rows = rng.integers(0, ds.n_rows, ds.n_rows)
        for r in (None, rows):
            pattern, X = pattern_and_dense(ds, form, r)
            assert pattern.shape == X.shape
            assert np.array_equal(pattern.dense(), X)
        # race (3 levels), sex and q give at most 12 patterns; a discrete
        # design has no continuous values, each row its pattern's block.
        assert pattern.blocks.shape[1] <= 12
        assert (pattern.values.shape[-2] == 0) == (form == "discrete")

    @pytest.mark.parametrize("form", FORMS)
    def test_eta_score_and_information_match_dense(self, form):
        rng = np.random.default_rng(22)
        ds = survey_dataset(rng, N_LARGE)
        pattern, X = pattern_and_dense(ds, form)
        beta = rng.normal(0.0, 1.0, (3, X.shape[1]))
        v = rng.uniform(0.0, 3.0, (3, ds.n_rows))
        assert rel_error(pattern.eta(beta), dense_eta(X, beta)) <= 1e-13
        assert rel_error(pattern.eta(beta[0]), dense_eta(X, beta[0])) <= 1e-13
        assert rel_error(pattern.score(v), dense_score(X, v)) <= 1e-13
        for got, want in zip(pattern.gram(v), dense_gram(X, v)):
            assert rel_error(got, want) <= 1e-13
        assert rel_error(pattern.gram(v[0]), dense_gram(X, v[0])) <= 1e-13
        # The batch's designs on fewer fits, and on fewer rows, share the
        # kept tables and still match.
        assert rel_error(pattern.fits([0, 2]).gram(v[[0, 2]]), dense_gram(X, v[[0, 2]])) <= 1e-13
        rows = np.flatnonzero(v[0] > 1.0)
        assert rel_error(pattern.take(rows).gram(v[:, rows]), dense_gram(X[rows], v[:, rows])) <= 1e-13

    def test_per_fit_score_columns_match_dense_stack(self):
        # ps_regression in a batch: each fit has its own score column.
        rng = np.random.default_rng(23)
        ds = survey_dataset(rng, 600)
        scores = rng.uniform(0.05, 0.95, (3, ds.n_rows))
        pattern = build_design(ds, PATTERN_SPEC).with_column("propensity_score", scores)
        X = np.broadcast_to(design_by_stacking(ds, PATTERN_SPEC), (3, ds.n_rows, 9))
        X = np.concatenate([X, scores[..., None]], axis=-1)
        assert pattern.shape == X.shape
        assert np.array_equal(pattern.dense(), X)
        beta = rng.normal(0.0, 1.0, (3, X.shape[-1]))
        v = rng.uniform(0.0, 3.0, (3, ds.n_rows))
        assert rel_error(pattern.eta(beta), dense_eta(X, beta)) <= 1e-13
        assert rel_error(pattern.score(v), dense_score(X, v)) <= 1e-13
        for got, want in zip(pattern.gram(v), dense_gram(X, v)):
            assert rel_error(got, want) <= 1e-13
        for fits in ([1], [0, 2]):
            assert rel_error(pattern.fits(fits).eta(beta[fits]), dense_eta(X[fits], beta[fits])) <= 1e-13
            assert rel_error(pattern.fits(fits).gram(v[fits]), dense_gram(X[fits], v[fits])) <= 1e-13
        y, W = response_vector(ds, "y"), ds.weights() * rng.integers(0, 3, (3, ds.n_rows))
        scale = _weight_scale(ds.weights())
        got, want = _irls(pattern, y, W, scale), _irls(as_pattern_design(X, pattern.names), y, W, scale)
        assert got.failure.tolist() == want.failure.tolist() == [glm.CONVERGED] * 3
        assert got.iterations.tolist() == want.iterations.tolist()
        assert rel_error(got.beta, want.beta) <= 1e-12

    @pytest.mark.parametrize("form", FORMS)
    def test_fit_matches_dense_fit(self, form):
        rng = np.random.default_rng(24)
        ds = survey_dataset(rng, 2_000)
        pattern, X = pattern_and_dense(ds, form)
        y, w = response_vector(ds, "y"), rng.uniform(0.2, 5.0, ds.n_rows)
        got, want = fit_logistic(pattern, y, w), fit_logistic(as_pattern_design(X, pattern.names), y, w)
        assert got.names == want.names and got.n_obs == want.n_obs
        assert got.iterations == want.iterations
        assert rel_error(got.beta, want.beta) <= 1e-12
        assert rel_error(got.cov_model, want.cov_model) <= 1e-12
        assert rel_error(got.cov_sandwich, want.cov_sandwich) <= 1e-12

    @pytest.mark.parametrize("form", ["continuous", "discrete"])
    def test_rank_deficiency_names_the_collinear_column(self, form):
        # Only race "a" rows drawn: both race indicators are constant, so
        # each adds no rank, and neither do their interactions.
        ds = survey_dataset(np.random.default_rng(25), 300)
        rows = np.flatnonzero(ds["race"].values == 0)
        pattern, X = pattern_and_dense(ds, form, rows)
        y, w = response_vector(ds, "y")[rows], ds.weights()[rows]
        with pytest.raises(RankDeficiencyError) as got:
            fit_logistic(pattern, y, w)
        with pytest.raises(RankDeficiencyError) as want:
            fit_logistic(as_pattern_design(X, pattern.names), y, w)
        assert got.value.columns == want.value.columns


class TestExposureContrast:
    def test_contrast_equals_fit_centered_at_replicate_means(self):
        # Under each replicate's weights, the contrast read from the fit on
        # the design centered once equals the exposure coefficient of the
        # fit on a design centered at that replicate's own means, for a
        # continuous and a categorical covariate, one fit at a time and in
        # one batch. The two parametrizations stop by a rule on the score,
        # which is not invariant to them, so they agree to that slack.
        rng = np.random.default_rng(11)
        ds = survey_dataset(rng, 500)
        spec = ModelSpec("y", "q", (main("x"), main("race"), interaction("x"), interaction("race")))
        design, y = build_design(ds, spec), response_vector(ds, "y")
        W = ds.weights() * rng.integers(0, 3, (5, ds.n_rows))
        g = design.contrast(W)
        batch = _irls(design, y, W, _weight_scale(ds.weights()))
        assert batch.failure.tolist() == [glm.CONVERGED] * len(W)
        for w, g_row, beta in zip(W, g, batch.beta):
            fit = fit_logistic(as_pattern_design(design_by_stacking(ds, spec, w), design.names), y, w)
            want = fit.beta[fit.names.index("q")]
            got = fit_logistic(design, y, w).beta
            assert abs(g_row @ got - want) <= 1e-9 * abs(want)
            assert abs(g_row @ beta - want) <= 1e-9 * abs(want)

    def test_contrast_on_rows_equals_contrast_under_zero_weights_elsewhere(self):
        rng = np.random.default_rng(12)
        ds = survey_dataset(rng, 200)
        spec = ModelSpec("y", "q", (main("x"), main("race"), interaction("x"), interaction("race")))
        design = build_design(ds, spec)
        rows = np.flatnonzero(rng.integers(0, 3, ds.n_rows))
        w = np.zeros(ds.n_rows)
        w[rows] = ds.weights()[rows]
        np.testing.assert_allclose(design.take(rows).contrast(w[rows]), design.contrast(w), rtol=1e-13, atol=1e-15)
        # Under the weights the design was centered at, g is the unit
        # vector on the exposure, up to rounding.
        g = design.contrast(ds.weights())
        assert g[1] == 1.0 and np.abs(np.delete(g, 1)).max() < 1e-12

    def test_contrast_reads_weighted_means_of_the_oracle_columns(self):
        # A continuous and a 3-level categorical interaction, and sex as a
        # main effect only. Each interaction entry is the W-weighted mean of
        # the covariate column the exposure multiplies, stacked by the
        # oracle; the exposure entry is 1 and every other entry 0. A batch
        # of weight rows gives each row's contrast.
        rng = np.random.default_rng(13)
        ds = survey_dataset(rng, 300)
        design, X = build_design(ds, PATTERN_SPEC), design_by_stacking(ds, PATTERN_SPEC)
        W = ds.weights() * rng.integers(0, 3, (4, ds.n_rows))
        g = design.contrast(W)
        assert g.shape == (4, len(design.names))
        for g_row, w in zip(g, W):
            # Equal to rounding (atol 0 keeps the zeros exact): the matrix
            # products of a batch, or of a widened design, may sum in
            # another order.
            np.testing.assert_allclose(design.contrast(w), g_row, rtol=1e-14, atol=0.0)
        inter = [j for j, name in enumerate(design.names) if name.startswith("q:")]
        assert [design.names[j] for j in inter] == ["q:x", "q:race=b", "q:race=c"]
        for j in inter:
            covariate = X[:, design.names.index(design.names[j].removeprefix("q:"))]
            np.testing.assert_allclose(g[:, j], W @ covariate / W.sum(axis=1), rtol=0.0, atol=1e-13)
        assert (g[:, 1] == 1.0).all()
        assert (np.delete(g, [1, *inter], axis=1) == 0.0).all()

    @pytest.mark.parametrize("form", SPECS)
    def test_contrast_of_a_widened_design_has_a_zero_in_the_new_column(self, form):
        # A score column appended after the interaction columns (with a
        # continuous covariate, with two continuous columns, and with
        # discrete columns only) gets a 0, and every other entry keeps its
        # value: the exposure stays in column 1, and each interaction
        # column stays paired with its covariate's main column.
        rng = np.random.default_rng(13)
        ds = survey_dataset(rng, 300)
        design = build_design(ds, SPECS[form])
        assert any(name.startswith("q:") for name in design.names)
        W = ds.weights() * rng.integers(0, 3, (4, ds.n_rows))
        g = design.contrast(W)
        widened = design.with_column("propensity_score", rng.uniform(0.05, 0.95, ds.n_rows))
        assert widened.names == design.names + ("propensity_score",)
        np.testing.assert_allclose(widened.contrast(W), np.column_stack([g, np.zeros(4)]), rtol=1e-14, atol=0.0)

    def test_contrast_does_not_depend_on_the_order_of_the_terms(self):
        # An interaction listed before its main effect is paired with it all
        # the same: the contrast is the main-first one, its columns permuted.
        rng = np.random.default_rng(14)
        ds = survey_dataset(rng, 300)
        first = build_design(ds, ModelSpec("y", "q", (main("x"), main("race"), interaction("x"), interaction("race"))))
        later = build_design(ds, ModelSpec("y", "q", (interaction("race"), interaction("x"), main("race"), main("x"))))
        W = ds.weights() * rng.integers(0, 3, (3, ds.n_rows))
        order = [first.names.index(name) for name in later.names]
        np.testing.assert_allclose(later.contrast(W), first.contrast(W)[:, order], rtol=1e-14, atol=0.0)


class TestWaldInterval:
    def test_standard_normal_quantile(self):
        fit = _fixed_fit(beta=0.0, se=1.0)
        assert wald_interval(fit, np.array([1.0])) == (0.0, -Z95, Z95)

    def test_reported_or_interval_recovered(self):
        # Width reconstructed from the published rounded CI (2.64, 3.58) for
        # OR 3.07; the recovered limits match to rounding precision.
        se = (math.log(3.58) - math.log(2.64)) / (2 * Z95)
        fit = _fixed_fit(beta=math.log(3.07), se=se)
        _, lo, hi = wald_interval(fit, np.array([1.0]))
        assert math.exp(lo) == pytest.approx(2.64, abs=0.01)
        assert math.exp(hi) == pytest.approx(3.58, abs=0.01)
        assert math.exp(hi) / math.exp(lo) == pytest.approx(3.58 / 2.64, rel=1e-12)

    def test_zero_se_degenerate(self):
        fit = _fixed_fit(beta=1.5, se=0.0)
        assert wald_interval(fit, np.array([1.0])) == (1.5, 1.5, 1.5)

    def test_contrast_reads_covariance_of_several_coefficients(self):
        # g = (1, 1) sums two coefficients, so its variance takes in their covariance.
        from causalmed.glm import FitResult

        cov = np.array([[0.04, -0.01], [-0.01, 0.09]])
        fit = FitResult(("a", "b"), np.array([0.5, 0.25]), cov, cov, iterations=1, n_obs=10)
        est, lo, hi = wald_interval(fit, [1.0, 1.0])
        assert est == 0.75
        assert hi - est == pytest.approx(Z95 * math.sqrt(0.04 + 0.09 - 0.02), rel=1e-15)
        assert est - lo == pytest.approx(hi - est, rel=1e-15)

    @pytest.mark.parametrize("g", [[1.0, 0.0], [[1.0]], 1.0])
    def test_contrast_shape_must_match_coefficients(self, g):
        fit = _fixed_fit(beta=0.0, se=1.0)
        with pytest.raises(InputError, match="contrast of shape"):
            wald_interval(fit, g)


def _fixed_fit(beta, se):
    from causalmed.glm import FitResult

    cov = np.array([[se**2]])
    return FitResult(
        names=("b",),
        beta=np.array([beta]),
        cov_model=cov,
        cov_sandwich=cov,
        iterations=1,
        n_obs=10,
    )


def test_package_runs_without_scipy():
    # numpy is the only dependency: with scipy unimportable every module
    # imports, the collinearity diagnosis names a column, and the exact SCM
    # oracle runs.
    code = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np, causalmed\n"
        "for m in pkgutil.iter_modules(causalmed.__path__):\n"
        "    importlib.import_module('causalmed.' + m.name)\n"
        "assert 'causalmed.mediation' in sys.modules\n"
        "from causalmed import glm, scm\n"
        "from causalmed.errors import RankDeficiencyError\n"
        "x = np.linspace(0, 1, 50)\n"
        "X = np.column_stack([np.ones(50), x, 2 * x])\n"
        "blocks = np.concatenate([np.zeros((1, 3)), np.eye(3)])[:, None]\n"
        "design = glm.PatternDesign(('(Intercept)', 'x', 'x2'), np.zeros(50, dtype=int), X.T.copy(), blocks, ())\n"
        "try:\n"
        "    glm.fit_logistic(design, (x > 0.5) * 1.0)\n"
        "except RankDeficiencyError as err:\n"
        "    print(err.columns)\n"
        "print(scm.oracle_estimands(scm.load_fixture('mediation_binary')).x_levels)\n"
    )
    src = str(Path(causalmed.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["('x2',)", "('0', '1')"]


def test_expit_saturates_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert expit(np.array([-1000.0, 0.0, 1000.0])).tolist() == [0.0, 0.5, 1.0]


def test_log_likelihood_softplus_within_two_ulp_of_logaddexp():
    # Per row, with y = 0 and w = 1, the log-likelihood is -softplus(eta).
    eta = np.concatenate([np.linspace(-800.0, 800.0, 160_001), [0.0, -709.0, 709.0, -745.2, 745.2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = -_log_likelihood(eta[:, None], np.zeros(1), np.ones(1))
    want = softplus_reference(eta)
    assert (np.abs(got - want) <= 2 * np.spacing(want)).all()


def test_log_likelihood_matches_oracle_sum():
    rng = np.random.default_rng(5)
    X = np.column_stack([np.ones(500), rng.normal(0.0, 3.0, (500, 3))])
    beta = rng.normal(0.0, 2.0, 4)
    y = (rng.random(500) < 0.4).astype(float)
    w = rng.uniform(0.5, 2.0, 500)
    want = loglik_logistic(X, y, w, beta)
    assert abs(float(_log_likelihood(X @ beta, y, w)) - want) <= 1e-13 * abs(want)
