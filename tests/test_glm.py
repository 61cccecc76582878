import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import causalmed
from causalmed import glm
from causalmed.data import Binary, Categorical, Column, Continuous, Dataset
from causalmed.errors import (
    ConvergenceError,
    DataError,
    InputError,
    RankDeficiencyError,
    SeparationError,
)
from causalmed.glm import (
    GRAM_BLOCK_ROWS,
    DesignMatrix,
    ModelSpec,
    Z95,
    _gram,
    _irls,
    _log_likelihood,
    build_design,
    design_template,
    expit,
    fit_logistic,
    interaction,
    main,
    response_vector,
    wald_interval,
)

from oracles import design_by_stacking, fd_gradient, loglik_logistic, softplus_reference


def two_group_dataset(n1, e1, n0, e0):
    """Exposed group of size n1 with e1 events; unexposed n0 with e0."""
    q = ["1"] * n1 + ["0"] * n0
    y = ["1"] * e1 + ["0"] * (n1 - e1) + ["1"] * e0 + ["0"] * (n0 - e0)
    return Dataset({"q": Column.build(Binary(), q), "y": Column.build(Binary(), y)})


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
        spec = ModelSpec("y", "q", (main("x"),), center_covariates=True)
        design = build_design(ds, spec)
        np.testing.assert_allclose(design.column("x"), [-1.0, 0.0, 1.0])

    def test_interaction_column_is_product(self):
        ds = Dataset(
            {
                "q": Column.build(Binary(), ["1", "0"]),
                "y": Column.build(Binary(), ["1", "0"]),
                "x": Column.build(Continuous(), [1.0, 0.0]),
            }
        )
        spec = ModelSpec("y", "q", (main("x"), interaction("x")), center_covariates=True)
        design = build_design(ds, spec)
        np.testing.assert_allclose(design.column("x"), [0.5, -0.5])
        np.testing.assert_allclose(design.column("q:x"), [0.5, 0.0])

    def test_categorical_reference_coding(self):
        kind = Categorical(("White", "Asian", "Black"), "White")
        ds = Dataset(
            {
                "q": Column.build(Binary(), ["0", "1", "0"]),
                "y": Column.build(Binary(), ["0", "1", "1"]),
                "race": Column.build(kind, ["Asian", "White", "Black"]),
            }
        )
        design = build_design(ds, ModelSpec("y", "q", (main("race"),)))
        np.testing.assert_allclose(design.column("race=Asian"), [1.0, 0.0, 0.0])
        np.testing.assert_allclose(design.column("race=Black"), [0.0, 0.0, 1.0])
        assert design.names[0] == "(Intercept)"

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
        # no rank, centered or not, and the fit names it.
        kind = Categorical(("a", "b", "c"), "a")
        ds = Dataset(
            {
                "q": Column.build(Binary(), ["1", "0", "1", "0"]),
                "y": Column.build(Binary(), ["1", "0", "0", "1"]),
                "g": Column.build(kind, ["b", "a", "a", "b"]),
            }
        )
        for center in (False, True):
            design = build_design(ds, ModelSpec("y", "q", (main("g"),), center))
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
        spec = ModelSpec("y", "q", (main("x"),), center_covariates=True)
        design = build_design(ds, spec)
        w = ds.weights()
        assert abs(np.average(design.column("x"), weights=w)) < 1e-10


class TestFitLogistic:
    def test_two_group_closed_form(self):
        fit = fit_two_group(two_group_dataset(100, 20, 100, 10))
        assert fit.coef("(Intercept)") == pytest.approx(math.log(10 / 90), abs=1e-8)
        assert fit.coef("q") == pytest.approx(math.log(2.25), abs=1e-8)
        assert fit.iterations > 0

    def test_balanced_groups_give_zero(self):
        fit = fit_two_group(two_group_dataset(10, 5, 10, 5))
        assert fit.coef("(Intercept)") == 0.0
        assert fit.coef("q") == 0.0
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
        probs = {}
        for centered in (False, True):
            spec = ModelSpec("y", "q", (main("x"), interaction("x")), center_covariates=centered)
            design = build_design(ds, spec)
            fit = fit_logistic(design, response_vector(ds, "y"))
            eta = design.matrix @ fit.beta
            probs[centered] = 1 / (1 + np.exp(-eta))
        assert np.abs(probs[True] - probs[False]).max() < 1e-8

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
        mu = 1 / (1 + np.exp(-(design.matrix @ fit.beta)))
        score = design.matrix.T @ (y - mu)
        assert np.abs(score).max() < 1e-8

    def test_sandwich_close_to_model_based_when_correctly_specified(self):
        rng = np.random.default_rng(42)
        n = 100_000
        x = rng.normal(0, 1, n)
        q = rng.integers(0, 2, n).astype(float)
        p = 1 / (1 + np.exp(-(-1.0 + 0.7 * q + 0.5 * x)))
        y = (rng.random(n) < p).astype(float)
        X = np.column_stack([np.ones(n), q, x])
        design = DesignMatrix(X, ("(Intercept)", "q", "x"))
        fit = fit_logistic(design, y)
        se_m = np.sqrt(np.diag(fit.cov_model))
        se_s = np.sqrt(np.diag(fit.cov_sandwich))
        assert np.abs(se_s / se_m - 1.0).max() < 0.02

    def test_rank_deficiency_names_columns(self):
        n = 50
        x = np.linspace(0, 1, n)
        X = np.column_stack([np.ones(n), x, 2 * x])
        design = DesignMatrix(X, ("(Intercept)", "x", "x2"))
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
        design = DesignMatrix(X, ("(Intercept)", "x", "a", name))
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
        design = DesignMatrix(np.column_stack([np.ones(n), x]), ("(Intercept)", "x"))
        with pytest.raises(SeparationError):
            fit_logistic(design, y)

    def test_nonconvergence_raises(self, monkeypatch):
        ds = two_group_dataset(100, 20, 100, 10)
        monkeypatch.setattr(glm, "DEFAULT_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="no convergence in 1 iterations"):
            fit_two_group(ds)

    def test_input_validation(self):
        design = DesignMatrix(np.ones((4, 1)), ("(Intercept)",))
        with pytest.raises(InputError, match="0/1"):
            fit_logistic(design, np.array([0.0, 1.0, 2.0, 0.0]))
        with pytest.raises(InputError, match="non-negative"):
            fit_logistic(design, np.array([0.0, 1.0, 1.0, 0.0]), np.array([1.0, -1.0, 1.0, 1.0]))
        with pytest.raises(InputError, match="all be zero"):
            fit_logistic(design, np.array([0.0, 1.0, 1.0, 0.0]), np.zeros(4))


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


class TestBlockedGram:
    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize(
        "n", [1, GRAM_BLOCK_ROWS - 1, GRAM_BLOCK_ROWS, GRAM_BLOCK_ROWS + 1, 3 * GRAM_BLOCK_ROWS + 5]
    )
    def test_matches_einsum(self, n, stacked):
        rng = np.random.default_rng(n)
        if stacked:
            X = rng.normal(size=(3, n, 5))
            X[..., 2] *= 1e3
            v = rng.uniform(0.0, 3.0, (3, n))
            want = np.einsum("bij,bi,bik->bjk", X, v, X)
        else:
            X = rng.normal(size=(n, 5))
            X[:, 2] *= 1e3
            v = rng.uniform(0.0, 3.0, n)
            want = np.einsum("ij,i,ik->jk", X, v, X)
        got = _gram(X, v)
        assert got.shape == want.shape
        for g, w in zip(got.reshape(-1, 5, 5), want.reshape(-1, 5, 5)):
            assert np.linalg.norm(g - w) <= 1e-13 * np.linalg.norm(w)

    def test_each_fit_of_a_batch_equals_its_single_fit(self):
        # Three weight rows over rows spanning several Gram blocks, fitted
        # together: each equals fit_logistic under that row alone.
        ds = survey_dataset(np.random.default_rng(7), 3 * GRAM_BLOCK_ROWS + 5)
        spec = ModelSpec("y", "q", (main("x"), main("race"), interaction("x")), center_covariates=True)
        design, y = build_design(ds, spec), response_vector(ds, "y")
        W = ds.weights() * np.random.default_rng(8).integers(0, 3, (3, ds.n_rows))
        fits = _irls(design.matrix, y, W)
        assert fits.failure.tolist() == [glm.CONVERGED] * 3
        assert fits.plain.tolist() == [True] * 3
        for beta, iterations, w in zip(fits.beta, fits.iterations, W):
            want = fit_logistic(design, y, w)
            assert iterations == want.iterations
            assert np.abs(beta - want.beta).max() <= 1e-12 * np.abs(want.beta).max()

    def test_halving_fit_in_a_stacked_batch_leaves_the_plain_path(self):
        # Six weighted points, each as a y=1 and a y=0 row. At seed 428 a
        # later Newton step overshoots and is halved; the fits at seeds 0
        # and 1 take only full steps. Fitted as one stacked batch, the
        # halved fit is off the plain path and still equals its single fit.
        def weighted_points(seed):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(6, 2)) * np.exp(1.5 * rng.normal(size=(6, 1)))
            p, w = rng.uniform(0.0, 1.0, 6), np.exp(2.0 * rng.normal(size=6))
            return np.repeat(X, 2, axis=0), np.column_stack([w * p, w * (1.0 - p)]).ravel()

        X, W = map(np.stack, zip(*(weighted_points(seed) for seed in (0, 428, 1))))
        y = np.tile([1.0, 0.0], 6)
        fits = _irls(X, y, W)
        assert fits.failure.tolist() == [glm.CONVERGED] * 3
        assert fits.plain.tolist() == [True, False, True]
        for Xb, w, beta, iterations in zip(X, W, fits.beta, fits.iterations):
            want = fit_logistic(DesignMatrix(Xb, ("a", "b")), y, w)
            assert iterations == want.iterations
            assert np.abs(beta - want.beta).max() <= 1e-12 * np.abs(want.beta).max()


class TestDesignInPlace:
    @pytest.mark.parametrize("center", [False, True])
    @pytest.mark.parametrize("interactions", [False, True])
    def test_equals_stacked_columns(self, center, interactions):
        ds = survey_dataset(np.random.default_rng(3), 200)
        terms = [main("x"), main("race"), main("sex")]
        if interactions:
            terms += [interaction("x"), interaction("race"), interaction("sex")]
        template = design_template(ds, ModelSpec("y", "q", tuple(terms), center_covariates=center))
        assert np.array_equal(template.design(), design_by_stacking(template))

    @pytest.mark.parametrize("center", [False, True])
    def test_on_rows_equals_design_of_taken_rows(self, center):
        # Centering is at the full sample's means, so a centered design on
        # some rows is the full design's rows; an uncentered one is also
        # the design of the dataset cut down to them.
        rng = np.random.default_rng(4)
        ds = survey_dataset(rng, 200)
        terms = (main("x"), main("race"), interaction("x"), interaction("race"))
        spec = ModelSpec("y", "q", terms, center_covariates=center)
        rows = np.flatnonzero(rng.integers(0, 3, ds.n_rows))
        template = design_template(ds, spec)
        assert np.array_equal(template.design(rows), template.design()[rows])
        if not center:
            assert np.array_equal(template.design(rows), design_template(ds.take(rows), spec).design())


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
        spec = ModelSpec("y", "q", (main("x"), main("race"), interaction("x"), interaction("race")), True)
        template, y = design_template(ds, spec), response_vector(ds, "y")
        W = ds.weights() * rng.integers(0, 3, (5, ds.n_rows))
        g = template.contrast(W, None)
        batch = _irls(template.design(), y, W)
        assert batch.failure.tolist() == [glm.CONVERGED] * len(W)
        for w, g_row, beta in zip(W, g, batch.beta):
            want = fit_logistic(DesignMatrix(design_by_stacking(template, w), template.names), y, w).coef("q")
            got = fit_logistic(DesignMatrix(template.design(), template.names), y, w).beta
            assert abs(g_row @ got - want) <= 1e-9 * abs(want)
            assert abs(g_row @ beta - want) <= 1e-9 * abs(want)

    def test_contrast_on_rows_equals_contrast_under_zero_weights_elsewhere(self):
        rng = np.random.default_rng(12)
        ds = survey_dataset(rng, 200)
        spec = ModelSpec("y", "q", (main("x"), main("race"), interaction("x"), interaction("race")), True)
        template = design_template(ds, spec)
        rows = np.flatnonzero(rng.integers(0, 3, ds.n_rows))
        w = np.zeros(ds.n_rows)
        w[rows] = ds.weights()[rows]
        np.testing.assert_allclose(template.contrast(w[rows], rows), template.contrast(w, None), rtol=1e-13, atol=1e-15)
        # Under the weights the template was centered at, g is the unit
        # vector on the exposure, up to rounding.
        g = template.contrast(ds.weights(), None)
        assert g[1] == 1.0 and np.abs(np.delete(g, 1)).max() < 1e-12


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
        "try:\n"
        "    glm.fit_logistic(glm.DesignMatrix(X, ('(Intercept)', 'x', 'x2')), (x > 0.5) * 1.0)\n"
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
