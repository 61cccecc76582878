import dataclasses

import numpy as np
import pytest

from causalmed.adjustment import (
    OVERLAP_BINS,
    fit_propensity,
    ipw_weights,
    overlap_diagnostics,
    propensity_spec,
)
from causalmed.data import Binary, Categorical, CellState, Column, Continuous, Dataset, VariableRoles
from causalmed.errors import DataError, InputError
from causalmed.glm import PatternDesign

from oracles import design_by_stacking, weighted_smd_two_pass

ROLES = VariableRoles(exposure="q", outcome="y", baseline_support="x")


def binary_col(codes):
    return Column(Binary(), np.asarray(codes, dtype=np.int16), np.zeros(len(codes), dtype=np.uint8))


def confounded_dataset(rng, n, *, weight=False):
    """Exposure and outcome both depend on one binary covariate x."""
    x = rng.integers(0, 2, n)
    q = (rng.random(n) < np.where(x == 1, 0.7, 0.25)).astype(np.int16)
    y = (rng.random(n) < 0.3 + 0.2 * x).astype(np.int16)
    cols = {"q": binary_col(q), "y": binary_col(y), "x": binary_col(x)}
    if not weight:
        return Dataset(cols)
    cols["w"] = Column(Continuous(), rng.uniform(0.5, 2.0, n), np.zeros(n, dtype=np.uint8))
    return Dataset(cols, weight_column="w")


def mixed_dataset(rng, n):
    """Survey weights uniform on (0.5, 2), a continuous covariate a and a
    three-level covariate g, both of which move the exposure."""
    a = rng.normal(40.0, 12.0, n)
    g = rng.integers(0, 3, n)
    q = (rng.random(n) < 1.0 / (1.0 + np.exp(-(0.04 * (a - 40.0) + 0.6 * g - 0.5)))).astype(np.int16)
    y = (rng.random(n) < 0.3).astype(np.int16)
    unobserved = np.zeros(n, dtype=np.uint8)
    cols = {
        "q": binary_col(q),
        "y": binary_col(y),
        "a": Column(Continuous(), a, unobserved),
        "g": Column(Categorical(("lo", "mid", "hi"), "lo"), g.astype(np.int16), unobserved),
        "w": Column(Continuous(), rng.uniform(0.5, 2.0, n), unobserved),
    }
    return Dataset(cols, weight_column="w")


MIXED_ROLES = VariableRoles(exposure="q", outcome="y", baseline_support="a", covariates=("g",))


def referee_smds(ds, roles, psfit):
    """(covariate, before, after) by the two-pass referee on each dense
    covariate column of the propensity design."""
    X = design_by_stacking(ds, propensity_spec(roles))[:, 1:]
    after_w = psfit.base_weights * ipw_weights(psfit.scores, psfit.exposure, psfit.base_weights)
    return [
        (
            name,
            weighted_smd_two_pass(X[:, j], psfit.exposure, psfit.base_weights),
            weighted_smd_two_pass(X[:, j], psfit.exposure, after_w),
        )
        for j, name in enumerate(psfit.design.names[1:])
    ]


class TestBalance:
    @pytest.mark.parametrize("weight", [False, True])
    def test_saturated_propensity_balances_exactly(self, weight):
        # With one binary covariate the propensity model is saturated: the
        # scores are the weighted exposure shares within each x level, so the
        # stabilized weights equalize the weighted x mean across groups.
        ds = confounded_dataset(np.random.default_rng(5), 2_000, weight=weight)
        psfit = fit_propensity(ds, ROLES)
        (row,) = overlap_diagnostics(psfit, psfit.exposure).smd
        assert row.covariate == "x"
        assert row.before > 0.5
        assert row.after < 1e-6

    @pytest.mark.parametrize(
        "make, roles",
        [
            (lambda: mixed_dataset(np.random.default_rng(8), 3_000), MIXED_ROLES),
            (lambda: confounded_dataset(np.random.default_rng(5), 2_000), ROLES),
            (lambda: confounded_dataset(np.random.default_rng(5), 2_000, weight=True), ROLES),
        ],
        ids=["continuous-and-three-level", "saturated", "saturated-weighted"],
    )
    def test_moment_smds_match_the_two_pass_referee(self, make, roles):
        ds = make()
        psfit = fit_propensity(ds, roles)
        rows = overlap_diagnostics(psfit, psfit.exposure).smd
        expected = referee_smds(ds, roles, psfit)
        assert [r.covariate for r in rows] == [name for name, _, _ in expected]
        for row, (_, before, after) in zip(rows, expected):
            assert row.before == pytest.approx(before, rel=0, abs=1e-12)
            assert row.after == pytest.approx(after, rel=0, abs=1e-12)

    def test_balance_never_expands_the_design(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a balance table expanded the design to its dense rows")

        monkeypatch.setattr(PatternDesign, "dense", refuse)
        ds = mixed_dataset(np.random.default_rng(9), 400)
        psfit = fit_propensity(ds, MIXED_ROLES)
        rows = overlap_diagnostics(psfit, psfit.exposure).smd
        assert [r.covariate for r in rows] == ["a", "g=mid", "g=hi"]


class TestFitPropensity:
    def test_missing_exposure_rejected(self):
        ds = confounded_dataset(np.random.default_rng(7), 40)
        q = ds["q"]
        state = q.state.copy()
        state[[3, 17]] = CellState.MISSING
        ds = ds.replace_columns({"q": Column(q.kind, q.values, state)})
        with pytest.raises(DataError, match="'q'"):
            fit_propensity(ds, ROLES)


class TestIpwWeights:
    @pytest.mark.parametrize("scores", [[0.0, 0.5], [0.5, 1.0], [1.2, 0.5], [-0.1, 0.5]])
    def test_scores_outside_unit_interval_rejected(self, scores):
        with pytest.raises(InputError, match="strictly in"):
            ipw_weights(np.asarray(scores), np.array([1.0, 0.0]), np.ones(2))

    def test_misaligned_exposure_rejected(self):
        with pytest.raises(InputError, match="does not align"):
            ipw_weights(np.array([0.2, 0.5, 0.7]), np.array([1.0, 0.0]), np.ones(3))


class TestOverlap:
    def test_proportions_sum_to_one_per_group(self):
        ds = confounded_dataset(np.random.default_rng(6), 500, weight=True)
        psfit = fit_propensity(ds, ROLES)
        summary = overlap_diagnostics(psfit, psfit.exposure)
        assert OVERLAP_BINS == 10
        assert summary.bin_edges.size == 11
        assert set(summary.proportions) == {"0", "1"}
        for props in summary.proportions.values():
            assert props.size == 10
            assert props.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_exposure_group_rejected(self):
        psfit = fit_propensity(confounded_dataset(np.random.default_rng(6), 200), ROLES)
        with pytest.raises(InputError, match="group 1 is empty"):
            overlap_diagnostics(psfit, np.zeros(psfit.scores.size))

    @pytest.mark.parametrize("group", [0, 1])
    def test_exposure_group_with_zero_weight_rejected(self, group):
        psfit = fit_propensity(confounded_dataset(np.random.default_rng(6), 200, weight=True), ROLES)
        psfit = dataclasses.replace(psfit, base_weights=np.where(psfit.exposure == group, 0.0, psfit.base_weights))
        with pytest.raises(InputError, match=f"exposure group {group} has zero total weight"):
            overlap_diagnostics(psfit, psfit.exposure)

    @pytest.mark.parametrize("n", [39, 41])
    def test_misaligned_exposure_rejected(self, n):
        psfit = fit_propensity(confounded_dataset(np.random.default_rng(6), 40), ROLES)
        with pytest.raises(InputError, match="does not align"):
            overlap_diagnostics(psfit, np.resize(psfit.exposure, n))
