import dataclasses

import numpy as np
import pytest

from causalmed.adjustment import (
    OVERLAP_BINS,
    fit_propensity,
    ipw_weights,
    overlap_diagnostics,
)
from causalmed.data import Binary, CellState, Column, Continuous, Dataset, VariableRoles
from causalmed.errors import DataError, InputError

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
