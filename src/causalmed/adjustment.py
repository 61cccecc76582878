"""Propensity scores, inverse-probability weighting, and balance diagnostics.

The propensity model is a survey-weighted logistic regression of the
exposure on the adjustment covariates; the mediators never enter it, as
they are measured after the exposure. Stabilized weights multiply the
inverse score by the marginal exposure probability and therefore average
one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, VariableRoles
from .errors import InputError
from .glm import DesignMatrix, ModelSpec, build_design, expit, fit_logistic, main, response_vector

SCORE_EPS = 1e-12

#: Number of equal-width score bins in :func:`overlap_diagnostics`.
OVERLAP_BINS = 10


@dataclass(frozen=True, eq=False)
class PropensityFit:
    """Fitted exposure model with per-row scores.

    Scores are clipped into (0, 1) strictly. The design columns are retained
    for balance diagnostics.
    """

    scores: np.ndarray
    covariate_names: tuple[str, ...]
    covariate_matrix: np.ndarray
    exposure: np.ndarray
    base_weights: np.ndarray


def propensity_design(ds: Dataset, roles: VariableRoles) -> DesignMatrix:
    """Design of the exposure model: intercept and the adjustment covariates."""
    roles.validate(ds)
    terms = tuple(main(c) for c in roles.adjustment_columns())
    return build_design(ds, ModelSpec(outcome=roles.exposure, exposure=None, terms=terms))


def clipped_scores(X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Propensity scores of the (n, p) exposure-model design ``X`` under
    coefficients ``beta``, clipped strictly into (0, 1); a (B, p) stack of
    coefficients gives (B, n) scores."""
    eta = X @ beta if beta.ndim == 1 else beta @ X.T
    return np.clip(expit(eta), SCORE_EPS, 1.0 - SCORE_EPS)


def fit_propensity(ds: Dataset, roles: VariableRoles) -> PropensityFit:
    """Logistic regression of the exposure on the adjustment covariates.

    The exposure must be observed on every row (a DataError names it).
    """
    design = propensity_design(ds, roles)
    exposure = response_vector(ds, roles.exposure)
    weights = ds.weights()
    beta = fit_logistic(design, exposure, weights).beta
    return PropensityFit(
        scores=clipped_scores(design.matrix, beta),
        covariate_names=design.names[1:],
        covariate_matrix=design.matrix[:, 1:],
        exposure=exposure,
        base_weights=weights,
    )


def ipw_weights(scores: np.ndarray, exposure: np.ndarray, base_weights: np.ndarray) -> np.ndarray:
    """Stabilized inverse-probability weights: 1/e for the exposed and
    1/(1-e) otherwise, times the marginal probability of the row's exposure
    group computed under ``base_weights``, so they average one.

    ``scores`` and ``base_weights`` may be (B, n) stacks over the one
    exposure vector; each row is then weighted on its own."""
    scores = np.asarray(scores, dtype=np.float64)
    if ((scores <= 0.0) | (scores >= 1.0)).any():
        raise InputError("propensity scores must lie strictly in (0, 1)")
    exposure = np.asarray(exposure, dtype=np.float64)
    if exposure.shape != scores.shape[-1:]:
        raise InputError("exposure vector does not align with the propensity scores")
    weights = np.where(exposure == 1.0, 1.0 / scores, 1.0 / (1.0 - scores))
    base_weights = np.asarray(base_weights, dtype=np.float64)
    marginal = (exposure * base_weights).sum(axis=-1, keepdims=True) / base_weights.sum(axis=-1, keepdims=True)
    return weights * np.where(exposure == 1.0, marginal, 1.0 - marginal)


# ---------------------------------------------------------------------------
# Diagnostics


@dataclass(frozen=True)
class SmdRow:
    covariate: str
    before: float
    after: float


@dataclass(frozen=True, eq=False)
class DensitySummary:
    """Per-group score histograms plus covariate balance before/after weighting."""

    bin_edges: np.ndarray
    proportions: dict[str, np.ndarray]
    smd: tuple[SmdRow, ...]

    def to_json_obj(self):
        return {
            "bin_edges": [float(v) for v in self.bin_edges],
            "proportions": {k: [float(p) for p in v] for k, v in self.proportions.items()},
            "smd": [
                {"covariate": r.covariate, "before": r.before, "after": r.after} for r in self.smd
            ],
        }


def _weighted_smd(values, exposure, weights) -> float:
    stats = {}
    for group in (0.0, 1.0):
        sel = exposure == group
        w = weights[sel]
        v = values[sel]
        mean = float(np.average(v, weights=w))
        var = float(np.average((v - mean) ** 2, weights=w))
        stats[group] = (mean, var)
    pooled = np.sqrt((stats[1.0][1] + stats[0.0][1]) / 2.0)
    if pooled == 0.0:
        return 0.0
    return float(abs(stats[1.0][0] - stats[0.0][0]) / pooled)


def overlap_diagnostics(psfit: PropensityFit, exposure: np.ndarray) -> DensitySummary:
    """Score histograms by exposure group over :data:`OVERLAP_BINS` equal
    bins of [0, 1], each summing to one, plus per-covariate standardized
    mean differences before and after stabilized inverse-probability
    weighting. ``exposure`` must align with the fit's scores."""
    exposure = np.asarray(exposure, dtype=np.float64)
    if exposure.shape != psfit.scores.shape:
        raise InputError("exposure vector does not align with the propensity scores")
    edges = np.linspace(0.0, 1.0, OVERLAP_BINS + 1)
    proportions = {}
    for group in (0.0, 1.0):
        sel = exposure == group
        if not sel.any():
            raise InputError(f"exposure group {int(group)} is empty")
        counts, _ = np.histogram(psfit.scores[sel], bins=edges)
        proportions[str(int(group))] = counts / counts.sum()
    after_w = psfit.base_weights * ipw_weights(psfit.scores, exposure, psfit.base_weights)
    smd_rows = []
    for j, name in enumerate(psfit.covariate_names):
        col = psfit.covariate_matrix[:, j]
        smd_rows.append(
            SmdRow(
                covariate=name,
                before=_weighted_smd(col, exposure, psfit.base_weights),
                after=_weighted_smd(col, exposure, after_w),
            )
        )
    return DensitySummary(edges, proportions, tuple(smd_rows))
