"""Propensity scores, inverse-probability weighting, and balance diagnostics.

The propensity model is a survey-weighted logistic regression of the
exposure on the adjustment covariates; the mediators never enter it, as
they are measured after the exposure. Stabilized weights multiply the
inverse score by the marginal exposure probability and therefore average
one. Covariate balance is read from the propensity design's moments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, VariableRoles
from .errors import InputError
from .glm import ModelSpec, PatternDesign, build_design, expit, fit_logistic, main, response_vector

SCORE_EPS = 1e-12

#: Number of equal-width score bins in :func:`overlap_diagnostics`.
OVERLAP_BINS = 10


@dataclass(frozen=True, eq=False)
class PropensityFit:
    """Fitted exposure model with per-row scores.

    Scores are clipped into (0, 1) strictly. The exposure-model design,
    intercept first and its covariate columns centered like every design,
    is kept for the balance diagnostics, which read its moments.
    """

    scores: np.ndarray
    design: PatternDesign
    exposure: np.ndarray
    base_weights: np.ndarray


def propensity_spec(roles: VariableRoles) -> ModelSpec:
    """The exposure model: intercept and the adjustment covariates."""
    terms = tuple(main(c) for c in roles.adjustment_columns())
    return ModelSpec(outcome=roles.exposure, exposure=None, terms=terms)


def clipped_scores(design: PatternDesign, beta: np.ndarray) -> np.ndarray:
    """Propensity scores of the exposure-model design under coefficients
    ``beta``, clipped strictly into (0, 1); a (B, p) stack of coefficients
    gives (B, n) scores."""
    return np.clip(expit(design.eta(beta)), SCORE_EPS, 1.0 - SCORE_EPS)


def fit_propensity(ds: Dataset, roles: VariableRoles) -> PropensityFit:
    """Logistic regression of the exposure on the adjustment covariates.

    The exposure must be observed on every row (a DataError names it).
    """
    roles.validate(ds)
    design = build_design(ds, propensity_spec(roles))
    exposure = response_vector(ds, roles.exposure)
    weights = ds.weights()
    beta = fit_logistic(design, exposure, weights).beta
    return PropensityFit(
        scores=clipped_scores(design, beta),
        design=design,
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


def overlap_diagnostics(psfit: PropensityFit, exposure: np.ndarray) -> DensitySummary:
    """Score histograms by exposure group over :data:`OVERLAP_BINS` equal
    bins of [0, 1], each summing to one, plus per-covariate standardized
    mean differences before and after stabilized inverse-probability
    weighting. ``exposure`` must align with the fit's scores.

    Each group's weights, before and after, are one row of a stack W: a
    column's group mean is its ``design.score(W)`` over the total weight, and
    its variance the ``design.gram(W)`` diagonal over that total less the
    squared mean, clamped at 0. The SMD is |m1 - m0| / sqrt((v1 + v0) / 2),
    or 0 where that pooled standard deviation is 0."""
    exposure = np.asarray(exposure, dtype=np.float64)
    if exposure.shape != psfit.scores.shape:
        raise InputError("exposure vector does not align with the propensity scores")
    edges = np.linspace(0.0, 1.0, OVERLAP_BINS + 1)
    proportions = {}
    groups = [exposure == 0.0, exposure == 1.0]
    for group, sel in enumerate(groups):
        if not sel.any():
            raise InputError(f"exposure group {group} is empty")
        if psfit.base_weights[sel].sum() == 0.0:
            raise InputError(f"exposure group {group} has zero total weight")
        counts, _ = np.histogram(psfit.scores[sel], bins=edges)
        proportions[str(group)] = counts / counts.sum()
    after_w = psfit.base_weights * ipw_weights(psfit.scores, exposure, psfit.base_weights)
    # Rows: groups 0 and 1 before weighting, then both after it.
    W = np.stack([w * sel for w in (psfit.base_weights, after_w) for sel in groups])
    total = W.sum(axis=1, keepdims=True)
    mean = psfit.design.score(W)[:, 1:] / total
    var = np.maximum(np.diagonal(psfit.design.gram(W), axis1=1, axis2=2)[:, 1:] / total - mean**2, 0.0)
    pooled = np.sqrt((var[0::2] + var[1::2]) / 2.0)
    smd = np.divide(np.abs(mean[1::2] - mean[0::2]), pooled, out=np.zeros_like(pooled), where=pooled > 0.0)
    rows = (SmdRow(name, float(before), float(after)) for name, before, after in zip(psfit.design.names[1:], *smd))
    return DensitySummary(edges, proportions, tuple(rows))
