"""Total, direct, and indirect effects via the two-model procedure.

The total effect is the exposure coefficient from an outcome regression
without the mediators; the direct effect adds the mediator main effects; the
indirect effect is their difference on the log-odds scale, so indirect OR =
total OR / direct OR. Four estimator variants share this decomposition:

* ``primary``  - covariates centered at their weighted means, plus
  exposure-by-covariate interaction terms (the exposure coefficient is then
  the effect at covariate means);
* ``simple``   - plain main-effects regression;
* ``ps_regression`` - adjustment through a single propensity-score covariate;
* ``ipw``      - weighted regression under stabilized inverse-probability
  weights times the survey weights.

Every variant is one estimator (:func:`variant_estimator`): design columns
built once from the dataset, fitted under a row-weight vector. Point
estimates use the survey weights. Total and direct effects carry Wald
sandwich CIs; the indirect effect has no closed-form SE here, so its CI
comes from a deterministic nonparametric bootstrap in which a replicate is
a row-count vector: both models (and any propensity model) are refit on the
full rows under the survey weights times the counts, which is the same fit
as on the resampled rows.

When every role column is discrete, the designs and the response are
functions of K distinct role-column patterns, so the bootstrap fits each
replicate on one row per pattern, weighted by its row weights summed within
the pattern. Blocks of at most n // K replicates run their Newton iterations
together, which keeps every stacked design within the size of the full-row
one (large n bounds the block further, by its count matrix). A replicate whose stacked fit needs anything beyond plain Newton steps
(a failed Cholesky gate, step-halving, the separation bound, no
convergence) or ends on an information matrix with condition number above
1e6 is refit on the full rows, and that fit decides its statistic or its
failure. With a continuous role column every replicate is fitted on the
full rows.

Note the total effect from the mediator-free model is the standard
two-model quantity, not a collapsibility-corrected marginal effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adjustment import SCORE_EPS, ipw_weights, propensity_design, propensity_scores
from .data import Continuous, Dataset, VariableRoles
from .errors import (
    BootstrapError,
    ConvergenceError,
    InputError,
    RankDeficiencyError,
    SeparationError,
)
from .glm import (
    DesignMatrix,
    FitResult,
    ModelSpec,
    design_template,
    expit,
    fit_logistic,
    fit_logistic_stacked,
    interaction,
    main,
    response_vector,
    wald_interval,
)

VARIANTS = ("primary", "simple", "ps_regression", "ipw")

#: Name of the ``ps_regression`` design column holding the fitted
#: propensity scores, which sit right after the exposure.
PS_COLUMN = "propensity_score"

FIT_FAILURES = (RankDeficiencyError, SeparationError, ConvergenceError)

#: Largest share of bootstrap replicates that may fail before the interval
#: is refused.
MAX_FAILURE_RATE = 0.1


@dataclass(frozen=True)
class EffectEstimate:
    kind: str
    log_or: float
    odds_ratio: float
    ci_or: tuple[float, float] | None
    variant: str
    n_used: int

    def __post_init__(self):
        expected = math.exp(self.log_or)
        if abs(self.odds_ratio - expected) > 1e-12 * max(1.0, expected):
            raise InputError("odds_ratio must equal exp(log_or)")
        if self.ci_or is not None:
            lo, hi = self.ci_or
            if lo > hi:
                raise InputError("confidence interval is not ordered")

    @classmethod
    def from_log_or(cls, kind, log_or, ci_or, variant, n_used) -> "EffectEstimate":
        return cls(kind, float(log_or), math.exp(log_or), ci_or, variant, n_used)

    def to_json_obj(self):
        return {
            "effect": self.kind,
            "log_or": self.log_or,
            "or": self.odds_ratio,
            "ci": None if self.ci_or is None else [self.ci_or[0], self.ci_or[1]],
            "variant": self.variant,
            "n_used": self.n_used,
        }


@dataclass(frozen=True)
class EffectTriple:
    total: EffectEstimate
    direct: EffectEstimate
    indirect: EffectEstimate
    seed: int
    bootstrap_reps: int
    #: Bootstrap replicates dropped as failed fits.
    bootstrap_failed: int = 0

    def __post_init__(self):
        gap = abs(self.indirect.log_or - (self.total.log_or - self.direct.log_or))
        if gap > 1e-12:
            raise InputError(f"decomposition identity violated by {gap!r}")

    def estimates(self) -> tuple[EffectEstimate, EffectEstimate, EffectEstimate]:
        return (self.total, self.direct, self.indirect)

    def to_json_obj(self):
        return {
            "total": self.total.to_json_obj(),
            "direct": self.direct.to_json_obj(),
            "indirect": self.indirect.to_json_obj(),
            "seed": self.seed,
            "bootstrap_reps": self.bootstrap_reps,
            "bootstrap_failed": self.bootstrap_failed,
        }


# ---------------------------------------------------------------------------
# The estimator: fixed designs, one weight vector


def _outcome_spec(roles, variant, include_mediators) -> ModelSpec:
    if include_mediators and not roles.mediators:
        raise InputError("direct effect requires at least one mediator column")
    covariates = () if variant in ("ps_regression", "ipw") else roles.adjustment_columns()
    terms = [main(c) for c in covariates]
    if include_mediators:
        terms.extend(main(m) for m in roles.mediators)
    if variant == "primary":
        terms.extend(interaction(c) for c in covariates)
    return ModelSpec(
        outcome=roles.outcome,
        exposure=roles.exposure,
        terms=tuple(terms),
        center_covariates=(variant == "primary"),
    )


def variant_estimator(ds: Dataset, roles: VariableRoles, variant: str, include_mediators=(False, True)):
    """The variant's estimator on ``ds``, as a function of a row-weight vector.

    The design columns are built here, once. The returned function maps a
    weight vector over the rows of ``ds`` (the survey weights, or the survey
    weights times a bootstrap replicate's row counts) to one outcome fit per
    entry of ``include_mediators``: the mediator-free model for False, the
    mediator-adjusted model for True. Only three pieces depend on the
    weights: the centering offsets of ``primary``, the propensity-score
    column of ``ps_regression``, and the stabilized IPW factor of ``ipw``;
    the last two come from the mediator-free propensity model refit under
    the same weights.

    Under integer row counts the coefficients equal those of the refit on
    the resampled rows. The sandwich covariance does not, as it reads a
    weight as a sampling weight rather than repeated rows; a bootstrap
    replicate uses the coefficients only.
    """
    if variant not in VARIANTS:
        raise InputError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    roles.validate(ds)
    y = response_vector(ds, roles.outcome)
    templates = [design_template(ds, _outcome_spec(roles, variant, m)) for m in include_mediators]
    if variant == "primary":
        return lambda w: tuple(fit_logistic(t.design(w), y, w) for t in templates)
    designs = [t.design(ds.weights()) for t in templates]
    if variant == "simple":
        return lambda w: tuple(fit_logistic(d, y, w) for d in designs)
    ps_design = propensity_design(ds, roles)
    treat = response_vector(ds, roles.exposure)
    if variant == "ipw":

        def fit_ipw(w):
            _, scores = propensity_scores(ps_design, treat, w)
            combined = w * ipw_weights(scores, treat, w)
            return tuple(fit_logistic(d, y, combined) for d in designs)

        return fit_ipw

    ps_names = [d.names[:2] + (PS_COLUMN,) + d.names[2:] for d in designs]

    def fit_ps(w):
        _, scores = propensity_scores(ps_design, treat, w)
        return tuple(
            fit_logistic(DesignMatrix(np.insert(d.matrix, 2, scores, axis=1), names, {}), y, w)
            for d, names in zip(designs, ps_names)
        )

    return fit_ps


@dataclass(frozen=True, eq=False)
class EffectPair:
    """Both outcome fits on one dataset, with the exposure coefficients."""

    total_fit: FitResult
    direct_fit: FitResult
    exposure: str
    n_used: int

    @property
    def total_log_or(self) -> float:
        return self.total_fit.coef(self.exposure)

    @property
    def direct_log_or(self) -> float:
        return self.direct_fit.coef(self.exposure)

    @property
    def indirect_log_or(self) -> float:
        return self.total_log_or - self.direct_log_or


def estimate_pair(ds: Dataset, roles: VariableRoles, variant: str) -> EffectPair:
    """Fit the mediator-free and mediator-adjusted models for one variant
    under the survey weights.

    The ps/ipw variants share one mediator-free propensity fit across both
    outcome models.
    """
    total_fit, direct_fit = variant_estimator(ds, roles, variant)(ds.weights())
    return EffectPair(total_fit, direct_fit, roles.exposure, ds.n_rows)


def _estimate_from_fit(kind, fit, roles, variant, n_used) -> EffectEstimate:
    log_or = fit.coef(roles.exposure)
    lo, hi = wald_interval(fit, roles.exposure)
    return EffectEstimate.from_log_or(kind, log_or, (math.exp(lo), math.exp(hi)), variant, n_used)


def total_effect(ds: Dataset, roles: VariableRoles, variant: str = "primary") -> EffectEstimate:
    """Exposure effect from the outcome model excluding the mediators."""
    (fit,) = variant_estimator(ds, roles, variant, (False,))(ds.weights())
    return _estimate_from_fit("total", fit, roles, variant, ds.n_rows)


def direct_effect(ds: Dataset, roles: VariableRoles, variant: str = "primary") -> EffectEstimate:
    """Exposure effect with mediator main effects added to the model."""
    (fit,) = variant_estimator(ds, roles, variant, (True,))(ds.weights())
    return _estimate_from_fit("direct", fit, roles, variant, ds.n_rows)


def combine(
    total: EffectEstimate, direct: EffectEstimate, ci_or: tuple[float, float] | None = None
) -> EffectEstimate:
    """Indirect effect as the difference of total and direct estimates.

    On the odds-ratio scale this is total OR / direct OR. Both inputs must
    come from the same variant and sample.
    """
    if total.kind != "total" or direct.kind != "direct":
        raise InputError("combine expects a total and a direct estimate")
    if total.variant != direct.variant:
        raise InputError(f"variant mismatch: {total.variant!r} vs {direct.variant!r}")
    if total.n_used != direct.n_used:
        raise InputError("estimates come from different samples")
    return EffectEstimate.from_log_or(
        "indirect", total.log_or - direct.log_or, ci_or, total.variant, total.n_used
    )


# ---------------------------------------------------------------------------
# Bootstrap


@dataclass(frozen=True)
class BootstrapInterval:
    lo: float
    hi: float
    se: float
    n_failed: int
    reps: int


#: Most cells in the (B, n) row-count matrix of one block of replicates.
BLOCK_CELLS = 1 << 20


def bootstrap_statistics(n_rows, reps, seed, block_fn, block_size):
    """Resampling engine: replicate i draws ``n_rows`` row indices with
    generator seed+i, and its statistic comes from their per-row counts.

    Replicates go to ``block_fn`` in order, ``block_size`` at a time (fewer
    in the last block), as a (B, n_rows) count matrix. It returns their B
    statistics, NaN for a replicate whose fit degenerated (rank deficiency,
    separation, non-convergence). Failed replicates are dropped and counted;
    more than :data:`MAX_FAILURE_RATE` of them failing is an error.
    """
    if reps < 100:
        raise InputError("at least 100 bootstrap replicates required")
    if seed < 0:
        raise InputError(f"bootstrap seed must be non-negative, got {seed}")
    stats = np.empty(reps)
    for start in range(0, reps, block_size):
        block = range(start, min(start + block_size, reps))
        counts = np.array(
            [np.bincount(np.random.default_rng(seed + i).integers(0, n_rows, n_rows), minlength=n_rows) for i in block]
        )
        stats[block.start : block.stop] = block_fn(counts)
    failed = np.isnan(stats)
    n_failed = int(failed.sum())
    if n_failed > MAX_FAILURE_RATE * reps:
        raise BootstrapError(f"{n_failed} of {reps} bootstrap replicates failed")
    return stats[~failed], n_failed


def _indirect_log_or(fit, weights, exposure) -> float:
    """Total minus direct exposure coefficient of ``fit`` under ``weights``;
    NaN when a fit fails."""
    try:
        total, direct = fit(weights)
    except FIT_FAILURES:
        return math.nan
    return total.coef(exposure) - direct.coef(exposure)


class _PatternReplicates:
    """Replicate statistics of one variant, a block at a time, fitted on
    one row per distinct role-column pattern (row ``first[k]`` for pattern
    k; ``pattern`` maps each row to its pattern) under the replicate's row
    weights summed within patterns. A replicate that any of its stacked fits
    leaves off the plain Newton path is refit on the full rows."""

    def __init__(self, ds, roles, variant, first, pattern):
        self.ds, self.roles, self.variant = ds, roles, variant
        self.weights = ds.weights()
        self.pattern, self.n_patterns = pattern, first.size
        self.y = response_vector(ds, roles.outcome)[first]
        self.templates = [design_template(ds, _outcome_spec(roles, variant, m)).take(first) for m in (False, True)]
        self.ps_design = None
        if variant in ("ps_regression", "ipw"):
            self.ps_design = propensity_design(ds, roles).matrix[first]
            self.treat = response_vector(ds, roles.exposure)[first]
        self._full_rows = None

    def __call__(self, counts):
        W = np.array([np.bincount(self.pattern, self.weights * c, self.n_patterns) for c in counts])
        # A replicate with no weight is left to the full-row fit, which refuses it.
        live = np.flatnonzero(W.any(axis=1))
        W = W[live]
        plain = np.ones(live.size, dtype=bool)
        fit_weights, scores = W, None
        if self.ps_design is not None:
            beta, plain = fit_logistic_stacked(self.ps_design, self.treat, W)
            scores = np.clip(expit(beta @ self.ps_design.T), SCORE_EPS, 1.0 - SCORE_EPS)
            if self.variant == "ipw":
                fit_weights = W * ipw_weights(scores, self.treat, W)
        coefs = []
        for template in self.templates:
            beta, fit_plain = fit_logistic_stacked(self._design(template, W, scores), self.y, fit_weights)
            coefs.append(beta[:, 1])
            plain &= fit_plain
        stats = np.empty(len(counts))
        stats[live] = coefs[0] - coefs[1]
        refit = np.ones(len(counts), dtype=bool)
        refit[live[plain]] = False
        for b in np.flatnonzero(refit):
            stats[b] = self._refit(counts[b])
        return stats

    def _design(self, template, W, scores):
        X = template.stacked_design(W)
        if self.variant != "ps_regression":
            return X
        return np.insert(np.broadcast_to(X, (len(W), *X.shape)), 2, scores, axis=2)

    def _refit(self, counts):
        if self._full_rows is None:
            self._full_rows = variant_estimator(self.ds, self.roles, self.variant)
        return _indirect_log_or(self._full_rows, self.weights * counts, self.roles.exposure)


def _replicate_blocks(ds, roles, variant):
    """The replicate statistic of ``bootstrap_ci`` as a block function, and
    its block size."""
    if variant not in VARIANTS:
        raise InputError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    roles.validate(ds)
    columns = roles.all_columns()
    if any(isinstance(ds[c].kind, Continuous) for c in columns):
        fit, w = variant_estimator(ds, roles, variant), ds.weights()
        return (lambda counts: [_indirect_log_or(fit, w * c, roles.exposure) for c in counts]), 1
    codes = np.column_stack([ds[c].values for c in columns])
    _, first, pattern = np.unique(codes, axis=0, return_index=True, return_inverse=True)
    block_size = max(1, min(ds.n_rows // first.size, BLOCK_CELLS // ds.n_rows))
    return _PatternReplicates(ds, roles, variant, first, pattern.ravel()), block_size


def bootstrap_ci(ds: Dataset, roles: VariableRoles, variant: str, reps: int, seed: int) -> BootstrapInterval:
    """Percentile 95% bootstrap interval of the indirect odds ratio.

    A replicate's statistic is the indirect log odds ratio, total minus
    direct, from both outcome models (and, for the ps/ipw variants, the
    propensity model) refit under the survey weights times its row counts,
    which is the same fit as on the resampled rows. The limits are
    percentiles of the replicate odds ratios and ``se`` is the replicates'
    standard deviation on the log scale.

    When every role column is discrete the rows collapse to their K distinct
    role-column patterns, and replicates are fitted in blocks of at most
    n // K, so no stacked (B, K, p) design outgrows the full-row one, and of
    at most :data:`BLOCK_CELLS` / n, which bounds the block's count matrix.
    A block's fits run their Newton iterations together over the patterns
    (:func:`~causalmed.glm.fit_logistic_stacked`), under
    :func:`~causalmed.glm.fit_logistic`'s start, stopping rule and limits.
    A replicate that fails the Cholesky gate, would need step-halving,
    passes the separation bound, does not converge, or ends on an
    information matrix with condition number above
    :data:`~causalmed.glm.STACKED_MAX_CONDITION` is refit on the full rows,
    and that fit decides its statistic or its failure. When a role column is
    continuous, rows do not collapse and every replicate is fitted on the
    full rows, one at a time.
    """
    block_fn, block_size = _replicate_blocks(ds, roles, variant)
    stats, n_failed = bootstrap_statistics(ds.n_rows, reps, seed, block_fn, block_size)
    se = float(stats.std(ddof=1)) if stats.size > 1 else 0.0
    # (1 - 0.95) / 2 differs from 0.025 in the last bits; the limits keep it.
    alpha = (1.0 - 0.95) / 2.0
    lo, hi = np.percentile(np.exp(stats), [100 * alpha, 100 * (1 - alpha)])
    return BootstrapInterval(float(lo), float(hi), se, n_failed, reps)


def effect_triple(
    ds: Dataset,
    roles: VariableRoles,
    variant: str,
    *,
    bootstrap_reps: int = 1000,
    seed: int = 0,
) -> EffectTriple:
    """Total, direct, and indirect effects for one variant on complete data.

    Total and direct carry Wald sandwich CIs from their fits; the indirect
    CI is a percentile bootstrap with the given seed and replicate count,
    and the replicates dropped as failed fits are reported with it.
    """
    pair = estimate_pair(ds, roles, variant)
    total = _estimate_from_fit("total", pair.total_fit, roles, variant, pair.n_used)
    direct = _estimate_from_fit("direct", pair.direct_fit, roles, variant, pair.n_used)
    interval = bootstrap_ci(ds, roles, variant, bootstrap_reps, seed)
    indirect = combine(total, direct, ci_or=(interval.lo, interval.hi))
    return EffectTriple(total, direct, indirect, seed, bootstrap_reps, interval.n_failed)
