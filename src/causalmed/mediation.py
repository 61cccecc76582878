"""Total, direct, and indirect effects via the two-model procedure.

The total effect is the exposure coefficient from an outcome regression
without the mediators; the direct effect adds the mediator main effects; the
indirect effect is their difference on the log-odds scale, so indirect OR =
total OR / direct OR. Every model, the propensity model included, centers
its covariates at their survey-weighted means. Four estimator variants share
this decomposition:

* ``simple``   - main-effects regression;
* ``primary``  - ``simple`` plus exposure-by-covariate interaction terms
  (the exposure effect is read at the covariate means);
* ``ps_regression`` - adjustment through a single propensity-score covariate;
* ``ipw``      - weighted regression under stabilized inverse-probability
  weights times the survey weights.

Every variant is one estimator (:class:`VariantEstimator`): its models,
built and centered once from the dataset, are a first stage (the propensity
model of ``ps_regression`` and ``ipw``, none for the others) and the outcome
models, fitted under row weights by one method,
:meth:`VariantEstimator._fit`, for the point estimates and the bootstrap
replicates alike. A fit under any weights reads its exposure effect at
their covariate means as one linear contrast of its coefficients
(:meth:`~causalmed.glm.PatternDesign.contrast`), which is the exposure
coefficient for every variant but ``primary``. Point estimates use the
survey weights, each outcome fit read by :func:`~causalmed.glm._fit_result`
and the first-stage fit only checked for its failure, and total and direct
effects carry the Wald interval of that contrast
(:func:`~causalmed.glm.wald_interval`, from the sandwich covariance); the
indirect effect has no closed-form SE here, so its CI comes from a
deterministic nonparametric bootstrap (:func:`bootstrap_ci`) that refits
the same estimator under each replicate's row counts. One function, the
only bootstrap draw, turns a run of replicate seeds into their weights on
the K distinct role-column patterns; with a continuous role column each row
is its own pattern, and K is the number of rows. One loop fits blocks of up
to :data:`BLOCK_CELLS` // K replicates together, with coefficients only, on
the estimator taken to one row per pattern they drew. Where a block holds
several replicates (K at most :data:`BLOCK_CELLS` / 2), the weights form one
read-only (reps, K) table, drawn once and shared by the variants
bootstrapped on the same dataset object at the same seed; otherwise each
block draws its own. A replicate whose fit leaves the plain Newton path is
drawn again, each row its own pattern, and refit on the full rows.

Note the total effect from the mediator-free model is the standard
two-model quantity, not a collapsibility-corrected marginal effect.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .adjustment import clipped_scores, ipw_weights, propensity_spec
from .data import Continuous, Dataset, VariableRoles, row_patterns
from .errors import BootstrapError, InputError
from .glm import (
    CONVERGED,
    FitResult,
    ModelSpec,
    _fit_result,
    _irls,
    _raise_failure,
    _weight_scale,
    build_design,
    interaction,
    main,
    response_vector,
    wald_interval,
)

#: The variants that fit a propensity model first, under the same weights
#: as their outcome models, and adjust through its scores alone.
FIRST_STAGE = ("ps_regression", "ipw")

VARIANTS = ("primary", "simple", *FIRST_STAGE)

#: Name of the ``ps_regression`` design column holding the fitted
#: propensity scores, which is its last column.
PS_COLUMN = "propensity_score"

#: Largest share of bootstrap replicates that may fail before the interval
#: is refused.
MAX_FAILURE_RATE = 0.1


@dataclass(frozen=True)
class EffectEstimate:
    kind: str
    log_or: float
    ci_or: tuple[float, float] | None
    variant: str
    n_used: int

    def __post_init__(self):
        if self.ci_or is not None and self.ci_or[0] > self.ci_or[1]:
            raise InputError("confidence interval is not ordered")

    @property
    def odds_ratio(self) -> float:
        return math.exp(self.log_or)

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
    covariates = () if variant in FIRST_STAGE else roles.adjustment_columns()
    terms = [main(c) for c in covariates]
    if include_mediators:
        terms.extend(main(m) for m in roles.mediators)
    if variant == "primary":
        terms.extend(interaction(c) for c in covariates)
    return ModelSpec(outcome=roles.outcome, exposure=roles.exposure, terms=tuple(terms))


class VariantEstimator:
    """One variant's estimator on one dataset: its models, built once,
    fitted under row weights.

    Each model is a (design, response) pair on the estimator's rows, in one
    of two lists. ``first`` holds the first stage, the propensity model of
    the :data:`FIRST_STAGE` variants (empty for the others); ``outcome``
    holds one outcome model per entry of ``include_mediators``: the
    mediator-free model for False, the mediator-adjusted model for True.
    Each design is a :class:`~causalmed.glm.PatternDesign`, with discrete
    columns only or with continuous ones.

    Calling it with a weight vector over the rows of ``ds`` (the survey
    weights, or the survey weights times a bootstrap replicate's row
    counts) checks the first-stage fit by
    :func:`~causalmed.glm._raise_failure` and gives, per outcome model, a
    :class:`~causalmed.glm.FitResult` and the contrast that reads its
    exposure effect. :meth:`coefs` reads the exposure effects alone of the
    same fits under each row of a (B, n) weight array. Both take the fits
    from :meth:`_fit`. Every fit scales its weights by the power of two of
    the full-row weights (:func:`~causalmed.glm._weight_scale`), so a
    bootstrap block on pattern sums scales as the full-row fits do.

    Under integer row counts the coefficients equal those of the refit on
    the resampled rows. The sandwich covariance does not, as it reads a
    weight as a sampling weight rather than repeated rows; a bootstrap
    replicate uses the coefficients only.
    """

    def __init__(self, ds: Dataset, roles: VariableRoles, variant: str, include_mediators=(False, True)):
        if variant not in VARIANTS:
            raise InputError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        if not include_mediators:
            raise InputError("include_mediators must ask for at least one outcome model")
        roles.validate(ds)
        self.roles, self.variant = roles, variant
        self.scale = _weight_scale(ds.weights())
        y = response_vector(ds, roles.outcome)
        self.outcome = [(build_design(ds, _outcome_spec(roles, variant, m)), y) for m in include_mediators]
        self.first = []
        if variant in FIRST_STAGE:
            self.first.append((build_design(ds, propensity_spec(roles)), response_vector(ds, roles.exposure)))

    def take(self, rows) -> "VariantEstimator":
        """The same estimator on the given rows only, with no dataset
        rebuilt: each model's response is sliced to the rows, and its
        design by its pattern indices and values alone."""
        out = copy.copy(self)
        out.first, out.outcome = (
            [(design.take(rows), y[rows]) for design, y in models] for models in (self.first, self.outcome)
        )
        return out

    def _fit(self, W: np.ndarray) -> tuple[list[tuple], list[tuple]]:
        """Every fit of the variant under each row of the (B, n) weight
        array ``W``: the one code that fits it. The first stage is fitted
        under ``W``; its clipped scores become ``ps_regression``'s last
        design column, or ``ipw``'s stabilized factor on ``W``. Then each
        outcome model is fitted. Returns the first-stage and the outcome
        fits, each as its :func:`~causalmed.glm._irls` fits with the
        design, response and weights they were fitted on."""
        outcome, fit_weights = self.outcome, W
        first = [(_irls(design, treat, W, self.scale), design, treat, W) for design, treat in self.first]
        for ps, design, treat, _ in first:
            scores = clipped_scores(design, ps.beta)
            if self.variant == "ipw":
                fit_weights = W * ipw_weights(scores, treat, W)
            else:
                outcome = [(model.with_column(PS_COLUMN, scores), y) for model, y in outcome]
        return first, [(_irls(design, y, fit_weights, self.scale), design, y, fit_weights) for design, y in outcome]

    def __call__(self, weights: np.ndarray) -> tuple[tuple[FitResult, np.ndarray], ...]:
        # No effect reads a first-stage fit, so it is only checked, before
        # any outcome fit is read.
        W = np.asarray(weights, dtype=np.float64)[None]
        first, outcome = self._fit(W)
        for fit, design, _, w in first:
            _raise_failure(design, w[0], fit.failure[0])
        models = [(fit, design.fits(0), y, w[0]) for fit, design, y, w in outcome]
        return tuple((_fit_result(design, y, w, fit), design.contrast(W[0])) for fit, design, y, w in models)

    def coefs(self, W: np.ndarray):
        """The exposure effect of every outcome model under each row of the
        (B, n) weight array ``W``, read through the contrast of the design
        it was fitted on from the coefficients of :meth:`_fit`, with no
        covariances. Returns the (B, m) effects of the m outcome models,
        NaN in a row where any fit failed, the first stage included, and a
        (B,) mask of the rows whose fits were all plain."""
        first, outcome = self._fit(W)
        coefs = np.column_stack([(design.contrast(W) * fit.beta).sum(axis=1) for fit, design, *_ in outcome])
        fits = [fit for fit, *_ in first + outcome]
        coefs[np.any([fit.failure != CONVERGED for fit in fits], axis=0)] = math.nan
        return coefs, np.all([fit.plain for fit in fits], axis=0)


def _estimates(ds: Dataset, est: VariantEstimator, kinds) -> list[EffectEstimate]:
    """One effect per model of ``est`` under the survey weights: its
    contrast g·β, with the Wald interval of :func:`~causalmed.glm.wald_interval`."""
    out = []
    for kind, (fit, g) in zip(kinds, est(ds.weights())):
        log_or, lo, hi = wald_interval(fit, g)
        out.append(EffectEstimate(kind, log_or, (math.exp(lo), math.exp(hi)), est.variant, ds.n_rows))
    return out


def total_effect(ds: Dataset, roles: VariableRoles, variant: str = "primary") -> EffectEstimate:
    """Exposure effect from the outcome model excluding the mediators."""
    return _estimates(ds, VariantEstimator(ds, roles, variant, (False,)), ("total",))[0]


def direct_effect(ds: Dataset, roles: VariableRoles, variant: str = "primary") -> EffectEstimate:
    """Exposure effect with mediator main effects added to the model."""
    return _estimates(ds, VariantEstimator(ds, roles, variant, (True,)), ("direct",))[0]


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
    return EffectEstimate("indirect", total.log_or - direct.log_or, ci_or, total.variant, total.n_used)


# ---------------------------------------------------------------------------
# Bootstrap


@dataclass(frozen=True)
class BootstrapInterval:
    lo: float
    hi: float
    se: float
    n_failed: int
    reps: int


#: Most pattern weights in one block of replicates: a block holds
#: ``BLOCK_CELLS // K`` replicates over K row patterns, and at least one.
BLOCK_CELLS = 1 << 12


def _replicate_weights(weights, pattern, n_patterns, seeds) -> np.ndarray:
    """The (len(seeds), K) pattern weights of the bootstrap replicates with
    generator seeds ``seeds``. Replicate s draws n row indices with
    replacement from ``default_rng(s)``; its weights are the survey weights
    times how often each row was drawn, summed within each of the K
    patterns that ``pattern`` gives the rows (the row numbers themselves
    where each row is its own pattern). This is the package's only
    bootstrap draw: the shared table, the per-block draws and the full-row
    refits all call it."""
    n = weights.size
    W = np.empty((len(seeds), n_patterns))
    for b, seed in enumerate(seeds):
        counts = np.bincount(np.random.default_rng(seed).integers(0, n, n), minlength=n)
        W[b] = np.bincount(pattern, weights * counts, n_patterns)
    return W


def _pattern_weight_table(ds, pattern, n_patterns, reps, seed) -> np.ndarray:
    """The read-only (reps, K) pattern weights of the bootstrap replicates
    of ``ds``: row i is replicate seed+i's weights on the K patterns that
    ``pattern`` gives the rows (:func:`_replicate_weights`).

    The variants bootstrapped on one dataset draw the same replicates, so
    the last table is kept on the ``ds`` object itself, in its instance
    dictionary, and handed out again when the same object comes back with
    the same ``reps`` and ``seed``, and with weights and patterns equal to
    those it was built from (a column edited in place, or other role
    columns, get a new table). An equal but distinct dataset draws its
    own, and the table goes with its dataset: it is scoped to one analysis,
    not to equal data. (A weak dictionary would need the dataset as a
    hashable key, and a dataset compares by value.) Two threads racing here
    at worst both draw.
    """
    weights, key = ds.weights(), (reps, seed)
    kept = vars(ds).get("_replicate_table")
    if kept is not None and kept[0] == key and np.array_equal(kept[1], weights) and np.array_equal(kept[2], pattern):
        return kept[3]
    table = _replicate_weights(weights, pattern, n_patterns, range(seed, seed + reps))
    table.flags.writeable = False
    vars(ds)["_replicate_table"] = (key, weights, pattern, table)
    return table


def _bootstrap_interval(ds: Dataset, est: VariantEstimator, reps: int, seed: int) -> BootstrapInterval:
    """:func:`bootstrap_ci` from an estimator already built on the rows of
    ``ds``. Each block of replicates is fitted for its effects alone
    (:meth:`VariantEstimator.coefs`) on the estimator taken to one row per
    pattern that any of its replicates drew: each pattern's first row, or,
    with a continuous role column, the drawn rows themselves. A replicate
    whose fit there is not plain (it failed, was step-halved, passed the
    separation bound, or ended on an information matrix with condition
    number above :data:`~causalmed.glm.STACKED_MAX_CONDITION`) is refit on
    the full rows, and that fit decides its statistic or its failure."""
    for name, value in (("reps", reps), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise InputError(f"bootstrap {name} must be an integer, got {value!r}")
    if reps < 100:
        raise InputError("at least 100 bootstrap replicates required")
    if seed < 0:
        raise InputError(f"bootstrap seed must be non-negative, got {seed}")
    weights, n_rows = ds.weights(), ds.n_rows
    rows, columns = np.arange(n_rows), [ds[c] for c in est.roles.all_columns()]
    # Rows with a continuous value do not repeat: each is its own pattern.
    continuous = any(isinstance(c.kind, Continuous) for c in columns)
    first, pattern = (rows, rows) if continuous else row_patterns(columns, n_rows)
    block_size = max(1, BLOCK_CELLS // first.size)
    # The draws are shared where a block fits several replicates, and
    # drawing costs about as much as fitting. With one replicate per block
    # (over BLOCK_CELLS / 2 patterns) the fits dominate, and a (reps, K)
    # table would near the (reps, n) count matrix, so each block draws its
    # own. Either way no table holds more than reps * BLOCK_CELLS / 2 weights.
    table = _pattern_weight_table(ds, pattern, first.size, reps, seed) if block_size > 1 else None
    stats = np.empty(reps)
    for start in range(0, reps, block_size):
        stop = min(start + block_size, reps)
        if table is None:
            W = _replicate_weights(weights, pattern, first.size, range(seed + start, seed + stop))
        else:
            W = table[start:stop]
        drawn = np.flatnonzero(W.any(axis=0))
        coefs, plain = est.take(first[drawn]).coefs(W[:, drawn])
        for b in np.flatnonzero(~plain):
            coefs[b] = est.coefs(_replicate_weights(weights, rows, n_rows, [seed + start + b]))[0][0]
        stats[start:stop] = coefs[:, 0] - coefs[:, 1]
    failed = np.isnan(stats)
    n_failed = int(failed.sum())
    if n_failed > MAX_FAILURE_RATE * reps:
        raise BootstrapError(f"{n_failed} of {reps} bootstrap replicates failed")
    stats = stats[~failed]
    # (1 - 0.95) / 2 differs from 0.025 in the last bits; the limits keep it.
    alpha = (1.0 - 0.95) / 2.0
    lo, hi = np.percentile(np.exp(stats), [100 * alpha, 100 * (1 - alpha)])
    return BootstrapInterval(float(lo), float(hi), float(stats.std(ddof=1)), n_failed, reps)


def bootstrap_ci(ds: Dataset, roles: VariableRoles, variant: str, reps: int, seed: int) -> BootstrapInterval:
    """Percentile 95% bootstrap interval of the indirect odds ratio.

    A replicate draws n rows with replacement, and its statistic is the
    indirect log odds ratio, total minus direct, from the variant's models
    refit under the survey weights times its row counts, which is the same
    fit as on the resampled rows. The limits are percentiles of the
    replicate odds ratios and ``se`` is the replicates' standard deviation
    on the log scale.

    The arguments are checked first: integer ``reps`` and ``seed`` (a bool
    is refused), at least 100 replicates and a non-negative seed. Replicate
    i draws with generator seed+i. A replicate whose fit fails (rank
    deficiency, separation, non-convergence) is dropped and counted in
    ``n_failed``; more than :data:`MAX_FAILURE_RATE` of them failing raises
    :class:`~causalmed.errors.BootstrapError`. How the replicates are drawn
    and fitted is in the module docstring and :func:`_bootstrap_interval`.
    """
    return _bootstrap_interval(ds, VariantEstimator(ds, roles, variant), reps, seed)


def effect_triple(
    ds: Dataset,
    roles: VariableRoles,
    variant: str,
    *,
    bootstrap_reps: int = 1000,
    seed: int = 0,
) -> EffectTriple:
    """Total, direct, and indirect effects for one variant on complete data.

    Total and direct carry Wald sandwich CIs from their fits under the
    survey weights; the indirect CI is :func:`bootstrap_ci`'s percentile
    bootstrap with the given seed and replicate count, from the same
    estimator, and the replicates dropped as failed fits are reported with
    it.
    """
    est = VariantEstimator(ds, roles, variant)
    total, direct = _estimates(ds, est, ("total", "direct"))
    interval = _bootstrap_interval(ds, est, bootstrap_reps, seed)
    indirect = combine(total, direct, ci_or=(interval.lo, interval.hi))
    return EffectTriple(total, direct, indirect, seed, bootstrap_reps, interval.n_failed)
