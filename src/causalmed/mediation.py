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

Every variant is one estimator (:class:`VariantEstimator`): design columns
built and centered once from the dataset, fitted under row weights. A fit
under any weights reads its exposure effect at their covariate means as one
linear contrast of its coefficients
(:meth:`~causalmed.glm.DesignTemplate.contrast`), which is the exposure
coefficient for every variant but ``primary``. Point estimates use the
survey weights. Total and direct effects carry the Wald interval of that
contrast (:func:`~causalmed.glm.wald_interval`, from the sandwich
covariance); the indirect effect has no closed-form SE here, so its CI
comes from a deterministic nonparametric bootstrap (:func:`bootstrap_ci`)
that refits the same estimator under each replicate's row counts. Each
replicate's counts are reduced to weights on the K distinct role-column
patterns. Where rows collapse so far that a block holds several
replicates, these form one read-only (reps, K) table, drawn once and shared
by the variants bootstrapped on the same dataset object at the same seed;
otherwise (a continuous role column among them) each block draws its own.
The one path fits blocks of up to :data:`BLOCK_CELLS` // K
replicates together on the patterns they drew, with coefficients only; a
replicate whose fit leaves the plain Newton path is drawn again and refit
on the full rows.

Note the total effect from the mediator-free model is the standard
two-model quantity, not a collapsibility-corrected marginal effect.
"""

from __future__ import annotations

import copy
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .adjustment import clipped_scores, ipw_weights, propensity_spec
from .data import Continuous, Dataset, VariableRoles, row_patterns
from .errors import BootstrapError, InputError
from .glm import (
    CONVERGED,
    DesignMatrix,
    FitResult,
    ModelSpec,
    PatternDesign,
    _irls,
    design_template,
    fit_logistic,
    interaction,
    main,
    response_vector,
    wald_interval,
)

VARIANTS = ("primary", "simple", "ps_regression", "ipw")

#: Name of the ``ps_regression`` design column holding the fitted
#: propensity scores, which sit right after the exposure.
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
    covariates = () if variant in ("ps_regression", "ipw") else roles.adjustment_columns()
    terms = [main(c) for c in covariates]
    if include_mediators:
        terms.extend(main(m) for m in roles.mediators)
    if variant == "primary":
        terms.extend(interaction(c) for c in covariates)
    return ModelSpec(outcome=roles.outcome, exposure=roles.exposure, terms=tuple(terms))


class VariantEstimator:
    """One variant's estimator on one dataset: its design columns, built
    once, fitted under row weights.

    Calling it with a weight vector over the rows of ``ds`` (the survey
    weights, or the survey weights times a bootstrap replicate's row
    counts) gives one :class:`~causalmed.glm.FitResult` per entry of
    ``include_mediators``: the mediator-free model for False, the
    mediator-adjusted model for True, and :meth:`contrasts` reads their
    exposure effects. :meth:`coefs` runs the same fits under each row of a
    (B, n) weight array at once, for their exposure effects alone. The
    designs are fixed; only two pieces depend on the weights, the
    propensity-score column of ``ps_regression`` and the stabilized IPW
    factor of ``ipw``, and both come from the mediator-free propensity
    model refit under the same weights.

    Under integer row counts the coefficients equal those of the refit on
    the resampled rows. The sandwich covariance does not, as it reads a
    weight as a sampling weight rather than repeated rows; a bootstrap
    replicate uses the coefficients only.

    A model whose template has a continuous covariate is fitted on its
    :class:`~causalmed.glm.PatternDesign`, built once, and so is every
    ``ps_regression`` model whose propensity model has one, as its score
    column is then continuous too. Any other model is fitted on dense rows
    gathered from its template at each fit.
    """

    def __init__(self, ds: Dataset, roles: VariableRoles, variant: str, include_mediators=(False, True)):
        if variant not in VARIANTS:
            raise InputError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        roles.validate(ds)
        self.roles, self.variant = roles, variant
        self.y = response_vector(ds, roles.outcome)
        self.templates = [design_template(ds, _outcome_spec(roles, variant, m)) for m in include_mediators]
        # The rows of ``ds`` the estimator fits on (:meth:`take`); None for all.
        self.rows = None
        self.names = [
            t.names[:2] + (PS_COLUMN,) + t.names[2:] if variant == "ps_regression" else t.names for t in self.templates
        ]
        continuous_scores = False
        if variant in ("ps_regression", "ipw"):
            ps = design_template(ds, propensity_spec(roles))
            self.ps_design = ps.pattern_design() if ps.continuous else DesignMatrix(ps.design(), ps.names)
            self.treat = response_vector(ds, roles.exposure)
            continuous_scores = variant == "ps_regression" and bool(ps.continuous)
        # Per model, its pattern design on the estimator's rows, or None to
        # gather its dense rows from the template.
        self.patterns = [t.pattern_design() if t.continuous or continuous_scores else None for t in self.templates]

    def take(self, rows) -> "VariantEstimator":
        """The same estimator on the given rows only, with no dataset
        rebuilt. The response, the exposure and the pattern and propensity
        designs are sliced to the rows, a pattern design by its pattern
        indices and values alone; a dense model's design is gathered on them
        from its template only when that model is fitted, so at most one is
        alive at a time."""
        out = copy.copy(self)
        out.rows = rows if self.rows is None else self.rows[rows]
        out.y = self.y[rows]
        out.patterns = [None if p is None else p.take(rows) for p in self.patterns]
        if self.variant in ("ps_regression", "ipw"):
            out.ps_design = self.ps_design.take(rows)
            out.treat = self.treat[rows]
        return out

    def __call__(self, weights: np.ndarray) -> tuple[FitResult, ...]:
        scores = None
        if self.variant in ("ps_regression", "ipw"):
            beta = fit_logistic(self.ps_design, self.treat, weights).beta
            scores = clipped_scores(_irls_input(self.ps_design), beta)
        return tuple(self._fit_models(lambda design, w: fit_logistic(design, self.y, w), weights, scores))

    def contrasts(self, W: np.ndarray) -> list[np.ndarray]:
        """Per model, the contrast g(W) over the estimator's rows
        (:meth:`~causalmed.glm.DesignTemplate.contrast`, with a zero for
        ``ps_regression``'s score column): the model's exposure effect at the
        W-weighted covariate means is g(W)·β for its fit under ``W``."""
        gs = [t.contrast(W, self.rows) for t in self.templates]
        return [np.insert(g, 2, 0.0, axis=-1) for g in gs] if self.variant == "ps_regression" else gs

    def coefs(self, W: np.ndarray):
        """The exposure effect of every model under each row of the (B, n)
        weight array ``W``, read through :meth:`contrasts` from
        :func:`~causalmed.glm._irls` coefficients, with no covariances.
        Returns the (B, m) effects of the m models, NaN in a row where any
        fit failed, the propensity fit included, and a (B,) mask of the rows
        whose fits were all plain."""
        fits, scores = [], None
        if self.variant in ("ps_regression", "ipw"):
            fits.append(_irls(_irls_input(self.ps_design), self.treat, W))
            scores = clipped_scores(_irls_input(self.ps_design), fits[0].beta)
        models = self._fit_models(lambda design, w: _irls(_irls_input(design), self.y, w), W, scores)
        coefs = np.column_stack([(g * fit.beta).sum(axis=1) for fit, g in zip(models, self.contrasts(W))])
        fits += models
        coefs[np.any([fit.failure != CONVERGED for fit in fits], axis=0)] = math.nan
        return coefs, np.all([fit.plain for fit in fits], axis=0)

    def _fit_models(self, fit, W, scores):
        """``fit(design, fit_weights)`` for each model under the row weights
        ``W``, a vector or a (B, n) array, with the propensity scores of the
        same shape for the ps/ipw variants. The fit weights are ``W``, times
        the stabilized IPW factor for ``ipw``."""
        fit_weights = W * ipw_weights(scores, self.treat, W) if self.variant == "ipw" else W
        return [fit(self._design(i, W, scores), fit_weights) for i in range(len(self.templates))]

    def _design(self, i, W, scores):
        """Model i's design on the estimator's rows, with ``ps_regression``'s
        score column inserted, as one more continuous column of a pattern
        design, or into dense rows. Dense rows are gathered from the
        template: one (n, p) matrix shared by every row of ``W``, or a (B,
        n, p) stack where the score column varies with them. Each design is
        dropped after its fit, so no more than one model's is alive at a
        time."""
        pattern, names = self.patterns[i], self.names[i]
        if pattern is not None:
            return pattern.with_column(2, PS_COLUMN, scores) if self.variant == "ps_regression" else pattern
        X = self.templates[i].design(self.rows)
        if self.variant == "ps_regression":
            X = np.insert(np.broadcast_to(X, W.shape + X.shape[-1:]), 2, scores, axis=-1)
        return DesignMatrix(X, names)


def _irls_input(design):
    """What :func:`~causalmed.glm._irls` fits on: a pattern design itself,
    the matrix of dense rows."""
    return design if isinstance(design, PatternDesign) else design.matrix


def _estimates(ds: Dataset, est: VariantEstimator, kinds) -> list[EffectEstimate]:
    """One effect per model of ``est`` under the survey weights: its
    contrast g·β, with the Wald interval of :func:`~causalmed.glm.wald_interval`."""
    weights = ds.weights()
    out = []
    for kind, fit, g in zip(kinds, est(weights), est.contrasts(weights)):
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


def replicate_counts(n_rows: int, seed: int) -> np.ndarray:
    """How often each of ``n_rows`` rows is drawn by the bootstrap
    replicate with generator seed ``seed``, which draws ``n_rows`` row
    indices with replacement. This is the only bootstrap draw: the shared
    pattern-weight table, the per-block draws and the full-row refits all
    call it."""
    return np.bincount(np.random.default_rng(seed).integers(0, n_rows, n_rows), minlength=n_rows)


def bootstrap_statistics(n_rows, reps, seed, block_fn, block_size):
    """Resampling engine: replicate i resamples ``n_rows`` rows with
    generator seed+i (:func:`replicate_counts`).

    Replicates go to ``block_fn`` in order, ``block_size`` at a time (fewer
    in the last block), as the ``range`` of their indices i; it draws each
    replicate's counts itself and returns their statistics, NaN for a
    replicate whose fit degenerated (rank deficiency, separation,
    non-convergence). Failed replicates are dropped and counted; more than
    :data:`MAX_FAILURE_RATE` of them failing is an error.
    """
    if n_rows < 1:
        raise InputError("bootstrap needs at least one row")
    if reps < 100:
        raise InputError("at least 100 bootstrap replicates required")
    if seed < 0:
        raise InputError(f"bootstrap seed must be non-negative, got {seed}")
    stats = np.empty(reps)
    for start in range(0, reps, block_size):
        block = range(start, min(start + block_size, reps))
        stats[block.start : block.stop] = block_fn(block)
    failed = np.isnan(stats)
    n_failed = int(failed.sum())
    if n_failed > MAX_FAILURE_RATE * reps:
        raise BootstrapError(f"{n_failed} of {reps} bootstrap replicates failed")
    return stats[~failed], n_failed


def _replicate_weights(weights, pattern, n_patterns, seed) -> np.ndarray:
    """The K pattern weights of the replicate with generator seed ``seed``:
    the survey weights times its :func:`replicate_counts`, summed within
    each pattern, or per row when ``pattern`` is None."""
    w = weights * replicate_counts(weights.size, seed)
    return w if pattern is None else np.bincount(pattern, w, n_patterns)


#: The last table :func:`_pattern_weight_table` built, as (weak reference to
#: its dataset, (role columns, reps, seed), weights, pattern, table), or None.
_last_table = None


def _forget_table(ref):
    """Drop the kept table once its dataset is gone."""
    global _last_table
    last = _last_table
    if last is not None and last[0] is ref:
        _last_table = None


def _pattern_weight_table(ds, columns, pattern, n_patterns, reps, seed) -> np.ndarray:
    """The read-only (reps, K) pattern weights of the bootstrap replicates
    of ``ds`` over the discrete role ``columns``: row i is
    :func:`_replicate_weights` of generator seed+i on the K patterns that
    ``pattern`` gives the rows.

    The variants bootstrapped on one dataset draw the same replicates, so
    the last table is kept and handed out again when the same ``ds``
    object comes back with the same role columns, ``reps`` and ``seed``,
    and with weights and patterns equal to those it was built from (a
    column edited in place gets a new table). An equal but distinct
    dataset draws its own, and the table is dropped with its dataset: it
    is scoped to one analysis, not to equal data. Two threads racing here
    at worst both draw.
    """
    global _last_table
    weights, key, last = ds.weights(), (columns, reps, seed), _last_table
    if (
        last is not None
        and last[0]() is ds
        and last[1] == key
        and np.array_equal(last[2], weights)
        and np.array_equal(last[3], pattern)
    ):
        return last[4]
    table = np.empty((reps, n_patterns))
    for i in range(reps):
        table[i] = _replicate_weights(weights, pattern, n_patterns, seed + i)
    table.flags.writeable = False
    _last_table = (weakref.ref(ds, _forget_table), key, weights, pattern, table)
    return table


def _bootstrap_interval(ds: Dataset, est: VariantEstimator, reps: int, seed: int) -> BootstrapInterval:
    """:func:`bootstrap_ci` from an estimator already built on the rows of ``ds``."""
    weights, n_rows = ds.weights(), ds.n_rows
    columns = est.roles.all_columns()
    if any(isinstance(ds[c].kind, Continuous) for c in columns):
        # Rows with a continuous value do not repeat: each is its own pattern.
        pattern, n_patterns, patterns = None, n_rows, est
    else:
        first, pattern = row_patterns([ds[c] for c in columns], n_rows)
        n_patterns, patterns = first.size, est.take(first)
    block_size = max(1, BLOCK_CELLS // n_patterns)
    # The draws are shared where a block fits several replicates on few
    # patterns, and drawing costs about as much as fitting. With one
    # replicate per block (over BLOCK_CELLS / 2 patterns, or a continuous
    # role) the fits dominate, and a (reps, K) table would near the (reps,
    # n) count matrix.
    shared = pattern is not None and block_size > 1

    def block_fn(block):
        if shared:
            # The first block builds the table (or finds it kept), after
            # bootstrap_statistics has checked the arguments; later blocks
            # find it kept.
            W = _pattern_weight_table(ds, columns, pattern, n_patterns, reps, seed)[block.start : block.stop]
        else:
            # Drawn per block, so no (reps, K) array is formed.
            W = np.empty((len(block), n_patterns))
            for b, i in enumerate(block):
                W[b] = _replicate_weights(weights, pattern, n_patterns, seed + i)
        drawn = np.flatnonzero(W.any(axis=0))
        coefs, plain = patterns.take(drawn).coefs(W[:, drawn])
        for b in np.flatnonzero(~plain):
            w = weights * replicate_counts(n_rows, seed + block[b])
            coefs[b] = est.coefs(w[None])[0][0]
        return coefs[:, 0] - coefs[:, 1]

    stats, n_failed = bootstrap_statistics(n_rows, reps, seed, block_fn, block_size)
    se = float(stats.std(ddof=1)) if stats.size > 1 else 0.0
    # (1 - 0.95) / 2 differs from 0.025 in the last bits; the limits keep it.
    alpha = (1.0 - 0.95) / 2.0
    lo, hi = np.percentile(np.exp(stats), [100 * alpha, 100 * (1 - alpha)])
    return BootstrapInterval(float(lo), float(hi), se, n_failed, reps)


def bootstrap_ci(ds: Dataset, roles: VariableRoles, variant: str, reps: int, seed: int) -> BootstrapInterval:
    """Percentile 95% bootstrap interval of the indirect odds ratio.

    A replicate draws n rows with replacement, and its statistic is the
    indirect log odds ratio, total minus direct, from both outcome models
    (and, for the ps/ipw variants, the propensity model) refit under the
    survey weights times its row counts, which is the same fit as on the
    resampled rows. The limits are percentiles of the replicate odds ratios
    and ``se`` is the replicates' standard deviation on the log scale.

    Rows collapse to their K distinct role-column patterns; with a
    continuous role column no row repeats, and each row is its own pattern.
    Replicates go in blocks of :data:`BLOCK_CELLS` // K (at least one).
    Each replicate's row counts are reduced to its K pattern weights, the
    survey weights times the counts summed within each pattern. With
    discrete role columns and blocks of several replicates (K at most
    :data:`BLOCK_CELLS` / 2), every replicate's weights are drawn once into
    a read-only (reps, K) table, and a block takes its rows of it; the next
    variant bootstrapped on the same ``ds`` object with the same role
    columns, ``reps`` and ``seed`` takes its blocks from the same table, so
    the variants of one analysis draw once. Otherwise (a continuous role
    column among them) each block draws its replicates' weights itself, so
    no (reps, K) array is formed. A block is fitted
    (:meth:`VariantEstimator.coefs`) on one row per pattern that any of its
    replicates drew, for the effects alone.
    A replicate whose fit is not plain (it failed, was step-halved, passed
    the separation bound, or ended on an information matrix with condition
    number above :data:`~causalmed.glm.STACKED_MAX_CONDITION`) draws its
    counts again and is refit on the full rows, and that fit decides its
    statistic or its failure.

    So with discrete role columns only, every fit runs on dense design rows
    (a (B, K, p) stack for ``ps_regression``). With a continuous one, K is
    the number of rows; at survey scale the blocks hold one replicate each,
    fitted on the rows it drew. A model with a continuous column then runs
    on pattern moments (:class:`~causalmed.glm.PatternDesign`), its
    replicates taking only the drawn rows' pattern indices and continuous
    values, and no design matrix is formed.
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
