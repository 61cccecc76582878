"""Design matrices and weighted logistic regression.

The package has one Newton loop, :func:`_irls`: iteratively reweighted
least squares with step-halving on log-likelihood decreases, started at
zero coefficients, run for B weight vectors at once on a shared or a
stacked design. :func:`fit_logistic` is that loop on one weight vector,
with its failures raised and the covariances added; a bootstrap replicate
needs only the coefficients and calls the loop itself. Survey weights enter
as likelihood weights. A fit carries two covariances: the model-based one,
the inverse observed information, and the sandwich, which is robust to that
weighting. The package has one interval rule, :func:`wald_interval`: the 95%
Wald interval of one linear contrast of the coefficients, from the
sandwich. A rank-deficient design is reported by naming, from left to
right, each column that adds no rank to the columns before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Binary, Column, Continuous, Dataset, kind_levels, nonreference_levels
from .errors import (
    ConvergenceError,
    DataError,
    InputError,
    RankDeficiencyError,
    SeparationError,
)

#: Standard-normal 97.5% quantile, fixed to six decimals for reproducibility.
Z95 = 1.959964

INTERCEPT = "(Intercept)"

DEFAULT_MAX_ITER = 50
DEFAULT_TOL = 1e-8
#: Coefficient magnitude past which an improving fit counts as separated.
SEPARATION_BOUND = 30.0
#: Largest condition number of the final information matrix of a fit that
#: :func:`_irls` counts as plain.
STACKED_MAX_CONDITION = 1e6
#: Rows per block when :func:`_gram` sums X'diag(v)X.
GRAM_BLOCK_ROWS = 4096


def expit(x):
    """The logistic function; 0.0, without an overflow warning, where exp(-x) overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class Term:
    """A model term: a covariate main effect, or its product with the exposure."""

    column: str
    interaction: bool = False


def main(column: str) -> Term:
    return Term(column)


def interaction(column: str) -> Term:
    return Term(column, interaction=True)


@dataclass(frozen=True)
class ModelSpec:
    """Specification for one outcome regression."""

    outcome: str
    exposure: str | None
    terms: tuple[Term, ...]
    center_covariates: bool = False

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for term in self.terms:
            if term.column == self.outcome:
                raise InputError(f"outcome {self.outcome!r} cannot appear among terms")
            if term.interaction and self.exposure is None:
                raise InputError("interaction terms require an exposure")
        if self.exposure is not None and self.exposure == self.outcome:
            raise InputError("exposure and outcome must differ")


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """A numeric (n, p) design with named columns."""

    matrix: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self):
        if not np.isfinite(self.matrix).all():
            raise DataError("design matrix contains non-finite entries")

    def column(self, name: str) -> np.ndarray:
        return self.matrix[:, self.names.index(name)]


def _require_observed(ds: Dataset, name: str) -> Column:
    col = ds[name]
    n_bad = int((~col.observed).sum())
    if n_bad:
        raise DataError(f"column {name!r} has {n_bad} unobserved cells; complete rows required")
    return col


def indicator(col: Column) -> np.ndarray:
    """0/1 vector marking the non-reference level of a binary column."""
    if not isinstance(col.kind, Binary):
        raise InputError("indicator requires a binary column")
    nonref = col.kind.levels.index(nonreference_levels(col.kind)[0])
    return (col.values == nonref).astype(np.float64)


def response_vector(ds: Dataset, outcome: str) -> np.ndarray:
    """Outcome vector in {0,1}; requires a fully observed binary column."""
    return indicator(_require_observed(ds, outcome))


def _covariate_columns(ds, name):
    """Expand one covariate into new, uncentered (name, vector) design columns."""
    col = _require_observed(ds, name)
    if isinstance(col.kind, Continuous):
        return [(name, col.values.astype(np.float64))]
    levels = kind_levels(col.kind)
    out = []
    for level in nonreference_levels(col.kind):
        colname = name if isinstance(col.kind, Binary) else f"{name}={level}"
        out.append((colname, (col.values == levels.index(level)).astype(np.float64)))
    return out


@dataclass(frozen=True, eq=False)
class DesignTemplate:
    """A model's design columns, expanded from the dataset once.

    No column depends on the row weights: a centered model's covariates are
    shifted once, to the dataset's survey-weighted means, so :meth:`design`
    yields the design matrix on any rows without going back to the dataset.
    A fit under other weights reads its exposure effect at their covariate
    means through :meth:`contrast`. ``terms`` holds, per covariate design
    column, the index into ``covariates`` and whether it is an exposure
    interaction.
    """

    names: tuple[str, ...]
    leading: tuple[np.ndarray, ...]
    covariates: tuple[tuple[str, np.ndarray], ...]
    terms: tuple[tuple[int, bool], ...]
    exposure: np.ndarray | None

    def design(self, rows: np.ndarray | None = None) -> np.ndarray:
        """The (n, p) design, on ``rows`` only when given, with n their
        number. It is allocated once and filled a column at a time, an
        interaction column multiplied by the exposure in place."""

        def pick(vec):
            return vec if rows is None else vec[rows]

        out = np.empty((self.leading[0].size if rows is None else len(rows), len(self.names)))
        for j, vec in enumerate(self.leading):
            out[:, j] = pick(vec)
        exposure = pick(self.exposure) if any(inter for _, inter in self.terms) else None
        for j, (k, inter) in enumerate(self.terms, start=len(self.leading)):
            out[:, j] = pick(self.covariates[k][1])
            if inter:
                out[:, j] *= exposure
        return out

    def contrast(self, W: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
        """The contrast g(W) that reads, as g(W)·β, the exposure effect at
        the W-weighted covariate means from the coefficients β of a fit
        under ``W``, a weight vector or a (B, n) array over ``rows`` (all
        rows for None).

        g is the unit vector on the exposure (column 1) plus, in each
        interaction column, the W-weighted mean of its covariate column.
        Shifting a covariate by a constant only moves the intercept and the
        exposure coefficient, so this is the exposure coefficient of the
        fit whose covariates are centered at their W-weighted means.
        """
        g = np.zeros(W.shape[:-1] + (len(self.names),))
        g[..., 1] = 1.0
        for j, (k, inter) in enumerate(self.terms, start=len(self.leading)):
            if inter:
                vec = self.covariates[k][1]
                g[..., j] = (W @ (vec if rows is None else vec[rows])) / W.sum(axis=-1)
        return g


def design_template(ds: Dataset, spec: ModelSpec) -> DesignTemplate:
    """Expand a model specification into design columns.

    Discrete covariates become reference-coded indicators; each covariate is
    expanded once however many terms use it. When centering is requested
    every covariate column (indicators included) is shifted to weighted mean
    zero under the dataset's analysis weights.
    """
    names = [INTERCEPT]
    leading = [np.ones(ds.n_rows)]
    exposure_vec = None
    if spec.exposure is not None:
        exposure_vec = indicator(_require_observed(ds, spec.exposure))
        names.append(spec.exposure)
        leading.append(exposure_vec)
    if spec.center_covariates:
        weights = ds.weights()
        _check_weights(weights, ds.n_rows)
    covariates: list = []
    expanded: dict[str, range] = {}
    terms = []
    for term in spec.terms:
        if term.column not in expanded:
            new = _covariate_columns(ds, term.column)
            if spec.center_covariates:
                for _, vec in new:
                    vec -= (vec * weights).sum() / weights.sum()
            expanded[term.column] = range(len(covariates), len(covariates) + len(new))
            covariates.extend(new)
        for k in expanded[term.column]:
            colname = covariates[k][0]
            names.append(f"{spec.exposure}:{colname}" if term.interaction else colname)
            terms.append((k, term.interaction))
    return DesignTemplate(tuple(names), tuple(leading), tuple(covariates), tuple(terms), exposure_vec)


def build_design(ds: Dataset, spec: ModelSpec) -> DesignMatrix:
    """Expand a model specification into a numeric design matrix.

    Discrete covariates become reference-coded indicators. When centering is
    requested every covariate column (indicators included) is shifted to
    weighted mean zero under the dataset's analysis weights, and interaction
    columns are products of the exposure indicator with the centered
    covariate columns, so the exposure coefficient is the effect at
    covariate means.
    """
    template = design_template(ds, spec)
    return DesignMatrix(template.design(), template.names)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Fitted coefficients with model-based and sandwich covariances."""

    names: tuple[str, ...]
    beta: np.ndarray
    cov_model: np.ndarray
    cov_sandwich: np.ndarray
    iterations: int
    n_obs: int

    def coef(self, name: str) -> float:
        return float(self.beta[self.names.index(name)])


def _diagnose_singular_information(X, w, names):
    """Name the collinear columns behind a singular information matrix.

    Scanning the sqrt(w)-scaled design from left to right, each column that
    adds no rank to the columns kept before it is named. If the weighted
    design is actually full rank the singularity came from degenerate fitted
    probabilities instead, which is separation territory.
    """
    Xw = X * np.sqrt(w)[:, None]
    kept, collinear = [], []
    for j in range(X.shape[1]):
        if np.linalg.matrix_rank(Xw[:, kept + [j]]) > len(kept):
            kept.append(j)
        else:
            collinear.append(names[j])
    if collinear:
        raise RankDeficiencyError(collinear)
    raise SeparationError("information matrix is singular (fitted probabilities degenerate)")


def _log_likelihood(eta, y, w):
    # w * (y*eta - log(1 + exp(eta))), summed over rows. The softplus
    # log(1 + exp(eta)) is taken as max(eta, 0) + log1p(exp(-|eta|)): exp
    # never overflows, and it is cheaper than np.logaddexp(0, eta).
    softplus = np.log1p(np.exp(-np.abs(eta)))
    softplus += np.maximum(eta, 0.0)
    return np.sum(w * (y * eta - softplus), axis=-1)


def _check_weights(w: np.ndarray, n: int) -> None:
    """Raise InputError unless ``w`` holds n finite, non-negative weights,
    not all zero, or is a (B, n) array of such rows."""
    if w.ndim not in (1, 2) or w.shape[-1] != n:
        raise InputError("weight length does not match design")
    if (w < 0).any() or not np.isfinite(w).all():
        raise InputError("weights must be finite and non-negative")
    if not (w > 0).any(axis=-1).all():
        raise InputError("weights must not all be zero")


def _gram(X: np.ndarray, v: np.ndarray) -> np.ndarray:
    """X'diag(v)X, summed over blocks of :data:`GRAM_BLOCK_ROWS` rows with
    one matrix product each, so no temporary holds more than one block of
    rows of the scaled design. ``v`` holds n weights, or is (B, n) for a
    (B, p, p) result; ``X`` is an (n, p) design shared by every row of
    ``v``, or a (B, n, p) stack."""
    A = 0.0
    for start in range(0, v.shape[-1], GRAM_BLOCK_ROWS):
        Xb = X[..., start : start + GRAM_BLOCK_ROWS, :]
        A = A + np.swapaxes(Xb * v[..., start : start + GRAM_BLOCK_ROWS, None], -1, -2) @ Xb
    return A


#: Outcomes of one fit of :func:`_irls`: it converged, or the Cholesky gate,
#: the solve or the final inverse found its information matrix singular, or
#: it separated, ran out of iterations, or could not improve by halving.
CONVERGED, SINGULAR, SEPARATED, NOT_CONVERGED, NOT_IMPROVED = range(5)


class _IrlsFits(NamedTuple):
    """Per-fit results of :func:`_irls`, one row per row of the weights.

    ``beta`` and ``info_inv`` (the inverse of the final information matrix)
    mean something only where ``failure`` is :data:`CONVERGED`. ``plain`` marks the fits that converged without
    step-halving, never passed :data:`SEPARATION_BOUND`, and ended on an
    information matrix with condition number at most
    :data:`STACKED_MAX_CONDITION`.
    """

    beta: np.ndarray
    iterations: np.ndarray
    failure: np.ndarray
    plain: np.ndarray
    info_inv: np.ndarray


def _newton_step(A, score):
    """Newton steps ``solve(A, score)`` for a (B, p, p) stack."""
    np.linalg.cholesky(A)  # the positive-definiteness gate
    return np.linalg.solve(A, score[..., None])[..., 0]


def _per_fit(fn, out, *stacks):
    """Write ``fn(*stacks)`` into ``out``, for all fits at once or, when that
    raises LinAlgError, fit by fit with zero for a fit on which it raises.
    Returns the mask of the fits on which it did not."""
    ok = np.ones(len(out), dtype=bool)
    try:
        out[...] = fn(*stacks)
    except np.linalg.LinAlgError:
        for i, parts in enumerate(zip(*stacks)):
            try:
                out[i] = fn(*(a[None] for a in parts))[0]
            except np.linalg.LinAlgError:
                out[i], ok[i] = 0.0, False
    return ok


def _irls(X: np.ndarray, y: np.ndarray, W: np.ndarray) -> _IrlsFits:
    """Maximize the weighted Bernoulli log-likelihood by IRLS under each row
    of the (B, n) weight array ``W``, all B fits iterating together.

    ``X`` is an (n, p) design shared by every fit or a (B, n, p) stack, and
    ``y`` the 0/1 response. Each fit starts at zero coefficients and stops
    once its max-abs score falls below :data:`DEFAULT_TOL`. A step that
    fails the Cholesky gate or the solve ends the fit as :data:`SINGULAR`; a
    step that lowers the log-likelihood is halved, up to 30 times, or the
    fit ends as :data:`NOT_IMPROVED`. Coefficients passing
    :data:`SEPARATION_BOUND` while the log-likelihood still improves end it
    as :data:`SEPARATED`, and a fit still short of the rule after
    :data:`DEFAULT_MAX_ITER` steps ends as :data:`NOT_CONVERGED`. A
    converged fit whose final information matrix cannot be inverted ends as
    :data:`SINGULAR`.

    Each iteration works on the fits still iterating only: their scores
    are their weighted residuals times the design, and their information
    matrices come from :func:`_gram`. A shared design is never copied per
    fit; a stacked one is cut down only when a fit stops.
    """
    n, p = X.shape[-2:]
    if y.shape != (n,):
        raise InputError("response length does not match design")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise InputError("response must be 0/1")
    _check_weights(W, n)
    B = len(W)
    out = _IrlsFits(
        beta=np.zeros((B, p)),
        iterations=np.zeros(B, dtype=int),
        failure=np.zeros(B, dtype=int),
        plain=np.ones(B, dtype=bool),
        info_inv=np.zeros((B, p, p)),
    )
    final_info = np.zeros((B, p, p))

    # The fits still iterating: their indices, and their rows of W, X and the state.
    idx, Wa, Xa = np.arange(B), W, X
    beta, eta = np.zeros((B, p)), np.zeros((B, n))
    ll = _log_likelihood(eta, y, W)

    def keep(mask, *arrays):
        if mask.all():
            return (Xa,) + arrays
        return (Xa[mask] if Xa.ndim == 3 else Xa,) + tuple(a[mask] for a in arrays)

    for iteration in range(DEFAULT_MAX_ITER + 1):
        mu = expit(eta)
        score = ((Wa * (y - mu))[:, None] @ Xa)[:, 0]
        A = _gram(Xa, Wa * mu * (1.0 - mu))
        done = np.abs(score).max(axis=1) < DEFAULT_TOL
        if done.any():
            fin = idx[done]
            out.beta[fin], out.iterations[fin], final_info[fin] = beta[done], iteration, A[done]
            Xa, idx, Wa, beta, ll, score, A = keep(~done, idx, Wa, beta, ll, score, A)
            if not idx.size:
                break
        if iteration == DEFAULT_MAX_ITER:
            out.failure[idx] = NOT_CONVERGED
            break

        delta = np.empty_like(score)
        failed = ~_per_fit(_newton_step, delta, A, score)
        out.failure[idx[failed]] = SINGULAR
        floor = ll - 1e-12 * (1.0 + np.abs(ll))
        cand = beta + delta
        eta = (Xa @ cand[..., None])[..., 0]
        ll_cand = _log_likelihood(eta, y, Wa)
        halving = ~failed & (ll_cand < floor)
        if halving.any():
            out.plain[idx[halving]] = False
            step = 1.0
            for _halving in range(30):
                j = np.flatnonzero(halving)
                if not j.size:
                    break
                step *= 0.5
                cand[j] = beta[j] + step * delta[j]
                eta[j] = ((Xa[j] if Xa.ndim == 3 else Xa) @ cand[j, :, None])[..., 0]
                ll_cand[j] = _log_likelihood(eta[j], y, Wa[j])
                halving[j] = ll_cand[j] < floor[j]
            out.failure[idx[halving]] = NOT_IMPROVED
            failed |= halving
        passed = np.abs(cand).max(axis=1) > SEPARATION_BOUND
        if passed.any():
            out.plain[idx[passed]] = False
            separated = passed & ~failed & (ll_cand > ll + 1e-8)
            out.failure[idx[separated]] = SEPARATED
            failed |= separated
        beta, ll = cand, ll_cand
        if failed.any():
            Xa, idx, Wa, beta, eta, ll = keep(~failed, idx, Wa, beta, eta, ll)
            if not idx.size:
                break

    ok = np.flatnonzero(out.failure == CONVERGED)
    info_inv = np.empty((ok.size, p, p))
    invertible = _per_fit(np.linalg.inv, info_inv, final_info[ok])
    out.info_inv[ok] = info_inv
    out.failure[ok[~invertible]] = SINGULAR
    plain = out.plain
    plain &= out.failure == CONVERGED
    eig = np.linalg.eigvalsh(final_info[plain])
    plain[plain] = eig[:, -1] <= STACKED_MAX_CONDITION * eig[:, 0]
    return out


def fit_logistic(design: DesignMatrix, y: np.ndarray, w: np.ndarray | None = None) -> FitResult:
    """Maximize the weighted Bernoulli log-likelihood by IRLS.

    This is :func:`_irls`, the package's one Newton loop, on one weight
    vector, with its failures raised: a singular information matrix as the
    :class:`RankDeficiencyError` naming the collinear columns (or as
    :class:`SeparationError` when the weighted design has full rank),
    separation as :class:`SeparationError`, and a fit that runs out of
    iterations or cannot improve by step-halving as
    :class:`ConvergenceError`. So every returned fit has converged.

    The model-based covariance is the inverse of the final information
    matrix, and the sandwich meat X'diag((w * resid)**2)X comes from
    :func:`_gram` over blocks of rows.
    """
    X = design.matrix
    y = np.asarray(y, dtype=np.float64)
    w = np.ones(len(X)) if w is None else np.asarray(w, dtype=np.float64)
    if w.ndim != 1:
        raise InputError("weight length does not match design")
    fits = _irls(X, y, w[None])
    failure = fits.failure[0]
    if failure == SINGULAR:
        _diagnose_singular_information(X, w, design.names)
    if failure != CONVERGED:
        raise {
            SEPARATED: SeparationError(
                f"coefficient magnitude exceeded {SEPARATION_BOUND} while the deviance "
                "still improved; data are quasi-completely separated"
            ),
            NOT_CONVERGED: ConvergenceError(f"no convergence in {DEFAULT_MAX_ITER} iterations"),
            NOT_IMPROVED: ConvergenceError("step halving failed to improve the likelihood"),
        }[failure]
    beta, cov_model = fits.beta[0], fits.info_inv[0]
    cov_model = (cov_model + cov_model.T) / 2.0
    resid = y - expit(X @ beta)
    cov_sandwich = cov_model @ _gram(X, (w * resid) ** 2) @ cov_model
    cov_sandwich = (cov_sandwich + cov_sandwich.T) / 2.0
    return FitResult(
        names=design.names,
        beta=beta,
        cov_model=cov_model,
        cov_sandwich=cov_sandwich,
        iterations=int(fits.iterations[0]),
        n_obs=len(X),
    )


def wald_interval(fit: FitResult, g) -> tuple[float, float, float]:
    """The contrast g·β of a fit's coefficients and its 95% Wald limits
    g·β ± Z95·√(g′Σg), on the log-odds scale, from the sandwich covariance
    Σ. ``g`` must have the shape of β."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape != fit.beta.shape:
        raise InputError(f"contrast of shape {g.shape} does not match the {fit.beta.shape} coefficients")
    est = float(g @ fit.beta)
    half = Z95 * math.sqrt(g @ fit.cov_sandwich @ g)
    return est, est - half, est + half
