"""Design matrices and weighted logistic regression.

The fitter is iteratively reweighted least squares with step-halving on
deviance increases, started at zero coefficients. Survey weights enter as
likelihood weights; inference defaults to the sandwich covariance, which is
robust to that weighting. The model-based covariance is the inverse observed
information. A rank-deficient design is reported by naming, from left to
right, each column that adds no rank to the columns before it.
"""

from __future__ import annotations

from dataclasses import dataclass

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
#: :func:`fit_logistic_stacked` keeps on its plain Newton path.
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
    """Expand one covariate into uncentered (name, vector) design columns."""
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

    Centering is the only step that depends on the row weights, so
    :meth:`design` yields the design matrix under any weights without going
    back to the dataset. ``terms`` holds, per covariate design column,
    the index into ``covariates`` and whether it is an exposure interaction.
    """

    names: tuple[str, ...]
    leading: tuple[np.ndarray, ...]
    covariates: tuple[tuple[str, np.ndarray], ...]
    terms: tuple[tuple[int, bool], ...]
    exposure: np.ndarray | None
    center: bool

    def design(self, weights: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """The design under ``weights``, a vector or a (B, n) array.

        With centering on, every covariate column is shifted to weighted
        mean zero under each row of weights, and an interaction column is
        the exposure indicator times the shifted covariate: an (n, p) matrix
        for a vector, a (B, n, p) stack for an array. Without centering the
        weights play no part, and the one (n, p) matrix serves every row.
        The result is allocated once and filled a column at a time: each
        shifted column is written into its slice and an interaction column
        is multiplied by the exposure there, so no per-column copy is kept.

        Given ``rows``, the design is built on those rows only, with n their
        number and ``weights`` over them: each column is indexed as it is
        written, so no sliced copy of the template is kept.
        """

        def pick(vec):
            return vec if rows is None else vec[rows]

        n = self.leading[0].size if rows is None else len(rows)
        vectors = [vec for _, vec in self.covariates]
        offsets = None
        if self.center:
            _check_weights(weights, n)
            offsets = [((pick(vec) * weights).sum(axis=-1) / weights.sum(axis=-1))[..., None] for vec in vectors]
        out = np.empty((weights.shape if self.center else (n,)) + (len(self.names),))
        for j, vec in enumerate(self.leading):
            out[..., j] = pick(vec)
        exposure = pick(self.exposure) if any(inter for _, inter in self.terms) else None
        for j, (k, inter) in enumerate(self.terms, start=len(self.leading)):
            col = out[..., j]
            if offsets is None:
                col[...] = pick(vectors[k])
            else:
                np.subtract(pick(vectors[k]), offsets[k], out=col)
            if inter:
                col *= exposure
        return out


def design_template(ds: Dataset, spec: ModelSpec) -> DesignTemplate:
    """Expand a model specification into design columns, uncentered.

    Discrete covariates become reference-coded indicators; each covariate is
    expanded once however many terms use it.
    """
    names = [INTERCEPT]
    leading = [np.ones(ds.n_rows)]
    exposure_vec = None
    if spec.exposure is not None:
        exposure_vec = indicator(_require_observed(ds, spec.exposure))
        names.append(spec.exposure)
        leading.append(exposure_vec)
    covariates: list = []
    expanded: dict[str, range] = {}
    terms = []
    for term in spec.terms:
        if term.column not in expanded:
            new = _covariate_columns(ds, term.column)
            expanded[term.column] = range(len(covariates), len(covariates) + len(new))
            covariates.extend(new)
        for k in expanded[term.column]:
            colname = covariates[k][0]
            names.append(f"{spec.exposure}:{colname}" if term.interaction else colname)
            terms.append((k, term.interaction))
    return DesignTemplate(
        tuple(names), tuple(leading), tuple(covariates), tuple(terms), exposure_vec, spec.center_covariates
    )


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
    return DesignMatrix(template.design(ds.weights()), template.names)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Fitted coefficients with model-based and sandwich covariances."""

    names: tuple[str, ...]
    beta: np.ndarray
    cov_model: np.ndarray
    cov_sandwich: np.ndarray
    log_likelihood: float
    iterations: int
    n_obs: int

    def coef(self, name: str) -> float:
        return float(self.beta[self.names.index(name)])

    def se(self, index, variance: str = "sandwich") -> float:
        idx = self._index(index)
        if variance not in ("sandwich", "model_based"):
            raise InputError(f"unknown variance {variance!r}; expected 'sandwich' or 'model_based'")
        cov = self.cov_sandwich if variance == "sandwich" else self.cov_model
        return float(np.sqrt(cov[idx, idx]))

    def _index(self, index) -> int:
        if isinstance(index, str):
            if index not in self.names:
                raise InputError(f"unknown coefficient {index!r}")
            return self.names.index(index)
        if not 0 <= index < len(self.names):
            raise InputError(f"coefficient index {index} out of range")
        return int(index)

    def to_json_obj(self):
        rows = []
        for i, name in enumerate(self.names):
            se_s = self.se(i, "sandwich")
            lo, hi = wald_interval(self, i)
            rows.append(
                {
                    "name": name,
                    "estimate": float(self.beta[i]),
                    "se_model": self.se(i, "model_based"),
                    "se_sandwich": se_s,
                    "z": float(self.beta[i] / se_s) if se_s > 0 else None,
                    "ci_lo": lo,
                    "ci_hi": hi,
                }
            )
        return {
            "coefficients": rows,
            "log_likelihood": self.log_likelihood,
            "iterations": self.iterations,
            "n_obs": self.n_obs,
        }


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
    """X'diag(v)X for an (n, p) design, summed over blocks of
    :data:`GRAM_BLOCK_ROWS` rows with one matrix product each, so no
    temporary holds more than one block of the scaled design."""
    A = np.zeros((X.shape[1], X.shape[1]))
    for start in range(0, len(X), GRAM_BLOCK_ROWS):
        Xb = X[start : start + GRAM_BLOCK_ROWS]
        A += (Xb * v[start : start + GRAM_BLOCK_ROWS, None]).T @ Xb
    return A


def _newton_fit(X, y, w, names, max_iter=DEFAULT_MAX_ITER, tol=DEFAULT_TOL):
    """The input checks and Newton iterations of :func:`fit_logistic`, with
    none of its covariances: returns the coefficients, the inverse of the
    final information matrix, the final residuals y - mu, the
    log-likelihood and the iteration count.

    It ends on the final information check, so a fit that cannot be
    inverted there raises as :func:`fit_logistic` does. A caller that needs
    only the coefficients, such as a bootstrap replicate, calls it alone.
    """
    n, p = X.shape
    if y.shape != (n,):
        raise InputError("response length does not match design")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise InputError("response must be 0/1")
    if w.ndim != 1:
        raise InputError("weight length does not match design")
    _check_weights(w, n)

    beta = np.zeros(p)
    eta = X @ beta
    ll = float(_log_likelihood(eta, y, w))
    iterations = 0
    for _ in range(max_iter + 1):
        mu = expit(eta)
        resid = y - mu
        score = X.T @ (w * resid)
        A = _gram(X, w * mu * (1.0 - mu))
        if np.abs(score).max() < tol:
            break
        if iterations == max_iter:
            raise ConvergenceError(f"no convergence in {max_iter} iterations")
        try:
            np.linalg.cholesky(A)  # the positive-definiteness gate
            delta = np.linalg.solve(A, score)
        except np.linalg.LinAlgError:
            _diagnose_singular_information(X, w, names)
        step = 1.0
        for _halving in range(31):
            cand = beta + step * delta
            eta_cand = X @ cand
            ll_cand = float(_log_likelihood(eta_cand, y, w))
            if ll_cand >= ll - 1e-12 * (1.0 + abs(ll)):
                break
            step *= 0.5
        else:
            raise ConvergenceError("step halving failed to improve the likelihood")
        improving = ll_cand > ll + 1e-8
        beta, eta, ll = cand, eta_cand, ll_cand
        iterations += 1
        if np.abs(beta).max() > SEPARATION_BOUND and improving:
            raise SeparationError(
                f"coefficient magnitude exceeded {SEPARATION_BOUND} while the deviance "
                "still improved; data are quasi-completely separated"
            )

    try:
        A_inv = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        _diagnose_singular_information(X, w, names)
    return beta, A_inv, resid, ll, iterations


def fit_logistic(
    design: DesignMatrix,
    y: np.ndarray,
    w: np.ndarray | None = None,
    *,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> FitResult:
    """Maximize the weighted Bernoulli log-likelihood by IRLS.

    Convergence means the max-abs weighted score falls below ``tol``.
    Coefficients passing :data:`SEPARATION_BOUND` in absolute value while the
    deviance still improves are reported as quasi-complete separation.
    Failure to converge within ``max_iter`` accepted steps raises, so every
    returned fit has converged.

    The score is ``X.T @ (w * resid)``. The information matrix A of each
    iteration and the sandwich meat X'diag((w * resid)**2)X are formed by
    :func:`_gram` over blocks of rows, so neither builds an (n, p)
    temporary. The iterations are :func:`_newton_fit`'s; this adds the
    covariances.
    """
    X = design.matrix
    y = np.asarray(y, dtype=np.float64)
    w = np.ones(len(X)) if w is None else np.asarray(w, dtype=np.float64)
    beta, cov_model, resid, ll, iterations = _newton_fit(X, y, w, design.names, max_iter, tol)
    cov_model = (cov_model + cov_model.T) / 2.0
    B = _gram(X, (w * resid) ** 2)
    cov_sandwich = cov_model @ B @ cov_model
    cov_sandwich = (cov_sandwich + cov_sandwich.T) / 2.0
    return FitResult(
        names=design.names,
        beta=beta,
        cov_model=cov_model,
        cov_sandwich=cov_sandwich,
        log_likelihood=ll,
        iterations=iterations,
        n_obs=len(X),
    )


def _newton_steps(A: np.ndarray, score: np.ndarray):
    """Newton steps ``solve(A, score)`` for a (B, p, p) stack, and a mask of
    the matrices that pass :func:`fit_logistic`'s Cholesky gate and solve;
    a matrix that fails either gets a zero step."""
    try:
        np.linalg.cholesky(A)
        return np.linalg.solve(A, score[..., None])[..., 0], np.ones(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    steps, ok = np.zeros_like(score), np.zeros(len(A), dtype=bool)
    for i, (matrix, s) in enumerate(zip(A, score)):
        try:
            np.linalg.cholesky(matrix)
            steps[i] = np.linalg.solve(matrix, s)
        except np.linalg.LinAlgError:
            continue
        ok[i] = True
    return steps, ok


def fit_logistic_stacked(X: np.ndarray, y: np.ndarray, W: np.ndarray):
    """Newton fits of one logistic model under B weight vectors at once.

    ``X`` is an (n, p) design shared by every fit or a (B, n, p) stack, ``y``
    the 0/1 response and ``W`` the (B, n) weights. Each fit keeps
    :func:`fit_logistic`'s rules: it starts at zero, stops once the max-abs
    score falls below :data:`DEFAULT_TOL`, and may take
    :data:`DEFAULT_MAX_ITER` steps. Returns the (B, p) coefficients and a
    (B,) mask of the fits that stayed on the plain Newton path.

    A fit leaves that path, and its coefficients mean nothing, when the
    Cholesky gate or the solve fails, when a full step would lower the
    likelihood (``fit_logistic`` would halve it), when a coefficient passes
    :data:`SEPARATION_BOUND`, when it does not converge, or when its final
    information matrix has condition number above
    :data:`STACKED_MAX_CONDITION`, where the stacked and the full-row
    arithmetic may part by more than rounding. The caller redoes such a fit
    with ``fit_logistic``, which then decides its coefficients or its
    failure.
    """
    B, n = W.shape
    p = X.shape[-1]
    X = np.broadcast_to(X, (B, n, p))
    beta = np.zeros((B, p))
    eta = np.zeros((B, n))
    ll = _log_likelihood(eta, y, W)
    final_info = np.empty((B, p, p))
    plain = np.ones(B, dtype=bool)
    active = np.arange(B)
    for iteration in range(DEFAULT_MAX_ITER + 1):
        Xa = X[active]
        Wa = W[active]
        mu = expit(eta[active])
        Xt = Xa.transpose(0, 2, 1)
        score = (Xt @ (Wa * (y - mu))[..., None])[..., 0]
        A = Xt @ (Xa * (Wa * mu * (1.0 - mu))[..., None])
        done = np.abs(score).max(axis=1) < DEFAULT_TOL
        final_info[active[done]] = A[done]
        idx, Xa, A, score = active[~done], Xa[~done], A[~done], score[~done]
        if iteration == DEFAULT_MAX_ITER or not idx.size:
            plain[idx] = False
            break
        steps, gate = _newton_steps(A, score)
        plain[idx[~gate]] = False
        idx, Xa = idx[gate], Xa[gate]
        cand = beta[idx] + steps[gate]
        eta_cand = (Xa @ cand[..., None])[..., 0]
        ll_cand = _log_likelihood(eta_cand, y, W[idx])
        full_step = ll_cand >= ll[idx] - 1e-12 * (1.0 + np.abs(ll[idx]))
        kept = full_step & (np.abs(cand).max(axis=1) <= SEPARATION_BOUND)
        beta[idx], eta[idx], ll[idx] = cand, eta_cand, ll_cand
        plain[idx[~kept]] = False
        active = idx[kept]
    eig = np.linalg.eigvalsh(final_info[plain])
    plain[plain] = eig[:, -1] <= STACKED_MAX_CONDITION * eig[:, 0]
    return beta, plain


def wald_interval(fit: FitResult, index) -> tuple[float, float]:
    """95% Wald confidence interval for one coefficient, on the log-odds
    scale, from the sandwich standard error."""
    idx = fit._index(index)
    se = fit.se(idx)
    est = float(fit.beta[idx])
    return (est - Z95 * se, est + Z95 * se)


