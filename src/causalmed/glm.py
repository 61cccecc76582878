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
    """A numeric design with named columns and recorded centering offsets."""

    matrix: np.ndarray
    names: tuple[str, ...]
    centering: dict[str, float]
    empty_columns: tuple[str, ...] = ()

    def __post_init__(self):
        if not np.isfinite(self.matrix).all():
            raise DataError("design matrix contains non-finite entries")

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

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
    :meth:`design` yields the design matrix under any weight vector without
    going back to the dataset. ``terms`` holds, per covariate design column,
    the index into ``covariates`` and whether it is an exposure interaction.
    """

    names: tuple[str, ...]
    leading: tuple[np.ndarray, ...]
    covariates: tuple[tuple[str, np.ndarray], ...]
    terms: tuple[tuple[int, bool], ...]
    exposure: np.ndarray | None
    center: bool

    def design(self, weights: np.ndarray) -> DesignMatrix:
        """The design with every covariate column shifted to weighted mean
        zero under ``weights`` when centering is on; interaction columns are
        the exposure indicator times the shifted covariate."""
        shifted = [vec for _, vec in self.covariates]
        centering = {}
        if self.center:
            _check_weights(weights, self.leading[0].size)
            offsets = [float(np.average(vec, weights=weights)) for vec in shifted]
            shifted = [vec - off for vec, off in zip(shifted, offsets)]
            centering = {self.covariates[k][0]: offsets[k] for k, inter in self.terms if not inter}
        vectors = list(self.leading)
        vectors.extend(self.exposure * shifted[k] if inter else shifted[k] for k, inter in self.terms)
        empty = tuple(name for name, vec in zip(self.names[1:], vectors[1:]) if not np.any(vec != 0.0))
        return DesignMatrix(np.column_stack(vectors), self.names, centering, empty)


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
    return design_template(ds, spec).design(ds.weights())


@dataclass(frozen=True, eq=False)
class FitResult:
    """Fitted coefficients with model-based and sandwich covariances."""

    names: tuple[str, ...]
    beta: np.ndarray
    cov_model: np.ndarray
    cov_sandwich: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool
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
            "converged": self.converged,
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


def _log_likelihood(eta, y, w) -> float:
    # w * (y*eta - log(1 + exp(eta))), stable for large |eta|
    return float(np.sum(w * (y * eta - np.logaddexp(0.0, eta))))


def _check_weights(w: np.ndarray, n: int) -> None:
    """Raise InputError unless ``w`` holds n finite, non-negative weights,
    not all zero."""
    if w.shape != (n,):
        raise InputError("weight length does not match design")
    if (w < 0).any() or not np.isfinite(w).all():
        raise InputError("weights must be finite and non-negative")
    if not (w > 0).any():
        raise InputError("weights must not all be zero")


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
    Failure to converge within ``max_iter`` accepted steps raises; returned
    fits always have ``converged=True``.
    """
    X = design.matrix
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape
    if y.shape != (n,):
        raise InputError("response length does not match design")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise InputError("response must be 0/1")
    w = np.ones(n) if w is None else np.asarray(w, dtype=np.float64)
    _check_weights(w, n)

    beta = np.zeros(p)
    eta = X @ beta
    ll = _log_likelihood(eta, y, w)
    iterations = 0
    for _ in range(max_iter + 1):
        mu = expit(eta)
        resid = y - mu
        score = np.einsum("ij,i->j", X, w * resid)
        A = np.einsum("ij,i,ik->jk", X, w * mu * (1.0 - mu), X)
        if np.abs(score).max() < tol:
            break
        if iterations == max_iter:
            raise ConvergenceError(f"no convergence in {max_iter} iterations")
        try:
            np.linalg.cholesky(A)  # the positive-definiteness gate
        except np.linalg.LinAlgError:
            _diagnose_singular_information(X, w, design.names)
        delta = np.linalg.solve(A, score)
        step = 1.0
        for _halving in range(31):
            cand = beta + step * delta
            eta_cand = X @ cand
            ll_cand = _log_likelihood(eta_cand, y, w)
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
        cov_model = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        _diagnose_singular_information(X, w, design.names)
    cov_model = (cov_model + cov_model.T) / 2.0
    B = np.einsum("ij,i,ik->jk", X, (w * resid) ** 2, X)
    cov_sandwich = cov_model @ B @ cov_model
    cov_sandwich = (cov_sandwich + cov_sandwich.T) / 2.0
    return FitResult(
        names=design.names,
        beta=beta,
        cov_model=cov_model,
        cov_sandwich=cov_sandwich,
        log_likelihood=ll,
        iterations=iterations,
        converged=True,
        n_obs=n,
    )


def wald_interval(fit: FitResult, index) -> tuple[float, float]:
    """95% Wald confidence interval for one coefficient, on the log-odds
    scale, from the sandwich standard error."""
    if not fit.converged:
        raise InputError("fit did not converge")
    idx = fit._index(index)
    se = fit.se(idx)
    est = float(fit.beta[idx])
    return (est - Z95 * se, est + Z95 * se)


