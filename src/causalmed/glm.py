"""Model designs and weighted logistic regression.

The package has one Newton loop, :func:`_irls`: iteratively reweighted
least squares with step-halving on log-likelihood decreases, started at
zero coefficients, run for B weight vectors at once on one design. It has
one reader of such a fit under one weight vector, :func:`_fit_result`,
which raises the fit's failure (:func:`_raise_failure`) or adds the
covariances; :func:`fit_logistic` is the loop and that reader on one
design. A bootstrap replicate needs only the coefficients and reads the
loop's arrays itself. Survey weights enter as likelihood weights, scaled
by a power of two to a mean near one (:func:`_weight_scale`) so that the
loop's stop rule does not depend on their scale. A fit carries two
covariances: the model-based one, the inverse observed information, and
the sandwich, which is robust to that weighting. The package has one interval rule, :func:`wald_interval`:
the 95% Wald interval of one linear contrast of the coefficients, from the
sandwich. A rank-deficient design is reported by naming, from left to
right, each column that adds no rank to the columns before it.

The package has one design object, :class:`PatternDesign`, which
:func:`build_design` builds from a dataset in one pass: one table of
blocks, slot by slot, that turn a row's continuous values into its design
row for each distinct combination of the discrete columns, so each Newton
iteration needs only weighted sums per pattern, all taken by one kernel
(:meth:`PatternDesign._moments`). A model with discrete columns only is
the case with no continuous values, and one with a continuous covariate,
or a per-fit column such as a propensity score, carries them per row. The
covariates are centered once, at the survey-weighted means; the exposure
effect of a fit under other weights is read at their covariate means
(:meth:`PatternDesign.contrast`), the main columns of the score under
those weights, each paired with its interaction column, so no covariate
column is kept beside the design. Only the collinearity diagnosis expands
a design to its dense rows; the balance diagnostics read its score and gram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .data import Binary, Column, Continuous, Dataset, row_patterns
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

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for i, term in enumerate(self.terms):
            if term.column == self.outcome:
                raise InputError(f"outcome {self.outcome!r} cannot appear among terms")
            if term.column == self.exposure:
                raise InputError(f"exposure {self.exposure!r} cannot appear among terms")
            if term.interaction and self.exposure is None:
                raise InputError("interaction terms require an exposure")
            if term.interaction and main(term.column) not in self.terms:
                raise InputError(f"interaction term {term.column!r} requires its main effect")
            if term in self.terms[:i]:
                raise InputError(f"term {term} appears twice")
        if self.exposure is not None and self.exposure == self.outcome:
            raise InputError("exposure and outcome must differ")


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
    nonref = 1 - col.kind.levels.index(col.kind.reference)
    return (col.values == nonref).astype(np.float64)


def response_vector(ds: Dataset, outcome: str) -> np.ndarray:
    """Outcome vector in {0,1}; requires a fully observed binary column."""
    return indicator(_require_observed(ds, outcome))


def _covariate_columns(ds, name):
    """Expand one covariate into new, uncentered (name, vector) design columns."""
    col = _require_observed(ds, name)
    if isinstance(col.kind, Continuous):
        return [(name, col.values.astype(np.float64))]
    return [
        (name if isinstance(col.kind, Binary) else f"{name}={level}", (col.values == code).astype(np.float64))
        for code, level in enumerate(col.kind.levels)
        if level != col.kind.reference
    ]


@dataclass(frozen=True, eq=False)
class PatternDesign:
    """An (m, p) design held as per-pattern blocks and per-row values.

    Every design column is a function of the rows' discrete codes (the
    intercept, the exposure, covariate indicators and their products), or
    such a function times a continuous column. So row i of the design is

        X_i = F[0, k_i] + sum_j a[j, i] * F[j + 1, k_i],

    with ``pattern`` the rows' indices k_i into the K distinct combinations
    of the discrete columns, ``values`` the c continuous values a of each
    row, a (c, m) array, or (B, c, m) where they differ between the B fits
    of a batch, and ``blocks`` the (s, K, p) array F of s = c + 1 slots, so
    that its (s * K, p) reshape has the row j * K + k = F[j, k]. A model
    with discrete columns only has c = 0, and its rows are their blocks
    F[0, k]. A fit on it works on per-pattern moments (:meth:`_moments`),
    the weighted sums of 1, a_j and a_j * a_l over each pattern's rows, so
    it costs a few passes over the m rows and products of K * p**2; only
    :meth:`dense` forms the (m, p) matrix. The table of the blocks that
    :meth:`gram` uses is built once per blocks and shared by the designs
    taken from them.

    ``interactions`` pairs each exposure interaction column with the main
    column of the covariate that the exposure multiplies, as (interaction,
    main) column indices; :meth:`contrast` reads the covariates' weighted
    means from the main columns.
    """

    names: tuple[str, ...]
    pattern: np.ndarray
    values: np.ndarray
    blocks: np.ndarray
    interactions: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not np.isfinite(self.values).all():
            raise DataError("design matrix contains non-finite entries")

    @property
    def shape(self) -> tuple[int, ...]:
        """The shape of the dense design: (m, p), or (B, m, p) for per-fit values."""
        return self.values.shape[:-2] + (self.pattern.size, self.blocks.shape[-1])

    def take(self, rows) -> "PatternDesign":
        """The design on ``rows`` only; the blocks are shared."""
        return self._on(self.pattern[rows], self.values[..., rows])

    def fits(self, index) -> "PatternDesign":
        """The design of the fits at ``index`` of a batch: itself where the
        values are shared."""
        if self.values.ndim == 2:
            return self
        return self._on(self.pattern, self.values[index])

    def _on(self, pattern, values) -> "PatternDesign":
        """The design with these blocks on other rows or fits. It shares the
        product table of the blocks, built here once for every design taken
        from this one, and, on the same rows, the cells :meth:`_sums` keeps."""
        out = PatternDesign(self.names, pattern, values, self.blocks, self.interactions)
        out.__dict__["_products"] = self._products
        if pattern is self.pattern and "_cells" in self.__dict__:
            out.__dict__["_cells"] = self._cells
        return out

    def with_column(self, name: str, values: np.ndarray) -> "PatternDesign":
        """The design with one more continuous column, equal to ``values``
        ((m,), or (B, m) per fit), appended last: a zero column in every
        slot, and a new slot that is 1 in that column. The other columns
        keep their places, the exposure's among them."""
        slots, K, p = self.blocks.shape
        blocks = np.zeros((slots + 1, K, p + 1))
        blocks[:slots, :, :p] = self.blocks
        blocks[slots, :, p] = 1.0
        shared = np.broadcast_to(self.values, values.shape[:-1] + self.values.shape[-2:])
        values = np.concatenate([shared, values[..., None, :]], axis=-2)
        return PatternDesign(self.names + (name,), self.pattern, values, blocks, self.interactions)

    def dense(self) -> np.ndarray:
        """The (m, p) design, or the (B, m, p) stack for per-fit values,
        filled a column at a time."""
        X = np.empty(self.shape)
        for col in range(X.shape[-1]):
            X[..., col] = self.blocks[0, :, col].take(self.pattern)
            for j in range(1, len(self.blocks)):
                X[..., col] += self.values[..., j - 1, :] * self.blocks[j, :, col].take(self.pattern)
        return X

    def _sums(self, v: np.ndarray) -> np.ndarray:
        """The sums of ``v``, a (B, m) array, over each pattern's rows, fit
        by fit: one bincount, a (B * K,) array. For a batch, its cells,
        pattern + K * b for each fit b, are kept for the next call, which
        takes as many or a prefix of them."""
        K, m, B = self.blocks.shape[1], self.pattern.size, len(v)
        cells = self.pattern
        if B > 1:
            cells = self.__dict__.get("_cells")
            if cells is None or cells.size < B * m:
                cells = self.__dict__["_cells"] = (self.pattern + K * np.arange(B)[:, None]).ravel()
            cells = cells[: B * m]
        return np.bincount(cells, v.ravel(), B * K)

    def _moments(self, v: np.ndarray, order: int) -> np.ndarray:
        """The per-pattern sums of v * a_j (a_0 = 1) for each row of the
        (B, m) array ``v``, and for ``order`` 2 then those of v * a_i * a_j
        (1 <= i <= j): a (B, q * K) array, the sums of one product after
        another. Its first s * K columns are laid out as the rows of the
        blocks' (s * K, p) reshape, and all q * K as those of
        :attr:`_products`."""
        a = [self.values[..., j, :] for j in range(self.values.shape[-2])]
        va = [v * aj for aj in a]
        sums = [self._sums(x) for x in [v, *va]]
        if order == 2:
            sums += [self._sums(x * aj) for i, x in enumerate(va) for aj in a[i:]]
        K = self.blocks.shape[1]
        return np.concatenate(sums).reshape(len(sums), -1, K).swapaxes(0, 1).reshape(len(v), -1)

    def eta(self, beta: np.ndarray) -> np.ndarray:
        """X @ beta for coefficients (p,) or (B, p): each pattern's F @ beta,
        gathered onto its rows and scaled by their values, a slot at a
        time."""
        slots, K, p = self.blocks.shape
        G = (beta @ self.blocks.reshape(-1, p).T).reshape(beta.shape[:-1] + (slots, K))
        eta = G[..., 0, :].take(self.pattern, axis=-1)
        for j in range(1, slots):
            eta += self.values[..., j - 1, :] * G[..., j, :].take(self.pattern, axis=-1)
        return eta

    def score(self, r: np.ndarray) -> np.ndarray:
        """X'r for each row of the (B, m) array ``r``: the per-pattern sums
        of r * a_j (a_0 = 1) times the blocks."""
        return self._moments(r, 1) @ self.blocks.reshape(-1, self.blocks.shape[-1])

    def contrast(self, W: np.ndarray) -> np.ndarray:
        """The contrast g(W) that reads, as g(W)·β, the exposure effect at
        the W-weighted covariate means from the coefficients β of a fit
        under ``W``, m row weights or a (B, m) array of them.

        g is the unit vector on the exposure (column 1) plus, in each
        interaction column, the W-weighted mean of the main column that the
        exposure multiplies: that column of :meth:`score` under W, over the
        sum of W. Shifting a covariate by a constant only moves the
        intercept and the exposure coefficient, so this is the exposure
        coefficient of the fit whose covariates are centered at their
        W-weighted means. A design without interactions takes no sums.
        """
        g = np.zeros(W.shape[:-1] + (len(self.names),))
        g[..., 1] = 1.0
        if self.interactions:
            columns, mains = map(list, zip(*self.interactions))
            W2 = np.atleast_2d(W)
            means = self.score(W2)[:, mains] / W2.sum(axis=1)[:, None]
            g[..., columns] = means.reshape(g.shape[:-1] + (-1,))
        return g

    @cached_property
    def _products(self) -> np.ndarray:
        """For each pair of slots i <= j, in :meth:`_moments`' order, and
        each pattern k, the flattened F[i, k]'F[j, k] plus its transpose
        where i < j: a (q * K, p * p) table, built once per blocks."""
        F = self.blocks
        slots, K, p = F.shape
        pairs = [(i, j) for i in range(slots) for j in range(i, slots)]
        out = np.empty((len(pairs), K, p, p))
        for table, (i, j) in zip(out, pairs):
            np.multiply(F[i, :, :, None], F[j, :, None, :], out=table)
            if i != j:
                table += F[j, :, :, None] * F[i, :, None, :]
        return out.reshape(-1, p * p)

    def gram(self, v: np.ndarray) -> np.ndarray:
        """X'diag(v)X for ``v`` of m weights, or (B, p, p) for (B, m): the
        second-order moments of v contracted with the blocks' product table
        in one matrix product."""
        if v.ndim == 1:
            return self.gram(v[None])[0]
        p = self.blocks.shape[-1]
        return (self._moments(v, 2) @ self._products).reshape(len(v), p, p)


def build_design(ds: Dataset, spec: ModelSpec) -> PatternDesign:
    """Expand a model specification into its design on all rows.

    Discrete covariates become reference-coded indicators; each covariate is
    expanded once however many terms use it. Every covariate column
    (indicators included) is shifted to weighted mean zero under the
    dataset's analysis weights; the intercept and the exposure are not.
    Interaction columns are products of the exposure indicator with the
    centered covariate columns, so the exposure coefficient is the effect at
    the covariate means. No column depends on the weights of a later fit:
    its rows are taken (:meth:`PatternDesign.take`) without going back to
    the dataset, and a fit under other weights reads its exposure effect at
    their covariate means through :meth:`PatternDesign.contrast`.

    The patterns are the distinct combinations of the codes of the exposure
    and the discrete covariates, and the values the centered continuous
    covariates. Each block holds its pattern's discrete column values, or,
    for a continuous column, 1 (the exposure for an interaction) in the
    column's own slot; each interaction column is paired with its
    covariate's main column. The centered n-vectors are not kept.
    """
    n = ds.n_rows
    names, discrete, exposure = [INTERCEPT], [], None
    if spec.exposure is not None:
        discrete.append(_require_observed(ds, spec.exposure))
        exposure = indicator(discrete[0])
        names.append(spec.exposure)
    weights = ds.weights()
    _check_weights(weights, n)
    # Each covariate, in order of first use, to its centered (name, vector) columns.
    expanded: dict[str, list] = {}
    for term in spec.terms:
        if term.column not in expanded:
            expanded[term.column] = _covariate_columns(ds, term.column)
            for _, vec in expanded[term.column]:
                vec -= (vec * weights).sum() / weights.sum()
    continuous = [c for c in expanded if isinstance(ds[c].kind, Continuous)]
    discrete += [ds[c] for c in expanded if c not in continuous]
    first, pattern = row_patterns(discrete, n)
    p = len(names) + sum(len(expanded[term.column]) for term in spec.terms)
    blocks = np.zeros((len(continuous) + 1, first.size, p))
    blocks[0, :, 0] = 1.0
    if exposure is not None:
        blocks[0, :, 1] = exposure[first]
    # Each covariate column's main and interaction column indices.
    mains, crossed = {}, []
    for term in spec.terms:
        slot = 1 + continuous.index(term.column) if term.column in continuous else 0
        for colname, vec in expanded[term.column]:
            j = len(names)
            names.append(f"{spec.exposure}:{colname}" if term.interaction else colname)
            blocks[slot, :, j] = 1.0 if slot else vec[first]
            if term.interaction:
                blocks[slot, :, j] *= exposure[first]
                crossed.append((j, (term.column, colname)))
            else:
                mains[term.column, colname] = j
    interactions = tuple((j, mains[key]) for j, key in crossed)
    values = np.array([expanded[c][0][1] for c in continuous]).reshape(len(continuous), n)
    return PatternDesign(tuple(names), pattern, values, blocks, interactions)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Fitted coefficients with model-based and sandwich covariances."""

    names: tuple[str, ...]
    beta: np.ndarray
    cov_model: np.ndarray
    cov_sandwich: np.ndarray
    iterations: int
    n_obs: int


def _diagnose_singular_information(design: PatternDesign, w):
    """Name the collinear columns behind a singular information matrix.

    Scanning the sqrt(w)-scaled design from left to right, each column that
    adds no rank to the columns kept before it is named. If the weighted
    design is actually full rank the singularity came from degenerate fitted
    probabilities instead, which is separation territory. The design is
    expanded to its dense rows here, the one place a fit needs them.
    """
    X = design.dense()
    Xw = X * np.sqrt(w)[:, None]
    kept, collinear = [], []
    for j in range(X.shape[1]):
        if np.linalg.matrix_rank(Xw[:, kept + [j]]) > len(kept):
            kept.append(j)
        else:
            collinear.append(design.names[j])
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


def _weight_scale(w: np.ndarray) -> float:
    """The power of two s = 2**-round(log2(mean(w))) that brings the mean
    row weight of ``w`` to within a factor of √2 of one; 1.0 for weights
    :func:`_check_weights` refuses."""
    mean = float(np.mean(w)) if w.size else 0.0
    return math.ldexp(1.0, -round(math.log2(mean))) if 0.0 < mean < math.inf else 1.0


def _irls(X: PatternDesign, y: np.ndarray, W: np.ndarray, scale: float) -> _IrlsFits:
    """Maximize the weighted Bernoulli log-likelihood by IRLS under each row
    of the (B, n) weight array ``W``, all B fits iterating together.

    ``X`` is the design, its values shared by every fit or per fit, and
    ``y`` the 0/1 response. Each fit runs on the weights times ``scale``,
    the :func:`_weight_scale` of the full-row weights, so that the stop
    rule, which reads the score and so the sum of the weights, does not
    depend on their scale. A power of two scales exactly: weights times
    2**k fit bit for bit as the weights do. The inverse information is
    scaled back. Each fit starts at zero coefficients and stops once its
    max-abs score falls below :data:`DEFAULT_TOL`. A step that
    fails the Cholesky gate or the solve ends the fit as :data:`SINGULAR`;
    a step that lowers the log-likelihood is halved, up to 30 times, or the
    fit ends as :data:`NOT_IMPROVED`. Coefficients passing
    :data:`SEPARATION_BOUND` while the log-likelihood still improves end it
    as :data:`SEPARATED`, and a fit still short of the rule after
    :data:`DEFAULT_MAX_ITER` steps ends as :data:`NOT_CONVERGED`. A
    converged fit whose final information matrix cannot be inverted ends as
    :data:`SINGULAR`.

    Each iteration works on the fits still iterating only: their scores
    (:meth:`PatternDesign.score`) and information matrices
    (:meth:`PatternDesign.gram`) are sums of per-pattern moments, and the
    linear predictor (:meth:`PatternDesign.eta`) is each pattern's blocks
    times the coefficients, gathered onto its rows, so an iteration makes a
    few passes over the n rows and no (n, p) product. Shared values are
    never copied per fit; per-fit values are cut down only when a fit stops.
    """
    n, p = X.shape[-2:]
    if y.shape != (n,):
        raise InputError("response length does not match design")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise InputError("response must be 0/1")
    _check_weights(W, n)
    B, W = len(W), W * scale
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
        return (Xa.fits(mask),) + tuple(a[mask] for a in arrays)

    for iteration in range(DEFAULT_MAX_ITER + 1):
        mu = expit(eta)
        score = Xa.score(Wa * (y - mu))
        A = Xa.gram(Wa * mu * (1.0 - mu))
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
        eta = Xa.eta(cand)
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
                eta[j] = Xa.fits(j).eta(cand[j])
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
    out.info_inv[ok] = info_inv * scale
    out.failure[ok[~invertible]] = SINGULAR
    plain = out.plain
    plain &= out.failure == CONVERGED
    eig = np.linalg.eigvalsh(final_info[plain])
    plain[plain] = eig[:, -1] <= STACKED_MAX_CONDITION * eig[:, 0]
    return out


def _raise_failure(design: PatternDesign, w: np.ndarray, failure: int) -> None:
    """Raise the failure of one :func:`_irls` fit under the weight vector
    ``w`` on ``design`` (values shared), and nothing for a converged fit: a
    singular information matrix as the :class:`RankDeficiencyError` naming
    the collinear columns (or as :class:`SeparationError` when the weighted
    design has full rank), separation as :class:`SeparationError`, and a
    fit that runs out of iterations or cannot improve by step-halving as
    :class:`ConvergenceError`."""
    if failure == SINGULAR:
        _diagnose_singular_information(design, w)
    if failure != CONVERGED:
        raise {
            SEPARATED: SeparationError(
                f"coefficient magnitude exceeded {SEPARATION_BOUND} while the deviance "
                "still improved; data are quasi-completely separated"
            ),
            NOT_CONVERGED: ConvergenceError(f"no convergence in {DEFAULT_MAX_ITER} iterations"),
            NOT_IMPROVED: ConvergenceError("step halving failed to improve the likelihood"),
        }[failure]


def _fit_result(design: PatternDesign, y: np.ndarray, w: np.ndarray, fits: _IrlsFits) -> FitResult:
    """The one fit of ``fits``, an :func:`_irls` result under the one weight
    vector ``w`` on ``design`` (values shared), as a :class:`FitResult`, or
    its failure raised (:func:`_raise_failure`).

    The model-based covariance is the inverse of the final information
    matrix, and the sandwich meat X'diag((w * resid)**2)X comes from the
    design's pattern moments (:meth:`PatternDesign.gram`).
    """
    _raise_failure(design, w, fits.failure[0])
    beta, cov_model = fits.beta[0], fits.info_inv[0]
    cov_model = (cov_model + cov_model.T) / 2.0
    resid = y - expit(design.eta(beta))
    cov_sandwich = cov_model @ design.gram((w * resid) ** 2) @ cov_model
    cov_sandwich = (cov_sandwich + cov_sandwich.T) / 2.0
    return FitResult(
        names=design.names,
        beta=beta,
        cov_model=cov_model,
        cov_sandwich=cov_sandwich,
        iterations=int(fits.iterations[0]),
        n_obs=design.pattern.size,
    )


def fit_logistic(design: PatternDesign, y: np.ndarray, w: np.ndarray | None = None) -> FitResult:
    """Maximize the weighted Bernoulli log-likelihood by IRLS: :func:`_irls`,
    the package's one Newton loop, on one weight vector and a design with
    shared values, read by :func:`_fit_result`, so every returned fit has
    converged."""
    if design.values.ndim != 2:
        raise InputError("fit_logistic fits one design: its values must be shared, not per fit")
    y = np.asarray(y, dtype=np.float64)
    w = np.ones(design.pattern.size) if w is None else np.asarray(w, dtype=np.float64)
    return _fit_result(design, y, w, _irls(design, y, w[None], _weight_scale(w)))


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
