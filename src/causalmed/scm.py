"""Structural causal models with exactly enumerable joints.

Ground truth for estimator validation comes from exact enumeration of the
joint distribution rather than Monte Carlo: the risk-difference
decomposition and counterfactual identities are exact, so their checks are
too. Sampling exists only to feed finite-sample estimator tests.

Every variable is discrete, with a conditional probability table or a
logistic response (binary targets, one coefficient per parent applied to the
parent's level index). Either way :func:`_conditional_table` gives P(var |
parents) as one array, and enumeration, sampling and counterfactual forcing
all read that array. Sampling is :func:`replay` with no interventions, the
one evaluation of the structural equations on noise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Mapping, Union

import numpy as np

from .data import Binary, Categorical, Column, Dataset
from .errors import DataError, InputError, PositivityError

MAX_ENUMERABLE_STATES = 10**6


@np.vectorize
def _expit(v):
    """The logistic function elementwise through libm's ``exp``: the oracle's
    exact checks rely on its bits, and numpy's ``exp`` can differ by one ulp.
    Where ``exp(-v)`` would overflow, past log(DBL_MAX), the value is 0.0."""
    return 0.0 if -v > 709.782712893384 else 1.0 / (1.0 + math.exp(-v))


@dataclass(frozen=True)
class CptVariable:
    """Discrete variable with one probability row per parent configuration.

    Rows are ordered by parent level indices, first parent most significant
    (row-major).
    """

    name: str
    levels: tuple[str, ...]
    parents: tuple[str, ...] = ()
    table: tuple[tuple[float, ...], ...] = ()
    latent: bool = False
    #: The data kind of the levels, built from them.
    kind: Categorical = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(self, "table", tuple(tuple(float(p) for p in row) for row in self.table))
        if len(self.levels) < 2:
            raise InputError(f"variable {self.name!r} needs at least two levels")
        _set_kind(self)
        for row in self.table:
            if len(row) != len(self.levels):
                raise InputError(f"variable {self.name!r}: row width != number of levels")
            if not all(map(math.isfinite, row)):
                raise InputError(f"variable {self.name!r}: non-finite probability")
            if any(p < 0 for p in row):
                raise InputError(f"variable {self.name!r}: negative probability")
            if abs(sum(row) - 1.0) > 1e-12:
                raise InputError(f"variable {self.name!r}: row sums to {sum(row)!r}, not 1")

    @property
    def n_levels(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class LogitVariable:
    """Binary variable with P(level 1) = expit(intercept + sum coef * parent index)."""

    name: str
    parents: tuple[str, ...] = ()
    intercept: float = 0.0
    coefficients: tuple[float, ...] = ()
    levels: tuple[str, str] = ("0", "1")
    latent: bool = False
    #: The data kind of the levels, built from them.
    kind: Binary = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        object.__setattr__(self, "levels", tuple(self.levels))
        if len(self.levels) != 2:
            raise InputError(f"variable {self.name!r}: logistic response requires two levels")
        _set_kind(self)
        if len(self.coefficients) != len(self.parents):
            raise InputError(f"variable {self.name!r}: one coefficient per parent required")
        if not all(map(math.isfinite, (self.intercept, *self.coefficients))):
            raise InputError(f"variable {self.name!r}: non-finite intercept or coefficient")

    @property
    def n_levels(self) -> int:
        return 2


ScmVariable = Union[CptVariable, LogitVariable]


def _set_kind(var: ScmVariable) -> None:
    """Give ``var`` the data kind of its levels, the first the reference:
    :class:`~causalmed.data.Binary` for two, else
    :class:`~causalmed.data.Categorical`. The kind refuses repeated or
    reserved level labels."""
    kind = Binary if len(var.levels) == 2 else Categorical
    try:
        object.__setattr__(var, "kind", kind(var.levels, var.levels[0]))
    except InputError as exc:
        raise InputError(f"variable {var.name!r}: {exc}") from None


#: The keys of the text format's ``roles`` line and the ScmSpec fields they fill.
_ROLE_FIELDS = {"q": "exposure", "x": "baseline", "m": "mediator", "y": "outcome"}


@dataclass(frozen=True)
class ScmSpec:
    """Structural equations in topological order plus analysis-role names."""

    variables: tuple[ScmVariable, ...]
    exposure: str | None = None
    baseline: str | None = None
    mediator: str | None = None
    outcome: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        seen: set[str] = set()
        for var in self.variables:
            if var.name in seen:
                raise InputError(f"duplicate variable {var.name!r}")
            for parent in var.parents:
                if parent not in seen:
                    raise InputError(
                        f"variable {var.name!r}: parent {parent!r} must be declared earlier"
                    )
            if isinstance(var, CptVariable):
                expected_rows = math.prod(self.variable(p).n_levels for p in var.parents)
                if len(var.table) != expected_rows:
                    raise InputError(
                        f"variable {var.name!r}: {len(var.table)} rows, expected {expected_rows}"
                    )
            seen.add(var.name)
        named: dict[str, str] = {}  # variable -> the role naming it
        for role in _ROLE_FIELDS.values():
            name = getattr(self, role)
            if name is None:
                continue
            if name not in seen:
                raise InputError(f"{role} role names unknown variable {name!r}")
            if name in named:
                raise InputError(f"variable {name!r} is named in the {named[name]} and {role} roles")
            named[name] = role

    def variable(self, name: str) -> ScmVariable:
        return self.variables[self.index(name)]

    def index(self, name: str) -> int:
        if name not in self.names:
            raise InputError(f"unknown variable {name!r}")
        return self.names.index(name)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def require_roles(self, *roles: str) -> tuple[str, ...]:
        for role in roles:
            if getattr(self, role) is None:
                raise InputError(f"spec does not assign the {role} role")
        return tuple(getattr(self, role) for role in roles)


def _conditional_table(spec: ScmSpec, var: ScmVariable) -> np.ndarray:
    """P(var | parents) as an array with one axis per parent plus a level axis."""
    parent_shape = tuple(spec.variable(p).n_levels for p in var.parents)
    if isinstance(var, CptVariable):
        return np.asarray(var.table, dtype=np.float64).reshape(parent_shape + (var.n_levels,))
    grids = np.indices(parent_shape, dtype=np.float64)  # empty for a parentless variable
    eta = np.full(parent_shape, var.intercept)
    for coef, grid in zip(var.coefficients, grids):
        eta = eta + coef * grid
    p1 = _expit(eta)
    return np.stack([1.0 - p1, p1], axis=-1)


def _on_joint_axes(table: np.ndarray, positions: list[int], ndim: int) -> np.ndarray:
    """``table``, with one axis per entry of ``positions``, as an ``ndim``-axis
    array that broadcasts against the joint: each axis moved to its variable's
    position, unit axes elsewhere."""
    shape = [1] * ndim
    for k, pos in enumerate(positions):
        shape[pos] = table.shape[k]
    return np.transpose(table, axes=np.argsort(positions)).reshape(shape)


@dataclass(frozen=True, eq=False)
class Joint:
    """Exact joint distribution over the spec's discrete variables."""

    names: tuple[str, ...]
    levels: tuple[tuple[str, ...], ...]
    probs: np.ndarray

    def axis(self, name: str) -> int:
        if name not in self.names:
            raise InputError(f"unknown variable {name!r}")
        return self.names.index(name)

    def marginal(self, *names: str) -> np.ndarray:
        """Marginal probability array over the named variables, in that order."""
        if len(set(names)) != len(names):
            raise InputError(f"marginal names a variable twice: {names}")
        keep = [self.axis(n) for n in names]
        drop = tuple(i for i in range(len(self.names)) if i not in keep)
        marg = self.probs.sum(axis=drop)
        kept_sorted = sorted(keep)
        perm = [kept_sorted.index(k) for k in keep]
        return np.transpose(marg, axes=perm)


def enumerate_joint(spec: ScmSpec) -> Joint:
    """Exact joint probability of every configuration.

    Requires the state space to be at most 10^6.
    """
    if math.prod(var.n_levels for var in spec.variables) > MAX_ENUMERABLE_STATES:
        raise DataError(f"state space exceeds {MAX_ENUMERABLE_STATES} configurations")
    joint = np.ones(())
    for i, var in enumerate(spec.variables):
        positions = [spec.index(p) for p in var.parents] + [i]
        joint = joint[..., None] * _on_joint_axes(_conditional_table(spec, var), positions, i + 1)
    return Joint(
        names=spec.names,
        levels=tuple(tuple(v.levels) for v in spec.variables),
        probs=joint,
    )


@dataclass(frozen=True, eq=False)
class OracleEstimands:
    """Exact effects on the risk-difference scale, per baseline stratum.

    ``total_rd``, ``direct_rd`` and ``indirect_rd`` hold one value per
    level in ``x_levels``. ``baseline_standardized_mean`` standardizes the
    exposed group's outcome over the reference group's baseline
    distribution, and ``baseline_contrast`` is that mean minus the reference
    group's own outcome mean.
    """

    x_levels: tuple[str, ...]
    total_rd: np.ndarray
    direct_rd: np.ndarray
    indirect_rd: np.ndarray
    baseline_standardized_mean: float
    baseline_contrast: float


def oracle_estimands(spec: ScmSpec, joint: Joint) -> OracleEstimands:
    """Exact total/direct/indirect risk differences per baseline stratum,
    read from ``joint``, the joint distribution of ``spec``
    (:func:`enumerate_joint`).

    total[x] = E[Y|1,x] - E[Y|0,x] reads the margins P(q, x) and P(q, x, y);
    by Pearl's mediation formula, direct[x] = sum_m (E[Y|1,m,x] - E[Y|0,m,x])
    P(m|0,x) and indirect[x] = sum_m E[Y|1,m,x] (P(m|1,x) - P(m|0,x)) read
    P(q, m, x), P(q, m, x, y) and P(q, x). So total = direct + indirect is an
    identity whose two sides still come from different margins. PositivityError
    names the first empty cell, ``(q, q_val, x, x_level)`` or else ``(q, 1, m,
    m_val, x, x_level)``, scanning x first and then m.
    """
    q, x, m, y = spec.require_roles("exposure", "baseline", "mediator", "outcome")
    if len(joint.levels[joint.axis(q)]) != 2 or len(joint.levels[joint.axis(y)]) != 2:
        raise InputError("exposure and outcome must be binary")
    x_levels = joint.levels[joint.axis(x)]

    p_qx = joint.marginal(q, x)  # (2, n_x)
    if (p_qx <= 0.0).any():
        q_val, x_val = np.argwhere(p_qx <= 0.0)[0]
        raise PositivityError((q, int(q_val), x, x_levels[x_val]))
    e_y_qx = joint.marginal(q, x, y)[..., 1] / p_qx  # E[Y | q, x]

    p_qmx = joint.marginal(q, m, x)  # (2, n_m, n_x)
    p_m_given_qx = p_qmx / p_qx[:, None, :]
    unmatched = (p_m_given_qx[0] > 0.0) & (p_qmx[1] <= 0.0)
    if unmatched.any():
        x_val, m_val = np.argwhere(unmatched.T)[0]
        raise PositivityError((q, 1, m, int(m_val), x, x_levels[x_val]))
    with np.errstate(divide="ignore", invalid="ignore"):
        e_y = np.where(p_qmx > 0.0, joint.marginal(q, m, x, y)[..., 1] / p_qmx, 0.0)  # E[Y | q, m, x]

    # Sum over m in level order: cumsum adds in order, sum may add pairwise.
    direct = np.cumsum((e_y[1] - e_y[0]) * p_m_given_qx[0], axis=0)[-1]
    signed = np.stack([e_y[1] * p_m_given_qx[1], -(e_y[1] * p_m_given_qx[0])], axis=1)  # (n_m, 2, n_x)
    indirect = np.cumsum(signed.reshape(-1, len(x_levels)), axis=0)[-1]
    total = e_y_qx[1] - e_y_qx[0]

    p_x_given_q0 = p_qx[0] / p_qx[0].sum()
    baseline_std = float(np.dot(e_y_qx[1], p_x_given_q0))
    e_y_q0 = float(np.dot(e_y_qx[0], p_x_given_q0))
    return OracleEstimands(
        x_levels=x_levels,
        total_rd=total,
        direct_rd=direct,
        indirect_rd=indirect,
        baseline_standardized_mean=baseline_std,
        baseline_contrast=baseline_std - e_y_q0,
    )


@dataclass(frozen=True)
class CounterfactualCell:
    m_level: str
    x_level: str
    observational: float
    counterfactual: float

    @property
    def abs_diff(self) -> float:
        return abs(self.observational - self.counterfactual)


@dataclass(frozen=True)
class CounterfactualReport:
    """Observational vs potential-outcome means among the exposed.

    For each (m, x): the observational mean E[Y | exposed, m, x] against the
    counterfactual mean of Y with the mediator forced to m, computed from
    the outcome's structural equation. The two coincide exactly when nothing
    latent confounds the mediator-outcome relation given exposure and
    baseline; a latent common cause breaks the equality.
    """

    cells: tuple[CounterfactualCell, ...]

    @property
    def max_abs_diff(self) -> float:
        return max((c.abs_diff for c in self.cells), default=0.0)


def counterfactual_check(spec: ScmSpec) -> CounterfactualReport:
    q, x, m, y = spec.require_roles("exposure", "baseline", "mediator", "outcome")
    joint = enumerate_joint(spec)
    n = len(spec.names)
    q_axis, x_axis, m_axis, y_axis = (joint.axis(v) for v in (q, x, m, y))
    y_var = spec.variable(y)
    x_levels = joint.levels[x_axis]
    m_levels = joint.levels[m_axis]

    p_y1 = _conditional_table(spec, y_var)[..., 1]  # one axis per parent
    # Only the exposed are read: the joint's Q = 1 slice and, when Q is a
    # parent of Y, the outcome table's, each with Q's axis kept at length one.
    if q in y_var.parents:
        p_y1 = np.take(p_y1, [1], axis=y_var.parents.index(q))
    forced_axis = y_var.parents.index(m) if m in y_var.parents else None
    positions = [spec.index(p) for p in y_var.parents if p != m]

    p_qmx = joint.marginal(q, m, x)
    p_qmxy = joint.marginal(q, m, x, y)
    p_qx = joint.marginal(q, x)
    cells = []
    exposed = np.take(joint.probs, [1], axis=q_axis)
    weighted = np.empty_like(exposed)  # one buffer, refilled per mediator level
    for m_val in range(len(m_levels)):
        # P(Y=1 | parents) over every exposed configuration with the
        # mediator forced.
        forced = p_y1 if forced_axis is None else np.take(p_y1, m_val, axis=forced_axis)
        np.multiply(exposed, _on_joint_axes(forced, positions, n), out=weighted)
        for x_val in range(len(x_levels)):
            if p_qmx[1, m_val, x_val] <= 0.0 or p_qx[1, x_val] <= 0.0:
                continue
            observational = p_qmxy[1, m_val, x_val, 1] / p_qmx[1, m_val, x_val]
            idx = [slice(None)] * n
            idx[x_axis] = x_val
            counterfactual = float(weighted[tuple(idx)].sum() / p_qx[1, x_val])
            cells.append(
                CounterfactualCell(m_levels[m_val], x_levels[x_val], float(observational), counterfactual)
            )
    return CounterfactualReport(tuple(cells))


# ---------------------------------------------------------------------------
# Sampling


@dataclass(frozen=True, eq=False)
class SampleTrace:
    """Sampled level codes for all variables plus the per-variable draws.

    ``noise[name]`` holds the uniforms consumed by each variable's draw, so
    counterfactual replays can reuse them.
    """

    values: dict[str, np.ndarray]
    noise: dict[str, np.ndarray]


def sample_trace(spec: ScmSpec, n: int, seed: int) -> SampleTrace:
    """Draw n rows, retaining latent values and the noise behind every draw."""
    if n < 1:
        raise InputError("n must be at least 1")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    noise = {var.name: rng.random(n) for var in spec.variables}
    return SampleTrace(replay(spec, noise, {}), noise)


def replay(spec: ScmSpec, noise: Mapping[str, np.ndarray], interventions: Mapping[str, np.ndarray]) -> dict:
    """Evaluate the structural equations on ``noise``, a trace's uniforms by
    variable, with forced level codes for ``interventions``. A logistic
    response takes level 1 where the uniform is below P(level 1); a table, the
    first level whose cumulative probability reaches it. Rows keep factual
    draws where nothing upstream changed. Every variable needs its noise,
    one uniform per row, as long as the first variable's; a forced value is
    one code for every row or one per row."""
    for name in interventions:
        spec.variable(name)  # InputError for an unknown name
    values: dict[str, np.ndarray] = {}
    n = None
    for var in spec.variables:
        if var.name not in noise:
            raise InputError(f"no noise given for variable {var.name!r}")
        u = np.asarray(noise[var.name])
        n = u.size if n is None else n
        if u.shape != (n,):
            raise InputError(f"noise of {var.name!r} has shape {u.shape}; expected ({n},), one uniform per row")
        if var.name in interventions:
            forced = np.asarray(interventions[var.name])
            if forced.shape not in ((), u.shape):
                raise InputError(f"forced values of {var.name!r} have shape {forced.shape}, not () or ({n},)")
            forced = np.broadcast_to(forced, u.shape)
            if not (np.array_equal(forced, np.trunc(forced)) and ((forced >= 0) & (forced < var.n_levels)).all()):
                raise InputError(f"forced values of {var.name!r} must be level codes 0..{var.n_levels - 1}")
            values[var.name] = forced.astype(np.int16)
            continue
        rows = _conditional_table(spec, var)[tuple(values[p] for p in var.parents)]
        if isinstance(var, LogitVariable):
            values[var.name] = (u < rows[..., 1]).astype(np.int16)
        else:
            cum = np.cumsum(np.broadcast_to(rows, (u.shape[0], var.n_levels)), axis=1)
            drawn = (cum < u[:, None]).sum(axis=1)
            values[var.name] = np.minimum(drawn, var.n_levels - 1).astype(np.int16)
    return values


def dataset_from_values(spec: ScmSpec, values: Mapping[str, np.ndarray]) -> Dataset:
    """Fully observed dataset of the spec's observed variables; latent
    variables are left out."""
    columns = {}
    for var in spec.variables:
        if var.latent:
            continue
        vals = values[var.name]
        columns[var.name] = Column(var.kind, vals, np.zeros(len(vals), dtype=np.uint8))
    return Dataset(columns)


def sample(spec: ScmSpec, n: int, seed: int) -> Dataset:
    """n i.i.d. rows from the joint; latent variables are excluded."""
    trace = sample_trace(spec, n, seed)
    return dataset_from_values(spec, trace.values)


# ---------------------------------------------------------------------------
# Text format


def parse_scm(text: str) -> ScmSpec:
    """Parse the structured-text model format.

    Blocks start with ``var NAME : level level ...`` followed by ``latent``,
    ``parents P1 P2 ...`` and one response: ``cpt`` rows (one per parent
    configuration, ``cpt <parent levels...> | p p ...``) or one ``logit
    intercept coef...`` line. One ``roles`` line assigns q/x/m/y.

    A block gives each directive once: one ``latent``, one ``parents``, one
    ``cpt`` row per parent configuration, and either ``cpt`` rows or one
    ``logit`` line, not both. A role key is given once, on the one
    ``roles`` line, and names a different variable from every other key.

    The text is read in two passes. The first reads the lines into blocks
    and the roles line; the second builds each block's variable in order.
    Errors raise DataError naming a line: a bad or repeated line names
    itself, a variable that cannot be built names the line of its ``var``,
    and a role error names the ``roles`` line.
    """
    # (var line, name, levels, {directive: value}) per block, in text order.
    blocks: list[tuple[int, str, tuple[str, ...], dict]] = []
    given: dict | None = None  # the open block's directives
    roles: dict[str, str] = {}
    roles_line = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        word, args = fields[0], fields[1:]
        try:
            if word == "var":
                if len(args) < 3 or args[0] == ":" or args[1] != ":":
                    raise DataError("expected `var NAME : levels...`")
                given = {}
                blocks.append((line_no, args[0], tuple(args[2:]), given))
            elif word == "roles":
                if roles_line is not None:
                    raise DataError(f"roles already given on line {roles_line}")
                roles_line, given = line_no, None
                for item in args:
                    key, _, value = item.partition("=")
                    if key not in _ROLE_FIELDS or not value:
                        raise DataError(f"bad role assignment {item!r}")
                    if key in roles:
                        raise DataError(f"role {key!r} assigned twice")
                    roles[key] = value
            elif given is None:
                raise DataError(f"directive {word!r} outside a var block")
            elif word == "latent" and not args:
                _record(given, "latent", True)
            elif word == "parents":
                _record(given, "parents", tuple(args))
            elif word == "logit":
                numbers = tuple(float(v) for v in args)
                if not numbers:
                    raise DataError("logit needs an intercept")
                _record(given, "logit", numbers)
            elif word == "cpt":
                if "|" not in args:
                    raise DataError("cpt row needs `|`")
                sep = args.index("|")
                config, probs = tuple(args[:sep]), tuple(float(v) for v in args[sep + 1 :])
                if "cpt" not in given:
                    _record(given, "cpt", {})
                if config in given["cpt"]:
                    raise DataError(f"cpt row for parent levels {' '.join(config)!r} given twice")
                given["cpt"][config] = probs
            else:
                raise DataError(f"cannot parse {raw.strip()!r}")
        except (ValueError, DataError) as exc:
            raise DataError(f"line {line_no}: {exc}") from None

    variables: dict[str, ScmVariable] = {}
    for line_no, name, levels, given in blocks:
        parents, latent = given.get("parents", ()), "latent" in given
        try:
            if name in variables:
                raise DataError(f"duplicate variable {name!r}")
            for parent in parents:
                if parent not in variables:
                    raise DataError(f"variable {name!r}: parent {parent!r} not declared earlier")
            if "logit" in given:
                intercept, *coefs = given["logit"]
                variables[name] = LogitVariable(name, parents, intercept, coefs, levels, latent)
            elif "cpt" in given:
                expected = list(itertools.product(*(variables[p].levels for p in parents)))
                if given["cpt"].keys() != set(expected):
                    raise DataError(f"variable {name!r}: cpt rows do not cover every parent configuration")
                table = tuple(given["cpt"][config] for config in expected)
                variables[name] = CptVariable(name, levels, parents, table, latent)
            else:
                raise DataError(f"variable {name!r} has no response definition")
        except (InputError, DataError) as exc:
            raise DataError(f"line {line_no}: {exc}") from None
    try:
        return ScmSpec(tuple(variables.values()), **{_ROLE_FIELDS[k]: v for k, v in roles.items()})
    except InputError as exc:
        raise DataError(f"line {roles_line}: {exc}") from None


def _record(given: dict, directive: str, value) -> None:
    """Record one directive of a block: each is given once, and the response
    is either ``cpt`` rows or one ``logit`` line."""
    if directive in given:
        raise DataError(f"`{directive}` given twice in one block")
    if {directive, *given} >= {"cpt", "logit"}:
        raise DataError("a block gives `cpt` rows or one `logit` line, not both")
    given[directive] = value


def format_scm(spec: ScmSpec) -> str:
    lines = []
    for var in spec.variables:
        lines.append(f"var {var.name} : " + " ".join(var.levels))
        if var.latent:
            lines.append("  latent")
        if var.parents:
            lines.append("  parents " + " ".join(var.parents))
        if isinstance(var, CptVariable):
            parent_levels = [spec.variable(p).levels for p in var.parents]
            for config, row in zip(itertools.product(*parent_levels), var.table):
                lines.append("  " + " ".join(["cpt", *config, "|", *map(repr, row)]))
        else:
            nums = " ".join(repr(v) for v in (var.intercept, *var.coefficients))
            lines.append(f"  logit {nums}")
    names = {key: getattr(spec, field) for key, field in _ROLE_FIELDS.items()}
    roles = [f"{key}={name}" for key, name in names.items() if name is not None]
    if roles:
        lines.append("roles " + " ".join(roles))
    return "\n".join(lines) + "\n"


def load_fixture(name: str) -> ScmSpec:
    ref = resources.files("causalmed") / "fixtures" / f"{name}.scm"
    try:
        return parse_scm(ref.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InputError(f"no bundled model named {name!r}") from None
