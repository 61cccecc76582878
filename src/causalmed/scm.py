"""Structural causal models with exactly enumerable joints.

Ground truth for estimator validation comes from exact enumeration of the
joint distribution rather than Monte Carlo: the risk-difference
decomposition and counterfactual identities are exact, so their checks are
too. Sampling exists only to feed finite-sample estimator tests.

Discrete variables carry conditional probability tables or a logistic
response (binary targets, one coefficient per parent applied to the parent's
level index). Linear-Gaussian variables are supported for sampling but
reject enumeration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from importlib import resources
from typing import Mapping, Union

import numpy as np

from .data import Binary, Categorical, Column, Continuous, Dataset
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

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(self, "table", tuple(tuple(float(p) for p in row) for row in self.table))
        if len(self.levels) < 2:
            raise InputError(f"variable {self.name!r} needs at least two levels")
        for row in self.table:
            if len(row) != len(self.levels):
                raise InputError(f"variable {self.name!r}: row width != number of levels")
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

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        object.__setattr__(self, "levels", tuple(self.levels))
        if len(self.levels) != 2:
            raise InputError(f"variable {self.name!r}: logistic response requires two levels")
        if len(self.coefficients) != len(self.parents):
            raise InputError(f"variable {self.name!r}: one coefficient per parent required")

    @property
    def n_levels(self) -> int:
        return 2


@dataclass(frozen=True)
class LinearVariable:
    """Continuous variable: intercept + sum coef * parent index + Normal(0, sigma)."""

    name: str
    parents: tuple[str, ...] = ()
    intercept: float = 0.0
    coefficients: tuple[float, ...] = ()
    sigma: float = 1.0
    latent: bool = False

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if self.sigma < 0:
            raise InputError(f"variable {self.name!r}: sigma must be non-negative")
        if len(self.coefficients) != len(self.parents):
            raise InputError(f"variable {self.name!r}: one coefficient per parent required")


ScmVariable = Union[CptVariable, LogitVariable, LinearVariable]


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
                expected_rows = 1
                for parent in var.parents:
                    expected_rows *= self.variable(parent).n_levels
                if len(var.table) != expected_rows:
                    raise InputError(
                        f"variable {var.name!r}: {len(var.table)} rows, expected {expected_rows}"
                    )
            seen.add(var.name)
        for role, name in (
            ("exposure", self.exposure),
            ("baseline", self.baseline),
            ("mediator", self.mediator),
            ("outcome", self.outcome),
        ):
            if name is not None and name not in seen:
                raise InputError(f"{role} role names unknown variable {name!r}")

    def variable(self, name: str) -> ScmVariable:
        for var in self.variables:
            if var.name == name:
                return var
        raise InputError(f"unknown variable {name!r}")

    def index(self, name: str) -> int:
        for i, var in enumerate(self.variables):
            if var.name == name:
                return i
        raise InputError(f"unknown variable {name!r}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def require_roles(self, *roles: str) -> dict[str, str]:
        out = {}
        for role in roles:
            name = getattr(self, role)
            if name is None:
                raise InputError(f"spec does not assign the {role} role")
            out[role] = name
        return out


def _conditional_table(spec: ScmSpec, var: ScmVariable) -> np.ndarray:
    """P(var | parents) as an array with one axis per parent plus a level axis."""
    if isinstance(var, LinearVariable):
        raise DataError(f"variable {var.name!r} is continuous; enumeration unavailable")
    parent_shape = tuple(spec.variable(p).n_levels for p in var.parents)
    if isinstance(var, CptVariable):
        return np.asarray(var.table, dtype=np.float64).reshape(parent_shape + (var.n_levels,))
    grids = np.indices(parent_shape, dtype=np.float64) if parent_shape else np.zeros((0,))
    eta = np.full(parent_shape, var.intercept)
    for coef, grid in zip(var.coefficients, grids):
        eta = eta + coef * grid
    p1 = _expit(eta)
    return np.stack([1.0 - p1, p1], axis=-1)


@dataclass(frozen=True, eq=False)
class Joint:
    """Exact joint distribution over the spec's discrete variables."""

    names: tuple[str, ...]
    levels: tuple[tuple[str, ...], ...]
    probs: np.ndarray

    def axis(self, name: str) -> int:
        return self.names.index(name)

    def marginal(self, *names: str) -> np.ndarray:
        """Marginal probability array over the named variables, in that order."""
        keep = [self.axis(n) for n in names]
        drop = tuple(i for i in range(len(self.names)) if i not in keep)
        marg = self.probs.sum(axis=drop)
        kept_sorted = sorted(keep)
        perm = [kept_sorted.index(k) for k in keep]
        return np.transpose(marg, axes=perm)

    def prob(self, assignment: Mapping[str, str]) -> float:
        idx = []
        for i, name in enumerate(self.names):
            if name in assignment:
                idx.append(self.levels[i].index(assignment[name]))
            else:
                idx.append(slice(None))
        return float(self.probs[tuple(idx)].sum())


def enumerate_joint(spec: ScmSpec) -> Joint:
    """Exact joint probability of every configuration.

    Requires all variables discrete and the state space at most 10^6.
    """
    n_states = 1
    for var in spec.variables:
        if isinstance(var, LinearVariable):
            raise DataError(f"variable {var.name!r} is continuous; enumeration unavailable")
        n_states *= var.n_levels
        if n_states > MAX_ENUMERABLE_STATES:
            raise DataError(f"state space exceeds {MAX_ENUMERABLE_STATES} configurations")
    joint = np.ones(())
    for i, var in enumerate(spec.variables):
        table = _conditional_table(spec, var)
        parent_positions = [spec.index(p) for p in var.parents]
        order = np.argsort(parent_positions)
        table = np.transpose(table, axes=list(order) + [len(var.parents)])
        shape = [1] * i + [var.n_levels]
        for pos, parent_axis in enumerate(sorted(parent_positions)):
            shape[parent_axis] = table.shape[pos]
        joint = joint[..., None] * table.reshape(shape)
    return Joint(
        names=spec.names,
        levels=tuple(tuple(v.levels) for v in spec.variables),
        probs=joint,
    )


@dataclass(frozen=True, eq=False)
class OracleEstimands:
    """Exact effects on the risk-difference scale, per baseline stratum.

    ``mediator_standardized_ref[x]`` is the exposed-group outcome mean with
    the mediator drawn from the reference group's conditional distribution;
    ``mediator_standardized_exp[x]`` uses the exposed group's own mediator
    distribution. ``baseline_standardized_mean`` standardizes the exposed
    group's outcome over the reference group's baseline distribution.
    """

    x_levels: tuple[str, ...]
    total_rd: np.ndarray
    direct_rd: np.ndarray
    indirect_rd: np.ndarray
    outcome_mean_unexposed: np.ndarray
    mediator_standardized_ref: np.ndarray
    mediator_standardized_exp: np.ndarray
    baseline_standardized_mean: float
    baseline_contrast: float

    def to_json_obj(self):
        return {
            "x_levels": list(self.x_levels),
            "total_rd": [float(v) for v in self.total_rd],
            "direct_rd": [float(v) for v in self.direct_rd],
            "indirect_rd": [float(v) for v in self.indirect_rd],
            "baseline_standardized_mean": self.baseline_standardized_mean,
            "baseline_contrast": self.baseline_contrast,
        }


def oracle_estimands(spec: ScmSpec, joint: Joint | None = None) -> OracleEstimands:
    """Exact total/direct/indirect risk differences per baseline stratum.

    direct[x] standardizes the exposed-vs-unexposed outcome contrast to the
    unexposed mediator distribution; indirect[x] contrasts the exposed
    outcome under the two mediator distributions; total[x] is the plain
    conditional contrast. The decomposition total = direct + indirect is an
    algebraic identity, and both sides are computed independently here.
    """
    roles = spec.require_roles("exposure", "baseline", "mediator", "outcome")
    q, x, m, y = roles["exposure"], roles["baseline"], roles["mediator"], roles["outcome"]
    joint = joint or enumerate_joint(spec)
    if len(joint.levels[joint.axis(q)]) != 2 or len(joint.levels[joint.axis(y)]) != 2:
        raise InputError("exposure and outcome must be binary")
    x_levels = joint.levels[joint.axis(x)]
    n_x = len(x_levels)
    n_m = len(joint.levels[joint.axis(m)])

    p_qx = joint.marginal(q, x)  # (2, n_x)
    for q_val in (0, 1):
        for x_val in range(n_x):
            if p_qx[q_val, x_val] <= 0.0:
                raise PositivityError((q, q_val, x, x_levels[x_val]))
    p_qxy = joint.marginal(q, x, y)
    e_y_qx = p_qxy[:, :, 1] / p_qx  # E[Y | q, x]

    p_qmx = joint.marginal(q, m, x)
    p_qmxy = joint.marginal(q, m, x, y)
    p_m_given_qx = p_qmx / p_qx[:, None, :]

    def e_y(q_val, m_val, x_val):
        denom = p_qmx[q_val, m_val, x_val]
        if denom <= 0.0:
            raise PositivityError((q, q_val, m, m_val, x, x_levels[x_val]))
        return p_qmxy[q_val, m_val, x_val, 1] / denom

    direct = np.zeros(n_x)
    indirect = np.zeros(n_x)
    for x_val in range(n_x):
        d = i = 0.0
        for m_val in range(n_m):
            w_ref = p_m_given_qx[0, m_val, x_val]
            w_exp = p_m_given_qx[1, m_val, x_val]
            if w_ref > 0.0:
                d += (e_y(1, m_val, x_val) - e_y(0, m_val, x_val)) * w_ref
            if w_exp > 0.0:
                i += e_y(1, m_val, x_val) * w_exp
            if w_ref > 0.0:
                i -= e_y(1, m_val, x_val) * w_ref
        direct[x_val] = d
        indirect[x_val] = i
    total = e_y_qx[1] - e_y_qx[0]

    med_ref = direct + e_y_qx[0]
    med_exp = indirect + med_ref

    p_x_given_q0 = p_qx[0] / p_qx[0].sum()
    baseline_std = float(np.dot(e_y_qx[1], p_x_given_q0))
    e_y_q0 = float(np.dot(e_y_qx[0], p_x_given_q0))
    return OracleEstimands(
        x_levels=x_levels,
        total_rd=total,
        direct_rd=direct,
        indirect_rd=indirect,
        outcome_mean_unexposed=e_y_qx[0],
        mediator_standardized_ref=med_ref,
        mediator_standardized_exp=med_exp,
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
    roles = spec.require_roles("exposure", "baseline", "mediator", "outcome")
    q, x, m, y = roles["exposure"], roles["baseline"], roles["mediator"], roles["outcome"]
    joint = enumerate_joint(spec)
    n = len(spec.names)
    q_axis, x_axis, m_axis, y_axis = (joint.axis(v) for v in (q, x, m, y))
    y_var = spec.variable(y)
    x_levels = joint.levels[x_axis]
    m_levels = joint.levels[m_axis]

    table = _conditional_table(spec, y_var)  # parents axes + level axis
    p_y1 = table[..., 1]
    parent_positions = [spec.index(p) for p in y_var.parents]

    def embed_forced(m_val):
        """P(Y=1 | parents) over the full config space with the mediator forced."""
        t = p_y1
        if m in y_var.parents:
            axis = y_var.parents.index(m)
            t = np.take(t, m_val, axis=axis)
            positions = [p for p in parent_positions if p != spec.index(m)]
        else:
            positions = list(parent_positions)
        order = np.argsort(positions)
        t = np.transpose(t, axes=list(order))
        shape = [1] * n
        for pos, parent_axis in enumerate(sorted(positions)):
            shape[parent_axis] = t.shape[pos]
        return t.reshape(shape)

    p_qmx = joint.marginal(q, m, x)
    p_qmxy = joint.marginal(q, m, x, y)
    p_qx = joint.marginal(q, x)
    cells = []
    for m_val, x_val in itertools.product(range(len(m_levels)), range(len(x_levels))):
        if p_qmx[1, m_val, x_val] <= 0.0 or p_qx[1, x_val] <= 0.0:
            continue
        observational = p_qmxy[1, m_val, x_val, 1] / p_qmx[1, m_val, x_val]
        forced = embed_forced(m_val)
        weighted = joint.probs * forced
        idx = [slice(None)] * n
        idx[q_axis] = 1
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
    """Sampled values for all variables plus the per-variable draws.

    ``noise[name]`` holds the uniforms (discrete variables) or standard
    normals (linear variables) consumed by each draw, so counterfactual
    replays can reuse them.
    """

    values: dict[str, np.ndarray]
    noise: dict[str, np.ndarray]


def _parent_row_index(spec, var, values):
    idx = np.zeros(len(values[var.parents[0]]) if var.parents else 0, dtype=np.int64)
    for parent in var.parents:
        idx = idx * spec.variable(parent).n_levels + values[parent]
    return idx


def _draw_variable(spec, var, values, noise):
    if isinstance(var, LinearVariable):
        out = np.full(noise.shape, var.intercept)
        for coef, parent in zip(var.coefficients, var.parents):
            out = out + coef * values[parent].astype(np.float64)
        return out + var.sigma * noise
    if isinstance(var, LogitVariable):
        eta = np.full(noise.shape, var.intercept)
        for coef, parent in zip(var.coefficients, var.parents):
            eta = eta + coef * values[parent].astype(np.float64)
        return (noise < _expit(eta)).astype(np.int16)
    table = np.asarray(var.table)
    if var.parents:
        rows = table[_parent_row_index(spec, var, values)]
    else:
        rows = np.broadcast_to(table[0], (noise.shape[0], var.n_levels))
    cum = np.cumsum(rows, axis=1)
    drawn = (cum < noise[:, None]).sum(axis=1)
    return np.minimum(drawn, var.n_levels - 1).astype(np.int16)


def sample_trace(spec: ScmSpec, n: int, seed: int) -> SampleTrace:
    """Draw n rows, retaining latent values and the noise behind every draw."""
    if n < 1:
        raise InputError("n must be at least 1")
    rng = np.random.default_rng(seed)
    values: dict[str, np.ndarray] = {}
    noise: dict[str, np.ndarray] = {}
    for var in spec.variables:
        u = rng.standard_normal(n) if isinstance(var, LinearVariable) else rng.random(n)
        noise[var.name] = u
        values[var.name] = _draw_variable(spec, var, values, u)
    return SampleTrace(values, noise)


def replay(spec: ScmSpec, trace: SampleTrace, interventions: Mapping[str, np.ndarray]) -> dict:
    """Re-evaluate the structural equations under forced values, reusing the
    trace's noise. Rows keep their factual draws wherever nothing upstream
    changed, which makes consistency checks exact."""
    values: dict[str, np.ndarray] = {}
    for var in spec.variables:
        if var.name in interventions:
            forced = np.asarray(interventions[var.name])
            values[var.name] = np.broadcast_to(forced, trace.noise[var.name].shape).copy()
        else:
            values[var.name] = _draw_variable(spec, var, values, trace.noise[var.name])
    return values


def dataset_from_values(spec: ScmSpec, values: Mapping[str, np.ndarray], *, include_latent=False) -> Dataset:
    columns = {}
    for var in spec.variables:
        if var.latent and not include_latent:
            continue
        vals = values[var.name]
        if isinstance(var, LinearVariable):
            columns[var.name] = Column(Continuous(), vals, np.zeros(len(vals), dtype=np.uint8))
        else:
            if var.n_levels == 2:
                kind = Binary(tuple(var.levels), var.levels[0])
            else:
                kind = Categorical(tuple(var.levels), var.levels[0])
            columns[var.name] = Column(kind, vals, np.zeros(len(vals), dtype=np.uint8))
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
    ``parents P1 P2 ...`` and one response line: ``cpt`` rows (one per parent
    configuration, ``cpt <parent levels...> | p p ...``), ``logit intercept
    coef...``, or ``linear intercept coef... | sigma``. A final ``roles``
    line assigns q/x/m/y.
    """
    variables: list[ScmVariable] = []
    roles: dict[str, str] = {}
    current: dict | None = None

    def flush():
        nonlocal current
        if current is None:
            return
        name, levels, parents, latent = (
            current["name"],
            current["levels"],
            current["parents"],
            current["latent"],
        )
        if current["logit"] is not None:
            intercept, coefs = current["logit"]
            variables.append(
                LogitVariable(name, tuple(parents), intercept, tuple(coefs), tuple(levels), latent)
            )
        elif current["linear"] is not None:
            intercept, coefs, sigma = current["linear"]
            variables.append(
                LinearVariable(name, tuple(parents), intercept, tuple(coefs), sigma, latent)
            )
        elif current["cpt_rows"]:
            rows = _order_cpt_rows(name, levels, parents, current["cpt_rows"], variables)
            variables.append(CptVariable(name, tuple(levels), tuple(parents), rows, latent))
        else:
            raise DataError(f"variable {name!r} has no response definition")
        current = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            if fields[0] == "var":
                flush()
                if ":" not in fields:
                    raise DataError("expected `var NAME : levels...`")
                sep = fields.index(":")
                if sep != 2 or len(fields) < 4:
                    raise DataError("expected `var NAME : levels...`")
                current = {
                    "name": fields[1],
                    "levels": fields[3:],
                    "parents": [],
                    "latent": False,
                    "cpt_rows": [],
                    "logit": None,
                    "linear": None,
                }
            elif fields[0] == "roles":
                flush()
                for item in fields[1:]:
                    key, _, value = item.partition("=")
                    if key not in ("q", "x", "m", "y") or not value:
                        raise DataError(f"bad role assignment {item!r}")
                    roles[key] = value
            elif current is None:
                raise DataError(f"directive {fields[0]!r} outside a var block")
            elif fields[0] == "latent" and len(fields) == 1:
                current["latent"] = True
            elif fields[0] == "parents":
                current["parents"] = fields[1:]
            elif fields[0] == "cpt":
                if "|" not in fields:
                    raise DataError("cpt row needs `|`")
                sep = fields.index("|")
                config = tuple(fields[1:sep])
                probs = tuple(float(v) for v in fields[sep + 1 :])
                current["cpt_rows"].append((config, probs))
            elif fields[0] == "logit":
                numbers = [float(v) for v in fields[1:]]
                if not numbers:
                    raise DataError("logit needs an intercept")
                current["logit"] = (numbers[0], numbers[1:])
            elif fields[0] == "linear":
                if "|" not in fields:
                    raise DataError("linear needs `| sigma`")
                sep = fields.index("|")
                numbers = [float(v) for v in fields[1:sep]]
                if not numbers:
                    raise DataError("linear needs an intercept")
                current["linear"] = (numbers[0], numbers[1:], float(fields[sep + 1]))
            else:
                raise DataError(f"cannot parse {raw.strip()!r}")
        except (ValueError, DataError) as exc:
            raise DataError(f"line {line_no}: {exc}") from None
    flush()
    return ScmSpec(
        tuple(variables),
        exposure=roles.get("q"),
        baseline=roles.get("x"),
        mediator=roles.get("m"),
        outcome=roles.get("y"),
    )


def _order_cpt_rows(name, levels, parents, rows, declared):
    by_name = {v.name: v for v in declared}
    parent_levels = []
    for parent in parents:
        if parent not in by_name:
            raise DataError(f"variable {name!r}: parent {parent!r} not declared earlier")
        parent_levels.append(by_name[parent].levels)
    expected = list(itertools.product(*parent_levels)) if parents else [()]
    given = {config: probs for config, probs in rows}
    if set(given) != set(expected):
        raise DataError(f"variable {name!r}: cpt rows do not cover every parent configuration")
    return tuple(given[config] for config in expected)


def format_scm(spec: ScmSpec) -> str:
    lines = []
    for var in spec.variables:
        levels = var.levels if not isinstance(var, LinearVariable) else ()
        if isinstance(var, LinearVariable):
            lines.append(f"var {var.name} : continuous")
        else:
            lines.append(f"var {var.name} : " + " ".join(levels))
        if var.latent:
            lines.append("  latent")
        if var.parents:
            lines.append("  parents " + " ".join(var.parents))
        if isinstance(var, CptVariable):
            parent_levels = [
                next(v for v in spec.variables if v.name == p).levels for p in var.parents
            ]
            for config, row in zip(itertools.product(*parent_levels) if var.parents else [()], var.table):
                prefix = " ".join(config)
                probs = " ".join(repr(p) for p in row)
                lines.append(f"  cpt {prefix} | {probs}".replace("cpt  |", "cpt |"))
        elif isinstance(var, LogitVariable):
            nums = " ".join(repr(v) for v in (var.intercept, *var.coefficients))
            lines.append(f"  logit {nums}")
        else:
            nums = " ".join(repr(v) for v in (var.intercept, *var.coefficients))
            lines.append(f"  linear {nums} | {var.sigma!r}")
    roles = []
    for key, value in (("q", spec.exposure), ("x", spec.baseline), ("m", spec.mediator), ("y", spec.outcome)):
        if value is not None:
            roles.append(f"{key}={value}")
    if roles:
        lines.append("roles " + " ".join(roles))
    return "\n".join(lines) + "\n"


def load_scm(path) -> ScmSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scm(fh.read())


def load_fixture(name: str) -> ScmSpec:
    ref = resources.files("causalmed") / "fixtures" / f"{name}.scm"
    try:
        return parse_scm(ref.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InputError(f"no bundled model named {name!r}") from None
