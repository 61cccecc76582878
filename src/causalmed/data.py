"""Column-typed tabular data with explicit cell states.

Every cell is either observed, missing, or a survey non-response. The two
unobserved states are deliberately distinct: non-response rows are excluded
from every analysis, while rows with missing cells are dropped only by the
complete-case row filter. A dataset's columns and weights are immutable
after construction, and all operations return new datasets. Only its
instance dictionary changes: the bootstrap keeps its shared replicate table
there (:func:`causalmed.mediation._pattern_weight_table`).

Discrete cell values are stored as small integer codes into the column kind's
level list; continuous values as float64. Unobserved cells carry code -1 /
NaN and are only meaningful through the state array.
"""

from __future__ import annotations

import csv
import enum
import itertools
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass
from typing import ClassVar, Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import DataError, InputError, RecodeError


class CellState(enum.IntEnum):
    OBSERVED = 0
    MISSING = 1
    NONRESPONSE = 2


#: Sentinel used in cell lists passed to :meth:`Column.build`.
NONRESPONSE = CellState.NONRESPONSE

#: Token for non-response cells in CSV files: :func:`write_csv` writes it
#: and :func:`ingest_csv` reads it.
NONRESPONSE_TOKEN = "__NR__"

#: Survey answers that :func:`sgm_survey_rules` recodes to non-response.
NONRESPONSE_LABELS = ("Refused", "Don't know", "don't know")

#: Most levels of a discrete kind: its codes are stored as int16, 0 to 32,767.
MAX_LEVELS = np.iinfo(np.int16).max + 1


# ---------------------------------------------------------------------------
# Column kinds


@dataclass(frozen=True)
class Continuous:
    """Real-valued column."""

    levels: ClassVar[None] = None


@dataclass(frozen=True)
class Categorical:
    """Discrete column with an ordered level list and a reference level."""

    levels: tuple[str, ...]
    reference: str

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise InputError("discrete kind needs at least one level")
        if len(self.levels) > MAX_LEVELS:
            raise InputError(f"discrete kind has {len(self.levels)} levels; at most {MAX_LEVELS} are stored")
        if len(set(self.levels)) != len(self.levels):
            raise InputError(f"duplicate levels: {self.levels}")
        for token in ("", NONRESPONSE_TOKEN):  # what write_csv writes for unobserved cells
            if token in self.levels:
                raise InputError(f"level {token!r} is reserved for unobserved cells")
        if self.reference not in self.levels:
            raise InputError(f"reference {self.reference!r} not among levels {self.levels}")


@dataclass(frozen=True)
class Binary(Categorical):
    """Two-level column; the non-reference level codes to 1 in design matrices."""

    levels: tuple[str, str] = ("0", "1")
    reference: str = "0"

    def __post_init__(self):
        super().__post_init__()
        if len(self.levels) != 2:
            raise InputError(f"binary kind needs two distinct levels, got {self.levels}")


#: Every kind answers ``levels``: the level labels of a discrete kind, None
#: for a continuous one. A binary kind is the two-level categorical, yet
#: unequal to a categorical with the same levels, as the class differs.
ColumnKind = Union[Continuous, Categorical]


def _cell_parser(kind: ColumnKind):
    """The one conversion of an observed cell to its stored value: float(cell)
    for a continuous kind, the level's code for a discrete one. A cell that
    does not convert raises a DataError naming it; callers add its row and
    column. A text cell with a ``_`` does not convert, though float() reads
    Python's digit separators. Finiteness is left to :class:`Column`."""
    levels = kind.levels
    if levels is None:
        def parse(cell):
            try:
                if isinstance(cell, str) and "_" in cell:
                    raise ValueError(cell)
                return float(cell)
            except (TypeError, ValueError, OverflowError):
                raise DataError(f"cannot parse {cell!r} as a number") from None
    else:
        codes = {lv: i for i, lv in enumerate(levels)}
        def parse(cell):
            try:
                return codes[cell]
            except (KeyError, TypeError):
                raise DataError(f"{cell!r} is not a declared level") from None
    return parse


# ---------------------------------------------------------------------------
# Columns and datasets


@dataclass(frozen=True, eq=False)
class Column:
    """One column: a kind, packed values, and a per-cell state array."""

    kind: ColumnKind
    values: np.ndarray
    state: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        state = np.asarray(self.state, dtype=np.uint8)
        if values.shape != state.shape or values.ndim != 1:
            raise InputError("values and state must be equal-length vectors")
        levels = self.kind.levels
        if levels is None:
            values = values.astype(np.float64)
            bad = np.flatnonzero((state == CellState.OBSERVED) & ~np.isfinite(values))
            if bad.size:
                raise DataError(f"non-finite observed value at row {bad[0] + 1}")
            values = np.where(state == CellState.OBSERVED, values, np.nan)
        else:
            # Range-check the codes as given: narrowing first would wrap
            # out-of-range codes onto valid ones.
            obs = state == CellState.OBSERVED
            codes = values[obs]
            if not np.array_equal(codes, np.trunc(codes)):
                raise DataError("observed codes must be finite integers")
            if codes.size and (codes.min() < 0 or codes.max() >= len(levels)):
                raise DataError("code outside declared levels")
            values = np.where(obs, values, -1).astype(np.int16)
        values.setflags(write=False)
        state.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "state", state)

    @classmethod
    def build(cls, kind: ColumnKind, cells: Iterable) -> "Column":
        """Build a column from python cell values.

        Each cell is an observed value (a number, or a level label for
        discrete kinds), ``None`` for missing, or :data:`NONRESPONSE`. A
        DataError names the 1-based row of a cell that does not convert under
        the kind or is not a finite number.
        """
        parse = _cell_parser(kind)
        values, state = [], []
        for row, cell in enumerate(cells, start=1):
            # Identity tests: NONRESPONSE is an IntEnum equal to 2, so `==`
            # or a lookup would read a continuous cell 2 as non-response.
            state.append(
                CellState.MISSING if cell is None else cell if cell is NONRESPONSE else CellState.OBSERVED
            )
            try:
                values.append(0 if state[-1] else parse(cell))
            except DataError as exc:
                raise DataError(f"row {row}: {exc}") from None
        return cls(kind, np.asarray(values), np.asarray(state, dtype=np.uint8))

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def observed(self) -> np.ndarray:
        return self.state == CellState.OBSERVED

    def take(self, rows: np.ndarray) -> "Column":
        return Column(self.kind, self.values[rows], self.state[rows])

    def __eq__(self, other):
        if not isinstance(other, Column):
            return NotImplemented
        return (
            self.kind == other.kind
            and np.array_equal(self.state, other.state)
            and np.array_equal(self.values, other.values, equal_nan=isinstance(self.kind, Continuous))
        )


@dataclass(frozen=True, eq=False)
class Dataset:
    """An immutable bundle of equal-length columns plus an optional weight column."""

    columns: dict[str, Column]
    weight_column: str | None = None

    def __post_init__(self):
        if not self.columns:
            raise InputError("dataset needs at least one column")
        lengths = {col.n_rows for col in self.columns.values()}
        if len(lengths) != 1:
            raise DataError(f"columns have unequal lengths: {sorted(lengths)}")
        if self.weight_column is not None:
            if self.weight_column not in self.columns:
                raise InputError(f"weight column {self.weight_column!r} not in dataset")
            wcol = self.columns[self.weight_column]
            if not isinstance(wcol.kind, Continuous):
                raise DataError("weight column must be continuous")
            if not wcol.observed.all():
                raise DataError("weight column has unobserved cells")
            if (wcol.values < 0).any():
                raise DataError("weights must be non-negative")

    @property
    def n_rows(self) -> int:
        return next(iter(self.columns.values())).n_rows

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.columns)

    def __getitem__(self, name: str) -> Column:
        try:
            return self.columns[name]
        except KeyError:
            raise InputError(f"unknown column {name!r}") from None

    def weights(self) -> np.ndarray:
        if self.weight_column is None:
            return np.ones(self.n_rows)
        return self.columns[self.weight_column].values.astype(np.float64)

    def take(self, rows) -> "Dataset":
        rows = np.asarray(rows)
        return Dataset({n: c.take(rows) for n, c in self.columns.items()}, self.weight_column)

    def replace_columns(self, updates: Mapping[str, Column]) -> "Dataset":
        cols = dict(self.columns)
        for name, col in updates.items():
            if name not in cols:
                raise InputError(f"unknown column {name!r}")
            cols[name] = col
        return Dataset(cols, self.weight_column)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.weight_column == other.weight_column
            and self.names == other.names
            and all(self.columns[n] == other.columns[n] for n in self.names)
        )


def row_patterns(columns: Sequence[Column], n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of discrete columns of ``n_rows`` rows as
    ``(first, pattern)``: the first row holding each of the K distinct code
    tuples, in lexicographic order of the tuples, and each row's index into
    them. With no columns every row has the one empty pattern.

    This is ``np.unique`` over the stacked codes with ``axis=0``,
    ``return_index`` and ``return_inverse``, taken over one integer per row:
    the mixed-radix number whose digits are the columns' codes, the first
    column most significant. The codes must be observed. Should the radix
    product outgrow int64, the digits so far are first renumbered densely,
    which keeps their order.
    """
    code, span = np.zeros(n_rows, dtype=np.int64), 1
    for col in columns:
        radix = len(col.kind.levels)
        if span * radix > np.iinfo(np.int64).max:
            _, code = np.unique(code, return_inverse=True)
            span = int(code.max()) + 1
        code = code * radix + col.values
        span *= radix
    _, first, pattern = np.unique(code, return_index=True, return_inverse=True)
    return first, pattern


@dataclass(frozen=True)
class VariableRoles:
    """Maps analysis roles onto dataset columns.

    Mediators are the support measures taken after exposure disclosure; the
    list may be empty only for total-effect-only analyses. Each column fills
    one role at most.
    """

    exposure: str
    outcome: str
    baseline_support: str
    mediators: tuple[str, ...] = ()
    covariates: tuple[str, ...] = ()
    survey_year: str | None = None

    def __post_init__(self):
        for role in ("mediators", "covariates"):
            if isinstance(getattr(self, role), str):
                raise InputError(f"{role} must be a collection of column names, not one string")
            object.__setattr__(self, role, tuple(getattr(self, role)))
        columns = self.all_columns()
        for name in columns:
            if columns.count(name) > 1:
                raise InputError(f"column {name!r} is named in more than one role")

    def all_columns(self) -> tuple[str, ...]:
        cols = [self.exposure, self.outcome, self.baseline_support]
        cols.extend(self.mediators)
        cols.extend(self.covariates)
        if self.survey_year is not None:
            cols.append(self.survey_year)
        return tuple(cols)

    def adjustment_columns(self) -> tuple[str, ...]:
        """Covariates entering every outcome model (baseline support first)."""
        cols = [self.baseline_support, *self.covariates]
        if self.survey_year is not None:
            cols.append(self.survey_year)
        return tuple(cols)

    def validate(self, ds: Dataset) -> None:
        for name in self.all_columns():
            if name not in ds.columns:
                raise InputError(f"role column {name!r} not in dataset")
        for name in (self.exposure, self.outcome):
            if not isinstance(ds[name].kind, Binary):
                raise InputError(f"column {name!r} must be binary for its role")


# ---------------------------------------------------------------------------
# CSV ingestion / serialization


@contextmanager
def _open_text(target, mode: str):
    """Yield ``target`` itself when it is an open text stream; otherwise open
    the path it names as UTF-8 in ``mode`` ("r" or "w"), close it on exit,
    and report a path that cannot be opened as a DataError."""
    verb = "read" if mode == "r" else "write"
    if hasattr(target, verb):
        yield target
        return
    try:
        fh = open(target, mode, encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot {verb} {target}: {exc}") from exc
    with fh:
        yield fh


def ingest_csv(
    source,
    schema: Mapping[str, ColumnKind],
    missing_tokens: Iterable[str] = ("",),
    *,
    weight_column: str | None = None,
) -> Dataset:
    """Read a CSV file (RFC-4180 quoting) into a Dataset.

    Only columns named in ``schema`` are ingested; the header must contain
    every schema column, each once (a leading byte-order mark is dropped).
    Cells matching ``missing_tokens``, a collection of strings, become
    missing and cells equal to :data:`NONRESPONSE_TOKEN` non-response, so
    the output of :func:`write_csv` reads back unchanged. A missing token
    that is :data:`NONRESPONSE_TOKEN` or a declared level of a discrete
    schema column raises InputError naming it (and the column). Anything
    else must parse under the declared kind, a continuous cell as a finite
    number, otherwise a DataError names the offending row and column.
    ``source`` may be a path or an open text stream.
    """
    if isinstance(missing_tokens, str):
        raise InputError("missing_tokens must be a collection of strings, not one string")
    unobserved = dict.fromkeys(missing_tokens, CellState.MISSING)
    if NONRESPONSE_TOKEN in unobserved:
        raise InputError(f"missing token {NONRESPONSE_TOKEN!r} is the non-response token")
    for name, kind in schema.items():
        clash = [token for token in unobserved if token in (kind.levels or ())]
        if clash:
            raise InputError(f"missing token {clash[0]!r} is a declared level of column {name!r}")
    unobserved[NONRESPONSE_TOKEN] = CellState.NONRESPONSE
    with _open_text(source, "r") as fh:
        # The mark is dropped from the text, so a quoted first field parses.
        first_line = fh.readline().removeprefix("\ufeff")
        if not first_line:
            raise DataError("empty file: no header row")
        reader = csv.reader(itertools.chain([first_line], fh))
        header = next(reader)
        # Per schema column: name, header position, parser, values, states.
        cols = []
        for name, kind in schema.items():
            if name not in header:
                raise DataError(f"column {name!r} not in header")
            if header.count(name) > 1:
                raise DataError(f"column {name!r} appears {header.count(name)} times in header")
            cols.append((name, header.index(name), _cell_parser(kind), [], []))
        # Each cell is converted as it is read, so no token outlives its row.
        for row_no, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise DataError(f"row {row_no}: expected {len(header)} fields, got {len(row)}")
            for name, pos, parse, values, states in cols:
                token = row[pos]
                states.append(unobserved.get(token, CellState.OBSERVED))
                try:
                    values.append(0 if states[-1] else parse(token))
                except DataError as exc:
                    raise DataError(f"row {row_no}, column {name!r}: {exc}") from None
    columns = {}
    for name, _, _, values, states in cols:
        try:
            columns[name] = Column(schema[name], np.asarray(values), np.asarray(states, dtype=np.uint8))
        except DataError as exc:
            raise DataError(f"column {name!r}: {exc}") from None
    return Dataset(columns, weight_column)


def write_csv(ds: Dataset, dest) -> None:
    """Write a dataset to CSV so that :func:`ingest_csv` with its default
    arguments reads it back unchanged.

    Missing cells are written as empty fields and non-response cells as
    :data:`NONRESPONSE_TOKEN`; continuous values use shortest round-trip
    float formatting.
    """
    tokens = ((CellState.MISSING, ""), (CellState.NONRESPONSE, NONRESPONSE_TOKEN))
    cells = []
    for col in ds.columns.values():
        # One string per cell, a column at a time; unobserved cells (NaN, or
        # code -1) get a placeholder here and their token below.
        levels = col.kind.levels
        values = col.values.tolist()
        strings = [repr(v) for v in values] if levels is None else [levels[c] for c in values]
        for state, token in tokens:
            for i in np.flatnonzero(col.state == state).tolist():
                strings[i] = token
        cells.append(strings)
    with _open_text(dest, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.names)
        writer.writerows(zip(*cells))


# ---------------------------------------------------------------------------
# Recoding


@dataclass(frozen=True)
class RecodeRule:
    """Maps raw labels of one source column onto a target kind.

    ``mapping`` sends each raw label to a target level, ``CellState.MISSING``
    or ``CellState.NONRESPONSE``; any other target is an InputError. Labels
    that already are levels of the target kind pass through unchanged, which
    makes recoding idempotent.
    """

    kind: ColumnKind
    mapping: Mapping[str, str | CellState]

    def __post_init__(self):
        if self.kind.levels is None:
            raise InputError("recode target kind must be discrete")
        to_code = _cell_parser(self.kind)
        for target in self.mapping.values():
            if target is not CellState.MISSING and target is not CellState.NONRESPONSE:
                try:
                    to_code(target)
                except DataError as exc:
                    raise InputError(f"recode target {exc}") from None
        if all(isinstance(t, CellState) for t in self.mapping.values()):
            raise InputError("recode rule must map at least one label to a level")


RecodeRuleSet = Mapping[str, RecodeRule]


def recode(ds: Dataset, rules: RecodeRuleSet) -> Dataset:
    """Apply label recodes, returning a new dataset with row order preserved.

    Raw labels with no mapping and no identity target raise a RecodeError
    naming the label. Cells already missing or non-response keep their state.
    """
    updates = {}
    for name, rule in rules.items():
        if name not in ds.columns:
            raise InputError(f"recode source column {name!r} not in dataset")
        col = ds[name]
        src_levels = col.kind.levels
        if src_levels is None:
            raise InputError(f"cannot recode continuous column {name!r}")
        to_code = _cell_parser(rule.kind)
        # Per-source-code target code, or the state it maps to; -9 = unmapped.
        code_map = np.full(len(src_levels), -9, dtype=np.int16)
        state_map = np.full(len(src_levels), int(CellState.OBSERVED), dtype=np.uint8)
        for i, label in enumerate(src_levels):
            target = rule.mapping.get(label, label)
            if isinstance(target, CellState):
                code_map[i] = -1
                state_map[i] = int(target)
            else:
                with suppress(DataError):  # unmapped: an error below if the label occurs
                    code_map[i] = to_code(target)
        # An unobserved cell's code -1 reads the last entry; obs masks it.
        obs, codes = col.observed, code_map[col.values]
        unmapped = np.flatnonzero(obs & (codes == -9))
        if unmapped.size:
            label = src_levels[col.values[unmapped[0]]]
            raise RecodeError(f"column {name!r}: no recode target for label {label!r}")
        updates[name] = Column(rule.kind, codes, np.where(obs, state_map[col.values], col.state))
    return ds.replace_columns(updates)


def sgm_survey_rules(
    *, orientation: str = "orientation", depression: str = "depression"
) -> dict[str, RecodeRule]:
    """Canned recode rules for NHIS-style sexual-orientation extracts.

    Orientation responses gay/lesbian, bisexual, and "something else" code to
    exposure level "1"; "straight" to "0". The :data:`NONRESPONSE_LABELS`
    (refusals and don't-know responses) become non-response. Depression
    "Yes"/"No" codes to "1"/"0".
    """
    nr = {label: CellState.NONRESPONSE for label in NONRESPONSE_LABELS}
    return {
        orientation: RecodeRule(
            Binary(),
            {"gay/lesbian": "1", "bisexual": "1", "something else": "1", "straight": "0", **nr},
        ),
        depression: RecodeRule(Binary(), {"Yes": "1", "No": "0", **nr}),
    }


# ---------------------------------------------------------------------------
# Row filtering


@dataclass(frozen=True)
class ExclusionCounts:
    nonresponse: int
    missing: int
    retained: int

    def to_json_obj(self):
        return asdict(self)


def filter_analysis_rows(
    ds: Dataset, roles: VariableRoles, policy: str
) -> tuple[Dataset, ExclusionCounts]:
    """Drop every row with a missing or non-response cell among the role
    columns (complete-case analysis, the only ``policy``: any other value is
    an InputError). Dropped rows are counted by reason, non-response taking
    precedence when a row has both.
    """
    if policy != "complete_case":
        raise InputError(f"unknown policy {policy!r}; only 'complete_case' is supported")
    roles.validate(ds)
    role_cols = [ds[name] for name in roles.all_columns()]
    any_nonresponse = np.zeros(ds.n_rows, dtype=bool)
    any_missing = np.zeros(ds.n_rows, dtype=bool)
    for col in role_cols:
        any_nonresponse |= col.state == CellState.NONRESPONSE
        any_missing |= col.state == CellState.MISSING
    keep = ~(any_nonresponse | any_missing)
    dropped_nr = int(any_nonresponse.sum())
    dropped_missing = int((~keep & ~any_nonresponse).sum())
    counts = ExclusionCounts(dropped_nr, dropped_missing, int(keep.sum()))
    if counts.retained == 0:
        raise DataError("no analyzable rows remain after exclusions")
    return ds.take(np.flatnonzero(keep)), counts


# ---------------------------------------------------------------------------
# Descriptive summaries


@dataclass(frozen=True)
class DescriptiveRow:
    variable: str
    level: str | None
    stratum: str
    n: int
    pct: float | None
    mean: float | None
    sd: float | None


@dataclass(frozen=True)
class DescriptiveTable:
    rows: tuple[DescriptiveRow, ...]

    def to_json_obj(self):
        return [asdict(r) for r in self.rows]


def describe(
    ds: Dataset, strata: str, columns: Sequence[str], *, weighted: bool = False
) -> DescriptiveTable:
    """Stratified descriptive table: mean (SD) for continuous columns, n (%)
    for discrete ones, computed within stratum over non-missing cells.

    Counts are raw row counts. With ``weighted=True`` the percentages, means,
    and SDs use the dataset's analysis weights (counts stay unweighted).
    """
    strata_col = ds[strata]
    strata_levels = strata_col.kind.levels
    if strata_levels is None:
        raise InputError(f"stratum column {strata!r} must be discrete")
    weights = ds.weights() if weighted else np.ones(ds.n_rows)
    rows = []
    for code, stratum in enumerate(strata_levels):
        in_stratum = strata_col.observed & (strata_col.values == code)
        for name in columns:
            col = ds[name]
            use = in_stratum & col.observed
            levels = col.kind.levels
            if levels is None:
                vals = col.values[use]
                w = weights[use]
                n = int(use.sum())
                if float(w.sum()) == 0:  # no rows, or only zero weights
                    mean = sd = None
                else:
                    mean = float(np.average(vals, weights=w))
                    if n > 1:
                        var = float(np.average((vals - mean) ** 2, weights=w)) * n / (n - 1)
                        sd = float(np.sqrt(var))
                    else:
                        sd = None
                rows.append(DescriptiveRow(name, None, stratum, n, None, mean, sd))
            else:
                denom = float(weights[use].sum())
                for lcode, level in enumerate(levels):
                    sel = use & (col.values == lcode)
                    n = int(sel.sum())
                    pct = None if denom == 0 else float(weights[sel].sum()) / denom * 100.0
                    rows.append(DescriptiveRow(name, level, stratum, n, pct, None, None))
    return DescriptiveTable(tuple(rows))
