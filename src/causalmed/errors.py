"""Exception hierarchy shared across the package."""

from __future__ import annotations


class CausalmedError(Exception):
    """Base class for all analysis-level errors raised by this package."""


class InputError(CausalmedError):
    """A precondition on arguments was violated."""


class DataError(CausalmedError):
    """A dataset or input file violates its contract."""


class RecodeError(DataError):
    """A raw label has no recode target."""


class RankDeficiencyError(CausalmedError):
    """Design matrix is not full column rank."""

    def __init__(self, columns):
        self.columns = tuple(columns)
        super().__init__(f"collinear design columns: {', '.join(self.columns)}")


class SeparationError(CausalmedError):
    """Quasi-complete separation: coefficients diverge while the deviance still improves."""


class ConvergenceError(CausalmedError):
    """Iterative fit failed to converge within its iteration budget."""


class PositivityError(CausalmedError):
    """An (exposure, stratum) cell required by a weighting factor has zero probability."""

    def __init__(self, cell):
        self.cell = cell
        super().__init__(f"empty stratum: {cell!r}")


class BootstrapError(CausalmedError):
    """Too many bootstrap replicates failed to produce an estimate."""


class DagError(CausalmedError):
    """A graph violates the DAG contract (cycle, unknown node, bad query)."""
