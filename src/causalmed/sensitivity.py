"""E-values: the minimum confounder strength needed to explain an effect away.

On the risk-ratio scale, E = rr + sqrt(rr * (rr - 1)). The outcome,
depression, is common, so every odds ratio is first converted to a risk
ratio by the square-root approximation rr = sqrt(OR) (VanderWeele & Ding
2017); protective effects are inverted, since E(OR) = E(1/OR). The
confidence-limit E-value uses the limit nearer the null and is 1 when the
interval crosses 1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True)
class EvalueResult:
    input_or: float
    rr_used: float
    evalue_point: float
    evalue_ci: float | None

    def to_json_obj(self):
        return {
            "or": self.input_or,
            "rr_used": self.rr_used,
            "evalue_point": self.evalue_point,
            "evalue_ci": self.evalue_ci,
        }


def _e_from_rr(rr: float) -> float:
    if rr < 1.0:
        rr = 1.0 / rr
    return rr + math.sqrt(rr * (rr - 1.0))


def _real(value, what: str) -> float:
    """``value`` as a float: any real number but a bool, numpy's included."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{what} must be a real number")
    return float(value)


def evalue(odds_ratio: float, ci: tuple[float, float] | None = None) -> EvalueResult:
    """E-value of an odds ratio and, optionally, of its confidence interval.

    Each odds ratio is converted to a risk ratio by the common-outcome
    square-root approximation; estimates below 1 are inverted first.
    """
    odds_ratio = _real(odds_ratio, "odds ratio")
    if not math.isfinite(odds_ratio):
        raise InputError("odds ratio must be finite")
    if odds_ratio <= 0:
        raise InputError("odds ratio must be positive")

    inverted = odds_ratio < 1.0
    point = 1.0 / odds_ratio if inverted else odds_ratio
    rr = math.sqrt(point)
    e_point = _e_from_rr(rr)

    e_ci = None
    if ci is not None:
        lo, hi = (_real(limit, "confidence limit") for limit in ci)
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo <= 0 or hi <= 0:
            raise InputError("confidence limits must be positive and finite")
        if lo > hi:
            raise InputError("confidence interval is not ordered")
        if lo <= 1.0 <= hi:
            e_ci = 1.0
        else:
            # The interval's own side of the null picks the near limit; a
            # percentile interval need not contain its estimate.
            near = lo if lo > 1.0 else 1.0 / hi
            e_ci = _e_from_rr(math.sqrt(near))
    return EvalueResult(input_or=odds_ratio, rr_used=rr, evalue_point=e_point, evalue_ci=e_ci)


def implied_rr(e: float) -> float:
    """Invert E = rr + sqrt(rr*(rr-1)): internal consistency check.

    Solving the quadratic gives rr = E^2 / (2E - 1).
    """
    if e < 1.0:
        raise InputError("E-values are at least 1")
    return e * e / (2.0 * e - 1.0)
