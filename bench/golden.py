"""Golden outputs: recorded once per workload at its default seed, compared
on every later run with that seed."""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Floats must agree to this relative tolerance; everything else exactly.
REL_TOL = 1e-12


def path_for(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load(workload: str) -> dict | None:
    path = path_for(workload)
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def record(workload: str, seed: int, outputs: dict) -> None:
    with open(path_for(workload), "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "outputs": outputs}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def compare(expected, actual, where="") -> list[str]:
    """Differences between two JSON-shaped values, one message each."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{where}: keys {sorted(actual)} != golden {sorted(expected)}"]
        return [m for k in expected for m in compare(expected[k], actual[k], f"{where}/{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(actual)} != golden {len(expected)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual)) for m in compare(e, a, f"{where}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, float):
        if abs(expected - actual) <= REL_TOL * max(abs(expected), abs(actual)):
            return []
        return [f"{where}: {actual!r} != golden {expected!r} (rel tol {REL_TOL})"]
    if type(expected) is type(actual) and expected == actual:
        return []
    return [f"{where}: {actual!r} != golden {expected!r}"]
