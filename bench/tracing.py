"""Spans around the package's layer boundaries, recorded from outside.

A traced run replaces each target function with a wrapper wherever callers
look it up: every ``causalmed`` module attribute bound to the same function
object, or the method on its class. Each call records a span (name, start,
end, parent span, tag) in memory; counters taken from results and raised
exceptions are recorded at the same boundary. A target that no longer
exists is skipped and reports zero calls.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

#: (defining module, attribute path, span name).
TARGETS = (
    ("causalmed.data", "ingest_csv", "data.ingest_csv"),
    ("causalmed.data", "write_csv", "data.write_csv"),
    ("causalmed.data", "recode", "data.recode"),
    ("causalmed.data", "filter_analysis_rows", "data.filter_analysis_rows"),
    ("causalmed.data", "describe", "data.describe"),
    ("causalmed.data", "Dataset.take", "data.Dataset.take"),
    ("causalmed.glm", "build_design", "glm.build_design"),
    ("causalmed.glm", "fit_logistic", "glm.fit_logistic"),
    ("causalmed.mediation", "estimate_pair", "mediation.estimate_pair"),
    ("causalmed.mediation", "bootstrap_ci", "mediation.bootstrap_ci"),
    ("causalmed.adjustment", "fit_propensity", "adjustment.fit_propensity"),
    ("causalmed.adjustment", "ipw_weights", "adjustment.ipw_weights"),
    ("causalmed.adjustment", "overlap_diagnostics", "adjustment.overlap_diagnostics"),
    ("causalmed.sensitivity", "evalue", "sensitivity.evalue"),
    ("causalmed.dag", "valid_adjustment_sets", "dag.valid_adjustment_sets"),
    ("causalmed.dag", "is_valid_adjustment", "dag.is_valid_adjustment"),
    ("causalmed.dag", "backdoor_paths", "dag.backdoor_paths"),
    ("causalmed.dag", "d_separated", "dag.d_separated"),
    ("causalmed.scm", "enumerate_joint", "scm.enumerate_joint"),
    ("causalmed.scm", "oracle_estimands", "scm.oracle_estimands"),
    ("causalmed.scm", "counterfactual_check", "scm.counterfactual_check"),
)

#: Fit failures counted by exception class name: label, class name.
FIT_FAILURES = (
    ("separation", "SeparationError"),
    ("rank_deficiency", "RankDeficiencyError"),
    ("convergence", "ConvergenceError"),
)
COUNTERS = (
    "glm.fit_logistic.iterations",
    "glm.fit_logistic.row_fits",
    *(f"glm.fit_logistic.failed.{label}" for label, _ in FIT_FAILURES),
    "mediation.bootstrap.reps",
    "mediation.bootstrap.failed",
    "dag.backdoor_paths.paths",
    "scm.enumerate_joint.states",
)


def _fit_counts(counters, result):
    counters["glm.fit_logistic.iterations"] += result.iterations
    counters["glm.fit_logistic.row_fits"] += result.n_obs


def _fit_failure(counters, exc):
    classes = {cls.__name__ for cls in type(exc).__mro__}
    for label, cls_name in FIT_FAILURES:
        if cls_name in classes:
            counters[f"glm.fit_logistic.failed.{label}"] += 1


def _bootstrap_counts(counters, result):
    counters["mediation.bootstrap.reps"] += result.reps
    counters["mediation.bootstrap.failed"] += result.n_failed


def _path_counts(counters, result):
    counters["dag.backdoor_paths.paths"] += len(result)


def _state_counts(counters, result):
    counters["scm.enumerate_joint.states"] += int(result.probs.size)


def _variant_tag(args, kwargs):
    return kwargs.get("variant", args[2] if len(args) > 2 else None)


ON_RESULT = {
    "glm.fit_logistic": _fit_counts,
    "mediation.bootstrap_ci": _bootstrap_counts,
    "dag.backdoor_paths": _path_counts,
    "scm.enumerate_joint": _state_counts,
}
ON_ERROR = {"glm.fit_logistic": _fit_failure}
TAGGERS = {"mediation.estimate_pair": _variant_tag}


class Tracer:
    """In-memory span recorder; install() wraps, restore() unwraps."""

    def __init__(self):
        self.spans: list = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._installed: list = []

    def _wrap(self, fn, name):
        spans, stack, counters = self.spans, self._stack, self.counters
        on_result, on_error, tagger = ON_RESULT.get(name), ON_ERROR.get(name), TAGGERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            tag = tagger(args, kwargs) if tagger else None
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error:
                    on_error(counters, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tag)
            if on_result:
                on_result(counters, result)
            return result

        return wrapper

    def install(self):
        for module_name, path, name in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrap(original, name)
            sites = [(owner, attr)]
            if not owner_name:
                sites += [
                    (mod, key)
                    for mod_name, mod in list(sys.modules.items())
                    if mod_name.startswith("causalmed.") and mod is not owner
                    for key, value in vars(mod).items()
                    if value is original
                ]
            for site, key in sites:
                self._installed.append((site, key, getattr(site, key)))
                setattr(site, key, wrapper)

    def restore(self):
        for site, key, original in reversed(self._installed):
            setattr(site, key, original)
        self._installed.clear()

    def summary(self, units: int) -> dict:
        """Per-name statistics, with counts and seconds per unit of work."""
        child_s = np.zeros(len(self.spans))
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        by_name: dict[str, list] = {}
        by_tag: dict[tuple, list] = {}
        self_s: dict[str, float] = {}
        for i, (name, start, end, _, tag) in enumerate(self.spans):
            by_name.setdefault(name, []).append(end - start)
            if tag is not None:
                by_tag.setdefault((name, tag), []).append(end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_s[i]
        out = {}
        for _, _, name in TARGETS:
            d = np.asarray(by_name.get(name, ()))
            out[name] = {
                "calls": d.size / units,
                "s": float(d.sum()) / units,
                "self_s": self_s.get(name, 0.0) / units,
                **latency_us(d),
            }
        for (name, tag), d in by_tag.items():
            out[f"{name}.{tag}"] = latency_us(np.asarray(d))
        out["counters"] = {k: v / units for k, v in self.counters.items()}
        return out

    def dump(self, path):
        """Write spans as JSON lines: name, start and end (s), parent index, tag."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def latency_us(durations) -> dict:
    """Median and tail in microseconds; the tail is the highest of
    TAIL_PERCENTILES with at least ten samples beyond it."""
    if durations.size == 0:
        return {"us_p50": 0.0, "us_tail": 0.0, "tail_pct": None}
    us = durations * 1e6
    pct = next((p for p in TAIL_PERCENTILES if us.size * (1 - p / 100) >= 10), 50.0)
    return {"us_p50": float(np.median(us)), "us_tail": float(np.percentile(us, pct)), "tail_pct": pct}
