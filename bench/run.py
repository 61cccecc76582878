"""Benchmark for the causalmed analysis pipeline.

    python3 bench/run.py --workload paper_n300 --seed 0 --seconds 25 --trace 0

Builds the workload's inputs from ``--seed``, then repeats its unit of work
(one analysis run, or the full identification set) in this one process until
``--seconds`` is spent, at least once. Outputs are checked outside the timed
region: invariants for every seed, golden values (``bench/golden``) for the
seed they were recorded at. Prints a metric table, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``; exits 1 if any check
fails and 2 if the package source is missing.

``--trace 0`` reports the end-to-end metrics. A shared host's speed can
change by up to 1.7x in spells of minutes when other tenants load it, so
each timed unit and each set-up start is bracketed by a fixed reference
computation (``reference_s``). ``wall_s`` and ``setup_s`` are reported at the
reference speed: measured seconds divided by the host factor, which is the
mean of the two reference times around them over REFERENCE_NOMINAL_S. The
measured seconds and host factors are printed and kept in the result file.

``--trace 1`` alternates untraced units with units that record spans around
every layer boundary (see ``tracing.py``), and reports the per-layer
metrics, counts and seconds per unit of work. Result files and spans go to
``bench/out/``. ``--record-golden`` stores the first unit's outputs as the
golden values.
"""

import os

# One BLAS thread, fixed before numpy loads: summation order must not vary
# under the 1e-12 golden checks, and the benchmark runs single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import golden  # noqa: E402
import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("paper_n300", "survey_n30k", "identification")
VARIANTS = ("primary", "simple", "ps_regression", "ipw")

#: setup_s: a fresh interpreter imports the package (numpy and scipy with
#: it) and loads the bundled fixtures; median of SETUP_REPEATS starts at the
#: reference speed. The parent has imported the package already, so
#: bytecode is compiled and cached.
SETUP_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from causalmed import adjustment, dag, data, glm, mediation, scm, sensitivity
for name in ("sgm_joint", "sgm_joint_xm", "sgm_domains", "sgm_domains_xm"):
    dag.load_fixture(name)
scm.load_fixture("mediation_binary")
"""
SETUP_REPEATS = 5

#: About what ``reference_s`` takes on a 2.1 GHz Xeon vCPU (Python 3.11.7,
#: numpy 2.4.6) with no competing load: the speed reported times scale to.
REFERENCE_NOMINAL_S = 0.25

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

# Per-layer metrics, and the end-to-end metric each should move:
# - glm.fit_logistic.*: variant_s.* and wall_s on paper_n300 (per-call cost)
#   and survey_n30k (per-row cost); nothing on identification.
# - glm.build_design, data.Dataset.take, mediation.estimate_pair: wall_s and
#   boot_reps_per_s on paper_n300; a small share on survey_n30k.
# - mediation.bootstrap_ci / mediation.bootstrap.*: boot_reps_per_s and
#   boot_failed_frac on both analysis workloads; peak_rss_mb on survey_n30k.
# - adjustment.*: variant_s.ps_regression and variant_s.ipw on paper_n300.
# - data.ingest_csv / write_csv / recode / filter_analysis_rows / describe:
#   wall_s on survey_n30k; no change on paper_n300.
# - dag.*, scm.*: wall_s on identification only.
SPAN_STATS = {
    "glm.fit_logistic": ("calls", "s", "us_p50", "us_tail"),
    "glm.build_design": ("calls", "s", "us_p50"),
    "data.Dataset.take": ("calls", "s", "us_p50"),
    "mediation.estimate_pair": ("calls", "s", "self_s", "us_p50", "us_tail"),
    "mediation.bootstrap_ci": ("calls", "s", "self_s"),
    "adjustment.fit_propensity": ("calls", "s"),
    "adjustment.ipw_weights": ("calls", "s"),
    "adjustment.overlap_diagnostics": ("s",),
    "sensitivity.evalue": ("calls", "s"),
    "data.ingest_csv": ("s",),
    "data.write_csv": ("s",),
    "data.recode": ("s",),
    "data.filter_analysis_rows": ("s",),
    "data.describe": ("s",),
    "dag.valid_adjustment_sets": ("calls", "s", "self_s"),
    "dag.is_valid_adjustment": ("calls", "s", "self_s"),
    "dag.backdoor_paths": ("calls", "s"),
    "dag.d_separated": ("calls", "s"),
    "scm.enumerate_joint": ("calls", "s"),
    "scm.oracle_estimands": ("calls", "s"),
    "scm.counterfactual_check": ("calls", "s"),
}
STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s", "us_p50": "us", "us_tail": "us"}
#: Untraced figures of the analysis workloads, reported per unit of work
#: (zero on identification, which has no variants and no bootstrap).
ANALYSIS_FIGURES = (
    *((f"variant_s.{v}", "s") for v in VARIANTS),
    ("boot_reps_per_s", "1/s"),
    ("boot_failed_frac", "fraction"),
)
PER_LAYER = (
    *((f"{name}.{stat}", STAT_UNITS[stat]) for name, stats in SPAN_STATS.items() for stat in stats),
    *((f"mediation.estimate_pair.{v}.us_p50", "us") for v in VARIANTS),
    *((name, "count") for name in tracing.COUNTERS),
    ("mediation.bootstrap.useful_ratio", "fraction"),
    ("data.ingest_csv.rows_per_s", "rows/s"),
    ("data.write_csv.rows_per_s", "rows/s"),
    *ANALYSIS_FIGURES,
    ("trace.overhead_frac", "fraction"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true")
    return p.parse_args(argv)


def reference_s():
    """Seconds for a fixed mix of small numpy calls and interpreter-bound
    arithmetic, the profile of the package's fits, using no package code."""
    start = time.perf_counter()
    x = np.linspace(0.0, 1.0, 1500).reshape(300, 5)
    acc, table = 0.0, {}
    for i in range(40_000):
        acc += float((x[:, i % 5] * 2.0).sum())
        table[i % 1000] = (i, acc)
    for i in range(2_600_000):
        acc += i * 0.5
    return time.perf_counter() - start


def host_factor(before, after):
    """How much slower than nominal the host ran around one timed step."""
    return (before + after) / (2.0 * REFERENCE_NOMINAL_S)


def measure_setup():
    """Seconds and host factors of SETUP_REPEATS fresh-interpreter starts."""
    cmd = [sys.executable, "-c", SETUP_SCRIPT, str(SRC)]
    times, factors = [], []
    probe = reference_s()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        after = reference_s()
        factors.append(host_factor(probe, after))
        probe = after
    return times, factors


def measure(workload, budget, tracer=None):
    """Run units until the next one would overrun ``budget`` seconds (at
    least one). With a tracer, every second unit is traced, so untraced and
    traced units share the machine's slow and fast spells; at least one of
    each runs. Returns per-unit records; only the first keeps its extras."""
    units = []
    start = time.perf_counter()
    probe = reference_s()
    while True:
        traced = tracer is not None and len(units) % 2 == 1
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            outputs, stages, extras = workload.run_once()
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.restore()
        after = reference_s()
        units.append({"wall_s": wall, "host_factor": host_factor(probe, after), "stages": stages,
                      "outputs": outputs, "extras": extras if not units else None, "traced": traced})
        probe = after
        elapsed = time.perf_counter() - start
        enough = tracer is None or len(units) >= 2
        if enough and elapsed + statistics.median(u["wall_s"] for u in units) > budget:
            return units


def analysis_figures(workload, units):
    """variant_s medians and bootstrap throughput/failure share, untraced."""
    if not hasattr(workload, "boot_variants"):
        return {}
    out = {f"variant_s.{v}": statistics.median(u["stages"][f"variant_s.{v}"] for u in units) for v in VARIANTS}
    boots = [b for u in units for b in u["outputs"]["bootstrap"].values()]
    reps = sum(b["reps"] for b in boots)
    out["boot_reps_per_s"] = reps / sum(u["stages"]["boot_s"] for u in units)
    out["boot_failed_frac"] = sum(b["n_failed"] for b in boots) / reps
    return out


def layer_metrics(summary, first_outputs, workload):
    metrics = {}
    for name, stats in SPAN_STATS.items():
        for stat in stats:
            metrics[f"{name}.{stat}"] = summary[name][stat]
    for v in VARIANTS:
        per_variant = summary.get(f"mediation.estimate_pair.{v}", {})
        metrics[f"mediation.estimate_pair.{v}.us_p50"] = per_variant.get("us_p50", 0.0)
    counters = summary["counters"]
    for name in tracing.COUNTERS:
        metrics[name] = counters.get(name, 0.0)
    reps = metrics["mediation.bootstrap.reps"]
    metrics["mediation.bootstrap.useful_ratio"] = (reps - metrics["mediation.bootstrap.failed"]) / reps if reps else 0.0
    ingest_s, write_s = summary["data.ingest_csv"]["s"], summary["data.write_csv"]["s"]
    n_analytic = first_outputs.get("exclusions", {}).get("retained", 0)
    metrics["data.ingest_csv.rows_per_s"] = getattr(workload, "n", 0) / ingest_s if ingest_s else 0.0
    metrics["data.write_csv.rows_per_s"] = n_analytic / write_s if write_s else 0.0
    return metrics


def environment(args, workload):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params(),
    }


def run_checks(args, workload, units):
    """Failure messages from invariants, unit-to-unit determinism and, at the
    golden seed, the recorded outputs."""
    first = units[0]
    failures = list(workload.invariants(first["outputs"], first["extras"]))
    normalized = json.loads(json.dumps(first["outputs"]))
    for i, unit in enumerate(units[1:], start=1):
        if json.loads(json.dumps(unit["outputs"])) != normalized:
            failures.append(f"unit {i} outputs differ from unit 0 in the same run")
    if args.record_golden:
        golden.record(args.workload, args.seed, normalized)
    else:
        recorded = golden.load(args.workload)
        if recorded is None:
            failures.append(f"no golden file at {golden.path_for(args.workload)}")
        elif recorded["seed"] == args.seed:
            failures += golden.compare(recorded["outputs"], normalized)
    return failures


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "causalmed" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workdir = OUT / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    input_s = time.perf_counter() - t0

    result = {"environment": environment(args, workload), "input_s": input_s}
    attempted = failed = 0
    metrics, units, trace_failures = {}, [], []
    try:
        if args.trace:
            tracer = tracing.Tracer()
            units = measure(workload, args.seconds, tracer)
            untraced = [u for u in units if not u["traced"]]
            traced = [u for u in units if u["traced"]]
            summary = tracer.summary(len(traced))
            metrics.update(layer_metrics(summary, units[0]["outputs"], workload))
            metrics.update({name: 0.0 for name, _ in ANALYSIS_FIGURES})
            metrics.update(analysis_figures(workload, untraced))
            wall_untraced = statistics.median(u["wall_s"] for u in untraced)
            wall_traced = statistics.median(u["wall_s"] for u in traced)
            metrics["trace.overhead_frac"] = wall_traced / wall_untraced - 1.0
            spans_path = workdir / "spans.jsonl"
            tracer.dump(spans_path)
            result.update(spans=str(spans_path), tail_pct={n: summary[n]["tail_pct"] for n in SPAN_STATS},
                          units_traced=len(traced), wall_s_untraced=wall_untraced, wall_s_traced=wall_traced)
            boots = units[0]["outputs"].get("bootstrap", {}).values()
            if metrics["mediation.bootstrap.failed"] != sum(b["n_failed"] for b in boots):
                trace_failures.append("traced bootstrap failures disagree with the BootstrapInterval n_failed totals")
        else:
            setup_runs, setup_factors = measure_setup()
            units = measure(workload, args.seconds)
            metrics["wall_s"] = statistics.median(u["wall_s"] / u["host_factor"] for u in units)
            metrics["setup_s"] = statistics.median(s / f for s, f in zip(setup_runs, setup_factors))
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result.update(measured={
                "wall_s": statistics.median(u["wall_s"] for u in units),
                "setup_s": statistics.median(setup_runs),
                "host_factor": statistics.median([u["host_factor"] for u in units] + setup_factors),
            }, setup_runs=setup_runs, setup_factors=setup_factors, figures=analysis_figures(workload, units))
        if hasattr(workload, "pattern_repeat_share"):
            result["pattern_repeat_share"] = workload.pattern_repeat_share(units[0]["extras"])
        result["bootstrap"] = units[0]["outputs"].get("bootstrap")
        attempted = len(units)
        failures = run_checks(args, workload, units) + trace_failures
    except Exception:
        traceback.print_exc()
        attempted, failed = len(units) + 1, 1
        failures = ["a unit of work raised"]

    spec = PER_LAYER if args.trace else END_TO_END
    out_metrics = {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in spec}
    result.update(units=[{"wall_s": u["wall_s"], "host_factor": u["host_factor"], **u["stages"]} for u in units],
                  checks=failures, metrics=out_metrics)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    for name, m in out_metrics.items():
        print(f"{name:45s} {m['value']:>16.6g} {m['unit']}")
    for name, value in result.get("measured", {}).items():
        print(f"{'measured.' + name:45s} {value:>16.6g} {'x' if name == 'host_factor' else 's'}")
    for name, value in result.get("figures", {}).items():
        print(f"{name:45s} {value:>16.6g} {dict(ANALYSIS_FIGURES)[name]}")
    if "pattern_repeat_share" in result:
        print(f"{'workload.pattern_repeat_share':45s} {result['pattern_repeat_share']:>16.6g} fraction")
    print(f"units of work: {len(units)}; checks failed: {len(failures)}")
    for message in failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    correct = not failures and not failed
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
