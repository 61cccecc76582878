"""The benchmark's workloads: seeded inputs, one unit of work, and the
checks on its outputs that need no golden file.

Package functions are always looked up on their module at call time
(``mediation.bootstrap_ci``, never a name bound at import), so a traced run
can wrap them where callers look them up.
"""

from __future__ import annotations

import json
import math
import os
import time
import zlib

import numpy as np

import gen
from causalmed import adjustment, dag, data, mediation, scm, sensitivity

VARIANTS = ("primary", "simple", "ps_regression", "ipw")


def _effect(est):
    return {"log_or": est.log_or, "ci": None if est.ci_or is None else list(est.ci_or)}


class Analysis:
    """One analysis run: ingest a raw-label CSV, recode, filter (complete
    case), export the analytic CSV, describe, propensity fit and overlap,
    the four variants, E-values, and a JSON report written out."""

    def __init__(self, name, seed, workdir, *, n, boot_variants, reps, roles, columns, make_csv):
        self.name, self.seed, self.n = name, seed, n
        self.boot_variants, self.reps = boot_variants, reps
        self.roles = data.VariableRoles(**roles)
        self.raw_path = os.path.join(workdir, "raw.csv")
        self.analytic_path = os.path.join(workdir, "analytic.csv")
        self.report_path = os.path.join(workdir, "report.json")
        self.tally = make_csv(gen.rng_for(name, seed), n, self.raw_path)
        self.schema = {c: self._kind(c) for c in columns}
        self.describe_columns = tuple(c for c in columns if c not in (self.roles.exposure, "weight"))

    @staticmethod
    def _kind(column):
        if column == "orientation":
            return data.Categorical(gen.ORIENTATION_LEVELS, "straight")
        if column == "depression":
            return data.Categorical(gen.DEPRESSION_LEVELS, "No")
        if column == "year":
            return data.Categorical(gen.YEARS, gen.YEARS[0])
        if column in ("age", "weight"):
            return data.Continuous()
        return data.Binary()

    def params(self):
        return {"n_raw": self.n, "bootstrap_reps": self.reps, "bootstrap_variants": list(self.boot_variants)}

    def run_once(self):
        """One timed unit; returns (outputs, stage seconds, objects the
        invariant checks need)."""
        roles = self.roles
        raw = data.ingest_csv(self.raw_path, self.schema, ("",), weight_column="weight")
        recoded = data.recode(raw, data.sgm_survey_rules(orientation=roles.exposure, depression=roles.outcome))
        analytic, counts = data.filter_analysis_rows(recoded, roles, "complete_case")
        data.write_csv(analytic, self.analytic_path)
        table = data.describe(analytic, roles.exposure, self.describe_columns, weighted=True)
        psfit = adjustment.fit_propensity(analytic, roles)
        overlap = adjustment.overlap_diagnostics(psfit, psfit.exposure)

        stages, effects, intervals = {}, {}, {}
        boot_s = 0.0
        for variant in VARIANTS:
            start = time.perf_counter()
            total = mediation.total_effect(analytic, roles, variant)
            direct = mediation.direct_effect(analytic, roles, variant)
            ci = None
            if variant in self.boot_variants:
                boot_start = time.perf_counter()
                interval = mediation.bootstrap_ci(analytic, roles, variant, self.reps, self.seed)
                boot_s += time.perf_counter() - boot_start
                intervals[variant] = interval
                ci = (interval.lo, interval.hi)
            effects[variant] = (total, direct, mediation.combine(total, direct, ci_or=ci))
            stages[f"variant_s.{variant}"] = time.perf_counter() - start
        stages["boot_s"] = boot_s

        evalues = {
            v: [sensitivity.evalue(e.odds_ratio, e.ci_or) for e in triple] for v, triple in effects.items()
        }
        report = {
            "exclusions": counts.to_json_obj(),
            "describe": table.to_json_obj(),
            "overlap": overlap.to_json_obj(),
            "effects": {v: [e.to_json_obj() for e in triple] for v, triple in effects.items()},
            "evalues": {v: [r.to_json_obj() for r in rs] for v, rs in evalues.items()},
        }
        with open(self.report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)

        outputs = {
            "exclusions": counts.to_json_obj(),
            "effects": {v: {e.kind: _effect(e) for e in triple} for v, triple in effects.items()},
            "bootstrap": {
                v: {"lo": i.lo, "hi": i.hi, "n_failed": i.n_failed, "reps": i.reps} for v, i in intervals.items()
            },
        }
        extras = {"analytic": analytic, "effects": effects, "evalues": evalues}
        return outputs, stages, extras

    def invariants(self, outputs, extras):
        """Checks that hold for any seed; returns a list of failure messages."""
        failures = []
        if outputs["exclusions"] != self.tally:
            failures.append(f"exclusion counts {outputs['exclusions']} != generator tally {self.tally}")
        analytic = extras["analytic"]
        schema = {name: col.kind for name, col in analytic.columns.items()}
        again = data.ingest_csv(self.analytic_path, schema, ("",), weight_column=analytic.weight_column)
        if again != analytic:
            failures.append("exported analytic CSV does not round-trip through ingest_csv")
        for variant, triple in extras["effects"].items():
            for est, ev in zip(triple, extras["evalues"][variant]):
                failures += _evalue_failures(f"{variant}.{est.kind}", est, ev)
        return failures

    def pattern_repeat_share(self, extras):
        """Share of analytic rows whose (design, y) pattern occurs on an
        earlier row. Designs are functions of the role columns, so distinct
        role-column tuples are distinct design rows."""
        analytic = extras["analytic"]
        stacked = np.column_stack([analytic[c].values.astype(np.float64) for c in self.roles.all_columns()])
        n_distinct = np.unique(stacked, axis=0).shape[0]
        return 1.0 - n_distinct / stacked.shape[0]


def _rel_close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _evalue_failures(label, est, ev):
    """An EvalueResult must invert through implied_rr, for the point and for
    the confidence limit nearer the null."""
    out = []
    if not _rel_close(sensitivity.implied_rr(ev.evalue_point), ev.rr_used):
        out.append(f"{label}: point E-value {ev.evalue_point!r} does not invert to rr {ev.rr_used!r}")
    if est.ci_or is not None and ev.evalue_ci != 1.0:
        lo, hi = est.ci_or
        near = lo if est.odds_ratio >= 1.0 else 1.0 / hi
        if not _rel_close(sensitivity.implied_rr(ev.evalue_ci), math.sqrt(near)):
            out.append(f"{label}: CI E-value {ev.evalue_ci!r} does not invert to the near limit")
    return out


def paper_n300(seed, workdir):
    """300 rows shaped like mediation_binary.scm; every variant bootstraps
    the indirect effect with 1000 replicates. Rows collapse to at most 16
    (design, y) patterns and per-call overhead dominates."""
    return Analysis(
        "paper_n300", seed, workdir,
        n=300, boot_variants=VARIANTS, reps=1000,
        roles=dict(exposure="orientation", outcome="depression", baseline_support="support_t0",
                   mediators=("support_t1",)),
        columns=("orientation", "depression", "support_t0", "support_t1", "weight"),
        make_csv=gen.paper_csv,
    )


def survey_n30k(seed, workdir):
    """30,000 NHIS-style rows, p up to 14; Wald intervals for every variant
    and a 100-replicate bootstrap for ``primary`` only. Fits are row-bound
    and rows do not collapse."""
    return Analysis(
        "survey_n30k", seed, workdir,
        n=30_000, boot_variants=("primary",), reps=100,
        roles=dict(exposure="orientation", outcome="depression", baseline_support="support_t0",
                   mediators=("support_family", "support_friends"), covariates=("age",),
                   survey_year="year"),
        columns=("year", "orientation", "depression", "age", "support_t0", "support_family",
                 "support_friends", "weight"),
        make_csv=gen.survey_csv,
    )


# ---------------------------------------------------------------------------
# Identification

#: (fixture, exposure, outcome) and the paper's candidate adjustment sets.
FIXTURE_QUERIES = {
    "sgm_joint": [("Q", "Y")],
    "sgm_joint_xm": [("Q", "Y")],
    "sgm_domains": [("attraction", "Y"), ("behavior", "Y"), ("identity", "Y")],
    "sgm_domains_xm": [("attraction", "Y"), ("behavior", "Y"), ("identity", "Y")],
}
CANDIDATE_SETS = {
    "sgm_joint": [(), ("X",), ("M",), ("X", "M")],
    "sgm_domains": [
        (),
        ("support_t0",),
        ("attraction", "support_t0"),
        ("behavior", "support_t0"),
        ("attraction", "behavior", "support_t0"),
        ("support_t0", "support_t1"),
    ],
}

#: Random DAG structures: (nodes, candidate adjusters, DFS-step band of the
#: skeleton search). They are drawn once from a fixed stream, so the search
#: cost is the same for every seed; the seed renames nodes and reorders edges.
RANDOM_DAGS = ((12, 8, (300, 500)), (13, 9, (400, 700)), (14, 9, (600, 1000)))
DAG_STRUCTURE_SEED = zlib.crc32(b"identification-dags")
#: Categorical SCM level counts (H, X, A, M): state space h*2*k*a*m*2.
CATEGORICAL_LEVELS = (12, 15, 25, 15)
N_BINARY_SCMS = 3


class Identification:
    """The bundled DAGs with the paper's candidate sets, exhaustive
    adjustment-set search on seeded random DAGs, and the exact SCM oracle on
    the bundled model and on seeded mediation models."""

    name = "identification"

    def __init__(self, seed, workdir):
        self.seed = seed
        rng = gen.rng_for(self.name, seed)
        self.fixtures = {name: dag.load_fixture(name) for name in FIXTURE_QUERIES}
        self.dsep_queries = []
        for name, g in self.fixtures.items():
            observed = sorted(g.observed_nodes)
            base = "X" if "X" in observed else "support_t0"
            for i, a in enumerate(observed):
                for b in observed[i + 1:]:
                    self.dsep_queries.append((name, a, b, ()))
                    if base not in (a, b):
                        self.dsep_queries.append((name, a, b, (base,)))
        self.random_dags = []
        structure_rng = np.random.default_rng(DAG_STRUCTURE_SEED)
        for spec in RANDOM_DAGS:
            text, exposure, outcome = gen.dag_text(gen.random_dag(structure_rng, *spec), rng)
            self.random_dags.append((dag.parse_dag(text), exposure, outcome))
        texts = [gen.binary_mediation_scm(rng) for _ in range(N_BINARY_SCMS)]
        texts.append(gen.categorical_mediation_scm(rng, *CATEGORICAL_LEVELS))
        self.scms = [("mediation_binary", scm.load_fixture("mediation_binary"))]
        self.scms += [(f"random_{i}", scm.parse_scm(t)) for i, t in enumerate(texts)]

    def params(self):
        h, k, a, m = CATEGORICAL_LEVELS
        return {
            "random_dags": [list(r[:2]) for r in RANDOM_DAGS],
            "categorical_states": h * 2 * k * a * m * 2,
            "binary_scms": N_BINARY_SCMS,
            "dsep_queries": len(self.dsep_queries),
        }

    def run_once(self):
        verdicts = {}
        for name, pairs in FIXTURE_QUERIES.items():
            g = self.fixtures[name]
            for exposure, outcome in pairs:
                for adjust in CANDIDATE_SETS[name.removesuffix("_xm")]:
                    if exposure in adjust:
                        continue
                    report = dag.is_valid_adjustment(g, exposure, outcome, adjust)
                    paths = dag.backdoor_paths(g, exposure, outcome, adjust)
                    verdicts[f"{name}:{exposure}->{outcome}|{','.join(adjust)}"] = {
                        "valid": report.valid,
                        "backdoor_blocked": report.backdoor_blocked,
                        "estimand": report.estimand,
                        "open_paths": sorted(list(r.path) for r in report.open_backdoor_paths),
                        "backdoor_paths": len(paths),
                    }
        dsep = {
            f"{name}:{a}_|_{b}|{','.join(z)}": dag.d_separated(self.fixtures[name], a, b, z)
            for name, a, b, z in self.dsep_queries
        }
        sets = [
            sorted(sorted(s) for s in dag.valid_adjustment_sets(g, exposure, outcome))
            for g, exposure, outcome in self.random_dags
        ]
        oracles = {}
        for name, spec in self.scms:
            joint = scm.enumerate_joint(spec)
            est = scm.oracle_estimands(spec, joint)
            check = scm.counterfactual_check(spec)
            oracles[name] = {
                "states": int(joint.probs.size),
                "total_rd": est.total_rd.tolist(),
                "direct_rd": est.direct_rd.tolist(),
                "indirect_rd": est.indirect_rd.tolist(),
                "baseline_standardized_mean": est.baseline_standardized_mean,
                "baseline_contrast": est.baseline_contrast,
                "counterfactual_max_abs_diff": check.max_abs_diff,
            }
        outputs = {"verdicts": verdicts, "d_separated": dsep, "adjustment_sets": sets, "oracles": oracles}
        return outputs, {}, {}

    def invariants(self, outputs, extras):
        return [
            f"{name}: counterfactual_check max_abs_diff {o['counterfactual_max_abs_diff']!r} > 1e-12"
            for name, o in outputs["oracles"].items()
            if not o["counterfactual_max_abs_diff"] <= 1e-12
        ]


WORKLOADS = {
    "paper_n300": paper_n300,
    "survey_n30k": survey_n30k,
    "identification": Identification,
}
