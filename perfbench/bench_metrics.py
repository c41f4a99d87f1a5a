"""Metric definitions and their computation from pass results.

End-to-end metrics come from untraced passes; per-layer metrics from traced
passes (counts from the first traced pass, times as medians over them).
Each per-layer metric's ``note`` says which end-to-end metric on which
workload it is expected to move; ``python3 perfbench/run.py --list`` prints
them all.
"""

from __future__ import annotations

from statistics import median
from typing import NamedTuple

from bench_trace import self_times
from bench_worker import CAL_REF_S


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float | None
    note: str  # end to end: what it measures; per layer: what it should move


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25,
           "import dktanh.cli and build the parser in a fresh interpreter (median of every set-up in the run)"),
    Metric("wall_s", "s", "lower", 0.25,
           "time to the figure set: sum over the job list of each job's median time"),
    Metric("map_cells_per_s", "1/s", "higher", 0.2,
           "interferogram and energy-map cells per second of map-job time"),
    Metric("series_points_per_s", "1/s", "higher", 0.25,
           "evolve, compare and scan1d output points per second of series-job time"),
    Metric("peak_rss_mb", "MB", "lower", 0.1,
           "peak resident memory of the fresh pass process (median over passes)"),
)

_TGRID_FIRST = "map_cells_per_s and wall_s on analytic-tgrid, then analytic-pgrid; series_points_per_s on oracle by at most ~10%"
_ORACLE_NUMERIC = "series_points_per_s, map_cells_per_s and wall_s on oracle; no change on either analytic workload"
_LIMITS = "wall_s on oracle (limits jobs), limits.check_points_per_s on oracle"

PER_LAYER = (
    Metric("cli.main.calls", "count", "lower", None, "overhead that moves wall_s on every workload"),
    Metric("cli.main.self_s", "s", "lower", None, "overhead that moves wall_s on every workload"),
    Metric("cli.worst_dev_over_bar", "ratio", "lower", None,
           "accuracy headroom: a loosened solver shows here before it fails jobs on oracle"),
    Metric("scan.run.self_s", "s", "lower", None, "overhead that moves wall_s on every workload"),
    Metric("scan.cells", "count", "higher", None, "work done by scan; fixed by the job list"),
    Metric("scan.write.s", "s", "lower", None, "map_cells_per_s on analytic-pgrid"),
    Metric("scan.write.bytes", "bytes", "lower", None, "map_cells_per_s on analytic-pgrid"),
    Metric("propagator.analytic_propagator.calls", "count", "lower", None, _TGRID_FIRST),
    Metric("propagator.analytic_propagator.self_s", "s", "lower", None, _TGRID_FIRST),
    Metric("propagator.analytic_propagator.us_per_call", "us", "lower", None, _TGRID_FIRST),
    Metric("propagator.hyper_params.calls", "count", "lower", None,
           "separates per-parameter caching (analytic-tgrid) from per-cell cost (analytic-pgrid)"),
    Metric("specfun.cgamma.calls", "count", "lower", None, _TGRID_FIRST),
    Metric("specfun.cgamma.s", "s", "lower", None, _TGRID_FIRST),
    Metric("specfun.hyp2f1.calls", "count", "lower", None, _TGRID_FIRST),
    Metric("specfun.hyp2f1.self_s", "s", "lower", None, _TGRID_FIRST),
    Metric("specfun.hyp2f1.us_per_call", "us", "lower", None, _TGRID_FIRST),
    Metric("specfun.hyp2f1.region_series.calls", "count", "lower", None, _TGRID_FIRST),
    Metric("specfun.hyp2f1.region_omz.calls", "count", "lower", None, _TGRID_FIRST),
    Metric("specfun.hyp2f1.region_other.calls", "count", "lower", None, _TGRID_FIRST),
    Metric("integrator.evolve.calls", "count", "lower", None, _ORACLE_NUMERIC),
    Metric("integrator.evolve.s", "s", "lower", None, _ORACLE_NUMERIC),
    Metric("integrator.evolve_dense.calls", "count", "lower", None, _ORACLE_NUMERIC),
    Metric("integrator.evolve_dense.s", "s", "lower", None, _ORACLE_NUMERIC),
    Metric("integrator.evolve_dense.checkpoints", "count", "lower", None, _ORACLE_NUMERIC),
    Metric("integrator.span", "model_t", "lower", None, _ORACLE_NUMERIC),
    Metric("integrator.us_per_unit_span", "us/model_t", "lower", None, _ORACLE_NUMERIC),
    Metric("limits.linear_model_evolve.calls", "count", "lower", None, _LIMITS),
    Metric("limits.linear_model_evolve.s", "s", "lower", None, _LIMITS),
    Metric("limits.linear_model_evolve.span", "model_t", "lower", None, _LIMITS),
    Metric("limits.lz_probabilities.calls", "count", "lower", None, _LIMITS),
    Metric("limits.lz_probabilities.self_s", "s", "lower", None, _LIMITS),
    Metric("limits.rabi_probabilities.calls", "count", "lower", None, _LIMITS),
    Metric("limits.rabi_probabilities.s", "s", "lower", None, _LIMITS),
    Metric("limits.check_points_per_s", "1/s", "higher", None,
           "limits closed-form-vs-reference points per second of limits-job time (oracle only)"),
    Metric("specfun.pcf_d.calls", "count", "lower", None, _LIMITS),
    Metric("specfun.pcf_d.s", "s", "lower", None, _LIMITS),
    Metric("specfun.pcf_d.us_per_call", "us", "lower", None, _LIMITS),
    Metric("specfun.pcf_d.region_small.calls", "count", "lower", None, _LIMITS),
    Metric("specfun.pcf_d.region_mid.calls", "count", "lower", None, _LIMITS),
    Metric("specfun.pcf_d.region_large.calls", "count", "lower", None, _LIMITS),
    Metric("trace.overhead_s", "s", "lower", None,
           "traced minus untraced pass time; bounds how far the per-layer times can be trusted"),
)

WORKLOAD_WHY = {
    "analytic-tgrid": "Analytic t x parameter maps fig4c3/4c4/8b/7b plus analytic series: one HyperParams per column and a reused x0 basis; specfun/propagator do ~90% of the work, the integrator none.",
    "analytic-pgrid": "Analytic (delta, beta) maps fig3b3/3b4, energy maps fig5a-d/fig6, analytic scan1d: a fresh HyperParams and two basis evaluations per cell; scan's CSV writing has its largest share.",
    "oracle": "Numeric and checking traffic: compare fig2a1/2a2/fig4 +-80, numeric scan1d and fig2a3 columns, limits fig7a/fig8a; the integrator does most of the work, the analytic route ~10%.",
}


def ref_seconds(timed: dict) -> float:
    """Seconds of a timed region rescaled by the calibration around it."""
    return timed["seconds"] * CAL_REF_S / timed["cal"]


def _pass_wall(result: dict) -> float:
    return sum(ref_seconds(rec) for rec in result["jobs"])


def _job_medians(results: list[dict]) -> dict[str, float]:
    times: dict[str, list[float]] = {}
    for result in results:
        for rec in result["jobs"]:
            times.setdefault(rec["name"], []).append(ref_seconds(rec))
    return {name: median(values) for name, values in times.items()}


def _rate(jobs: list[dict], medians: dict[str, float], kind: str) -> float:
    chosen = [job for job in jobs if job["kind"] == kind]
    seconds = sum(medians[job["name"]] for job in chosen)
    return sum(job["cells"] for job in chosen) / seconds if seconds > 0 else 0.0


def end_to_end(jobs: list[dict], results: list[dict], setups: list[dict]) -> dict:
    medians = _job_medians(results)
    return {
        "setup_s": median(ref_seconds(setup) for setup in setups),
        "wall_s": sum(medians.values()),
        "map_cells_per_s": _rate(jobs, medians, "map"),
        "series_points_per_s": _rate(jobs, medians, "series"),
        "peak_rss_mb": median(result["peak_rss_mb"] for result in results),
    }


def _per_call(seconds: float, calls: int) -> float:
    return 1e6 * seconds / calls if calls else 0.0


def layer_values(spans: list) -> dict:
    """Per-layer metric values of one traced pass."""
    spans_by: dict[str, dict] = {}
    for rec, self_s in zip(spans, self_times(spans)):
        agg = spans_by.setdefault(rec[0], {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += rec[2] - rec[1]
        agg["self_s"] += self_s
        for key, value in rec[5].items():
            agg[key] = agg.get(key, 0) + value
    leaves: dict[str, list] = {}
    for rec in spans:
        for key, (n, total, own) in rec[4].items():
            agg = leaves.setdefault(key, [0, 0.0, 0.0])
            agg[0] += n
            agg[1] += total
            agg[2] += own

    def s(name, field):
        return spans_by.get(name, {}).get(field, 0)

    def leaf(name, index):
        return leaves.get(name, [0, 0.0, 0.0])[index]

    numeric_s = s("integrator.evolve", "s") + s("integrator.evolve_dense", "s")
    numeric_span = s("integrator.evolve", "span") + s("integrator.evolve_dense", "span")
    out = {
        "cli.main.calls": s("cli.main", "calls"),
        "cli.main.self_s": s("cli.main", "self_s"),
        "scan.run.self_s": s("scan.run", "self_s"),
        "scan.cells": s("scan.run", "cells"),
        "scan.write.s": s("scan.write", "s"),
        "scan.write.bytes": s("scan.write", "bytes"),
        "propagator.analytic_propagator.calls": s("propagator.analytic_propagator", "calls"),
        "propagator.analytic_propagator.self_s": s("propagator.analytic_propagator", "self_s"),
        "propagator.analytic_propagator.us_per_call": _per_call(
            s("propagator.analytic_propagator", "s"), s("propagator.analytic_propagator", "calls")),
        "propagator.hyper_params.calls": s("propagator.hyper_params", "calls"),
        "specfun.cgamma.calls": leaf("specfun.cgamma", 0),
        "specfun.cgamma.s": leaf("specfun.cgamma", 1),
        "specfun.hyp2f1.calls": leaf("specfun.hyp2f1", 0),
        "specfun.hyp2f1.self_s": leaf("specfun.hyp2f1", 2),
        "specfun.hyp2f1.us_per_call": _per_call(leaf("specfun.hyp2f1", 1), leaf("specfun.hyp2f1", 0)),
        "integrator.evolve.calls": s("integrator.evolve", "calls"),
        "integrator.evolve.s": s("integrator.evolve", "s"),
        "integrator.evolve_dense.calls": s("integrator.evolve_dense", "calls"),
        "integrator.evolve_dense.s": s("integrator.evolve_dense", "s"),
        "integrator.evolve_dense.checkpoints": s("integrator.evolve_dense", "checkpoints"),
        "integrator.span": numeric_span,
        "integrator.us_per_unit_span": 1e6 * numeric_s / numeric_span if numeric_span else 0.0,
        "limits.linear_model_evolve.calls": s("limits.linear_model_evolve", "calls"),
        "limits.linear_model_evolve.s": s("limits.linear_model_evolve", "s"),
        "limits.linear_model_evolve.span": s("limits.linear_model_evolve", "span"),
        "limits.lz_probabilities.calls": s("limits.lz_probabilities", "calls"),
        "limits.lz_probabilities.self_s": s("limits.lz_probabilities", "self_s"),
        "limits.rabi_probabilities.calls": s("limits.rabi_probabilities", "calls"),
        "limits.rabi_probabilities.s": s("limits.rabi_probabilities", "s"),
        "specfun.pcf_d.calls": leaf("specfun.pcf_d", 0),
        "specfun.pcf_d.s": leaf("specfun.pcf_d", 1),
        "specfun.pcf_d.us_per_call": _per_call(leaf("specfun.pcf_d", 1), leaf("specfun.pcf_d", 0)),
    }
    for region in ("series", "omz", "other"):
        out[f"specfun.hyp2f1.region_{region}.calls"] = leaf(f"specfun.hyp2f1.region_{region}", 0)
    for region in ("small", "mid", "large"):
        out[f"specfun.pcf_d.region_{region}.calls"] = leaf(f"specfun.pcf_d.region_{region}", 0)
    return out


def per_layer(jobs: list[dict], traced_layers: list[dict], traced: list[dict],
              untraced: list[dict], worst_dev_over_bar: float) -> dict:
    """Counts from the first traced pass; times, each rescaled by its pass's
    median calibration, as medians over traced passes."""
    units = {m.name: m.unit for m in PER_LAYER}
    scales = [CAL_REF_S / median(rec["cal"] for rec in r["jobs"]) for r in traced]
    out = {name: (value if units[name] in ("count", "bytes", "model_t")
                  else median(layers[name] * scale for layers, scale in zip(traced_layers, scales)))
           for name, value in traced_layers[0].items()}
    out["cli.worst_dev_over_bar"] = worst_dev_over_bar
    out["limits.check_points_per_s"] = _rate(jobs, _job_medians(untraced), "check")
    out["trace.overhead_s"] = (median(_pass_wall(r) for r in traced)
                               - median(_pass_wall(r) for r in untraced))
    return out


def benchmark_json(workloads) -> dict:
    """The BENCHMARK.json document these definitions describe."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 30,
        "workloads": [{"name": w, "why": WORKLOAD_WHY[w]} for w in workloads],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
                       for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
