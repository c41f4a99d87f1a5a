"""Tests of the benchmark's own machinery: job generator, tracer, metrics."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import bench_jobs  # noqa: E402
import bench_metrics  # noqa: E402
import bench_trace  # noqa: E402
from dktanh import cli, limits, propagator, scan, specfun  # noqa: E402
from dktanh.presets import PRESETS  # noqa: E402

SEEDS = range(25)


def _flags(argv):
    return dict(zip(argv[3::2], argv[4::2]))


def test_preset_values_mirror_the_catalogue():
    for name, values in bench_jobs.PRESET_VALUES.items():
        for key, value in values.items():
            assert PRESETS[name].defaults[key] == value, (name, key)


def test_perturbed_values_are_marked_unstated_by_their_presets():
    for name, marks in bench_jobs.UNSTATED.items():
        notes = " ".join(PRESETS[name].notes)
        for note in marks.values():
            assert note in notes, (name, note)


@pytest.mark.parametrize("workload", bench_jobs.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert bench_jobs.generate(workload, 7) == bench_jobs.generate(workload, 7)
    assert bench_jobs.generate(workload, 7) != bench_jobs.generate(workload, 8)
    # the work per run does not depend on the seed
    shapes = {tuple((j["name"], j["kind"], j["cells"]) for j in bench_jobs.generate(workload, s))
              for s in SEEDS}
    assert len(shapes) == 1


@pytest.mark.parametrize("workload", bench_jobs.WORKLOADS)
def test_generator_stays_inside_the_preset_neighbourhood(workload):
    reduced = {"--points": {str(n) for n in bench_jobs.ORACLE_LIMITS_POINTS.values()},
               "--solver": {"analytic", "numeric"}}
    for seed in SEEDS:
        for job in bench_jobs.generate(workload, seed):
            preset = job["argv"][2]
            base, marks = bench_jobs.PRESET_VALUES[preset], bench_jobs.UNSTATED.get(preset, {})
            for flag, text in _flags(job["argv"]).items():
                if flag in reduced:
                    assert text in reduced[flag]
                elif flag == "--beta":
                    assert "beta" in marks
                    assert abs(float(text) - base["beta"]) <= bench_jobs.BETA_SHIFT
                elif flag == "--delta":
                    assert "delta" in marks
                    ratio = float(text) / base["delta"]
                    assert abs(ratio - 1.0) <= bench_jobs.DELTA_SCALE
                else:
                    name, lo, hi, count = bench_jobs.parse_axis(text)
                    b_name, b_lo, b_hi, b_count = bench_jobs.parse_axis(base[flag[2:]])
                    assert name == b_name
                    assert count == b_count or job["name"].startswith(
                        ("interferogram-fig2a3", "scan1d-fig3b1-numeric"))
                    if name == "beta":
                        assert "beta_axis" in marks
                        assert abs((hi - lo) - (b_hi - b_lo)) < 1e-9
                        assert abs(lo - b_lo) <= bench_jobs.BETA_SHIFT
                    elif (lo, hi) != (b_lo, b_hi):
                        assert name == "delta" and "delta_axis" in marks and lo == b_lo
                        assert abs(hi / b_hi - 1.0) <= bench_jobs.DELTA_SCALE


def test_tracer_wraps_every_import_site_and_removes_every_wrapper(tmp_path):
    originals = {
        (propagator, "hyp2f1"): specfun.hyp2f1,
        (scan, "analytic_propagator"): propagator.analytic_propagator,
        (scan, "evolve_dense"): cli.evolve_dense,
        (limits, "pcf_d"): specfun.pcf_d,
        (cli, "main"): cli.main,
    }
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        for (module, attr), original in originals.items():
            assert getattr(module, attr) is not original
            assert getattr(getattr(module, attr), bench_trace.WRAPPED_ATTR) is original
        jobs = (["interferogram", "--preset", "fig8b", "--axis1", "t:-4:4:5",
                 "--axis2", "kappa:0:1:3"],
                ["limits", "--preset", "fig8a", "--points", "3"])
        for k, argv in enumerate(jobs):
            with tracer.span("job"):
                assert cli.main(argv + ["-o", str(tmp_path / str(k))]) == 0
    finally:
        tracer.uninstall()
    assert bench_trace.leftover_wrappers() == []
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original
    layers = bench_metrics.layer_values(tracer.spans)
    assert layers["cli.main.calls"] == 2
    assert layers["propagator.analytic_propagator.calls"] == 15
    assert layers["propagator.hyper_params.calls"] == 3
    assert layers["scan.cells"] == 15
    assert layers["specfun.hyp2f1.calls"] == sum(
        layers[f"specfun.hyp2f1.region_{r}.calls"] for r in ("series", "omz", "other"))
    assert layers["specfun.pcf_d.calls"] > 0
    assert layers["limits.lz_probabilities.calls"] == 3
    assert 0.0 < layers["specfun.hyp2f1.self_s"] <= layers["specfun.hyp2f1.us_per_call"] * 1e-6 * layers["specfun.hyp2f1.calls"]


def test_self_time_is_span_minus_child_coverage():
    leaves = {"specfun.hyp2f1": [3, 0.75, 0.5], "specfun.hyp2f1.region_series": [3, 0.0, 0.0]}
    spans = [
        ["job", 0.0, 10.0, -1, leaves, {}],
        ["a", 1.0, 3.0, 0, {}, {}],
        ["b", 2.0, 5.0, 0, {}, {}],  # overlaps a: covered once
        ["c", 9.0, 12.0, 0, {}, {}],  # runs past the parent: clipped
        ["d", 1.5, 2.5, 1, {}, {}],
    ]
    own = bench_trace.self_times(spans)
    # 10 - union([1,5], [9,10]) - leaf self time 0.5
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2:] == pytest.approx([3.0, 3.0, 1.0])


def test_benchmark_json_matches_the_definitions():
    document = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert document == bench_metrics.benchmark_json(bench_jobs.WORKLOADS)
    for workload in document["workloads"]:
        assert len(workload["why"]) <= 200
