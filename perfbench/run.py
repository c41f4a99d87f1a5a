"""Benchmark of the dktanh command-line figure traffic.

    python3 perfbench/run.py --workload analytic-tgrid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --list

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src/``.  A run generates the seeded job list of one workload and
runs it closed-loop (one client, one thread) in a sequence of passes.  Each
pass is a fresh interpreter that pays the CLI's import cost and starts with
cold memos, like a user running the figure presets.  Passes repeat until
about ``--seconds`` of job time is measured.  Every pass's outputs are
checked outside the timed region, then deleted.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, including the
tracing overhead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record (machine, generated argv lists, per-job times, check counts) is
written to ``.perfbench_out/<workload>-seed<n>-trace<t>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import bench_jobs
import bench_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 170
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failure of the program)."""


def _git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _machine(seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(ROOT),
        "seed": seed,
    }


def _worker(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench_worker.py"), str(ROOT), *args],
        env=dict(os.environ, **SINGLE_THREAD_ENV),
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"pass process exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def _run_passes(jobs: list[dict], run_dir: Path, seconds: float, trace: bool, checker):
    """Run passes while the next one, at the mean pass time, ends nearer to
    ``seconds`` of measured job time than stopping now (two at least when
    tracing, so there is a traced and an untraced pass)."""
    results: list[dict] = []
    measured = 0.0
    while (not results or (trace and len(results) < 2)
           or measured + 0.5 * measured / len(results) < seconds):
        index = len(results)
        traced = trace and index % 2 == 1
        pass_dir = run_dir / f"pass{index}"
        spec_path, result_path = run_dir / f"pass{index}.json", run_dir / f"pass{index}-result.json"
        spec_path.write_text(json.dumps({"trace": traced, "outdir": str(pass_dir), "jobs": jobs}),
                             encoding="utf-8")
        _worker(str(spec_path), str(result_path))
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result_path.unlink()
        result["traced"] = traced
        for job, rec in zip(jobs, result["jobs"]):
            rec["failure"] = checker.check(job, rec, pass_dir / job["name"])
        shutil.rmtree(pass_dir, ignore_errors=True)
        if traced:
            if result["wrappers_left"]:
                raise BenchError(f"tracer left wrappers behind: {result['wrappers_left']}")
            result["layers"] = bench_metrics.layer_values(result.pop("spans"))
        results.append(result)
        measured += sum(rec["seconds"] for rec in result["jobs"])
    return results


def _print_list() -> None:
    for title, metrics in (("end-to-end (--trace 0)", bench_metrics.END_TO_END),
                           ("per-layer (--trace 1)", bench_metrics.PER_LAYER)):
        print(title)
        for m in metrics:
            bound = "" if m.bound is None else f", bound {m.bound:g}"
            print(f"  {m.name} [{m.unit}, {m.better} is better{bound}]: {m.note}")
    print("workloads")
    for name in bench_jobs.WORKLOADS:
        print(f"  {name}: {bench_metrics.WORKLOAD_WHY[name]}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "dktanh" / "__init__.py").is_file():
        raise BenchError(f"no dktanh package under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import bench_checks

    jobs = bench_jobs.generate(workload, seed)
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    setups = [json.loads(_worker("--setup-only")) for _ in range(SETUP_PROBES)]
    checker = bench_checks.Checker(seed)
    results = _run_passes(jobs, run_dir, seconds, trace, checker)
    setups += [r["setup"] for r in results]
    untraced = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    if trace:
        layers = [r["layers"] for r in traced]
        metrics = bench_metrics.per_layer(jobs, layers, traced, untraced,
                                          checker.worst_dev_over_bar)
        units = {m.name: m.unit for m in bench_metrics.PER_LAYER}
    else:
        metrics = bench_metrics.end_to_end(jobs, untraced, setups)
        units = {m.name: m.unit for m in bench_metrics.END_TO_END}
    records = [rec for r in results for rec in r["jobs"]]
    failures = [f"{rec['name']}: {rec['failure']}" for rec in records if rec["failure"]]
    record = {
        "machine": _machine(seed),
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "jobs": jobs,
        "setups": setups,
        "passes": [{k: v for k, v in r.items() if k != "layers"} for r in results],
        "traced_layers": [r["layers"] for r in traced],
        "counts_repeat": len({json.dumps({k: v for k, v in r["layers"].items()
                                          if units[k] == "count"}) for r in traced}) <= 1,
        "checks": dict(checker.counts),
        "failures": failures,
        "metrics": metrics,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return {
        "record": record,
        "summary": {
            "correct": not failures,
            "attempted": len(records),
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=bench_jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print every metric and workload")
    args = parser.parse_args(argv)
    if args.list:
        _print_list()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record, summary = out["record"], out["summary"]
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print(f"passes {len(record['passes'])}, jobs attempted {summary['attempted']}, "
          f"failed {summary['failed']}, checks {json.dumps(record['checks'], sort_keys=True)}")
    for failure in record["failures"][:10]:
        print(f"FAILED {failure}")
    for name, entry in summary["metrics"].items():
        print(f"{name:<46} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
