"""One benchmark pass in a fresh interpreter.

    python3 perfbench/bench_worker.py ROOT SPEC.json RESULT.json
    python3 perfbench/bench_worker.py ROOT --setup-only

Times the set-up a CLI user pays (importing ``dktanh.cli`` from ROOT/src and
building its parser), then runs the jobs of SPEC.json one after another
through ``dktanh.cli.main`` and writes per-job exit codes and times, the
peak resident memory and, for a traced pass, the recorded spans.

The speed of a shared virtual CPU drifts by tens of percent over seconds to
minutes, which no amount of repetition within a run averages out.  So the
process pins itself to one CPU and a sampler thread times a fixed
pure-Python complex-arithmetic kernel every SAMPLE_INTERVAL_S on it, while
the jobs run.  Each timed region reports its wall seconds less the sampler's
own busy time (the sampler holds the interpreter lock while it runs), and
the median kernel time around it; ``bench_metrics`` rescales by that median
to reference seconds, the time on a CPU where the kernel takes CAL_REF_S.
"""

import cmath
import os
import sys
import threading
import time

CAL_REF_S = 0.001
SAMPLE_INTERVAL_S = 0.05
# samples this close to a timed region count toward its calibration, so
# that short jobs still get several
SAMPLE_MARGIN_S = 0.25


def _kernel() -> complex:
    total, z = 0j, complex(0.3, 0.7)
    for k in range(1, 2000):
        total += cmath.exp(z * (k * 1e-3)) / (z + k) + abs(total) * 1e-9
    return total


class Sampler(threading.Thread):
    """Times the calibration kernel periodically; (start, end) pairs."""

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list[tuple[float, float]] = []
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(SAMPLE_INTERVAL_S):
            start = time.perf_counter()
            _kernel()
            self.samples.append((start, time.perf_counter()))

    def stop(self) -> None:
        self._halt.set()
        self.join()

    def timed(self, start: float, end: float) -> dict:
        """Net seconds of [start, end] and the median kernel time around it."""
        busy = sum(b - a for a, b in self.samples if start <= a and b <= end)
        near = sorted(b - a for a, b in self.samples
                      if start - SAMPLE_MARGIN_S <= a and b <= end + SAMPLE_MARGIN_S)
        return {"seconds": end - start - busy, "raw_seconds": end - start,
                "cal": near[len(near) // 2], "cal_samples": len(near)}


def _setup(root: str) -> tuple[float, float]:
    start = time.perf_counter()
    sys.path.insert(0, root + "/src")
    import dktanh.cli

    dktanh.cli.build_parser()
    end = time.perf_counter()
    if not dktanh.__file__.startswith(root + "/src/"):
        raise SystemExit(f"dktanh imported from {dktanh.__file__}, not from {root}/src")
    return start, end


def _run(spec_path: str, result_path: str, sampler: Sampler, setup: tuple) -> None:
    import contextlib
    import io
    import json
    import resource

    cli = sys.modules["dktanh.cli"]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        import bench_trace

        tracer = bench_trace.Tracer()
        tracer.install()
    spans = []
    try:
        for job in spec["jobs"]:
            argv = job["argv"] + ["-o", f"{spec['outdir']}/{job['name']}"]
            sink = io.StringIO()
            span = tracer.span("job") if tracer else contextlib.nullcontext()
            error = None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), span:
                    rc = cli.main(argv)
            except Exception as exc:  # an escaping exception fails the job, not the pass
                rc, error = None, repr(exc)
            spans.append((job["name"], rc, error, sink.getvalue()[-400:], start,
                          time.perf_counter()))
    finally:
        if tracer:
            tracer.uninstall()
    time.sleep(SAMPLE_MARGIN_S)  # let the last job's trailing samples in
    sampler.stop()
    result = {
        "setup": sampler.timed(*setup),
        "jobs": [dict(name=name, rc=rc, error=error, output_tail=tail,
                      **sampler.timed(start, end))
                 for name, rc, error, tail, start, end in spans],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["wrappers_left"] = bench_trace.leftover_wrappers()
        result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main() -> None:
    root = sys.argv[1]
    # one CPU for the jobs and the sampler, so the sampler sees the jobs' CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sampler = Sampler()
    sampler.start()
    time.sleep(SAMPLE_MARGIN_S)  # leading samples for the set-up
    setup = _setup(root)
    if sys.argv[2] == "--setup-only":
        import json

        time.sleep(SAMPLE_MARGIN_S)
        sampler.stop()
        print(json.dumps(sampler.timed(*setup)))
        return
    _run(sys.argv[2], sys.argv[3], sampler, setup)


if __name__ == "__main__":
    main()
