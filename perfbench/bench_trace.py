"""In-process tracer for one traced benchmark pass.

``Tracer.install`` replaces each traced public function of the ``dktanh``
package with a timing wrapper at every place the function is bound: its own
module, every module that imported it by name, and the package namespace.
``Tracer.uninstall`` puts every original back.

Calls into the layer boundaries (cli, scan, propagator, integrator, limits)
become spans ``[name, start, end, parent, leaves, extra]`` kept in memory.
The hot leaves of ``specfun`` (cgamma, hyp2f1, pcf_d) are called hundreds of
thousands of times per pass, so they are not spans: their count, total time
and self time are summed into the span that is open when they run, which
bounds the tracing cost to two clock reads per call.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time

_clock = time.perf_counter

WRAPPED_ATTR = "__perfbench_original__"
PACKAGE = "dktanh"


def _cells(args, kwargs, result):
    times = getattr(result, "times", None)
    if times is not None:  # CompareReport
        return {"cells": int(times.size)}
    count = 1
    for axis in result.axes:
        count *= axis.count
    return {"cells": count}


def _bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _spec_span(spec):
    return abs(float(spec.t1) - float(spec.t0))


def _evolve_extra(args, kwargs, result):
    return {"span": _spec_span(args[1] if len(args) > 1 else kwargs["spec"])}


def _dense_extra(args, kwargs, result):
    ts = args[2] if len(args) > 2 else kwargs["ts"]
    return {"span": _spec_span(args[1] if len(args) > 1 else kwargs["spec"]),
            "checkpoints": len(ts)}


def _hyp2f1_region(args, kwargs):
    z = complex(args[3] if len(args) > 3 else kwargs["z"])
    omz = kwargs.get("one_minus_z")
    omz = 1.0 - z if omz is None else complex(omz)
    if abs(z) <= 0.5:
        return "region_series"
    if abs(omz) <= 0.75:
        return "region_omz"
    return "region_other"


def _pcf_region(args, kwargs):
    z = complex(args[1] if len(args) > 1 else kwargs["z"])
    w = abs(0.5 * z * z)
    if w <= 3.0:
        return "region_small"
    if w <= 26.0:
        return "region_mid"
    return "region_large"


# (module, function, span name, extra counters from (args, kwargs, result))
SPAN_TARGETS = (
    ("dktanh.cli", "main", "cli.main", None),
    ("dktanh.scan", "run_time_series", "scan.run", _cells),
    ("dktanh.scan", "run_param_scan", "scan.run", _cells),
    ("dktanh.scan", "run_interferogram", "scan.run", _cells),
    ("dktanh.scan", "run_energy_map", "scan.run", _cells),
    ("dktanh.scan", "run_compare", "scan.run", _cells),
    ("dktanh.scan", "write_csv", "scan.write", _bytes),
    ("dktanh.scan", "write_pgm", "scan.write", _bytes),
    ("dktanh.scan", "write_manifest", "scan.write", _bytes),
    ("dktanh.scan", "write_compare_csv", "scan.write", _bytes),
    ("dktanh.propagator", "hyper_params", "propagator.hyper_params", None),
    ("dktanh.propagator", "analytic_propagator", "propagator.analytic_propagator", None),
    ("dktanh.integrator", "evolve", "integrator.evolve", _evolve_extra),
    ("dktanh.integrator", "evolve_dense", "integrator.evolve_dense", _dense_extra),
    ("dktanh.limits", "linear_model_evolve", "limits.linear_model_evolve", _evolve_extra),
    ("dktanh.limits", "lz_probabilities", "limits.lz_probabilities", None),
    ("dktanh.limits", "rabi_probabilities", "limits.rabi_probabilities", None),
)

# (module, function, leaf name, region classifier from (args, kwargs))
LEAF_TARGETS = (
    ("dktanh.specfun", "cgamma", "specfun.cgamma", None),
    ("dktanh.specfun", "hyp2f1", "specfun.hyp2f1", _hyp2f1_region),
    ("dktanh.specfun", "pcf_d", "specfun.pcf_d", _pcf_region),
)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def leftover_wrappers() -> list[str]:
    """Names still bound to a tracer wrapper in any loaded package module."""
    return sorted(f"{m.__name__}.{attr}" for m in _package_modules()
                  for attr, value in vars(m).items() if hasattr(value, WRAPPED_ATTR))


class Tracer:
    """Spans and leaf aggregates of one single-threaded pass."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []  # indices of the open spans, innermost last
        self._nested: list[float] = []  # leaf time spent inside each open leaf
        self._patched: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span opened by the benchmark itself.  Hot leaves add to
        the innermost open span, so traced code runs inside one."""
        rec = self._begin(name)
        try:
            yield rec
        finally:
            self._end(rec)

    def _begin(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, {}, {}]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = _clock()
        return rec

    def _end(self, rec: list) -> None:
        rec[2] = _clock()
        self._open.pop()

    def _span_wrapper(self, fn, name, extra):
        begin, end = self._begin, self._end

        def wrapper(*args, **kwargs):
            rec = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(rec)
            if extra is not None:
                counters = rec[5]
                for key, value in extra(args, kwargs, result).items():
                    counters[key] = counters.get(key, 0) + value
            return result

        return wrapper

    def _leaf_wrapper(self, fn, name, region):
        spans, open_, nested = self.spans, self._open, self._nested

        def wrapper(*args, **kwargs):
            owner = spans[open_[-1]][4]
            if region is not None:
                key = f"{name}.{region(args, kwargs)}"
                agg = owner.get(key)
                if agg is None:
                    agg = owner[key] = [0, 0.0, 0.0]
                agg[0] += 1
            nested.append(0.0)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                inner = nested.pop()
                if nested:
                    nested[-1] += elapsed
                agg = owner.get(name)
                if agg is None:
                    agg = owner[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - inner

        return wrapper

    def install(self) -> None:
        """Wrap every traced function at every place it is bound."""
        import importlib

        for module_name, _, _, _ in SPAN_TARGETS + LEAF_TARGETS:
            importlib.import_module(module_name)
        modules = _package_modules()
        targets = [(m, f, self._span_wrapper, n, x) for m, f, n, x in SPAN_TARGETS]
        targets += [(m, f, self._leaf_wrapper, n, r) for m, f, n, r in LEAF_TARGETS]
        try:
            for module_name, func_name, make, name, hook in targets:
                original = getattr(sys.modules[module_name], func_name)
                wrapper = make(original, name, hook)
                setattr(wrapper, WRAPPED_ATTR, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every module attribute that ``install`` replaced."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def self_times(spans: list) -> list[float]:
    """Self time of every span.

    A span's self time is its duration minus the part of its interval that
    its child spans cover (their union, clipped to the span) minus the time
    of the hot leaves it owns.  Summed leaf self times equal the time of the
    outermost leaf calls, since nested leaf time is already inside them.
    """
    children: list[list[int]] = [[] for _ in spans]
    for index, rec in enumerate(spans):
        if rec[3] >= 0:
            children[rec[3]].append(index)
    out = []
    for index, (_, start, end, _, leaves, _) in enumerate(spans):
        intervals = sorted(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children[index]
        )
        covered = 0.0
        lo = hi = None
        for a, b in intervals:
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        leaf_time = sum(agg[2] for agg in leaves.values())
        out.append(end - start - covered - leaf_time)
    return out
