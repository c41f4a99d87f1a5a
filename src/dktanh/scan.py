"""Batch experiment layer: 1-D sweeps, 2-D maps, energy diagrams, comparisons.

Grid points are independent pure computations written into a preallocated
matrix by index, so results do not depend on evaluation order.  Output
formats are fixed and bit-reproducible: CSV with header ``axis1,axis2,value``
and every number in ``%.12e``, binary 8-bit PGM (P5) images with min-max
normalisation recorded in the manifest, and a JSON manifest (sorted keys)
holding parameters, solver settings, tolerances, warnings, the maximum
deviation where applicable, and wall time.

The analytic solver evaluates many points at one HyperParams on the
propagator's array route, one call per grid: analytic time series, the
analytic half of ``run_compare``, each column of an interferogram's time
axis, and each row of an interferogram's beta axis (beta enters only
through the sweep argument).  Grids shorter than _ARRAY_ROUTE_MIN_POINTS,
``run_param_scan`` and parametric maps without a beta axis take the scalar
route, one call per point: their HyperParams change from point to point, and
for a single point the array route's fixed cost is 2-30 times the scalar
cost.  Both routes give the same values.
"""

from __future__ import annotations

import datetime as _dt
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
import numpy as np

from .integrator import IntegrationSpec, IntegratorError, evolve, evolve_dense
from .model import ModelParams, asymptotic_window
from .propagator import (
    DegenerateParameterError,
    analytic_propagator,
    hyper_params,
    sweep_propagator,
)
from .specfun import SpecFunError

__all__ = [
    "AXIS_NAMES",
    "OBSERVABLES",
    "AxisSpec",
    "ScanResult",
    "ScanError",
    "CompareReport",
    "scaled_deviation",
    "run_time_series",
    "run_param_scan",
    "run_interferogram",
    "run_energy_map",
    "run_compare",
    "write_csv",
    "write_pgm",
    "write_manifest",
]

AXIS_NAMES = ("t", "delta", "kappa", "beta", "P", "alpha")
OBSERVABLES = ("population1", "population2", "reE", "imE", "zone", "deviation")

DEFAULT_DEVIATION_BAR = 1e-6
# perturbation applied to delta when the hypergeometric index degenerates
DEGENERACY_NUDGE = 1e-9


class ScanError(RuntimeError):
    """A scan could not produce a complete finite grid."""


@dataclass(frozen=True)
class AxisSpec:
    """One swept quantity: a named uniform grid."""

    name: str
    min: float
    max: float
    count: int

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(f"axis name must be one of {AXIS_NAMES}, got {self.name!r}")
        if self.count < 2:
            raise ValueError("axis count must be at least 2")
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise ValueError("axis bounds must be finite")
        if not self.min < self.max:
            raise ValueError("axis requires min < max")
        if self.name == "alpha" and self.min <= 0.0:
            raise ValueError("an alpha axis must stay strictly positive")

    def grid(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.count)


@dataclass
class ScanResult:
    axes: tuple[AxisSpec, ...]
    values: np.ndarray
    observable: str
    manifest: dict


@dataclass
class CompareReport:
    """Pointwise analytic-vs-numeric population comparison."""

    times: np.ndarray
    analytic: np.ndarray  # (n, 2) populations
    numeric: np.ndarray  # (n, 2) populations
    deviation: np.ndarray  # (n,) scaled deviation, the larger of the two levels
    max_deviation: float
    mean_deviation: float
    bar: float
    passed: bool
    manifest: dict = field(default_factory=dict)


def scaled_deviation(value, reference) -> float:
    """|value - reference| / max(1, |reference|), reduced over the arrays.

    Plain absolute deviation for order-one observables; relative once the
    lossy dynamics drives populations far above 1.
    """
    v = np.asarray(value, dtype=float)
    r = np.asarray(reference, dtype=float)
    return float(np.max(np.abs(v - r) / np.maximum(1.0, np.abs(r))))


def _utc_stamp() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")


def _base_manifest(p: ModelParams, solver: str, spec: IntegrationSpec | None) -> dict:
    m = {
        "parameters": {
            "P": p.P,
            "alpha": p.alpha,
            "beta": p.beta,
            "kappa": p.kappa,
            "delta": p.delta,
        },
        "solver": solver,
        "tolerances": (
            {"rel_tol": spec.rel_tol, "abs_tol": spec.abs_tol} if spec else {}
        ),
        "warnings": [],
        "max_deviation": None,
        "timestamp_utc": _utc_stamp(),
    }
    return m


def _finalize(manifest: dict, t_start: float) -> None:
    manifest["wall_time_ms"] = round(1000.0 * (time.perf_counter() - t_start), 3)


# failures of one cell or column; anything else aborts the run as it is
_CELL_ERRORS = (SpecFunError, IntegratorError, DegenerateParameterError)


def _cell_failure(manifest: dict, where: str, exc: Exception) -> ScanError:
    """The ScanError for the first cell or column that failed, naming its
    cause, which is also recorded in the manifest warnings."""
    message = f"{where}: {exc}"
    manifest["warnings"].append(message)
    return ScanError(f"scan failed at {message}")


def _check_finite(values: np.ndarray, manifest: dict) -> None:
    if not np.all(np.isfinite(values)):
        n_bad = int(np.size(values) - np.count_nonzero(np.isfinite(values)))
        manifest["warnings"].append(f"{n_bad} non-finite grid values")
        raise ScanError(f"scan produced {n_bad} non-finite values")


def _override(p: ModelParams, name: str, value: float) -> ModelParams:
    return replace(p, **{name: float(value)})


def _analytic_params(p: ModelParams, manifest: dict):
    """hyper_params with the documented delta nudge on degeneracy (escalated
    by decades until the degenerate set is cleared)."""
    try:
        return p, hyper_params(p)
    except DegenerateParameterError:
        last = None
        for eps in (DEGENERACY_NUDGE, 1e-8, 1e-7):
            p2 = replace(p, delta=p.delta + eps)
            try:
                hp = hyper_params(p2)
            except DegenerateParameterError as exc:
                last = exc
                continue
            manifest["warnings"].append(
                f"degenerate hypergeometric index at delta={p.delta}; "
                f"perturbed to delta={p2.delta}"
            )
            return p2, hp
        raise last


def _populations(U: np.ndarray) -> np.ndarray:
    """Level populations after U (one matrix or a stack) from state 1."""
    return np.abs(U[..., 0]) ** 2


# Below this many points one scalar propagator call per point is cheaper
# than one call on the array route, whose fixed cost is ~0.5 ms (measured
# crossover 16-24 points, 2-vCPU Xeon, Python 3.11, numpy 2.4).  Both routes
# give the same values.
_ARRAY_ROUTE_MIN_POINTS = 16


def _analytic_series(p, hp, ts: np.ndarray, t0: float) -> np.ndarray:
    """Populations at the times ts, from state 1 at t0."""
    if ts.size < _ARRAY_ROUTE_MIN_POINTS:
        return np.array([_populations(analytic_propagator(t, t0, p, hp)) for t in ts])
    return _populations(analytic_propagator(ts, t0, p, hp))


def run_time_series(
    p: ModelParams,
    axis: AxisSpec,
    solver: str = "both",
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-10,
    t_start: float | None = None,
) -> ScanResult:
    """Populations of both levels along a time grid, starting in state 1.

    ``solver`` is "numeric", "analytic" or "both"; with "both" a per-point
    deviation column is appended and the maximum recorded in the manifest.
    """
    if axis.name != "t":
        raise ValueError("run_time_series needs a t axis")
    if solver not in ("numeric", "analytic", "both"):
        raise ValueError(f"unknown solver {solver!r}")
    t_run = time.perf_counter()
    ts = axis.grid()
    t0 = float(ts[0]) if t_start is None else float(t_start)
    spec = IntegrationSpec(t0, float(ts[-1]), rel_tol, abs_tol)
    manifest = _base_manifest(p, solver, spec)
    psi0 = np.array([1.0, 0.0], dtype=complex)

    columns: list[str] = []
    blocks: list[np.ndarray] = []
    num = ana = None
    if solver in ("numeric", "both"):
        states = evolve_dense(p, spec, ts, psi0)
        num = np.abs(states) ** 2
        columns += ["population1", "population2"]
        blocks.append(num)
    if solver in ("analytic", "both"):
        pa, hp = _analytic_params(p, manifest)
        ana = _analytic_series(pa, hp, ts, t0)
        if solver == "analytic":
            columns += ["population1", "population2"]
        else:
            columns += ["population1_analytic", "population2_analytic"]
        blocks.append(ana)
    if solver == "both":
        dev = np.abs(ana - num) / np.maximum(1.0, np.abs(num))
        dev_col = dev.max(axis=1)[:, None]
        columns.append("deviation")
        blocks.append(dev_col)
        manifest["max_deviation"] = float(dev_col.max())

    values = np.hstack(blocks)
    manifest["columns"] = columns
    manifest["t_start"] = t0
    _check_finite(values, manifest)
    _finalize(manifest, t_run)
    return ScanResult((axis,), values, "population2", manifest)


def _grid_fill(shape, cell, manifest: dict) -> np.ndarray:
    """Evaluate ``cell(i, j)`` over the full index grid into a fresh array."""
    values = np.empty(shape)
    for i in range(shape[0]):
        for j in range(shape[1]):
            try:
                values[i, j] = cell(i, j)
            except _CELL_ERRORS as exc:
                raise _cell_failure(manifest, f"({i},{j})", exc) from exc
    return values


def _beta_rows(p, ax1, ax2, comp, sample_time, manifest) -> np.ndarray:
    """Analytic map with a beta axis, one ``sweep_propagator`` call per value
    of the other axis.

    beta enters the propagator only through the sweep arguments u = alpha t
    + beta and u0 = alpha w0 + beta of each cell (w0 is the start of the
    cell's own window), so a row of beta values shares one HyperParams.
    Cell values and degeneracy warnings equal those of the cell-by-cell map,
    warnings in its row-major order.
    """
    beta_first = ax1.name == "beta"
    beta_grid, other, other_grid = (
        (ax1.grid(), ax2, ax2.grid()) if beta_first else (ax2.grid(), ax1, ax1.grid())
    )
    values = np.empty((ax1.count, ax2.count))
    notes: list[list[str]] = []  # the degeneracy warning of each row, if any
    for k, v in enumerate(other_grid):
        pk = _override(p, other.name, v)
        if k == 0 or other.name == "alpha":
            # a cell's window depends on its alpha and beta only
            w0, w1 = np.array(
                [asymptotic_window(_override(pk, "beta", b)) for b in beta_grid]
            ).T
            t_end = w1 if sample_time is None else np.full(w1.shape, float(sample_time))
        found = {"warnings": []}
        try:
            pa, hp = _analytic_params(pk, found)
            U = sweep_propagator(
                pa.alpha * t_end + beta_grid, pa.alpha * w0 + beta_grid, pa, hp
            )
        except _CELL_ERRORS as exc:
            manifest["warnings"].extend(w for row in notes for w in row)
            raise _cell_failure(manifest, f"{other.name}={v}", exc) from exc
        notes.append(found["warnings"])
        pops = _populations(U)[:, comp]
        if beta_first:
            values[:, k] = pops
        else:
            values[k, :] = pops
    rows = range(beta_grid.size)
    manifest["warnings"].extend(
        [w for _ in rows for row in notes for w in row]
        if beta_first
        else [w for row in notes for w in row for _ in rows]
    )
    return values


def run_interferogram(
    p: ModelParams,
    ax1: AxisSpec,
    ax2: AxisSpec,
    observable: str = "population2",
    solver: str = "numeric",
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-10,
    sample_time: float | None = None,
) -> ScanResult:
    """Dense 2-D population map over two distinct axes (row-major in ax1).

    A time axis is evolved in one pass per row/column of the other axis; a
    purely parametric map is sampled at ``sample_time`` (default: the
    saturated end of each cell's sweep window) starting from the saturated
    beginning.  A degenerate hypergeometric index is cleared with the
    documented delta perturbation (recorded in the manifest warnings); the
    first cell or column that still fails aborts the run with a ScanError
    naming its cause, also recorded in the warnings.

    The analytic solver evaluates a time axis column by column on the array
    route of the propagator, and a beta axis row by row (see ``_beta_rows``);
    other parametric maps need a fresh HyperParams per cell and take the
    scalar route.
    """
    if ax1.name == ax2.name:
        raise ValueError("interferogram axes must differ")
    if observable not in ("population1", "population2"):
        raise ValueError("interferogram observable must be a population")
    if solver not in ("numeric", "analytic"):
        raise ValueError(f"unknown solver {solver!r}")
    t_run = time.perf_counter()
    manifest = _base_manifest(p, solver, IntegrationSpec(0.0, 1.0, rel_tol, abs_tol))
    comp = 0 if observable == "population1" else 1
    g1, g2 = ax1.grid(), ax2.grid()
    psi0 = np.array([1.0, 0.0], dtype=complex)

    if "t" in (ax1.name, ax2.name):
        t_first = ax1.name == "t"
        t_grid = g1 if t_first else g2
        par_axis = ax2 if t_first else ax1
        par_grid = g2 if t_first else g1
        values = np.empty((ax1.count, ax2.count))
        for k, v in enumerate(par_grid):
            pk = _override(p, par_axis.name, v)
            t0 = min(float(t_grid[0]), asymptotic_window(pk)[0])
            try:
                if solver == "numeric":
                    spec = IntegrationSpec(t0, float(t_grid[-1]), rel_tol, abs_tol)
                    pops = np.abs(evolve_dense(pk, spec, t_grid, psi0)) ** 2
                else:
                    pa, hp = _analytic_params(pk, manifest)
                    pops = _analytic_series(pa, hp, t_grid, t0)
            except _CELL_ERRORS as exc:
                raise _cell_failure(manifest, f"{par_axis.name}={v}", exc) from exc
            if t_first:
                values[:, k] = pops[:, comp]
            else:
                values[k, :] = pops[:, comp]
    elif solver == "analytic" and any(
        ax.name == "beta" and ax.count >= _ARRAY_ROUTE_MIN_POINTS for ax in (ax1, ax2)
    ):
        values = _beta_rows(p, ax1, ax2, comp, sample_time, manifest)
    else:

        def cell(i, j):
            pij = _override(_override(p, ax1.name, g1[i]), ax2.name, g2[j])
            w0, w1 = asymptotic_window(pij)
            t_end = w1 if sample_time is None else float(sample_time)
            if solver == "numeric":
                psi = evolve(pij, IntegrationSpec(w0, t_end, rel_tol, abs_tol), psi0)
                return float(np.abs(psi[comp]) ** 2)
            pij, hp = _analytic_params(pij, manifest)
            return float(_populations(analytic_propagator(t_end, w0, pij, hp))[comp])

        values = _grid_fill((ax1.count, ax2.count), cell, manifest)

    if sample_time is not None:
        manifest["sample_time"] = float(sample_time)
    _check_finite(values, manifest)
    _finalize(manifest, t_run)
    return ScanResult((ax1, ax2), values, observable, manifest)


def run_param_scan(
    p: ModelParams,
    axis: AxisSpec,
    solver: str = "numeric",
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-10,
    sample_time: float | None = None,
) -> ScanResult:
    """Populations sampled at one time while a model parameter sweeps.

    Each grid point evolves from the saturated start of its own sweep window
    to ``sample_time`` (default: the saturated end), starting in state 1.
    """
    if axis.name == "t":
        raise ValueError("use run_time_series for a t axis")
    if solver not in ("numeric", "analytic"):
        raise ValueError(f"unknown solver {solver!r}")
    t_run = time.perf_counter()
    manifest = _base_manifest(p, solver, IntegrationSpec(0.0, 1.0, rel_tol, abs_tol))
    manifest["columns"] = ["population1", "population2"]
    psi0 = np.array([1.0, 0.0], dtype=complex)
    grid = axis.grid()
    values = np.empty((axis.count, 2))
    for i, v in enumerate(grid):
        pv = _override(p, axis.name, v)
        w0, w1 = asymptotic_window(pv)
        t_end = w1 if sample_time is None else float(sample_time)
        try:
            if solver == "numeric":
                psi = evolve(pv, IntegrationSpec(w0, t_end, rel_tol, abs_tol), psi0)
                values[i] = np.abs(psi) ** 2
            else:
                pa, hp = _analytic_params(pv, manifest)
                values[i] = _populations(analytic_propagator(t_end, w0, pa, hp))
        except _CELL_ERRORS as exc:
            raise _cell_failure(manifest, f"{axis.name}={v}", exc) from exc
    if sample_time is not None:
        manifest["sample_time"] = float(sample_time)
    _check_finite(values, manifest)
    _finalize(manifest, t_run)
    return ScanResult((axis,), values, "population2", manifest)


def run_energy_map(
    p: ModelParams,
    ax1: AxisSpec,
    ax2: AxisSpec,
    part: str = "reE",
    t: float = 0.0,
    gap_threshold: float = 1e-9,
) -> ScanResult:
    """Re/Im of the upper eigenvalue, or the allowed/forbidden zone map, over
    two parameter axes at a fixed observation time (vectorised)."""
    if ax1.name == ax2.name:
        raise ValueError("energy map axes must differ")
    if part not in ("reE", "imE", "zone"):
        raise ValueError("part must be reE, imE or zone")
    t_run = time.perf_counter()
    manifest = _base_manifest(p, "closed-form", None)
    manifest["observation_time"] = float(t)

    fields = {
        "P": p.P,
        "alpha": p.alpha,
        "beta": p.beta,
        "kappa": p.kappa,
        "delta": p.delta,
        "t": float(t),
    }
    g1 = ax1.grid()[:, None]
    g2 = ax2.grid()[None, :]
    fields[ax1.name] = g1
    fields[ax2.name] = g2

    xi = fields["P"] * np.tanh(fields["alpha"] * fields["t"] + fields["beta"]) + fields["kappa"]
    z_re = xi**2 + fields["kappa"] ** 2 - fields["delta"] ** 2
    z_im = 2.0 * fields["kappa"] * fields["delta"] + np.zeros_like(xi)
    e = 0.5 * np.sqrt(z_re + 1j * z_im)
    flip = (e.real < 0) | ((e.real == 0) & (e.imag < 0))
    e = np.where(flip, -e, e)

    if part == "reE":
        values = e.real.copy()
    elif part == "imE":
        values = e.imag.copy()
    else:
        values = (2.0 * np.abs(e.real) < gap_threshold).astype(float)
    values = np.broadcast_to(values, (ax1.count, ax2.count)).copy()
    _check_finite(values, manifest)
    _finalize(manifest, t_run)
    return ScanResult((ax1, ax2), values, part, manifest)


def run_compare(
    p: ModelParams,
    window: tuple[float, float],
    n: int = 200,
    bar: float = DEFAULT_DEVIATION_BAR,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-10,
) -> CompareReport:
    """Analytic vs numeric populations on n points across ``window``.

    Both solvers start from state 1 at the window start; deviations are
    scaled by max(1, |numeric|) so lossy blow-ups compare relatively.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    t_run = time.perf_counter()
    t0, t1 = float(window[0]), float(window[1])
    ts = np.linspace(t0, t1, n)
    spec = IntegrationSpec(t0, t1, rel_tol, abs_tol)
    manifest = _base_manifest(p, "both", spec)
    psi0 = np.array([1.0, 0.0], dtype=complex)

    numeric = np.abs(evolve_dense(p, spec, ts, psi0)) ** 2
    pa, hp = _analytic_params(p, manifest)
    analytic = _analytic_series(pa, hp, ts, t0)

    dev = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
    max_dev = float(dev.max())
    report = CompareReport(
        times=ts,
        analytic=analytic,
        numeric=numeric,
        deviation=dev.max(axis=1),
        max_deviation=max_dev,
        mean_deviation=float(dev.mean()),
        bar=float(bar),
        passed=bool(max_dev < bar),
        manifest=manifest,
    )
    manifest["max_deviation"] = max_dev
    manifest["bar"] = float(bar)
    manifest["passed"] = report.passed
    _check_finite(analytic, manifest)
    _finalize(manifest, t_run)
    return report


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------

# one row of three or six numbers, each in %.12e
_ROW3 = ",".join(["%.12e"] * 3) + "\n"
_ROW6 = ",".join(["%.12e"] * 6) + "\n"


# rows formatted per write: bounds the Python lists a large map needs
_ROWS_PER_WRITE = 4096


def _write_rows(path, header: str, row_format: str, columns) -> Path:
    path = Path(path)
    columns = [np.asarray(col, dtype=float) for col in columns]
    with path.open("w", encoding="utf-8") as f:
        f.write(header + "\n")
        for lo in range(0, columns[0].size, _ROWS_PER_WRITE):
            rows = zip(*(col[lo : lo + _ROWS_PER_WRITE].tolist() for col in columns))
            f.write("".join(row_format % row for row in rows))
    return path


def write_csv(path, result: ScanResult) -> Path:
    """Fixed three-column CSV.  2-D scans emit (axis1, axis2, value) row-major;
    1-D multi-column results encode the column index as axis2 (the manifest
    names the columns)."""
    if len(result.axes) == 1:
        g = result.axes[0].grid()
        vals = np.atleast_2d(result.values)
        if vals.shape[0] != g.size:
            vals = vals.T
        g1, g2 = g, np.arange(vals.shape[1], dtype=float)
    else:
        g1, g2 = result.axes[0].grid(), result.axes[1].grid()
        vals = result.values
    columns = (np.repeat(g1, g2.size), np.tile(g2, g1.size), vals.ravel())
    return _write_rows(path, "axis1,axis2,value", _ROW3, columns)


def write_pgm(path, values: np.ndarray) -> tuple[float, float]:
    """Binary P5 8-bit image of a 2-D matrix, min-max normalised; returns the
    (min, max) used so the manifest can record the normalisation."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 2:
        raise ValueError("PGM output needs a 2-D matrix")
    lo, hi = float(v.min()), float(v.max())
    if hi > lo:
        img = np.clip(np.rint((v - lo) / (hi - lo) * 255.0), 0, 255).astype(np.uint8)
    else:
        img = np.zeros_like(v, dtype=np.uint8)
    header = f"P5\n{v.shape[1]} {v.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + img.tobytes())
    return lo, hi


def write_manifest(path, manifest: dict) -> Path:
    path = Path(path)
    path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def write_compare_csv(path, report: CompareReport) -> Path:
    header = (
        "t,population1_analytic,population2_analytic,"
        "population1_numeric,population2_numeric,deviation"
    )
    columns = (
        report.times,
        *np.asarray(report.analytic).T,
        *np.asarray(report.numeric).T,
        report.deviation,
    )
    return _write_rows(path, header, _ROW6, columns)
