"""Output checks for benchmark passes, run outside the timed region.

Every job must exit 0, write a manifest without an error, and write a data
file of finite numbers; compare and limits must report ``passed``.  On top
of that each output is checked against an independent route:

* analytic maps and series: seeded spot cells re-run with the integrator;
* numeric maps and scans: every cell against ``analytic_propagator``;
* energy maps: seeded cells against ``model.eigenenergies``.

An output whose bytes equal an output already verified for the same job is
identical, so it is counted as checked without recomputing the references.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from dktanh.integrator import IntegrationSpec, evolve, evolve_dense
from dktanh.model import ModelParams, asymptotic_window, eigenenergies
from dktanh.propagator import DegenerateParameterError, analytic_propagator, hyper_params

from bench_jobs import parse_axis

SPOT_BAR = 1e-6
ENERGY_BAR = 1e-9
# Reference integrations at 1e-8 keep their own error two decades under
# SPOT_BAR at well under half the cost of the CLI's 1e-10 default.
REF_TOL = 1e-8
# Spot times per checked time series or map column (one integration each);
# a parameter map gets one spot cell, since each cell is its own integration.
SPOT_TIMES = 2
ENERGY_CELLS = 64

DATA_FILE = {
    "interferogram": "map.csv",
    "energy-map": "map.csv",
    "evolve": "series.csv",
    "scan1d": "scan.csv",
    "compare": "compare.csv",
    "limits": "limits.csv",
}
_PSI0 = (1.0, 0.0)


class CheckFailure(Exception):
    pass


def _axis(text: str):
    name, lo, hi, count = parse_axis(text)
    return name, np.linspace(lo, hi, count)


def _scaled_dev(got, ref) -> float:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))


def _analytic(p: ModelParams):
    # same documented nudge the scan layer applies on a degenerate index
    try:
        return p, hyper_params(p)
    except DegenerateParameterError:
        p = replace(p, delta=p.delta + 1e-9)
        return p, hyper_params(p)


def _populations(states) -> np.ndarray:
    return np.abs(np.asarray(states)) ** 2


class Checker:
    """Checks job outputs; remembers verified outputs and the worst deviation."""

    def __init__(self, seed: int):
        self.seed = seed
        self.verified: dict[str, str] = {}
        self.counts: Counter = Counter()
        self.worst_dev_over_bar = 0.0

    def check(self, job: dict, record: dict, outdir: Path) -> str | None:
        """Return None if the job's output is correct, else the reason."""
        try:
            self._check(job, record, Path(outdir))
        except CheckFailure as exc:
            return str(exc)
        except (ArithmeticError, ValueError, OSError, KeyError) as exc:
            return f"check could not run: {exc!r}"
        return None

    def _compare(self, what: str, got, ref, bar: float) -> None:
        dev = _scaled_dev(got, ref)
        self.worst_dev_over_bar = max(self.worst_dev_over_bar, dev / bar)
        self.counts[what] += 1
        if not dev <= bar:
            raise CheckFailure(f"{what}: deviation {dev:.3e} over bar {bar:.0e}")

    def _check(self, job: dict, record: dict, outdir: Path) -> None:
        if record["rc"] != 0:
            raise CheckFailure(
                f"exit code {record['rc']}: {record['error'] or record['output_tail']}"
            )
        manifest_path = outdir / "manifest.json"
        if not manifest_path.is_file():
            raise CheckFailure("no manifest.json")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if "error" in manifest:
            raise CheckFailure(f"manifest records an error: {manifest['error']}")
        self.counts["manifest"] += 1
        command = job["argv"][0]
        data = outdir / DATA_FILE[command]
        if not data.is_file():
            raise CheckFailure(f"no {data.name}")
        digest = hashlib.sha256(data.read_bytes()).hexdigest()
        if self.verified.get(job["name"]) == digest:
            self.counts["identical_to_verified"] += 1
            return
        values = np.loadtxt(data, delimiter=",", skiprows=1, ndmin=2)
        if values.size == 0 or not np.all(np.isfinite(values)):
            raise CheckFailure(f"{data.name} is empty or holds non-finite values")
        self.counts["finite_csv"] += 1
        settings = manifest["config"]["settings"]
        rng = random.Random(f"{self.seed}:spot:{job['name']}")
        if command in ("compare", "limits"):
            if manifest.get("passed") is not True:
                raise CheckFailure(f"{command} did not pass")
            self.worst_dev_over_bar = max(
                self.worst_dev_over_bar, manifest["max_deviation"] / manifest["bar"]
            )
            self.counts[f"{command}_passed"] += 1
        elif command == "energy-map":
            self._energy(settings, values, rng)
        elif command == "interferogram":
            self._interferogram(settings, values, rng)
        elif command == "evolve":
            self._series(settings, values, len(manifest["columns"]), rng)
        elif command == "scan1d":
            self._scan1d(settings, values, rng)
        self.verified[job["name"]] = digest

    @staticmethod
    def _params(settings) -> ModelParams:
        return ModelParams(*(float(settings[k]) for k in ("P", "alpha", "beta", "kappa", "delta")))

    def _interferogram(self, settings, rows, rng) -> None:
        (n1, g1), (n2, g2) = _axis(settings["axis1"]), _axis(settings["axis2"])
        values = rows[:, 2].reshape(g1.size, g2.size)
        comp = 0 if settings["observable"] == "population1" else 1
        p = self._params(settings)
        if "t" not in (n1, n2):
            i, j = rng.randrange(g1.size), rng.randrange(g2.size)
            pij = replace(p, **{n1: float(g1[i]), n2: float(g2[j])})
            w0, w1 = asymptotic_window(pij)
            t_end = w1 if settings.get("sample_time") is None else float(settings["sample_time"])
            psi = evolve(pij, IntegrationSpec(w0, t_end, REF_TOL, REF_TOL), _PSI0)
            self._compare("analytic_map_vs_integrator", values[i, j],
                          _populations(psi)[comp], SPOT_BAR)
            return
        t_first = n1 == "t"
        t_grid, par_name, par_grid = (g1, n2, g2) if t_first else (g2, n1, g1)
        column = values if t_first else values.T
        numeric = settings["solver"] != "analytic"
        for k in range(par_grid.size) if numeric else [rng.randrange(par_grid.size)]:
            pk = replace(p, **{par_name: float(par_grid[k])})
            t0 = min(float(t_grid[0]), asymptotic_window(pk)[0])
            if numeric:
                pa, hp = _analytic(pk)
                ref = [_populations(analytic_propagator(t, t0, pa, hp)[:, 0])[comp]
                       for t in t_grid]
                self._compare("numeric_map_vs_analytic", column[:, k], ref, SPOT_BAR)
            else:
                ti = sorted(rng.sample(range(t_grid.size), SPOT_TIMES))
                spec = IntegrationSpec(t0, float(t_grid[ti[-1]]), REF_TOL, REF_TOL)
                states = evolve_dense(pk, spec, t_grid[ti], _PSI0)
                self._compare("analytic_map_vs_integrator", column[ti, k],
                              _populations(states)[:, comp], SPOT_BAR)

    def _energy(self, settings, rows, rng) -> None:
        (n1, g1), (n2, g2) = _axis(settings["axis1"]), _axis(settings["axis2"])
        values = rows[:, 2].reshape(g1.size, g2.size)
        p, t = self._params(settings), float(settings["time"])
        part = settings["part"]
        for _ in range(ENERGY_CELLS):
            i, j = rng.randrange(g1.size), rng.randrange(g2.size)
            e = eigenenergies(t, replace(p, **{n1: float(g1[i]), n2: float(g2[j])})).e_plus
            ref = {"reE": e.real, "imE": e.imag}[part]
            self._compare("energy_map_vs_eigenenergies", values[i, j], ref, ENERGY_BAR)

    def _series(self, settings, rows, n_columns: int, rng) -> None:
        ts = np.linspace(float(settings["t0"]), float(settings["t1"]), int(settings["points"]))
        values = rows[:, 2].reshape(ts.size, n_columns)
        if settings["solver"] != "analytic":
            raise CheckFailure("only analytic series are checked against the integrator")
        ti = sorted(rng.sample(range(ts.size), SPOT_TIMES))
        p = self._params(settings)
        spec = IntegrationSpec(float(ts[0]), float(ts[ti[-1]]), REF_TOL, REF_TOL)
        states = evolve_dense(p, spec, ts[ti], _PSI0)
        self._compare("analytic_series_vs_integrator", values[ti, :2],
                      _populations(states), SPOT_BAR)

    def _scan1d(self, settings, rows, rng) -> None:
        name, grid = _axis(settings["axis"])
        values = rows[:, 2].reshape(grid.size, 2)
        p = self._params(settings)
        numeric = settings["solver"] != "analytic"
        for i in range(grid.size) if numeric else [rng.randrange(grid.size)]:
            pv = replace(p, **{name: float(grid[i])})
            w0, w1 = asymptotic_window(pv)
            t_end = w1 if settings.get("sample_time") is None else float(settings["sample_time"])
            if numeric:
                pa, hp = _analytic(pv)
                ref = _populations(analytic_propagator(t_end, w0, pa, hp)[:, 0])
                self._compare("numeric_scan_vs_analytic", values[i], ref, SPOT_BAR)
            else:
                psi = evolve(pv, IntegrationSpec(w0, t_end, REF_TOL, REF_TOL), _PSI0)
                self._compare("analytic_scan_vs_integrator", values[i], _populations(psi),
                              SPOT_BAR)
