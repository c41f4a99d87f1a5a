"""Command-line front door for the tanh-sweep toolkit.

Subcommands: evolve, scan1d, interferogram, energy-map, compare, limits,
verify.  Settings resolve with precedence CLI flag > config file > preset >
built-in default; unknown config keys abort before any computation.  Every
run owns its output directory (concurrent runs must use different ones) and
writes exactly one JSON manifest next to its data files; failed runs still
write the manifest with the error recorded.  Exit codes: 0 success, 1
numerical failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .integrator import IntegrationSpec, IntegratorError, evolve_dense
from .limits import linear_model_evolve, lz_probabilities, rabi_probabilities, lz_setup
from .model import ModelParams
from .presets import PRESETS, format_preset_table
from .propagator import DegenerateParameterError
from .scan import (
    AxisSpec,
    ScanError,
    ScanResult,
    run_compare,
    run_energy_map,
    run_interferogram,
    run_param_scan,
    run_time_series,
    write_compare_csv,
    write_csv,
    write_manifest,
    write_pgm,
)
from .specfun import SpecFunError
from .verify import run_verify, write_verify_csv

__all__ = ["main", "ConfigError"]

OUTPUT_ROOT_ENV = "DKTANH_OUTPUT_ROOT"

_PARAM_KEYS = ("P", "alpha", "beta", "kappa", "delta")
_COMMON_KEYS = _PARAM_KEYS + (
    "preset", "out", "solver", "rel_tol", "abs_tol", "seed",
)
_COMMAND_KEYS = {
    "evolve": ("t0", "t1", "points"),
    "scan1d": ("axis", "sample_time"),
    "interferogram": ("axis1", "axis2", "observable", "sample_time"),
    "energy-map": ("axis1", "axis2", "part", "time"),
    "compare": ("t0", "t1", "points", "bar"),
    "limits": ("model", "t0", "t1", "points", "bar"),
    "verify": ("quick",),
}
_BUILTIN_DEFAULTS = {
    "alpha": 1.0,
    "beta": 0.0,
    "kappa": 0.0,
    "delta": 0.0,
    "solver": "both",
    "rel_tol": 1e-10,
    "abs_tol": 1e-10,
    "seed": 0,
    "points": 200,
    "bar": 1e-6,
    "observable": "population2",
    "part": "reE",
    "time": 0.0,
    "quick": False,
}
_FLOAT_KEYS = frozenset(
    _PARAM_KEYS + ("rel_tol", "abs_tol", "t0", "t1", "bar", "time", "sample_time")
)
_INT_KEYS = frozenset(("points", "seed"))
_BOOL_KEYS = frozenset(("quick",))


# typed failures of the numerical layers (exit code 1)
_NUMERICAL_ERRORS = (ScanError, IntegratorError, SpecFunError, DegenerateParameterError)


class ConfigError(ValueError):
    """Invalid or incomplete run configuration (exit code 2)."""


@dataclass
class RunConfig:
    """Fully resolved settings for one run; echoed verbatim in the manifest."""

    command: str
    settings: dict
    outdir: Path
    preset: str | None = None
    sources: dict = field(default_factory=dict)  # where each key came from

    def params(self) -> ModelParams:
        missing = [k for k in _PARAM_KEYS if self.settings.get(k) is None]
        if missing:
            raise ConfigError(
                f"unresolved model parameter(s): {', '.join(missing)} "
                "(supply a preset, config file entry, or flag)"
            )
        try:
            return ModelParams(*(float(self.settings[k]) for k in _PARAM_KEYS))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def require(self, *keys):
        missing = [k for k in keys if self.settings.get(k) is None]
        if missing:
            raise ConfigError(f"missing required setting(s): {', '.join(missing)}")
        return tuple(self.settings[k] for k in keys)

    def manifest_echo(self) -> dict:
        return {
            "command": self.command,
            "preset": self.preset,
            "settings": {
                k: (str(v) if isinstance(v, Path) else v)
                for k, v in sorted(self.settings.items())
            },
        }


def _coerce(key: str, raw):
    if raw is None or not isinstance(raw, str):
        return raw
    try:
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
        if key in _BOOL_KEYS:
            return raw.strip().lower() in ("1", "true", "yes", "on")
    except ValueError as exc:
        raise ConfigError(f"cannot parse value for '{key}': {raw!r}") from exc
    return raw


def parse_axis(text: str) -> AxisSpec:
    """Parse 'name:min:max:count' into an AxisSpec."""
    parts = str(text).split(":")
    if len(parts) != 4:
        raise ConfigError(
            f"axis must look like name:min:max:count, got {text!r}"
        )
    name, lo, hi, count = parts
    try:
        return AxisSpec(name, float(lo), float(hi), int(count))
    except ValueError as exc:
        raise ConfigError(f"bad axis {text!r}: {exc}") from exc


def _read_config_file(path: Path, command: str) -> dict:
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive (P vs p)
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    allowed_sections = {"common", command}
    values: dict = {}
    for section in parser.sections():
        if section not in allowed_sections and section not in _COMMAND_KEYS:
            raise ConfigError(f"unknown config section '{section}' in {path}")
        if section not in allowed_sections:
            continue  # another command's section: valid file, not our keys
        allowed = set(_COMMON_KEYS) | set(_COMMAND_KEYS[command])
        for key, raw in parser.items(section):
            if key not in allowed:
                raise ConfigError(
                    f"unknown config key '{key}' in [{section}] of {path}"
                )
            values[key] = _coerce(key, raw)
    return values


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    command = args.command
    allowed = set(_COMMON_KEYS) | set(_COMMAND_KEYS[command])

    preset_name = getattr(args, "preset", None)
    file_values: dict = {}
    if getattr(args, "config", None):
        file_values = _read_config_file(Path(args.config), command)
        if preset_name is None:
            preset_name = file_values.get("preset")

    preset_values: dict = {}
    if preset_name is not None:
        if preset_name not in PRESETS:
            raise ConfigError(
                f"unknown preset '{preset_name}' (see --help for the catalogue)"
            )
        preset_values = dict(PRESETS[preset_name].defaults)

    settings: dict = {}
    sources: dict = {}
    for key in sorted(allowed):
        if key in ("preset", "out"):
            continue
        cli_val = getattr(args, key.replace("-", "_"), None)
        if cli_val is not None:
            settings[key], sources[key] = cli_val, "flag"
        elif key in file_values:
            settings[key], sources[key] = file_values[key], "config"
        elif key in preset_values:
            settings[key], sources[key] = _coerce(key, str(preset_values[key])) if isinstance(preset_values[key], str) and key in _FLOAT_KEYS else preset_values[key], "preset"
        elif key in _BUILTIN_DEFAULTS:
            settings[key], sources[key] = _BUILTIN_DEFAULTS[key], "default"
        else:
            settings[key] = None

    out = getattr(args, "out", None) or file_values.get("out")
    if out is None:
        root = Path(os.environ.get(OUTPUT_ROOT_ENV, "runs"))
        leaf = command if preset_name is None else f"{command}-{preset_name}"
        out = root / leaf
    return RunConfig(command, settings, Path(out), preset_name, sources)


def _claim_output_dir(outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    if (outdir / "manifest.json").exists():
        raise ConfigError(
            f"output directory {outdir} already holds a run; pick another"
        )
    lock = outdir / "run.lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.close(fd)
    except FileExistsError:
        raise ConfigError(
            f"output directory {outdir} is in use by another run (run.lock present)"
        ) from None


def _release_output_dir(outdir: Path) -> None:
    try:
        (outdir / "run.lock").unlink()
    except FileNotFoundError:
        pass


# ---------------------------------------------------------------------------
# subcommand runners: each returns (manifest, files_written)
# ---------------------------------------------------------------------------


def _emit_scan(cfg: RunConfig, result: ScanResult, stem: str, image: bool):
    files = [write_csv(cfg.outdir / f"{stem}.csv", result)]
    if image:
        lo, hi = write_pgm(cfg.outdir / f"{stem}.pgm", result.values)
        result.manifest["pgm_normalization"] = {"min": lo, "max": hi}
        files.append(cfg.outdir / f"{stem}.pgm")
    return result.manifest, files


def _run_evolve(cfg: RunConfig):
    p = cfg.params()
    t0, t1, points = cfg.require("t0", "t1", "points")
    axis = AxisSpec("t", float(t0), float(t1), int(points))
    result = run_time_series(
        p, axis, solver=cfg.settings["solver"],
        rel_tol=cfg.settings["rel_tol"], abs_tol=cfg.settings["abs_tol"],
    )
    return _emit_scan(cfg, result, "series", image=False)


def _run_scan1d(cfg: RunConfig):
    p = cfg.params()
    (axis_text,) = cfg.require("axis")
    axis = parse_axis(axis_text)
    solver = cfg.settings["solver"]
    if solver == "both":
        solver = "numeric" if axis.name != "t" else "both"
    if axis.name == "t":
        result = run_time_series(
            p, axis, solver=solver,
            rel_tol=cfg.settings["rel_tol"], abs_tol=cfg.settings["abs_tol"],
        )
    else:
        result = run_param_scan(
            p, axis, solver=solver,
            rel_tol=cfg.settings["rel_tol"], abs_tol=cfg.settings["abs_tol"],
            sample_time=cfg.settings.get("sample_time"),
        )
    return _emit_scan(cfg, result, "scan", image=False)


def _run_interferogram(cfg: RunConfig):
    p = cfg.params()
    ax1_text, ax2_text = cfg.require("axis1", "axis2")
    solver = cfg.settings["solver"]
    result = run_interferogram(
        p, parse_axis(ax1_text), parse_axis(ax2_text),
        observable=cfg.settings["observable"],
        solver="numeric" if solver == "both" else solver,
        rel_tol=cfg.settings["rel_tol"], abs_tol=cfg.settings["abs_tol"],
        sample_time=cfg.settings.get("sample_time"),
    )
    return _emit_scan(cfg, result, "map", image=True)


def _run_energy_map(cfg: RunConfig):
    p = cfg.params()
    ax1_text, ax2_text = cfg.require("axis1", "axis2")
    result = run_energy_map(
        p, parse_axis(ax1_text), parse_axis(ax2_text),
        part=cfg.settings["part"], t=float(cfg.settings["time"]),
    )
    return _emit_scan(cfg, result, "map", image=True)


def _run_compare(cfg: RunConfig):
    p = cfg.params()
    t0, t1, points = cfg.require("t0", "t1", "points")
    report = run_compare(
        p, (float(t0), float(t1)), n=int(points), bar=float(cfg.settings["bar"]),
        rel_tol=cfg.settings["rel_tol"], abs_tol=cfg.settings["abs_tol"],
    )
    files = [write_compare_csv(cfg.outdir / "compare.csv", report)]
    print(
        f"compare: max deviation {report.max_deviation:.3e} "
        f"(bar {report.bar:.1e}) -> {'pass' if report.passed else 'FAIL'}"
    )
    if not report.passed:
        raise ScanError(
            f"deviation {report.max_deviation:.3e} exceeds bar {report.bar:.1e}"
        )
    return report.manifest, files


def _run_limits(cfg: RunConfig):
    p = cfg.params()
    (model,) = cfg.require("model")
    if model not in ("rabi", "lz"):
        raise ConfigError("limits --model must be 'rabi' or 'lz'")
    t0, t1, points = cfg.require("t0", "t1", "points")
    t0, t1, points = float(t0), float(t1), int(points)
    bar = float(cfg.settings["bar"])
    ts = np.linspace(t0, t1, points)
    start = time.perf_counter()
    closed = np.empty((points, 2))
    reference = np.empty((points, 2))
    for i, t in enumerate(ts):
        if model == "rabi":
            closed[i] = rabi_probabilities(t - t0, p)
            psi = (
                evolve_dense(p, IntegrationSpec(t0, t, 1e-11, 1e-11), [t], (1, 0))[0]
                if t != t0
                else np.array([1.0, 0.0])
            )
        else:
            closed[i] = lz_probabilities(t, t0, p)
            psi = (
                linear_model_evolve(p, IntegrationSpec(t0, t, 1e-11, 1e-11), (1, 0))
                if t != t0
                else np.array([1.0, 0.0])
            )
        reference[i] = np.abs(psi) ** 2
    dev = np.abs(closed - reference) / np.maximum(1.0, np.abs(reference))
    max_dev = float(dev.max())
    manifest = {
        "parameters": {k: getattr(p, k) for k in _PARAM_KEYS},
        "solver": f"limit-{model}",
        "tolerances": {"rel_tol": 1e-11, "abs_tol": 1e-11},
        "warnings": [],
        "max_deviation": max_dev,
        "bar": bar,
        "passed": bool(max_dev < bar),
        "wall_time_ms": round(1000 * (time.perf_counter() - start), 3),
    }
    if model == "lz":
        s = lz_setup(p)
        manifest["crossing_time"] = s.crossing_time
        manifest["control_parameter"] = [s.lam.real, s.lam.imag]
    lines = ["t,population1_closed,population2_closed,population1_reference,population2_reference"]
    for i, t in enumerate(ts):
        lines.append(",".join("%.12e" % v for v in (t, *closed[i], *reference[i])))
    path = cfg.outdir / "limits.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(
        f"limits[{model}]: max deviation {max_dev:.3e} (bar {bar:.1e}) "
        f"-> {'pass' if max_dev < bar else 'FAIL'}"
    )
    if max_dev >= bar:
        raise ScanError(f"deviation {max_dev:.3e} exceeds bar {bar:.1e}")
    return manifest, [path]


def _run_verify(cfg: RunConfig):
    start = time.perf_counter()
    cases = run_verify(quick=bool(cfg.settings["quick"]), seed=int(cfg.settings["seed"]))
    path = write_verify_csv(cfg.outdir / "verify.csv", cases)
    all_pass = all(c.passed for c in cases)
    for c in cases:
        print(
            f"verify {c.name:<22} max deviation {c.max_deviation:.3e} "
            f"(bar {c.bar:.1e}) -> {'pass' if c.passed else 'FAIL'}"
        )
    manifest = {
        "parameters": None,
        "solver": "verify",
        "tolerances": {"rel_tol": 1e-10, "abs_tol": 1e-10},
        "warnings": [],
        "seed": int(cfg.settings["seed"]),
        "quick": bool(cfg.settings["quick"]),
        "cases": [
            {"name": c.name, "max_deviation": c.max_deviation, "bar": c.bar,
             "passed": c.passed}
            for c in cases
        ],
        "max_deviation": max(c.max_deviation for c in cases),
        "passed": all_pass,
        "wall_time_ms": round(1000 * (time.perf_counter() - start), 3),
    }
    if not all_pass:
        raise ScanError("one or more verification cases failed")
    return manifest, [path]


_RUNNERS = {
    "evolve": _run_evolve,
    "scan1d": _run_scan1d,
    "interferogram": _run_interferogram,
    "energy-map": _run_energy_map,
    "compare": _run_compare,
    "limits": _run_limits,
    "verify": _run_verify,
}


def build_parser() -> argparse.ArgumentParser:
    epilog = (
        "presets (parameter bundles; values a source caption leaves unstated "
        "are documented choices):\n" + format_preset_table() + "\n\n"
        f"environment:\n  {OUTPUT_ROOT_ENV}  root for default output "
        "directories (default: ./runs)\n\n"
        "exit codes: 0 success, 1 numerical failure, 2 configuration error"
    )
    parser = argparse.ArgumentParser(
        prog="dktanh",
        description=(
            "Two-level tanh-sweep dynamics with a complex coupling: exact "
            "hypergeometric propagator, adaptive integrator, limiting models, "
            "and batch scans."
        ),
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--preset", help="named parameter bundle (see catalogue)")
    common.add_argument("--config", help="INI config file ([common] + per-command sections)")
    common.add_argument("-o", "--out", help="output directory (must not hold a previous run)")
    for key in _PARAM_KEYS:
        common.add_argument(f"--{key}", type=float, dest=key)
    common.add_argument("--solver", choices=("numeric", "analytic", "both"))
    common.add_argument("--rel-tol", type=float, dest="rel_tol")
    common.add_argument("--abs-tol", type=float, dest="abs_tol")
    common.add_argument("--seed", type=int)

    sp = sub.add_parser("evolve", parents=[common], help="populations along a time grid")
    sp.add_argument("--t0", type=float)
    sp.add_argument("--t1", type=float)
    sp.add_argument("--points", type=int)

    sp = sub.add_parser("scan1d", parents=[common], help="1-D sweep of t or a parameter")
    sp.add_argument("--axis", help="name:min:max:count")
    sp.add_argument("--sample-time", type=float, dest="sample_time")

    sp = sub.add_parser("interferogram", parents=[common], help="2-D population map")
    sp.add_argument("--axis1", help="name:min:max:count (rows)")
    sp.add_argument("--axis2", help="name:min:max:count (columns)")
    sp.add_argument("--observable", choices=("population1", "population2"))
    sp.add_argument("--sample-time", type=float, dest="sample_time")

    sp = sub.add_parser("energy-map", parents=[common], help="Re/Im energy or zone map")
    sp.add_argument("--axis1", help="name:min:max:count (rows)")
    sp.add_argument("--axis2", help="name:min:max:count (columns)")
    sp.add_argument("--part", choices=("reE", "imE", "zone"))
    sp.add_argument("--time", type=float, help="observation time for the map")

    sp = sub.add_parser("compare", parents=[common], help="analytic vs numeric populations")
    sp.add_argument("--t0", type=float)
    sp.add_argument("--t1", type=float)
    sp.add_argument("--points", type=int)
    sp.add_argument("--bar", type=float, help="pass/fail deviation bar")

    sp = sub.add_parser("limits", parents=[common], help="Rabi / Landau-Zener closed forms vs reference")
    sp.add_argument("--model", choices=("rabi", "lz"))
    sp.add_argument("--t0", type=float)
    sp.add_argument("--t1", type=float)
    sp.add_argument("--points", type=int)
    sp.add_argument("--bar", type=float)

    sp = sub.add_parser("verify", parents=[common], help="run the oracle-equivalence suite")
    sp.add_argument("--quick", action="store_const", const=True, default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 on --help; pass both through
        return int(exc.code or 0)

    outdir = None
    try:
        cfg = _resolve_config(args)
        _claim_output_dir(cfg.outdir)
        outdir = cfg.outdir
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    manifest: dict = {}
    try:
        try:
            manifest, files = _RUNNERS[cfg.command](cfg)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except _NUMERICAL_ERRORS + (ArithmeticError,) as exc:
            error = str(exc)
            if not isinstance(exc, _NUMERICAL_ERRORS):
                # a bare OverflowError says only "math range error": name it
                error = f"{type(exc).__name__}: {error}"
            manifest.setdefault("warnings", [])
            manifest["error"] = error
            manifest["config"] = cfg.manifest_echo()
            write_manifest(cfg.outdir / "manifest.json", manifest)
            print(f"numerical failure: {error}", file=sys.stderr)
            return 1
        manifest["config"] = cfg.manifest_echo()
        write_manifest(cfg.outdir / "manifest.json", manifest)
        for f in files + [cfg.outdir / "manifest.json"]:
            print(f"wrote {f}")
        return 0
    finally:
        if outdir is not None:
            _release_output_dir(outdir)


if __name__ == "__main__":
    raise SystemExit(main())
