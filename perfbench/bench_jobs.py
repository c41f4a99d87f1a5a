"""Seeded job lists for the three benchmark workloads.

Every job is one ``dktanh`` command line, shaped like a figure preset of the
CLI catalogue.  The seed perturbs only values that the preset notes mark as
unstated in the source (delta and beta, scalar or as an axis range), and only
by small amounts; grid shapes, time windows, P, kappa and alpha keep their
preset values, so the work in a run does not depend on the seed.

Job kinds decide which throughput a job counts toward: ``map`` (cells of an
interferogram or energy map), ``series`` (points of evolve, compare and
scan1d) and ``check`` (points of a limits closed-form-vs-reference check).
"""

from __future__ import annotations

import random

WORKLOADS = ("analytic-tgrid", "analytic-pgrid", "oracle")

# Perturbation sizes: an absolute shift for beta (and for a beta axis), a
# relative scale for delta (and for the upper end of a delta axis).
BETA_SHIFT = 0.05
DELTA_SCALE = 0.02

# Preset -> the unstated values the seed may move, with the preset note that
# marks each one (tests check the notes against the preset catalogue).
UNSTATED = {
    "fig2a1": {"beta": "beta unstated in source", "delta": "delta stated only as positive"},
    "fig2a2": {"beta": "beta unstated in source"},
    "fig2a3": {"delta_axis": "delta axis range unstated in source"},
    "fig3b1": {"beta": "all parameters unstated in source"},
    "fig3b2": {"beta": "all parameters unstated in source"},
    "fig3b3": {"delta_axis": "axis ranges unstated in source",
               "beta_axis": "axis ranges unstated in source"},
    "fig3b4": {"delta_axis": "axis ranges unstated in source",
               "beta_axis": "axis ranges unstated in source"},
    "fig7a": {"delta": "delta stated only as positive"},
    "fig7b": {"delta_axis": "delta axis range unstated in source"},
    "fig8a": {"delta": "delta stated only as positive"},
}

# Frames that show one figure share one draw, so fig3b3/fig3b4 keep the same
# (delta, beta) grid and differ only in the observable.
_FAMILY = {"fig3b4": "fig3b3"}

# Preset values the generator reads.  They mirror dktanh.presets; the tests
# fail if the two drift apart.
PRESET_VALUES = {
    "fig2a1": {"beta": 0.0, "delta": 1.0, "points": 200},
    "fig2a2": {"beta": 0.0, "points": 200},
    "fig2a3": {"axis1": "t:-10:10:201", "axis2": "delta:0:2:81"},
    "fig3b1": {"beta": 0.0, "axis": "delta:0:2:101"},
    "fig3b2": {"beta": 3.0, "axis": "delta:0:2:101"},
    "fig3b3": {"axis1": "delta:0:2:81", "axis2": "beta:-5:5:81"},
    "fig3b4": {"axis1": "delta:0:2:81", "axis2": "beta:-5:5:81"},
    "fig4c1": {"axis": "kappa:0:10:101"},
    "fig4c3": {"axis1": "t:-17:3:201", "axis2": "kappa:0:10:81", "points": 200},
    "fig4c4": {"axis1": "t:-17:3:201", "axis2": "kappa:0:10:81"},
    "fig5a": {"axis1": "delta:0:4:161", "axis2": "beta:-10:10:161"},
    "fig5b": {"axis1": "delta:0:4:161", "axis2": "beta:-10:10:161"},
    "fig5c": {"axis1": "delta:0:4:161", "axis2": "beta:-10:10:161"},
    "fig5d": {"axis1": "delta:0:4:161", "axis2": "beta:-10:10:161"},
    "fig6": {"axis1": "delta:0:30:161", "axis2": "beta:0:20:161"},
    "fig7a": {"delta": 0.3, "points": 400},
    "fig7b": {"axis1": "t:0:40:201", "axis2": "delta:0:0.6:81"},
    "fig8a": {"delta": 0.3, "points": 200},
    "fig8b": {"axis1": "t:-4:4:201", "axis2": "kappa:0:1:81"},
}

# Reduced shapes for the oracle: the full numeric fig2a3 map (81 delta
# columns) and limits at full point counts take tens of seconds each.
ORACLE_MAP_COLUMNS = 3
ORACLE_SCAN_POINTS = 3
ORACLE_LIMITS_POINTS = {"fig7a": 40, "fig8a": 24}

_KIND = {
    "interferogram": "map",
    "energy-map": "map",
    "evolve": "series",
    "compare": "series",
    "scan1d": "series",
    "limits": "check",
}


def _fmt(v: float) -> str:
    return repr(round(float(v), 9))


def parse_axis(text: str) -> tuple[str, float, float, int]:
    """Split a CLI axis 'name:min:max:count'."""
    name, lo, hi, count = text.split(":")
    return name, float(lo), float(hi), int(count)


def _axis_text(name, lo, hi, count) -> str:
    return f"{name}:{_fmt(lo)}:{_fmt(hi)}:{count}"


def perturbation(preset: str, seed: int) -> dict:
    """Seeded values for the unstated settings of ``preset`` (flag -> text)."""
    marks = UNSTATED.get(preset, {})
    base = PRESET_VALUES[preset]
    rng = random.Random(f"{seed}:{_FAMILY.get(preset, preset)}")
    u_beta, u_delta = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
    out = {}
    if "beta" in marks:
        out["--beta"] = _fmt(base["beta"] + BETA_SHIFT * u_beta)
    if "delta" in marks:
        out["--delta"] = _fmt(base["delta"] * (1.0 + DELTA_SCALE * u_delta))
    for key in ("axis1", "axis2", "axis"):
        if key not in base:
            continue
        name, lo, hi, count = parse_axis(base[key])
        if name == "delta" and "delta_axis" in marks:
            out[f"--{key}"] = _axis_text(name, lo, hi * (1.0 + DELTA_SCALE * u_delta), count)
        elif name == "beta" and "beta_axis" in marks:
            shift = BETA_SHIFT * u_beta
            out[f"--{key}"] = _axis_text(name, lo + shift, hi + shift, count)
    return out


def _cells(command: str, argv: list[str], preset: str) -> int:
    settings = dict(PRESET_VALUES[preset])
    for flag, value in zip(argv, argv[1:]):
        if flag.startswith("--"):
            settings[flag[2:]] = value
    if command in ("interferogram", "energy-map"):
        return parse_axis(settings["axis1"])[3] * parse_axis(settings["axis2"])[3]
    if command == "scan1d":
        return parse_axis(settings["axis"])[3]
    return int(settings["points"])


def _job(command: str, preset: str, seed: int, *extra: str, tag: str = "") -> dict:
    flags = dict(perturbation(preset, seed))
    for flag, value in zip(extra[::2], extra[1::2]):
        flags[flag] = value
    argv = [command, "--preset", preset]
    for flag, value in flags.items():
        argv += [flag, value]
    name = f"{command}-{preset}{tag}"
    return {"name": name, "kind": _KIND[command], "cells": _cells(command, argv, preset),
            "argv": argv}


def generate(workload: str, seed: int) -> list[dict]:
    """The closed-loop job list of one pass of ``workload`` for ``seed``."""
    if workload == "analytic-tgrid":
        jobs = [_job("interferogram", name, seed)
                for name in ("fig4c3", "fig4c4", "fig8b", "fig7b")]
        jobs += [_job("evolve", name, seed, "--solver", "analytic")
                 for name in ("fig2a1", "fig2a2", "fig7a", "fig8a")]
    elif workload == "analytic-pgrid":
        jobs = [_job("interferogram", name, seed) for name in ("fig3b3", "fig3b4")]
        jobs += [_job("energy-map", name, seed)
                 for name in ("fig5a", "fig5b", "fig5c", "fig5d", "fig6")]
        jobs += [_job("scan1d", name, seed) for name in ("fig3b1", "fig3b2", "fig4c1")]
    elif workload == "oracle":
        jobs = [_job("compare", name, seed) for name in ("fig2a1", "fig2a2", "fig4c3")]
        name, lo, hi, _ = parse_axis(PRESET_VALUES["fig3b1"]["axis"])
        jobs.append(_job("scan1d", "fig3b1", seed, "--solver", "numeric",
                         "--axis", _axis_text(name, lo, hi, ORACLE_SCAN_POINTS),
                         tag="-numeric"))
        name, lo, hi, _ = parse_axis(perturbation("fig2a3", seed)["--axis2"])
        jobs.append(_job("interferogram", "fig2a3", seed,
                         "--axis2", _axis_text(name, lo, hi, ORACLE_MAP_COLUMNS)))
        jobs += [_job("limits", name, seed, "--points", str(points))
                 for name, points in ORACLE_LIMITS_POINTS.items()]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return jobs
