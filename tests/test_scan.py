import json
from dataclasses import replace

import numpy as np
import pytest

from dktanh import scan
from dktanh.model import (
    ModelParams,
    Zone,
    asymptotic_window,
    classify_zone,
    detuning,
    eigenenergies,
)
from dktanh.propagator import analytic_propagator
from dktanh.scan import (
    AxisSpec,
    ScanError,
    _analytic_params,
    _check_finite,
    run_compare,
    run_energy_map,
    run_interferogram,
    run_param_scan,
    run_time_series,
    scaled_deviation,
    write_compare_csv,
    write_csv,
    write_manifest,
    write_pgm,
)
from dktanh.specfun import ConvergenceError

FIG2_LOSSY = ModelParams(P=8, alpha=1, beta=0, kappa=5, delta=1)


class TestAxisSpec:
    def test_valid(self):
        ax = AxisSpec("delta", 0.0, 2.0, 5)
        assert np.allclose(ax.grid(), [0, 0.5, 1, 1.5, 2])

    def test_bad_name(self):
        with pytest.raises(ValueError):
            AxisSpec("phi", 0, 1, 5)

    def test_count_minimum(self):
        with pytest.raises(ValueError):
            AxisSpec("t", 0, 1, 1)

    def test_ordering(self):
        with pytest.raises(ValueError):
            AxisSpec("t", 1, 0, 5)

    def test_alpha_must_stay_positive(self):
        with pytest.raises(ValueError):
            AxisSpec("alpha", -1.0, 2.0, 5)
        AxisSpec("alpha", 0.5, 2.0, 5)  # fine


class TestTimeSeries:
    def test_decoupled_run_has_empty_second_level(self):
        p = ModelParams(P=8, alpha=1, beta=0, kappa=0, delta=0)
        res = run_time_series(p, AxisSpec("t", -5, 5, 21), solver="numeric")
        cols = res.manifest["columns"]
        assert cols == ["population1", "population2"]
        assert np.allclose(res.values[:, 1], 0.0, atol=1e-20)
        assert np.allclose(res.values[:, 0], 1.0, atol=1e-9)

    def test_both_solvers_agree_on_fig2(self):
        res = run_time_series(FIG2_LOSSY, AxisSpec("t", -10, 10, 60), solver="both")
        assert res.manifest["max_deviation"] < 1e-6
        assert "deviation" in res.manifest["columns"]

    def test_requires_time_axis(self):
        with pytest.raises(ValueError):
            run_time_series(FIG2_LOSSY, AxisSpec("delta", 0, 1, 5))


class TestParamScan:
    def test_high_shift_exceeds_one(self):
        p = ModelParams(P=8, alpha=1, beta=0, kappa=10, delta=1)
        res = run_param_scan(p, AxisSpec("delta", 0.5, 2.0, 6), solver="numeric")
        assert res.values.max() > 1.0

    def test_sample_time_recorded(self):
        p = ModelParams(P=4, alpha=1, beta=0, kappa=1, delta=0)
        res = run_param_scan(
            p, AxisSpec("kappa", 0.5, 1.5, 3), solver="numeric", sample_time=0.0
        )
        assert res.manifest["sample_time"] == 0.0


class TestInterferogram:
    def test_smoke_grid(self):
        res = run_interferogram(
            FIG2_LOSSY,
            AxisSpec("t", -2, 2, 2),
            AxisSpec("delta", 0, 1, 2),
            rel_tol=1e-8,
            abs_tol=1e-8,
        )
        assert res.values.shape == (2, 2)
        assert np.all(np.isfinite(res.values))

    def test_orientation_row_major_in_axis1(self):
        # values index as [i_ax1, j_ax2]; the trace starts at the saturated
        # window start (-10 here), not the first plotted time
        res = run_interferogram(
            FIG2_LOSSY,
            AxisSpec("t", -8, 0, 5),
            AxisSpec("delta", 0, 1, 3),
            rel_tol=1e-9,
            abs_tol=1e-9,
        )
        from dktanh.integrator import IntegrationSpec, evolve

        p = ModelParams(P=8, alpha=1, beta=0, kappa=5, delta=0.5)
        psi = evolve(p, IntegrationSpec(-10, -4, 1e-9, 1e-9), (1, 0))
        assert res.values[2, 1] == pytest.approx(abs(psi[1]) ** 2, rel=1e-6)

    def test_coupling_sign_symmetry(self):
        # delta -> -delta mirrors the experiment: it equals the delta > 0 run
        # started in the other level with the populations swapped (checked
        # against the integrator; the two half-spaces carry the same maps up
        # to that relabelling)
        from dktanh.integrator import IntegrationSpec, evolve, populations

        spec = IntegrationSpec(-6, 3, 1e-11, 1e-11)
        for delta in (0.3, 0.8):
            p_plus = ModelParams(P=4, alpha=1, beta=0, kappa=2, delta=delta)
            p_minus = ModelParams(P=4, alpha=1, beta=0, kappa=2, delta=-delta)
            minus_from_1 = populations(evolve(p_minus, spec, (1, 0)))
            plus_from_2 = populations(evolve(p_plus, spec, (0, 1)))
            assert minus_from_1[0] == pytest.approx(plus_from_2[1], rel=1e-8)
            assert minus_from_1[1] == pytest.approx(plus_from_2[0], rel=1e-8)

    def test_rejects_same_axes(self):
        with pytest.raises(ValueError):
            run_interferogram(FIG2_LOSSY, AxisSpec("t", 0, 1, 2), AxisSpec("t", 0, 2, 2))

    def test_fig4_map_exceeds_one(self):
        p = ModelParams(P=8, alpha=1, beta=7, kappa=5, delta=1)
        res = run_interferogram(
            p, AxisSpec("t", -17, 3, 9), AxisSpec("kappa", 0, 10, 5),
            rel_tol=1e-9, abs_tol=1e-9,
        )
        assert res.values.max() > 1.0


class TestEnergyMap:
    def test_lossless_column_has_no_imaginary_part(self):
        p = ModelParams(P=8, alpha=1, beta=0, kappa=5, delta=0)
        res = run_energy_map(
            p, AxisSpec("delta", 0, 2, 5), AxisSpec("beta", -2, 2, 5), part="imE", t=0.0
        )
        # delta = 0 row: real spectrum
        assert np.allclose(res.values[0, :], 0.0, atol=1e-14)

    def test_zone_map_matches_closed_condition(self):
        p = ModelParams(P=3, alpha=1, beta=0, kappa=0, delta=0)
        ax1 = AxisSpec("delta", 0.1, 6, 40)
        ax2 = AxisSpec("beta", -3, 3, 21)
        res = run_energy_map(p, ax1, ax2, part="zone", t=0.0)
        for i, d in enumerate(ax1.grid()):
            for j, b in enumerate(ax2.grid()):
                xi = float(detuning(0.0, ModelParams(3, 1, b, 0, d)))
                expected = 1.0 if d * d >= xi * xi else 0.0
                if abs(d * d - xi * xi) > 1e-9:
                    assert res.values[i, j] == expected

    def test_real_part_matches_eigendecomposition(self):
        p = ModelParams(P=8, alpha=2, beta=0, kappa=3, delta=1)
        ax1 = AxisSpec("delta", 0, 4, 7)
        ax2 = AxisSpec("beta", -4, 4, 9)
        res = run_energy_map(p, ax1, ax2, part="reE", t=0.7)
        for i, d in enumerate(ax1.grid()):
            for j, b in enumerate(ax2.grid()):
                ref = eigenenergies(0.7, ModelParams(8, 2, b, 3, d)).e_plus.real
                assert abs(res.values[i, j] - ref) < 1e-12

    def test_zone_content_sanity(self):
        assert classify_zone(0.0, ModelParams(P=0, alpha=1, kappa=0, delta=1)).label \
            is Zone.FORBIDDEN


class TestCompare:
    def test_fig2_passes_default_bar(self):
        report = run_compare(FIG2_LOSSY, (-10, 10), n=50)
        assert report.passed
        assert report.max_deviation < 1e-6
        assert report.manifest["max_deviation"] == report.max_deviation

    def test_n_validation(self):
        with pytest.raises(ValueError):
            run_compare(FIG2_LOSSY, (-1, 1), n=1)

    def test_csv_deviation_column_is_the_report_deviation(self, tmp_path):
        report = run_compare(FIG2_LOSSY, (-10, 10), n=20)
        assert report.deviation.shape == (20,)
        assert report.deviation.max() == report.max_deviation
        for i in range(20):
            assert report.deviation[i] == scaled_deviation(
                report.analytic[i], report.numeric[i])
        path = write_compare_csv(tmp_path / "compare.csv", report)
        rows = path.read_text().splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == [
            "%.12e" % d for d in report.deviation]


class TestAnalyticSolver:
    def test_interferogram_solvers_agree(self):
        ax1 = AxisSpec("t", -6, 2, 5)
        ax2 = AxisSpec("delta", 0.5, 1.5, 3)
        num = run_interferogram(FIG2_LOSSY, ax1, ax2, solver="numeric",
                                rel_tol=1e-10, abs_tol=1e-10)
        ana = run_interferogram(FIG2_LOSSY, ax1, ax2, solver="analytic")
        assert scaled_deviation(ana.values, num.values) < 1e-6

    def test_degenerate_parameters_perturbed_with_warning(self):
        # P ~ 0 with no coupling puts the hypergeometric index on an integer;
        # the scan layer nudges delta and says so
        p = ModelParams(P=1e-12, alpha=1, beta=0, kappa=0, delta=0)
        res = run_time_series(p, AxisSpec("t", -1, 1, 5), solver="analytic")
        assert any("perturbed" in w for w in res.manifest["warnings"])
        assert np.all(np.isfinite(res.values))


def _cell_by_cell_map(p, ax1, ax2, comp=1, sample_time=None):
    """The analytic parametric map one scalar propagator call per cell."""
    manifest = {"warnings": []}
    values = np.empty((ax1.count, ax2.count))
    for i, v1 in enumerate(ax1.grid()):
        for j, v2 in enumerate(ax2.grid()):
            pij = replace(p, **{ax1.name: float(v1), ax2.name: float(v2)})
            w0, w1 = asymptotic_window(pij)
            t_end = w1 if sample_time is None else sample_time
            pij, hp = _analytic_params(pij, manifest)
            U = analytic_propagator(t_end, w0, pij, hp)
            values[i, j] = abs(U[comp, 0]) ** 2
    return values, manifest["warnings"]


class TestBetaRows:
    @pytest.mark.parametrize("ax1, ax2", [
        (AxisSpec("delta", 0, 2, 9), AxisSpec("beta", -5, 5, 17)),
        (AxisSpec("beta", -5, 5, 17), AxisSpec("kappa", 0, 10, 5)),
    ])
    def test_batched_map_equals_cell_by_cell_map(self, ax1, ax2):
        p = ModelParams(P=8, alpha=1, beta=0, kappa=10, delta=1)
        res = run_interferogram(p, ax1, ax2, solver="analytic")
        ref, warnings = _cell_by_cell_map(p, ax1, ax2)
        assert scaled_deviation(res.values, ref) < 1e-13
        assert res.manifest["warnings"] == warnings == []

    @pytest.mark.parametrize("beta_first", [True, False])
    def test_degeneracy_warnings_per_cell_in_row_major_order(self, beta_first):
        # the delta = 0 row (P ~ 0, no shift) is degenerate: each of its
        # cells carries the nudge warning, as on the cell-by-cell map
        p = ModelParams(P=1e-12, alpha=1, beta=0, kappa=0, delta=0)
        deltas = AxisSpec("delta", -1, 1, 5)
        betas = AxisSpec("beta", -3, 3, 16)
        ax1, ax2 = (betas, deltas) if beta_first else (deltas, betas)
        for sample_time in (None, 0.5):
            res = run_interferogram(
                p, ax1, ax2, solver="analytic", observable="population1",
                sample_time=sample_time,
            )
            ref, warnings = _cell_by_cell_map(p, ax1, ax2, 0, sample_time)
            assert scaled_deviation(res.values, ref) < 1e-13
            assert len(warnings) == betas.count
            assert res.manifest["warnings"] == warnings


class TestFailures:
    """The first failed cell or column aborts the scan with its own cause."""

    CAUSE = "injected: series stalled"

    def _fail_on_call(self, monkeypatch, target, k):
        calls = {"n": 0}
        real = getattr(scan, target)

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == k:
                raise ConvergenceError(self.CAUSE)
            return real(*args, **kwargs)

        monkeypatch.setattr(scan, target, flaky)

    def test_one_failed_cell_names_its_cause(self, monkeypatch):
        self._fail_on_call(monkeypatch, "analytic_propagator", 57)
        with pytest.raises(ScanError, match=self.CAUSE) as info:
            run_interferogram(
                FIG2_LOSSY, AxisSpec("delta", 0.5, 1.5, 20), AxisSpec("kappa", 1, 6, 20),
                solver="analytic",
            )
        assert "(2,16)" in str(info.value)

    def test_one_failed_column_names_its_cause(self, monkeypatch):
        self._fail_on_call(monkeypatch, "analytic_propagator", 3)
        with pytest.raises(ScanError, match=self.CAUSE) as info:
            run_interferogram(
                FIG2_LOSSY, AxisSpec("t", -5, 5, 20), AxisSpec("delta", 0.5, 1.5, 4),
                solver="analytic",
            )
        assert "delta=" in str(info.value)

    def test_one_failed_beta_row_names_its_cause(self, monkeypatch):
        self._fail_on_call(monkeypatch, "sweep_propagator", 2)
        with pytest.raises(ScanError, match=self.CAUSE):
            run_interferogram(
                FIG2_LOSSY, AxisSpec("delta", 0.5, 1.5, 3), AxisSpec("beta", -2, 2, 16),
                solver="analytic",
            )

    def test_one_failed_scan_point_names_its_cause(self, monkeypatch):
        self._fail_on_call(monkeypatch, "analytic_propagator", 4)
        with pytest.raises(ScanError, match=self.CAUSE):
            run_param_scan(FIG2_LOSSY, AxisSpec("kappa", 1, 6, 50), solver="analytic")


class TestManifestSchema:
    def test_required_keys_present(self):
        res = run_time_series(FIG2_LOSSY, AxisSpec("t", -2, 2, 8), solver="both")
        for key in ("parameters", "solver", "tolerances", "warnings",
                    "max_deviation", "wall_time_ms", "timestamp_utc"):
            assert key in res.manifest


class TestScaledDeviation:
    def test_absolute_for_small_values(self):
        assert scaled_deviation(0.5, 0.25) == pytest.approx(0.25)

    def test_relative_for_large_values(self):
        assert scaled_deviation(1010.0, 1000.0) == pytest.approx(0.01)


class TestWriters:
    def test_csv_2d_row_major(self, tmp_path):
        p = ModelParams(P=1, alpha=1, beta=0, kappa=0, delta=0)
        res = run_energy_map(
            p, AxisSpec("delta", 0, 1, 2), AxisSpec("beta", 0, 1, 3), part="reE"
        )
        path = write_csv(tmp_path / "map.csv", res)
        lines = path.read_text().splitlines()
        assert lines[0] == "axis1,axis2,value"
        assert len(lines) == 1 + 2 * 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0
        # second row advances axis2 first (row-major in axis1)
        second = lines[2].split(",")
        assert float(second[0]) == 0.0 and float(second[1]) == 0.5
        assert all("e" in cell for cell in first)

    def test_csv_deterministic(self, tmp_path):
        res = run_energy_map(
            ModelParams(P=2, alpha=1, beta=0, kappa=1, delta=0.5),
            AxisSpec("delta", 0, 1, 4),
            AxisSpec("beta", -1, 1, 4),
            part="imE",
        )
        a = write_csv(tmp_path / "a.csv", res).read_bytes()
        b = write_csv(tmp_path / "b.csv", res).read_bytes()
        assert a == b

    def test_pgm_format(self, tmp_path):
        values = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        lo, hi = write_pgm(tmp_path / "img.pgm", values)
        raw = (tmp_path / "img.pgm").read_bytes()
        assert raw.startswith(b"P5\n3 2\n255\n")
        pixels = raw.split(b"255\n", 1)[1]
        assert len(pixels) == 6
        assert pixels[0] == 0 and pixels[-1] == 255
        assert (lo, hi) == (0.0, 5.0)

    def test_pgm_constant_matrix(self, tmp_path):
        write_pgm(tmp_path / "flat.pgm", np.ones((2, 2)))
        raw = (tmp_path / "flat.pgm").read_bytes()
        assert raw.endswith(bytes(4))

    def test_manifest_roundtrip_sorted(self, tmp_path):
        path = write_manifest(tmp_path / "m.json", {"b": 1, "a": {"z": [1, 2]}})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"b": 1, "a": {"z": [1, 2]}}


def _reference_csv(result):
    """The per-number writer the row formatting replaced."""
    fmt = "%.12e"
    lines = ["axis1,axis2,value"]
    if len(result.axes) == 1:
        g = result.axes[0].grid()
        vals = np.atleast_2d(result.values)
        if vals.shape[0] != g.size:
            vals = vals.T
        for i in range(g.size):
            for j in range(vals.shape[1]):
                lines.append(",".join(fmt % v for v in (g[i], float(j), vals[i, j])))
    else:
        g1, g2 = result.axes[0].grid(), result.axes[1].grid()
        for i in range(g1.size):
            for j in range(g2.size):
                lines.append(
                    ",".join(fmt % v for v in (g1[i], g2[j], result.values[i, j]))
                )
    return ("\n".join(lines) + "\n").encode("utf-8")


def _reference_compare_csv(report):
    lines = ["t,population1_analytic,population2_analytic,population1_numeric,"
             "population2_numeric,deviation"]
    for i, t in enumerate(report.times):
        row = (t, *report.analytic[i], *report.numeric[i], report.deviation[i])
        lines.append(",".join("%.12e" % v for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestWriterBytes:
    def test_map_and_series_bytes_match_the_reference_writer(self, tmp_path):
        rng = np.random.default_rng(4)
        results = [
            run_energy_map(FIG2_LOSSY, AxisSpec("delta", 0, 4, 7),
                           AxisSpec("beta", -10, 10, 5), part="reE"),
            run_time_series(FIG2_LOSSY, AxisSpec("t", -5, 5, 9), solver="analytic"),
            run_param_scan(FIG2_LOSSY, AxisSpec("kappa", 1, 6, 4), solver="analytic"),
        ]
        # magnitudes and signs the physical outputs rarely show
        odd = replace(results[0], values=rng.normal(size=(7, 5)) * 10.0 ** rng.integers(
            -300, 300, size=(7, 5)))
        odd.values[0, :3] = (-0.0, 1e-320, 0.1)
        for k, res in enumerate(results + [odd]):
            path = write_csv(tmp_path / f"{k}.csv", res)
            assert path.read_bytes() == _reference_csv(res)

    def test_compare_bytes_match_the_reference_writer(self, tmp_path):
        report = run_compare(FIG2_LOSSY, (-10, 10), n=25)
        path = write_compare_csv(tmp_path / "compare.csv", report)
        assert path.read_bytes() == _reference_compare_csv(report)


def test_nonfinite_values_are_hard_errors():
    manifest = {"warnings": []}
    with pytest.raises(ScanError):
        _check_finite(np.array([1.0, np.nan]), manifest)
    assert manifest["warnings"]
