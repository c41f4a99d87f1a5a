import json

import numpy as np
import pytest

from dktanh.cli import ConfigError, main, parse_axis
from dktanh.presets import PRESETS


def read_manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text())


class TestParseAxis:
    def test_valid(self):
        ax = parse_axis("delta:0:2:11")
        assert (ax.name, ax.min, ax.max, ax.count) == ("delta", 0.0, 2.0, 11)

    def test_malformed(self):
        with pytest.raises(ConfigError):
            parse_axis("delta:0:2")
        with pytest.raises(ConfigError):
            parse_axis("delta:a:b:11")


class TestExitCodes:
    def test_unknown_preset_is_config_error(self, tmp_path, capsys):
        rc = main(["evolve", "--preset", "nope", "-o", str(tmp_path / "r")])
        assert rc == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_missing_parameters_is_config_error(self, tmp_path, capsys):
        rc = main(["evolve", "-o", str(tmp_path / "r")])
        assert rc == 2
        assert "P" in capsys.readouterr().err

    def test_numerical_failure_writes_manifest(self, tmp_path, capsys):
        out = tmp_path / "r"
        rc = main([
            "compare", "--preset", "fig2a2", "--points", "20",
            "--bar", "1e-20", "-o", str(out),
        ])
        assert rc == 1
        manifest = read_manifest(out)
        assert "error" in manifest

    def test_gamma_overflow_exits_one_with_manifest(self, tmp_path, capsys):
        # at P/alpha = 300 the gamma reflection overflows in cmath.sin
        out = tmp_path / "r"
        rc = main([
            "evolve", "--solver", "analytic", "--P", "300", "--kappa", "5",
            "--delta", "1", "--t0", "-10", "--t1", "10", "-o", str(out),
        ])
        assert rc == 1
        manifest = read_manifest(out)
        assert manifest["error"].startswith("OverflowError")
        assert manifest["config"]["settings"]["P"] == 300.0
        assert "numerical failure" in capsys.readouterr().err
        assert not (out / "run.lock").exists()

    def test_workers_option_is_gone(self, tmp_path, capsys):
        rc = main([
            "interferogram", "--preset", "fig3b3", "--workers", "2",
            "-o", str(tmp_path / "r"),
        ])
        assert rc == 2
        assert "--workers" in capsys.readouterr().err

    def test_success_exit_zero(self, tmp_path):
        rc = main([
            "evolve", "--preset", "fig2a2", "--points", "20",
            "--t0", "-2", "--t1", "2", "--solver", "numeric",
            "-o", str(tmp_path / "r"),
        ])
        assert rc == 0


class TestPrecedence:
    def test_flag_overrides_preset(self, tmp_path):
        out = tmp_path / "r"
        rc = main([
            "evolve", "--preset", "fig2a2", "--delta", "1.0",
            "--t0", "-2", "--t1", "2", "--points", "10",
            "--solver", "numeric", "-o", str(out),
        ])
        assert rc == 0
        manifest = read_manifest(out)
        assert manifest["parameters"]["delta"] == 1.0  # preset had 0.0

    def test_config_file_used_and_overridden(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[common]\nP = 8\nalpha = 1\nkappa = 5\ndelta = 0.5\n"
            "[evolve]\nt0 = -2\nt1 = 2\npoints = 10\n"
        )
        out = tmp_path / "r"
        rc = main([
            "evolve", "--config", str(cfg), "--delta", "0.25",
            "--solver", "numeric", "-o", str(out),
        ])
        assert rc == 0
        manifest = read_manifest(out)
        assert manifest["parameters"]["delta"] == 0.25
        assert manifest["parameters"]["kappa"] == 5.0

    def test_unknown_config_key_names_offender(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[common]\nP = 8\nwavelength = 3\n")
        rc = main(["evolve", "--config", str(cfg), "-o", str(tmp_path / "r")])
        assert rc == 2
        assert "wavelength" in capsys.readouterr().err


class TestOutputDirectory:
    def test_refuses_reuse(self, tmp_path, capsys):
        out = tmp_path / "r"
        args = [
            "evolve", "--preset", "fig2a2", "--t0", "-1", "--t1", "1",
            "--points", "5", "--solver", "numeric", "-o", str(out),
        ]
        assert main(args) == 0
        assert main(args) == 2
        assert "already holds a run" in capsys.readouterr().err

    def test_lock_blocks_concurrent_use(self, tmp_path, capsys):
        out = tmp_path / "r"
        out.mkdir()
        (out / "run.lock").touch()
        rc = main([
            "evolve", "--preset", "fig2a2", "--t0", "-1", "--t1", "1",
            "--points", "5", "-o", str(out),
        ])
        assert rc == 2
        assert "run.lock" in capsys.readouterr().err

    def test_expected_files_written(self, tmp_path):
        out = tmp_path / "r"
        rc = main([
            "interferogram", "--preset", "fig2a3",
            "--axis1", "t:-3:3:4", "--axis2", "delta:0:1:3",
            "-o", str(out),
        ])
        assert rc == 0
        assert sorted(f.name for f in out.iterdir()) == [
            "manifest.json",
            "map.csv",
            "map.pgm",
        ]
        manifest = read_manifest(out)
        assert "pgm_normalization" in manifest
        assert manifest["config"]["preset"] == "fig2a3"


class TestHelp:
    def test_lists_subcommands_and_presets(self, capsys):
        with pytest.raises(SystemExit):
            # argparse prints help and exits inside build_parser/parse
            from dktanh.cli import build_parser

            build_parser().parse_args(["--help"])
        text = capsys.readouterr().out
        for cmd in ("evolve", "scan1d", "interferogram", "energy-map",
                    "compare", "limits", "verify"):
            assert cmd in text
        for preset in PRESETS:
            assert preset in text


class TestSubcommands:
    def test_energy_map_preset(self, tmp_path):
        out = tmp_path / "em"
        rc = main([
            "energy-map", "--preset", "fig5c",
            "--axis1", "delta:0:4:9", "--axis2", "beta:-10:10:9",
            "-o", str(out),
        ])
        assert rc == 0
        values = np.loadtxt(out / "map.csv", delimiter=",", skiprows=1)
        assert values.shape == (81, 3)

    def test_limits_rabi_preset(self, tmp_path):
        out = tmp_path / "rb"
        rc = main(["limits", "--preset", "fig7a", "--points", "12", "-o", str(out)])
        assert rc == 0
        manifest = read_manifest(out)
        assert manifest["passed"] is True
        assert manifest["max_deviation"] < 1e-8

    def test_scan1d_param_axis(self, tmp_path):
        out = tmp_path / "sc"
        rc = main([
            "scan1d", "--preset", "fig3b1", "--axis", "delta:0:1:4",
            "-o", str(out),
        ])
        assert rc == 0
        lines = (out / "scan.csv").read_text().splitlines()
        assert lines[0] == "axis1,axis2,value"
        assert len(lines) == 1 + 4 * 2  # two population columns

    def test_verify_quick(self, tmp_path):
        out = tmp_path / "v"
        rc = main(["verify", "--quick", "--seed", "3", "-o", str(out)])
        assert rc == 0
        manifest = read_manifest(out)
        assert manifest["passed"] is True
        assert (out / "verify.csv").exists()
