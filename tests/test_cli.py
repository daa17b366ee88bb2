import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mzi_lab import LossModel, optimal_csv_ratio
from mzi_lab.cli import build_parser, figure_presets, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestPoint:
    def test_lossless_tmsv_qfi(self, capsys):
        code, out = run_cli(
            capsys,
            "point", "--scheme", "qfi", "--resource", "tmsv",
            "--nbar", "10", "--loss", "symmetric", "--rate", "0",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["delta2phi"]) == pytest.approx(1.0 / 240.0, rel=1e-9)
        assert rows[0]["beats_snl"] == "true"

    def test_tmsv_qfi_busy_rate_beats_snl(self, capsys):
        code, out = run_cli(
            capsys,
            "point", "--scheme", "qfi", "--resource", "tmsv",
            "--nbar", "10", "--loss", "symmetric", "--rate", "0.2",
        )
        rows = parse_csv(out)
        assert float(rows[0]["delta2phi"]) < 0.05

    def test_parity_csv_moderate_loss_loses(self, capsys):
        code, out = run_cli(
            capsys,
            "point", "--scheme", "parity", "--resource", "csv",
            "--nbar", "10", "--loss", "symmetric", "--rate", "0.15",
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["beats_snl"] == "false"

    def test_lossless_coherent_qfi_ties_the_snl(self, capsys):
        code, out = run_cli(capsys, "point", "--scheme", "qfi", "--resource", "coherent", "--rate", "0")
        assert code == 0
        row = parse_csv(out)[0]
        assert row["delta2phi"] == row["snl"] == "5.00000000000e-02"
        assert row["beats_snl"] == "false"

    def test_jsonl_matches_csv_values(self, capsys):
        args = [
            "point", "--scheme", "qfi", "--resource", "csv",
            "--nbar", "10", "--loss", "one-arm", "--rate", "0.1",
        ]
        _, out_csv = run_cli(capsys, *args)
        _, out_json = run_cli(capsys, *args, "--format", "jsonl")
        row_csv = parse_csv(out_csv)[0]
        row_json = json.loads(out_json)
        assert float(row_csv["delta2phi"]) == row_json["delta2phi"]
        assert float(row_csv["mu"]) == row_json["mu"]

    @pytest.mark.parametrize("nbar", ["0", "-1"])
    def test_non_positive_nbar_is_usage_error(self, capsys, nbar):
        code = main(["point", "--scheme", "qfi", "--resource", "tmsv", "--nbar", nbar])
        assert code == 2
        assert "nbar" in capsys.readouterr().err

    def test_fixed_mu_flag(self, capsys):
        _, out = run_cli(
            capsys,
            "point", "--scheme", "single-hd", "--resource", "csv",
            "--nbar", "4", "--loss", "symmetric", "--rate", "0.1", "--fixed-mu",
        )
        row = parse_csv(out)[0]
        # mu pinned at the lossless optimum rather than re-optimized
        lossless = run_cli(
            capsys,
            "point", "--scheme", "single-hd", "--resource", "csv",
            "--nbar", "4", "--loss", "symmetric", "--rate", "0",
        )[1]
        assert row["mu"] == parse_csv(lossless)[0]["mu"]

    def test_fixed_mu_is_one_rule_for_point_and_sweep(self, capsys):
        config = ["--scheme", "single-hd", "--resource", "csv", "--nbar", "4", "--loss", "symmetric"]
        _, swept = run_cli(capsys, "sweep", "--variable", "loss-rate", "--lo", "0", "--hi", "0.1",
                           "--points", "2", "--fixed-mu", *config)
        _, pinned = run_cli(capsys, "point", "--rate", "0.1", "--fixed-mu", *config)
        _, lossless = run_cli(capsys, "point", "--rate", "0", *config)
        mus = {row["mu"] for row in parse_csv(swept) + parse_csv(pinned) + parse_csv(lossless)}
        assert len(mus) == 1

    def test_fixed_mu_pins_the_qfi_csv_ratio(self, capsys):
        # At nbar = 1 and loss rate 0.5 the lossy optimum (about 0.46) lies
        # far from the lossless one (about 1), so a per-point search shows.
        _, out = run_cli(
            capsys,
            "point", "--scheme", "qfi", "--resource", "csv", "--nbar", "1", "--rate", "0.5", "--fixed-mu",
        )
        assert parse_csv(out)[0]["mu"] == f"{optimal_csv_ratio(1.0, LossModel.lossless())[0]:.11e}"

    def test_explicit_mu_takes_precedence_over_fixed_mu(self, capsys):
        _, out = run_cli(
            capsys,
            "point", "--scheme", "qfi", "--resource", "csv", "--nbar", "1", "--rate", "0.5",
            "--fixed-mu", "--mu", "0.25",
        )
        assert float(parse_csv(out)[0]["mu"]) == 0.25


class TestSweep:
    def test_variable_sweep_shape_and_determinism(self, capsys):
        args = [
            "sweep", "--variable", "nbar", "--lo", "1", "--hi", "50", "--points", "50",
            "--rate", "0.2", "--scheme", "qfi", "--resource", "tmsv",
        ]
        code, out1 = run_cli(capsys, *args)
        assert code == 0
        rows = parse_csv(out1)
        assert len(rows) == 50
        assert {row["scheme"] for row in rows} == {"qfi"}
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2

    def test_figure_preset_2a(self, capsys):
        code, out = run_cli(capsys, "sweep", "--figure", "2a")
        assert code == 0
        rows = parse_csv(out)
        # 21 loss-rate points, three resources
        assert len(rows) == 21 * 3
        assert {row["resource"] for row in rows} == {"csv", "tmsv", "coherent"}
        tmsv0 = next(r for r in rows if r["resource"] == "tmsv" and float(r["value"]) == 0.0)
        assert float(tmsv0["delta2phi"]) == pytest.approx(1.0 / 240.0, rel=1e-8)

    def test_figure_preset_a1_phases_lie_in_one_period(self, capsys):
        code, out = run_cli(capsys, "sweep", "--figure", "a1")
        assert code == 0
        phases = [float(row["phi_star"]) for row in parse_csv(out) if row["scheme"] != "qfi"]
        assert phases and all(0.0 <= phi < 2.0 * math.pi for phi in phases)

    def test_sweep_requires_mode(self, capsys):
        code, _ = run_cli(capsys, "sweep")
        assert code == 2

    @pytest.mark.parametrize("lo, hi", [("1", "inf"), ("-inf", "1")])
    def test_non_finite_bound_is_usage_error(self, capsys, lo, hi):
        code = main(["sweep", "--variable", "nbar", f"--lo={lo}", f"--hi={hi}", "--points", "3",
                     "--scheme", "qfi", "--resource", "tmsv"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "finite" in captured.err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        args = [
            "sweep", "--variable", "loss-rate", "--lo", "0", "--hi", "0.4", "--points", "3",
            "--scheme", "qfi", "--resource", "tmsv", "--out", str(target),
        ]
        code, out = run_cli(capsys, *args)
        assert code == 0
        assert out == ""
        content = target.read_bytes()
        assert content.endswith(b"\n")
        assert b"\r" not in content
        assert len(parse_csv(content.decode())) == 3

    def test_thread_env_does_not_change_output(self, capsys, monkeypatch):
        args = [
            "sweep", "--variable", "loss-rate", "--lo", "0", "--hi", "0.5", "--points", "12",
            "--scheme", "qfi", "--resource", "csv", "--loss", "one-arm",
        ]
        monkeypatch.setenv("MZI_LAB_THREADS", "1")
        _, serial = run_cli(capsys, *args)
        monkeypatch.setenv("MZI_LAB_THREADS", "3")
        _, parallel = run_cli(capsys, *args)
        assert serial == parallel

    def test_non_integer_thread_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("MZI_LAB_THREADS", "x")
        code = main(["sweep", "--variable", "loss-rate", "--points", "2", "--scheme", "qfi", "--resource", "tmsv"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "MZI_LAB_THREADS" in err

    def test_non_positive_nbar_rows_fail_alone(self, capsys):
        code, out = run_cli(
            capsys,
            "sweep", "--variable", "nbar", "--lo", "-1", "--hi", "1", "--points", "3",
            "--scheme", "qfi", "--resource", "tmsv",
        )
        assert code == 0
        rows = parse_csv(out)
        assert [row["status"] for row in rows] == ["InvalidArgument", "InvalidArgument", "ok"]
        assert [row["snl"] for row in rows[:2]] == ["nan", "nan"]
        _, single = run_cli(
            capsys,
            "sweep", "--variable", "nbar", "--lo", "1", "--hi", "2", "--points", "2",
            "--scheme", "qfi", "--resource", "tmsv",
        )
        assert out.splitlines()[3] == single.splitlines()[1]

    def test_jsonl_writes_non_finite_values_as_null(self, capsys):
        code, out = run_cli(
            capsys,
            "sweep", "--variable", "loss-rate", "--points", "2", "--nbar", "inf",
            "--scheme", "qfi", "--resource", "tmsv", "--format", "jsonl",
        )

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        rows = [json.loads(line, parse_constant=reject) for line in out.splitlines()]
        assert code == 0
        assert len(rows) == 2
        assert all(row["nbar"] is None for row in rows)


class TestThreshold:
    def test_qfi_tmsv_symmetric(self, capsys):
        code, out = run_cli(
            capsys,
            "threshold", "--scheme", "qfi", "--resource", "tmsv", "--nbar", "10",
            "--loss", "symmetric",
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert row["status"] == "crossed"
        assert float(row["loss_rate"]) == pytest.approx(1.0 - (10.0 + math.sqrt(188.0)) / 44.0, abs=2e-3)

    def test_no_crossing_reported(self, capsys):
        code, out = run_cli(
            capsys,
            "threshold", "--scheme", "single-hd", "--resource", "coherent", "--nbar", "10",
            "--loss", "symmetric",
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert row["status"] == "no-crossing"
        assert row["loss_rate"] == "nan"

    @pytest.mark.parametrize("nbar", ["1", "7", "10", "50"])
    def test_coherent_qfi_ties_the_snl(self, capsys, nbar):
        # A coherent state's exact bound meets the SNL to roundoff at zero loss.
        code, out = run_cli(capsys, "threshold", "--scheme", "qfi", "--resource", "coherent", "--nbar", nbar)
        assert code == 0
        row = parse_csv(out)[0]
        assert row["status"] == "no-crossing"
        assert row["loss_rate"] == "nan"

    def test_zero_tolerance_returns_promptly(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "mzi_lab.cli", "threshold", "--scheme", "qfi", "--resource", "tmsv", "--tol", "0"],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: tol") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("extra", [[], ["--resource", "csv", "--fixed-mu"]])
    def test_failure_at_zero_loss_is_an_error(self, capsys, extra):
        code = main(["threshold", "--scheme", "qfi", "--resource", "tmsv", "--nbar", "1e300", *extra])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestValidate:
    def test_all_checks_pass(self, capsys):
        code, out = run_cli(capsys, "validate")
        assert code == 0
        assert out.splitlines()[-1] == "46/46 checks passed (tolerance 1e-06, cutoff 40)"

    @pytest.mark.parametrize("cutoff, expected", [("0", 2), ("-3", 2), ("1", 1), ("2", 1)])
    def test_small_cutoff_ends_with_an_exit_code(self, capsys, cutoff, expected):
        code = main(["validate", "--cutoff", cutoff])
        captured = capsys.readouterr()
        assert code == expected
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        if expected == 2:
            assert f"cutoff must be at least 1, got {cutoff}" in captured.err

    def test_cutoff_above_100_exits_2(self, capsys):
        code = main(["validate", "--cutoff", "101"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: cutoff must be at most 100, got 101\n"


class TestNonFiniteAndHugeEnergy:
    # 1e-320 is finite and > 0, but its shot-noise limit 1/(2 nbar) overflows.
    @pytest.mark.parametrize("nbar", ["inf", "nan", "1e-320"])
    @pytest.mark.parametrize(
        "command",
        [
            ["point", "--scheme", "parity", "--resource", "csv"],
            ["point", "--scheme", "single-hd", "--resource", "tmsv"],
            ["threshold", "--scheme", "qfi", "--resource", "tmsv"],
        ],
    )
    def test_usage_error(self, capsys, command, nbar):
        code = main(command + ["--nbar", nbar])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "nbar" in captured.err

    @pytest.mark.parametrize("nbar", ["inf", "nan", "1e-320"])
    def test_sweep_rows_fail_alone(self, capsys, nbar):
        code, out = run_cli(
            capsys,
            "sweep", "--variable", "loss-rate", "--lo", "0", "--hi", "0.2", "--points", "2",
            "--nbar", nbar, "--scheme", "qfi", "parity", "--resource", "csv", "tmsv",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 8
        assert {row["status"] for row in rows} == {"InvalidArgument"}
        assert {row["snl"] for row in rows} == {"nan"}

    def test_huge_energy_qfi_ends_with_an_exit_code(self, capsys):
        code = main(["point", "--scheme", "qfi", "--resource", "csv", "--nbar", "1e300"])
        err = capsys.readouterr().err
        assert code in (1, 2)
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("scheme", ["single-hd", "double-hd"])
    def test_huge_energy_homodyne_optimum_is_an_error(self, capsys, scheme):
        # Roundoff drives the optimized error to 0 or below here; that must
        # not print as a result that beats the shot-noise limit.
        code = main(["point", "--scheme", scheme, "--resource", "csv", "--nbar", "1e300"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        # Every squeezing fraction but the blind mu = 1 fails in roundoff: the
        # failure is numeric, not a scheme that is degenerate everywhere.
        assert captured.err.startswith("error: no squeezing fraction gave a usable error (")
        assert "failed numerically: phase optimum" in captured.err and "degenerate" not in captured.err

    @pytest.mark.parametrize("scheme", ["single-hd", "double-hd"])
    def test_unresolved_tmsv_phase_optimum_is_an_error(self, capsys, scheme):
        # Past n̄ ≈ 2e5 roundoff in the stationary-phase polynomial hides the optimum.
        code = main(["point", "--scheme", scheme, "--resource", "tmsv", "--nbar", "1e16", "--rate", "0.2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: phase optimum is unresolved") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("scheme", ["single-hd", "double-hd"])
    def test_huge_energy_csv_threshold_is_an_error(self, scheme):
        # At mu = 0 the double-homodyne error ties the SNL to roundoff; that
        # probe must not settle the zero-loss step that every other fraction fails.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "mzi_lab.cli", "threshold", "--scheme", scheme, "--resource", "csv",
             "--nbar", "1e300"],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: no squeezing fraction gave a usable error (")
        assert proc.stderr.count("\n") == 1

    def test_huge_energy_coherent_qfi_is_exact(self, capsys):
        # The moment formula resolves a coherent state at any energy.
        code = main(["point", "--scheme", "qfi", "--resource", "coherent", "--nbar", "1e300"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        row = parse_csv(captured.out)[0]
        assert row["delta2phi"] == "5.00000000000e-301"
        assert row["beats_snl"] == "false"

    def test_huge_energy_homodyne_sweep_rows_fail(self, capsys):
        code, out = run_cli(
            capsys,
            "sweep", "--variable", "loss-rate", "--lo", "0", "--hi", "0.2", "--points", "2",
            "--nbar", "1e300", "--scheme", "single-hd", "double-hd", "--resource", "csv",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 4
        assert "ok" not in {row["status"] for row in rows}

    @pytest.mark.parametrize("resource", ["csv", "tmsv", "coherent"])
    @pytest.mark.parametrize("scheme", ["qfi", "parity", "single-hd", "double-hd"])
    def test_huge_energy_point_prints_no_warning(self, scheme, resource):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "mzi_lab.cli", "point", "--scheme", scheme, "--resource", resource,
             "--nbar", "1e300"],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode in (0, 1)
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


class TestParsing:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["point", "--scheme", "qfi", "--resource", "tmsv", "--rate", "-1e-3"],
             "loss rate must lie in [0, 1], got -0.001"),
            (["point", "--scheme", "qfi", "--resource", "tmsv", "--nbar", "-inf"],
             "nbar must be finite and > 0, got -inf"),
            (["point", "--scheme", "single-hd", "--resource", "csv", "--mu", "-1E-3"],
             "CSV needs a squeezing fraction mu in [0, 1], got -0.001"),
            (["threshold", "--scheme", "qfi", "--resource", "tmsv", "--tol", "-1e-3"],
             "tol must be a finite number > 0, got -0.001"),
            (["sweep", "--variable", "nbar", "--lo", "-inf", "--hi", "1"], "sweep bounds must be finite, got [-inf, 1.0]"),
            (["sweep", "--variable", "nbar", "--hi", "-1e-3"], "need lo < hi, got [0.0, -0.001]"),
        ],
    )
    def test_negative_float_is_a_value_for_the_library_to_check(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_bad_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["point", "--scheme", "sorcery"])
        assert excinfo.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([])
        assert excinfo.value.code == 2

    def test_figure_presets_cover_documented_panels(self):
        presets = figure_presets()
        expected = {"2a", "2b", "2c", "2d", "2e", "2f", "a1", "a2"}
        for fig in ("3", "4", "5", "6"):
            expected |= {fig + panel for panel in "abcd"}
        assert set(presets) == expected
