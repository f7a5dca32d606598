"""End-to-end CLI behavior: subcommands, outputs, exit codes, determinism."""

import dataclasses
import json

import numpy as np
import pytest

from ptcsim import cli
from ptcsim.cli import main

ARCH_SMALL = ["--tiles", "2", "--cores", "3", "-k", "4"]


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(path):
    """Parse an artifact, rejecting the NaN/Infinity constants json.loads allows."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(path.read_text(), parse_constant=reject)


def assert_one_line_exit_2(code, err, out_dir):
    assert code == 2
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert not out_dir.exists()


class TestSimulate:
    def test_ideal_run_reports_tiny_error(self, tmp_path, capsys):
        code, out, _ = run(
            ["simulate", *ARCH_SMALL, "--workload", "rand:16x12x16:seed1",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "relative error" in out
        report = json.loads((tmp_path / "simulate.json").read_text())
        assert report["schema_version"] == 1
        assert report["relative_error_frobenius"] < 1e-6
        assert report["arch"]["r_tiles"] == 2  # resolved config embedded
        z = np.loadtxt(tmp_path / "z_hat.csv", delimiter=",")
        assert z.shape == (16, 16)

    def test_ideal_report_is_strict_json(self, tmp_path, capsys):
        code, _, _ = run(
            ["simulate", *ARCH_SMALL, "--workload", "rand:4x4x4", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        stats = strict_json(tmp_path / "simulate.json")["stats"]
        assert stats["alpha_x"] is None and stats["alpha_y"] is None

    def test_noise_mode_reports_are_byte_identical(self, tmp_path, capsys):
        args = ["simulate", *ARCH_SMALL, "--workload", "rand:8x6x8:seed2",
                "--mode", "quantized+noise", "--sigma", "0.01", "--seed", "7"]
        run([*args, "--out", str(tmp_path / "a")], capsys)
        run([*args, "--out", str(tmp_path / "b")], capsys)
        assert (tmp_path / "a/simulate.json").read_bytes() == (
            tmp_path / "b/simulate.json"
        ).read_bytes()
        assert (tmp_path / "a/z_hat.csv").read_bytes() == (
            tmp_path / "b/z_hat.csv"
        ).read_bytes()

    def test_csv_workload_files(self, tmp_path, capsys):
        x = np.random.default_rng(0).uniform(-1, 1, (4, 3))
        y = np.random.default_rng(1).uniform(-1, 1, (3, 5))
        np.savetxt(tmp_path / "x.csv", x, delimiter=",")
        np.savetxt(tmp_path / "y.csv", y, delimiter=",")
        code, _, _ = run(
            ["simulate", *ARCH_SMALL,
             "--workload", f"{tmp_path}/x.csv,{tmp_path}/y.csv",
             "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 0
        z = np.loadtxt(tmp_path / "o" / "z_hat.csv", delimiter=",")
        assert np.allclose(z, x @ y, atol=1e-9)

    def test_missing_catalog_exits_2(self, tmp_path, capsys):
        code, _, err = run(
            ["simulate", "--workload", "rand:4x4x4",
             "--catalog", str(tmp_path / "none.json"), "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "catalog not found" in err

    def test_bad_workload_spec_exits_2(self, tmp_path, capsys):
        code, _, err = run(
            ["simulate", "--workload", "rand:4x4", "--out", str(tmp_path)], capsys
        )
        assert code == 2
        assert "workload" in err

    def test_negative_sigma_exits_2(self, tmp_path, capsys):
        code, _, _ = run(
            ["simulate", "--workload", "rand:4x4x4", "--sigma", "-1",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-inf"])
    def test_non_finite_sigma_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch, sigma):
        monkeypatch.setattr(cli, "simulate_gemm", None)
        code, _, err = run(
            ["simulate", "--workload", "rand:4x4x4", "--mode", "quantized+noise",
             f"--sigma={sigma}", "--out", str(tmp_path / "o")],
            capsys,
        )
        assert_one_line_exit_2(code, err, tmp_path / "o")
        assert "sigma must be finite and >= 0" in err

    @pytest.mark.parametrize("clock", ["nan", "inf", "-inf", "1e300"])
    @pytest.mark.parametrize("command", ["simulate", "cost"])
    def test_nonfinite_clock_exits_2(self, tmp_path, capsys, command, clock):
        args = [command, f"--clock-ghz={clock}", "--out", str(tmp_path / "o")]
        if command == "simulate":
            args += ["--workload", "rand:4x4x4"]
        code, _, err = run(args, capsys)
        assert_one_line_exit_2(code, err, tmp_path / "o")
        assert "clock_hz must be finite" in err

    @pytest.mark.parametrize(
        "mode, flag, value",
        [
            ("quantized", "--bits-in", "9"),
            ("quantized+noise", "--bits-in", "1"),
            ("quantized+noise+adc", "--bits-out", "0"),
            ("quantized+noise+adc", "--bits-out", "13"),
        ],
    )
    def test_out_of_range_bit_width_exits_2(self, tmp_path, capsys, mode, flag, value):
        code, _, err = run(
            ["simulate", *ARCH_SMALL, "--workload", "rand:4x4x4", "--mode", mode,
             flag, value, "--out", str(tmp_path / "o")],
            capsys,
        )
        assert_one_line_exit_2(code, err, tmp_path / "o")
        assert f"{flag[2:].replace('-', '_')} must be in" in err


class TestCost:
    def test_headline_report(self, tmp_path, capsys):
        code, out, _ = run(
            ["cost", "--include-memory", "--out", str(tmp_path)], capsys
        )
        assert code == 0
        assert "368.64 TOPS" in out
        report = strict_json(tmp_path / "cost.json")
        assert report["area_mm2"]["total"] == pytest.approx(321, rel=0.10)
        assert report["power_w"]["total"] == pytest.approx(17.5, rel=0.20)
        assert (tmp_path / "cost.txt").exists()
        pareto = (tmp_path / "pareto.csv").read_text().strip().splitlines()
        assert pareto[0] == "name,category,tops_per_w,tops_per_mm2"
        assert pareto[-1].startswith("this_work_")

    def test_arch_file_overrides_flags(self, tmp_path, capsys):
        arch_file = tmp_path / "arch.json"
        arch_file.write_text(json.dumps({"r_tiles": 1, "c_cores": 1, "k": 8}))
        code, _, _ = run(
            ["cost", "--arch", str(arch_file), "--out", str(tmp_path)], capsys
        )
        assert code == 0
        report = json.loads((tmp_path / "cost.json").read_text())
        assert report["arch"]["k"] == 8 and report["arch"]["r_tiles"] == 1

    @pytest.mark.parametrize("command", ["simulate", "cost"])
    @pytest.mark.parametrize("field, value", [("c_cores", 2.5), ("k", True), ("t_int", "60")])
    def test_non_integer_arch_field_exits_2(self, tmp_path, capsys, command, field, value):
        arch_file = tmp_path / "arch.json"
        arch_file.write_text(json.dumps({field: value}))
        args = [command, "--arch", str(arch_file), "--out", str(tmp_path / "o")]
        if command == "simulate":
            args += ["--workload", "rand:4x4x4"]
        code, _, err = run(args, capsys)
        assert_one_line_exit_2(code, err, tmp_path / "o")
        assert f"{field} must be an integer" in err

    @pytest.mark.parametrize("command", ["simulate", "cost"])
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("clock_hz", True, "clock_hz must be a number"),
            ("clock_hz", "5e9", "clock_hz must be a number"),
            ("share_readout", "no", "share_readout must be true or false"),
            ("share_y_modulators", 1, "share_y_modulators must be true or false"),
            ("pipelined_readout", None, "pipelined_readout must be true or false"),
        ],
    )
    def test_mistyped_arch_field_exits_2(self, tmp_path, capsys, command, field, value, message):
        arch_file = tmp_path / "arch.json"
        arch_file.write_text(json.dumps({field: value}))
        args = [command, "--arch", str(arch_file), "--out", str(tmp_path / "o")]
        if command == "simulate":
            args += ["--workload", "rand:4x4x4"]
        code, _, err = run(args, capsys)
        assert_one_line_exit_2(code, err, tmp_path / "o")
        assert message in err

    def test_bad_arch_file_exits_2(self, tmp_path, capsys):
        arch_file = tmp_path / "arch.json"
        arch_file.write_text("{not json")
        code, _, _ = run(
            ["cost", "--arch", str(arch_file), "--out", str(tmp_path)], capsys
        )
        assert code == 2


class TestSweep:
    def test_k_range_syntax_monotone_csv(self, tmp_path, capsys):
        code, _, _ = run(
            ["sweep", "--axis", "K", "--values", "2..64", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 7  # header + K in {2,4,8,16,32,64}
        assert strict_json(tmp_path / "sweep.json")
        areas = [float(line.split(",")[3]) for line in lines[1:]]
        powers = [float(line.split(",")[4]) for line in lines[1:]]
        assert areas == sorted(areas) and powers == sorted(powers)

    def test_variant_sweep_prints_ratio_lines(self, tmp_path, capsys):
        code, out, _ = run(
            ["sweep", "--axis", "variant", "--values", "foundry,custom-sl",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "foundry vs custom_sl" in out
        assert "7.18x area" in out and "8.89x power" in out

    def test_missing_values_exits_2(self, tmp_path, capsys):
        code, _, _ = run(["sweep", "--axis", "K", "--out", str(tmp_path)], capsys)
        assert code == 2


class TestRobustness:
    def test_quick_run_and_reproducibility(self, tmp_path, capsys):
        args = ["robustness", *ARCH_SMALL[:-1], "8", "--trials", "1",
                "--seed", "3", "--sigmas", "0,0.02"]
        code, _, _ = run([*args, "--out", str(tmp_path / "a")], capsys)
        assert code == 0
        run([*args, "--out", str(tmp_path / "b")], capsys)
        assert (tmp_path / "a/robustness.json").read_bytes() == (
            tmp_path / "b/robustness.json"
        ).read_bytes()
        assert strict_json(tmp_path / "a/robustness.json")
        csv_lines = (tmp_path / "a/robustness.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "sigma,mean_accuracy,std_accuracy"
        assert len(csv_lines) == 3

    def test_config_file_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "bits": 6, "sigma_train": 0.0, "trials": 1, "epochs": 5,
            "sigmas_eval": [0.0],
            "arch": {"r_tiles": 1, "c_cores": 2, "k": 8},
        }))
        code, _, _ = run(
            ["robustness", "--config", str(cfg), "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 0
        report = json.loads((tmp_path / "o/robustness.json").read_text())
        assert report["arch"]["k"] == 8 and report["trials"] == 1

    def test_negative_sigma_exits_2(self, tmp_path, capsys):
        code, _, _ = run(
            ["robustness", "--sigmas", "-0.1", "--out", str(tmp_path)], capsys
        )
        assert code == 2

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"arch": {"bogus": 1}}, "bad arch config"),
            ({"arch": [6, 6, 32]}, "bad arch config"),
            ({"trials": 1, "sigma": 0.1}, "unknown keys ['sigma']"),
            ([1, 2], "expected a JSON object"),
            ({"trials": "2", "epochs": 1}, "trials must be an integer, got '2'"),
            ({"sigmas_eval": "0.1", "epochs": 1}, "sigmas_eval must be a list of finite numbers"),
            ({"sigmas_eval": [0.0, "0.1"]}, "sigmas_eval must be a list of finite numbers"),
            ({"epochs": 1.5}, "epochs must be an integer"),
            ({"seed": True}, "seed must be an integer"),
            ({"bits": "6"}, "bits must be an integer"),
            ({"sigma_train": "0.01"}, "sigma_train must be a finite number"),
            ({"sigma_train": float("nan")}, "sigma_train must be a finite number"),
            ({"catalog": 3}, "catalog must be a catalog name"),
            ({"trials": 0, "epochs": 1}, "trials must be >= 1"),
            ({"bits": 1, "epochs": 1}, "bits must be >= 2"),
        ],
    )
    def test_bad_config_exits_2(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run(
            ["robustness", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys
        )
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize(
        "args, message",
        [
            (["--bits-in", "12"], "bits must be at most 8, or >= 16"),
            (["--bits-in", "16"], "bits_in must be in [2, 8]"),
            (["--config", {"bits": 9}], "bits must be at most 8, or >= 16"),
            (["--config", {"arch": {"bits_in": 9}}], "bits_in must be in [2, 8]"),
        ],
    )
    def test_bit_widths_checked_before_training(self, tmp_path, capsys, monkeypatch, args, message):
        def no_training(*_):
            raise AssertionError("train ran before the bit widths were checked")

        monkeypatch.setattr(cli, "train", no_training)
        if args[0] == "--config":
            cfg = tmp_path / "exp.json"
            cfg.write_text(json.dumps(args[1]))
            args = ["--config", str(cfg)]
        code, _, err = run(["robustness", *args, "--out", str(tmp_path / "o")], capsys)
        assert_one_line_exit_2(code, err, tmp_path / "o")
        assert message in err

    @pytest.mark.parametrize("sigmas", ["0,abc", "nan", "0,inf"])
    def test_bad_sigmas_flag_exits_2(self, tmp_path, capsys, sigmas):
        code, _, err = run(["robustness", "--sigmas", sigmas, "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()


class TestCatalogValidate:
    def test_valid_builtin_catalog(self, capsys):
        from ptcsim import builtin_catalog_path

        code, out, _ = run(
            ["catalog-validate", str(builtin_catalog_path("custom-sl"))], capsys
        )
        assert code == 0
        assert "OK" in out

    def test_user_catalog_may_name_itself(self, tmp_path, capsys):
        from ptcsim import builtin_catalog_path, dump_catalog, load_builtin_catalog

        mine = tmp_path / "my_tech.json"
        cat = load_builtin_catalog("custom-sl")
        dump_catalog(dataclasses.replace(cat, name="my_tech"), mine)
        code, out, _ = run(["catalog-validate", str(mine)], capsys)
        assert code == 0
        assert "variant my_tech" in out
        reports = {}
        for name, path in (("mine", mine), ("builtin", builtin_catalog_path("custom-sl"))):
            code, _, _ = run(["cost", "--catalog", str(path), "--out", str(tmp_path / name)], capsys)
            assert code == 0
            reports[name] = json.loads((tmp_path / name / "cost.json").read_text())
        assert reports["mine"].pop("variant") == "my_tech"
        assert reports["builtin"].pop("variant") == "custom_sl"
        assert reports["mine"] == reports["builtin"]

    def test_invalid_catalog_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1, "variant": "foundry", "devices": ['
                       '{"kind": "dac", "name": "d"}]}')
        code, _, err = run(["catalog-validate", str(bad)], capsys)
        assert code == 2
        assert "missing required field" in err
