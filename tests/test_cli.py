"""End-to-end CLI behavior: subcommands, outputs, exit codes, determinism."""

import contextlib
import dataclasses
import inspect
import io
import json
import math
import os
import re
import shlex
import signal
import subprocess
import sys
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptcsim import (
    MODES,
    ArchConfig,
    GemmWorkload,
    MlpConfig,
    NoiseModel,
    builtin_catalog_path,
    cli,
    costs,
    load_builtin_catalog,
    simulate_gemm,
)
from ptcsim.catalog import _FIELD_RULES, _KIND_RULES
from ptcsim.cli import main

ARCH_SMALL = ["--tiles", "2", "--cores", "3", "-k", "4"]
SRC = Path(__file__).resolve().parents[1] / "src"
README = (SRC.parent / "README.md").read_text()
#: The `ptcsim ...` lines of README's Quick start block, each split into its arguments.
README_COMMANDS = [
    shlex.split(line)[1:]
    for line in re.search(r"## Quick start\n\n```sh\n(.*?)```", README, re.S)[1].splitlines()
    if line.startswith("ptcsim ")
]


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

    def test_negative_zero_sigma_reported_as_zero(self, tmp_path, capsys):
        # -0.0 passes the sigma >= 0 check; the report gives it as 0.0.
        args = ["simulate", *ARCH_SMALL, "--workload", "rand:4x4x4", "--mode", "quantized+noise", "--sigma=-0.0"]
        code, _, _ = run([*args, "--out", str(tmp_path)], capsys)
        assert code == 0
        assert str(strict_json(tmp_path / "simulate.json")["sigma"]) == "0.0"

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

    @pytest.mark.parametrize("form", ["npz", "csv"])
    def test_file_workload_gives_simulate_gemms_result(self, tmp_path, capsys, form):
        rng = np.random.default_rng(4)
        x, y = rng.uniform(-1, 1, (5, 7)), rng.uniform(-1, 1, (7, 3))
        if form == "npz":
            np.savez(tmp_path / "w.npz", x=x, y=y)
            spec = f"{tmp_path}/w.npz"
        else:  # savetxt's default %.18e reads back the same float64
            np.savetxt(tmp_path / "x.csv", x, delimiter=",")
            np.savetxt(tmp_path / "y.csv", y, delimiter=",")
            spec = f"{tmp_path}/x.csv,{tmp_path}/y.csv"
        mode = "quantized+noise+adc"
        code, _, err = run(
            ["simulate", *ARCH_SMALL, "--workload", spec, "--mode", mode, "--sigma", "0.02", "--seed", "3",
             "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 0, err
        want, _ = simulate_gemm(GemmWorkload(x, y), ArchConfig(r_tiles=2, c_cores=3, k=4), load_builtin_catalog(
            "custom-sl"), nm=NoiseModel(sigma=0.02, seed=3), mode=mode)
        assert np.array_equal(np.loadtxt(tmp_path / "o" / "z_hat.csv", delimiter=",", ndmin=2), want)

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
        assert f"sigma must be a finite number, got {float(sigma)}" in err

    @pytest.mark.parametrize("clock", ["nan", "inf", "-inf", "1e300"])
    @pytest.mark.parametrize("command", ["simulate", "cost"])
    def test_nonfinite_clock_exits_2(self, tmp_path, capsys, command, clock):
        args = [command, f"--clock-ghz={clock}", "--out", str(tmp_path / "o")]
        if command == "simulate":
            args += ["--workload", "rand:4x4x4"]
        code, _, err = run(args, capsys)
        assert_one_line_exit_2(code, err, tmp_path / "o")
        assert "clock_hz must be a finite number" in err

    @pytest.mark.parametrize(
        "mode, flag, value, message",
        [
            ("quantized", "--bits-in", "9", "bits_in must be in [2, 8] in mode 'quantized', got 9"),
            ("quantized+noise", "--bits-in", "1", "bits_in must be in [2, 8] in mode 'quantized+noise', got 1"),
            ("quantized+noise+adc", "--bits-out", "0", "bits_out must be >= 1, got 0"),  # no converter has 0 bits
            ("quantized+noise+adc", "--bits-out", "1", "bits_out must be in [2, 12] in mode 'quantized+noise+adc', got 1"),
            ("quantized+noise+adc", "--bits-out", "13", "bits_out must be in [2, 12] in mode 'quantized+noise+adc', got 13"),
        ],
    )
    def test_out_of_range_bit_width_exits_2(self, tmp_path, capsys, mode, flag, value, message):
        code, _, err = run(
            ["simulate", *ARCH_SMALL, "--workload", "rand:4x4x4", "--mode", mode,
             flag, value, "--out", str(tmp_path / "o")],
            capsys,
        )
        assert_one_line_exit_2(code, err, tmp_path / "o")
        assert err == f"error: {message}\n"


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

    def test_unpriced_component_prints_a_dash(self, tmp_path, capsys):
        # Each breakdown leaves some components out: their cells read "-",
        # right-aligned in the column's 14 characters, never nan.
        code, out, _ = run(["cost", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert "nan" not in out
        report = strict_json(tmp_path / "cost.json")
        rows = {line[:16].strip(): line[16:] for line in out.split("\n\n")[1].splitlines()[1:]}
        for column, part in enumerate((report["area_mm2"], report["power_w"])):
            unpriced = [key for key in rows if key not in part]
            assert len(unpriced) == 2
            for key in unpriced:
                assert rows[key][14 * column : 14 * column + 14] == f"{'-':>14}"

    def test_huge_power_keeps_its_columns(self, tmp_path, capsys):
        # An integrator of 1e200 W: its power, the total and the wall power
        # print in exponent form, 14 characters at most, so every line of
        # the table keeps the width it has with the builtin catalog, on
        # stdout and in cost.txt alike.
        doc = json.loads(builtin_catalog_path("custom-sl").read_text())
        next(e for e in doc["devices"] if e["kind"] == "integrator")["power_w"] = 1e200
        (tmp_path / "integrator.json").write_text(json.dumps(doc))
        _, want, _ = run(["cost", "--out", str(tmp_path / "builtin")], capsys)
        code, out, _ = run(["cost", "--catalog", str(tmp_path / "integrator.json"), "--out", str(tmp_path / "o")], capsys)
        assert code == 0
        text = (tmp_path / "o/cost.txt").read_text()
        assert out.startswith(text)
        table = text.split("\n\n")[1]  # the component rows and the total
        assert [len(line) for line in table.splitlines()] == [len(line) for line in want.split("\n\n")[1].splitlines()]
        report = strict_json(tmp_path / "o/cost.json")
        lines = {line.split(":")[0].split()[0]: line for line in text.splitlines() if line}
        for name, value in [("integrator", report["power_w"]["integrator"]), ("total", report["power_w"]["total"])]:
            assert lines[name].endswith(f" {value:.6e}")
        assert lines["wall"] == f"wall power:          {report['wall_power_w']:.6e} W"
        assert report["wall_power_w"] > 1e200

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
            ("clock_hz", True, "clock_hz must be a finite number, got True"),
            ("clock_hz", "5e9", "clock_hz must be a finite number, got '5e9'"),
            ("share_readout", True, "unexpected keyword argument 'share_readout'"),
            ("share_y_modulators", False, "unexpected keyword argument 'share_y_modulators'"),
            ("pipelined_readout", True, "unexpected keyword argument 'pipelined_readout'"),
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

    def test_variant_sweep_rejects_a_catalog_file(self, tmp_path, capsys):
        # The variant axis prices the built-in catalogs it names, so a --catalog
        # it would not read is refused, even one that loads.
        path = builtin_catalog_path("foundry")
        code, _, err = run(["sweep", "--axis", "variant", "--catalog", str(path), "--out", str(tmp_path / "o")], capsys)
        assert_one_line_exit_2(code, err, tmp_path / "o")
        assert err.startswith("error: --catalog applies to --axis K or T")

    @pytest.mark.parametrize(
        "axis, values, message", [("K", "4,0", "k must be >= 1, got 0"), ("T", "0", "t_int must be >= 1, got 0")]
    )
    def test_bad_point_names_field_and_value(self, tmp_path, capsys, axis, values, message):
        code, _, err = run(["sweep", "--axis", axis, "--values", values, "--out", str(tmp_path / "o")], capsys)
        assert_one_line_exit_2(code, err, tmp_path / "o")
        assert err == f"error: {message}\n"

    def test_missing_values_exits_2(self, tmp_path, capsys):
        code, _, _ = run(["sweep", "--axis", "K", "--out", str(tmp_path)], capsys)
        assert code == 2

    def test_each_point_is_priced_once(self, tmp_path, capsys, monkeypatch):
        # The resolve step builds the reports, and the run step only writes them.
        counters = {name: mock.Mock(wraps=getattr(costs, name)) for name in ("area_estimate", "laser_power_required")}
        for name, counter in counters.items():
            monkeypatch.setattr(costs, name, counter)
        code, _, _ = run(["sweep", "--axis", "K", "--values", "4,8,16", "--out", str(tmp_path / "o")], capsys)
        assert code == 0
        assert {name: c.call_count for name, c in counters.items()} == {"area_estimate": 3, "laser_power_required": 3}


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

    def test_huge_sigma_keeps_its_column(self, tmp_path, capsys):
        # sigma = 1e308 prints in exponent form, as wide as the other rows;
        # its noise saturates every operand at the rail, with no warning.
        args = ["robustness", *ARCH_SMALL[:-1], "8", "--trials", "1", "--sigmas", "0,1e308", "--out", str(tmp_path)]
        code, out, err = run(args, capsys)
        assert (code, err) == (0, "")
        table = out.splitlines()[:-1]
        assert [len(line) for line in table] == [32] * 3
        assert table[1].split()[0] == "0.0000" and table[2].split()[0] == "1.00e+308"

    def test_negative_zero_sigma_reported_as_zero(self, tmp_path, capsys):
        # -0.0 passes the sigma >= 0 check; the table, robustness.json and
        # robustness.csv give it as 0.0.
        args = ["robustness", *ARCH_SMALL[:-1], "8", "--trials", "1", "--sigmas=-0.0,0.02"]
        code, out, _ = run([*args, "--out", str(tmp_path)], capsys)
        assert code == 0
        assert out.splitlines()[1].split()[0] == "0.0000"
        rows = strict_json(tmp_path / "robustness.json")["rows"]
        assert [str(row["sigma"]) for row in rows] == ["0.0", "0.02"]
        assert (tmp_path / "robustness.csv").read_text().splitlines()[1].startswith("0.0,")

    def test_negative_zero_train_sigma_reported_as_zero(self, tmp_path, capsys):
        args = ["robustness", *ARCH_SMALL[:-1], "8", "--trials", "1", "--sigmas", "0", "--train-sigma=-0.0"]
        code, _, _ = run([*args, "--out", str(tmp_path)], capsys)
        assert code == 0
        assert str(strict_json(tmp_path / "robustness.json")["train_sigma"]) == "0.0"

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

    @pytest.mark.parametrize("source", ["--arch", "--config"])
    def test_mlp_trains_at_the_resolved_arch_bits_in(self, tmp_path, capsys, source):
        # --bits-in sets only the flags' arch; an arch from a file overrides it, for the MLP too.
        arch = {"r_tiles": 1, "c_cores": 2, "k": 8, "bits_in": 4}
        doc = {"arch": arch, "epochs": 1, "trials": 1, "sigmas_eval": [0.0]} if source == "--config" else arch
        (tmp_path / "in.json").write_text(json.dumps(doc))
        args = ["robustness", source, str(tmp_path / "in.json"), "--bits-in", "6", "--trials", "1", "--sigmas", "0"]
        code, _, _ = run([*args, "--out", str(tmp_path / "o")], capsys)
        assert code == 0
        report = strict_json(tmp_path / "o/robustness.json")
        assert report["arch"]["bits_in"] == report["bits"] == 4

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
            ({"sigmas_eval": [], "epochs": 1}, "sigmas_eval must be a list of finite numbers"),
            ({"epochs": 1.5}, "epochs must be an integer"),
            ({"seed": True}, "seed must be an integer"),
            ({"bits": "6"}, "bits must be an integer"),
            ({"sigma_train": "0.01"}, "train_sigma must be a finite number"),
            ({"sigma_train": float("nan")}, "train_sigma must be a finite number"),
            pytest.param({"sigma_train": 10**400}, "train_sigma must be a finite number", id="sigma_train-10**400"),
            pytest.param({"sigmas_eval": [0.0, 10**400], "epochs": 1}, "sigmas_eval must be a list of finite numbers",
                         id="sigmas_eval-10**400"),
            ({"catalog": 3}, "catalog must be a catalog name"),
            ({"trials": 0, "epochs": 1}, "trials must be >= 1"),
            ({"bits": 1, "epochs": 1}, "bits must be >= 2"),
            ({"arch": {"pipelined_readout": True}}, "unexpected keyword argument 'pipelined_readout'"),
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
            (["--config", {"arch": {"bits_in": 9}}], "bits must be at most 8, or >= 16"),
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

    @pytest.mark.parametrize("sigmas", ["0,abc", "nan", "0,inf", ""])
    def test_bad_sigmas_flag_exits_2(self, tmp_path, capsys, sigmas):
        code, _, err = run(["robustness", "--sigmas", sigmas, "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert err.startswith("error: --sigmas must be") and len(err.strip().splitlines()) == 1
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

    def test_catalog_at_its_bounds_runs_every_command(self, tmp_path, capsys):
        # Each field at the edge of its rule: the bound itself, or just above
        # an excluded one.  A catalog that validates must price and simulate.
        doc = json.loads(builtin_catalog_path("custom-sl").read_text())
        for entry in doc["devices"]:
            for field in set(entry) & set(_FIELD_RULES):
                number, low, strict, _ = _KIND_RULES[entry["kind"]][field]
                if low != -math.inf:
                    entry[field] = low + (1 if number is int else 1e-3) * strict
            if {"area_um2", "length_um", "width_um"} <= set(entry):
                entry["area_um2"] = entry["length_um"] * entry["width_um"]
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(doc))
        commands = [["catalog-validate", str(path)], ["cost", "--include-memory"]]
        commands += [["sweep", "--axis", axis, "--values", "2..8"] for axis in ("K", "T")]
        commands += [["simulate", *ARCH_SMALL, "--workload", "rand:8x6x8", "--mode", mode] for mode in MODES]
        for i, args in enumerate(commands):
            if args[0] != "catalog-validate":
                args += ["--catalog", str(path), "--out", str(tmp_path / str(i))]
            code, _, err = run(args, capsys)
            assert code == 0, (args, err)

    def test_invalid_catalog_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1, "variant": "foundry", "devices": ['
                       '{"kind": "dac", "name": "d"}]}')
        code, _, err = run(["catalog-validate", str(bad)], capsys)
        assert code == 2
        assert "missing required field" in err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ("[1, 2]", "a catalog must be a JSON object"),
            ('{"variant": "foundry", "devices": 5}', "'devices' must be a list of objects"),
            ('{"variant": "foundry", "devices": [{"kind": "laser", "name": "l", "power_w": "abc"}]}',
             "power_w must be a finite number, got 'abc'"),
            ('{"variant": "foundry", "devices": [{"kind": "laser", "name": "l", "power_w": NaN}]}',
             "power_w must be a finite number, got nan"),
            ('{"variant": "foundry", "devices": [{"kind": "laser", "name": "l", "power_w": 1%s}]}' % ("0" * 400),
             "power_w must be a finite number, got 1000"),
            ('{"variant": "foundry", "devices": [{"kind": "dac", "name": "d", "power_w": 0.1, '
             '"rated_frequency_hz": 1e9, "rated_bits": 6.5, "area_um2": 1.0}]}',
             "rated_bits must be an integer, got 6.5"),
            ('{"variant": "foundry", "devices": [', "not valid JSON"),
            ('{"devices": []}', "requires 'variant' and 'devices'"),
            ('{"variant": "foundry", "devices": [5]}', "device entry must be an object, got int"),
            ('{"variant": "foundry", "devices": [{"kind": "laser", "power_w": 0.1}]}',
             "device entry requires 'kind' and 'name'"),
        ],
        ids=["top-level-list", "devices-5", "power-abc", "power-nan", "power-10**400", "rated-bits-6.5", "truncated",
             "no-variant", "entry-5", "entry-no-name"],
    )
    @pytest.mark.parametrize("command", ["catalog-validate", "cost"])
    def test_mistyped_catalog_exits_2(self, tmp_path, capsys, command, doc, message):
        bad = tmp_path / "bad.json"
        bad.write_text(doc)
        if command == "cost":
            args = ["cost", "--catalog", str(bad), "--out", str(tmp_path / "o")]
        else:
            args = ["catalog-validate", str(bad)]
        code, _, err = run(args, capsys)
        assert_one_line_exit_2(code, err, tmp_path / "o")
        assert message in err


#: Catalogs that each break one device rule, {file stem: (kind, field, value)},
#: made from custom_sl.json; a field of None drops the whole device.
BAD_CATALOGS = {
    "er_0": ("slmzm", "extinction_ratio_db", 0),
    "er_neg": ("slmzm", "extinction_ratio_db", -3),
    "er_tiny": ("slmzm", "extinction_ratio_db", 1e-300),
    "dark_current_neg": ("photodetector", "dark_current_a", -1e-3),
    "energy_per_bit_neg": ("slmzm", "energy_per_bit_j", -1e-12),
    "fanout_1": ("splitter_1xn", "fanout_n", 1),
    "splitter_length_0": ("splitter_1xn", "length_um", 0),
    "no_adc": ("adc", None, None),
}
#: Catalogs that pass every device rule, but whose laser current cannot
#: size the integrator, or whose required laser power, DAC power or SRAM
#: area overflows a float: the simulator's and the cost model's resolve steps.
RUN_CATALOGS = {
    "loss_1e6": ("fiber_coupling", "insertion_loss_db", 1e6),
    "laser_1e-305": ("laser", "power_w", 1e-305),
    "sensitivity_1e4": ("photodetector", "sensitivity_dbm", 1e4),
    "dac_frequency_1e-300": ("dac", "rated_frequency_hz", 1e-300),
    "sram_area_1e308": ("sram", "area_um2", 1e308),
}


def write_probe_files(d):
    """Operand, experiment and catalog files the bad-input probes name, written under d."""
    for stem, (kind, field, value) in {**BAD_CATALOGS, **RUN_CATALOGS}.items():
        doc = json.loads(builtin_catalog_path("custom-sl").read_text())
        entry = next(e for e in doc["devices"] if e["kind"] == kind)
        if field is None:
            doc["devices"].remove(entry)
        else:
            entry[field] = value
        (d / f"{stem}.json").write_text(json.dumps(doc))
    np.savetxt(d / "x.csv", np.full((2, 2), 0.5), delimiter=",")
    (d / "y_two.csv").write_text("0.5,2\n0.5,0.5\n")
    (d / "y_nan.csv").write_text("0.5,nan\n0.5,0.5\n")
    (d / "y_text.csv").write_text("0.5,abc\n0.5,0.5\n")
    np.savez(d / "mismatch.npz", x=np.zeros((2, 3)), y=np.zeros((2, 2)))
    np.savez(d / "no_xy.npz", a=np.zeros((2, 2)))
    np.savez(d / "complex.npz", x=np.array([[0.5 + 0.5j]]), y=np.array([[0.5]]))
    (d / "empty.csv").write_text("")
    (d / "not_zip.npz").write_text("x,y\n")
    (d / "epochs_0.json").write_text(json.dumps({"epochs": 0}))
    (d / "epochs_neg.json").write_text(json.dumps({"epochs": -1}))
    (d / "clock_401_digits.json").write_text(json.dumps({"clock_hz": 10**400}))
    (d / "not_json.json").write_text("not json")


#: Bad inputs that once exited 1, or 0 after pricing or training on nonsense.
PROBES = {
    "sweep-k-0": ["sweep", "--axis", "K", "--values", "0"],
    "sweep-t-0": ["sweep", "--axis", "T", "--values", "0"],
    "sweep-k-4-0": ["sweep", "--axis", "K", "--values", "4,0"],
    "cost-bits-out-0": ["cost", "--bits-out", "0"],
    "cost-bits-out-40": ["cost", "--bits-out", "40"],
    "cost-bits-in-0": ["cost", "--bits-in", "0"],
    "cost-bits-in-40": ["cost", "--bits-in", "40"],
    "csv-entry-2": ["simulate", "--workload", "{d}/x.csv,{d}/y_two.csv"],
    "csv-entry-nan": ["simulate", "--workload", "{d}/x.csv,{d}/y_nan.csv"],
    "csv-entry-text": ["simulate", "--workload", "{d}/x.csv,{d}/y_text.csv"],
    "npz-inner-dims": ["simulate", "--workload", "{d}/mismatch.npz"],
    "npz-not-zip": ["simulate", "--workload", "{d}/not_zip.npz"],
    "robustness-seed-neg": ["robustness", "--seed", "-1"],
    "simulate-seed-neg": ["simulate", "--workload", "rand:4x4x4", "--mode", "quantized+noise", "--seed", "-1"],
    "epochs-0": ["robustness", "--config", "{d}/epochs_0.json"],
    "epochs-neg": ["robustness", "--config", "{d}/epochs_neg.json"],
    "arch-file-missing": ["cost", "--arch", "{d}/none.json"],
    "arch-file-not-json": ["cost", "--arch", "{d}/not_json.json"],
    "npz-missing": ["simulate", "--workload", "{d}/none.npz"],
    "npz-no-x-y": ["simulate", "--workload", "{d}/no_xy.npz"],
    "csv-operand-missing": ["simulate", "--workload", "{d}/x.csv,{d}/none.csv"],
    "npz-complex": ["simulate", "--workload", "{d}/complex.npz"],
    "csv-empty": ["simulate", "--workload", "{d}/empty.csv,{d}/x.csv"],
    # 728 TiB, past the address space: the allocation fails at once.
    "rand-unallocatable": ["simulate", "--workload", "rand:10000000x10000000x1"],
    "sweep-values-8..4": ["sweep", "--axis", "K", "--values", "8..4"],
    "sweep-values-a,b": ["sweep", "--axis", "K", "--values", "a,b"],
    "sweep-variant-catalog": ["sweep", "--axis", "variant", "--catalog", "{d}/none.json"],
    "engine-loss-simulate": ["simulate", "--workload", "rand:4x4x4", "--catalog", "{d}/loss_1e6.json"],
    "engine-loss-robustness": ["robustness", "--catalog", "{d}/loss_1e6.json"],
    "engine-laser-simulate": ["simulate", "--workload", "rand:4x4x4", "--catalog", "{d}/laser_1e-305.json"],
    "engine-laser-robustness": ["robustness", "--catalog", "{d}/laser_1e-305.json"],
    "laser-k-100000-cost": ["cost", "-k", "100000", "--topology", "double_layer"],
    "laser-k-100000-sweep": ["sweep", "--axis", "K", "--values", "4,100000", "--topology", "double_layer"],
    "laser-sensitivity-cost": ["cost", "--catalog", "{d}/sensitivity_1e4.json"],
    "laser-loss-cost": ["cost", "--catalog", "{d}/loss_1e6.json"],
    "cost-tiles-401-digits": ["cost", "--tiles", "1" + "0" * 400],
    "cost-k-200-digits": ["cost", "-k", "1" + "0" * 199],
    "sweep-k-401-digits": ["sweep", "--axis", "K", "--values", "8," + "1" + "0" * 400],
    "simulate-tiles-401-digits": ["simulate", "--workload", "rand:4x4x4", "--tiles", "1" + "0" * 400],
    "cost-arch-clock-401-digits": ["cost", "--arch", "{d}/clock_401_digits.json"],
    "sweep-arch-clock-401-digits": ["sweep", "--axis", "K", "--values", "8", "--arch", "{d}/clock_401_digits.json"],
    "cost-clock-1e299": ["cost", "--clock-ghz", "1e299"],
    "sweep-clock-1e299": ["sweep", "--axis", "K", "--values", "8", "--clock-ghz", "1e299"],
    "simulate-clock-1e-320": ["simulate", "--workload", "rand:4x4x4", "--clock-ghz", "1e-320"],
    "cost-clock-1e-320": ["cost", "--clock-ghz", "1e-320"],
    "price-dac-frequency-cost": ["cost", "--catalog", "{d}/dac_frequency_1e-300.json"],
    "price-dac-frequency-sweep": ["sweep", "--axis", "K", "--values", "4,8", "--catalog",
                                  "{d}/dac_frequency_1e-300.json"],
    "price-sram-area-cost": ["cost", "--include-memory", "--catalog", "{d}/sram_area_1e308.json"],
    "price-sram-area-sweep": ["sweep", "--axis", "T", "--values", "10", "--include-memory", "--catalog",
                              "{d}/sram_area_1e308.json"],
}
#: Each bad catalog through every command that reads a catalog file.
CATALOG_COMMANDS = {
    "catalog-validate": ["catalog-validate", "{d}/{stem}.json"],
    "cost": ["cost", "--catalog", "{d}/{stem}.json"],
    "simulate": ["simulate", "--workload", "rand:4x4x4", "--catalog", "{d}/{stem}.json"],
}
PROBES.update(
    (f"catalog-{stem}-{command}", [a.replace("{stem}", stem) for a in args])
    for stem in BAD_CATALOGS
    for command, args in CATALOG_COMMANDS.items()
)

#: The whole stderr of the probes whose fallbacks also exit 2 with one line:
#: without the check that should raise, a later step fails with another message.
PROBE_ERRORS = {
    "arch-file-missing": "arch config not found: {d}/none.json",
    "arch-file-not-json": "bad arch config {d}/not_json.json: Expecting value: line 1 column 1 (char 0)",
    "npz-missing": "workload file not found: {d}/none.npz",
    "npz-not-zip": "workload {d}/not_zip.npz is not an .npz archive",
    "npz-no-x-y": "workload {d}/no_xy.npz must contain arrays 'x' and 'y'",
    "npz-inner-dims": "inner dimensions disagree: (2, 3) x (2, 2)",
    "csv-operand-missing": "workload file not found: {d}/none.csv",
    "csv-empty": "workload file {d}/empty.csv has no data",
    "sweep-values-8..4": "bad range '8..4'",
}


def no_work(*_, **__):
    raise AssertionError("work ran before every input was resolved")


class TestInputBoundary:
    """Bad input exits 2 before any work; an error raised by the work exits 1."""

    @pytest.mark.parametrize("probe", list(PROBES))
    def test_bad_input_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch, probe):
        # cost and sweep price their reports while resolving; their run step starts at _out_dir.
        for name in ("simulate_gemm", "_out_dir", "train"):
            monkeypatch.setattr(cli, name, no_work)
        write_probe_files(tmp_path)
        args = [a.format(d=tmp_path) for a in PROBES[probe]]
        if args[0] != "catalog-validate":  # the one command without --out
            args += ["--out", str(tmp_path / "o")]
        code, _, err = run(args, capsys)
        assert_one_line_exit_2(code, err, tmp_path / "o")

    @pytest.mark.parametrize("probe", list(PROBE_ERRORS))
    def test_bad_input_error_names_its_cause(self, tmp_path, capsys, probe):
        write_probe_files(tmp_path)
        args = [a.format(d=tmp_path) for a in PROBES[probe]]
        code, _, err = run([*args, "--out", str(tmp_path / "o")], capsys)
        assert_one_line_exit_2(code, err, tmp_path / "o")
        assert err == f"error: {PROBE_ERRORS[probe].format(d=tmp_path)}\n"

    def test_range_from_0_exits_2_rather_than_looping(self, tmp_path, capsys):
        # Doubling from 0 never passes the upper bound, so without its check
        # the range would grow forever.  One second of CPU time stops it.
        class Looping(Exception):
            pass

        def stop(*_):
            raise Looping("--values 0..8 ran for a CPU second")

        previous = signal.signal(signal.SIGVTALRM, stop)
        signal.setitimer(signal.ITIMER_VIRTUAL, 1.0)
        try:
            code, _, err = run(["sweep", "--axis", "K", "--values", "0..8", "--out", str(tmp_path / "o")], capsys)
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            signal.signal(signal.SIGVTALRM, previous)
        assert_one_line_exit_2(code, err, tmp_path / "o")
        assert err == "error: bad range '0..8'\n"

    @pytest.mark.parametrize("command", list(CATALOG_COMMANDS))
    @pytest.mark.parametrize("stem", list(BAD_CATALOGS))
    def test_bad_catalog_error_names_device_and_field(self, tmp_path, capsys, stem, command):
        write_probe_files(tmp_path)
        kind, field, _ = BAD_CATALOGS[stem]
        name = load_builtin_catalog("custom-sl").devices[kind].name
        args = [a.format(d=tmp_path) for a in PROBES[f"catalog-{stem}-{command}"]]
        if command != "catalog-validate":
            args += ["--out", str(tmp_path / "o")]
        code, _, err = run(args, capsys)
        assert_one_line_exit_2(code, err, tmp_path / "o")
        if field is None:
            assert err == f"error: catalog 'custom_sl' has no device of kind {kind!r}\n"
        else:
            assert f"device {name!r}: {field} must be " in err

    @pytest.mark.parametrize("probe", [p for p in PROBES if p.startswith("engine-")])
    def test_engine_error_names_laser_power_and_loss(self, tmp_path, capsys, probe):
        write_probe_files(tmp_path)
        args = [a.format(d=tmp_path) for a in PROBES[probe]]
        code, _, _ = run(["catalog-validate", args[-1]], capsys)
        assert code == 0  # the device rules hold; the loss chain is what fails
        code, _, err = run([*args, "--out", str(tmp_path / "o")], capsys)
        assert_one_line_exit_2(code, err, tmp_path / "o")
        laser, loss = ("1e-305", "47.33") if "laser" in probe else ("0.1", "1000045.33")
        assert err.startswith(f"error: laser power {laser} W through {loss}")
        assert "dB of insertion loss" in err

    @pytest.mark.parametrize("probe", [p for p in PROBES if p.startswith("laser-")])
    def test_laser_power_overflow_names_loss_and_sensitivity(self, tmp_path, capsys, probe):
        write_probe_files(tmp_path)
        args = [a.format(d=tmp_path) for a in PROBES[probe]]
        code, _, err = run([*args, "--out", str(tmp_path / "o")], capsys)
        assert_one_line_exit_2(code, err, tmp_path / "o")
        assert err.startswith("error: the laser power for ")
        assert err.rstrip().endswith("photodetector sensitivity overflows a float")

    @pytest.mark.parametrize("probe", [p for p in PROBES if p.startswith("price-")])
    def test_price_overflow_names_device_field(self, tmp_path, capsys, probe):
        write_probe_files(tmp_path)
        args = [a.format(d=tmp_path) for a in PROBES[probe]]
        code, _, _ = run(["catalog-validate", args[-1]], capsys)
        assert code == 0  # the device rules hold; a priced term is what fails
        stem = Path(args[-1]).stem
        kind, field, value = RUN_CATALOGS[stem]
        name = load_builtin_catalog("custom-sl").devices[kind].name
        code, _, err = run([*args, "--out", str(tmp_path / "o")], capsys)
        assert_one_line_exit_2(code, err, tmp_path / "o")
        assert err.startswith("error: catalog 'custom_sl' prices the total ")
        assert f"device {name!r}: " in err and f"{field} = {value!r}" in err
        # Without memory the SRAM is not priced, so the same catalog runs.
        if kind == "sram":
            args.remove("--include-memory")
            code, _, err = run([*args, "--out", str(tmp_path / "o")], capsys)
            assert code == 0, err

    @pytest.mark.parametrize("command", ["simulate", "cost"])
    def test_subnormal_clock_names_its_period(self, tmp_path, capsys, command):
        args = [a.format(d=tmp_path) for a in PROBES[f"{command}-clock-1e-320"]]
        code, _, err = run([*args, "--out", str(tmp_path / "o")], capsys)
        assert_one_line_exit_2(code, err, tmp_path / "o")
        assert err.startswith("error: clock_hz must have a finite period")

    @pytest.mark.parametrize(
        "error", [ValueError("boom"), KeyError("boom"), MemoryError("boom")], ids=["ValueError", "KeyError", "MemoryError"]
    )
    @pytest.mark.parametrize(
        "args, target",
        [
            (["simulate", *ARCH_SMALL, "--workload", "rand:4x4x4", "--mode", "quantized"], "simulate_gemm"),
            (["cost"], "report_to_text"),
            (["sweep", "--axis", "K", "--values", "4,8"], "sweep_to_csv"),
            (["robustness", "--trials", "1"], "train"),
        ],
        ids=["simulate", "cost", "sweep", "robustness"],
    )
    def test_error_during_work_exits_1(self, tmp_path, capsys, monkeypatch, args, target, error):
        def fail(*_, **__):
            raise error

        monkeypatch.setattr(cli, target, fail)
        code, _, err = run([*args, "--out", str(tmp_path / "o")], capsys)
        assert code == 1
        assert err.startswith("error: ") and "boom" in err and len(err.strip().splitlines()) == 1

    # Run as a user runs them: pytest would turn a numpy warning into an exception.
    @pytest.mark.parametrize("probe", ["csv-entry-2", "sweep-k-0", "npz-complex", "csv-empty", "rand-unallocatable"])
    def test_module_entry_point_exits_2_without_traceback(self, tmp_path, probe):
        write_probe_files(tmp_path)
        args = [a.format(d=tmp_path) for a in PROBES[probe]]
        result = subprocess.run(
            [sys.executable, "-m", "ptcsim.cli", *args, "--out", str(tmp_path / "o")],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert "Traceback" not in result.stderr
        assert_one_line_exit_2(result.returncode, result.stderr, tmp_path / "o")


#: The text of a numeric flag: values in range and at the bounds, 0,
#: negatives, NaN, +-inf, integers of 20-400 digits, and non-numbers.
_DIGITS = st.integers(20, 400).flatmap(lambda n: st.integers(10 ** (n - 1), 10**n - 1))
NUMBER_TEXT = st.one_of(
    st.integers(-2, 130),
    st.sampled_from([1, 16, 17, 2**31 - 1, 2**31, -(2**31)]),
    st.floats(),
    _DIGITS,
    _DIGITS.map(lambda v: -v),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "", "abc", "0x10", "1_000", " 8", "8.5", "1e3"]),
).map(str)
#: The value of one --arch file field: JSON numbers of every kind, and non-numbers.
ARCH_FIELD_VALUE = st.one_of(
    st.integers(-2, 130), st.floats(), _DIGITS, _DIGITS.map(lambda v: -v),
    st.sampled_from([True, False, None, "8", [8], {"k": 8}]),
)
ARCH_FLAGS = ("--tiles", "--cores", "--size", "--clock-ghz", "--t-int", "--t-rst", "--bits-in", "--bits-out")
CHOICE_FLAGS = {
    "--variant": ("foundry", "foundry-sl", "custom-sl", "custom_sl", ""),
    "--convention": ("peak", "reset_derated", "steady"),
    "--topology": ("embedded_uneven", "double_layer", "ring"),
}
#: --values for each sweep axis: lists, and doubling ranges of at most
#: log2(10^400) points.
SWEEP_VALUES = st.one_of(
    st.lists(NUMBER_TEXT, min_size=1, max_size=5).map(",".join),
    st.tuples(NUMBER_TEXT, NUMBER_TEXT).map("..".join),
    st.lists(st.sampled_from([*CHOICE_FLAGS["--variant"], "exotic"]), min_size=1, max_size=4).map(",".join),
)


#: --workload specs: rand: shapes of at most 16 x 16 x 16, so that no drawn
#: value reaches an allocation size, and specs that do not parse or name no file.
WORKLOAD = st.one_of(
    st.builds(
        "rand:{}x{}x{}{}{}".format, st.integers(0, 16), st.integers(0, 16), st.integers(0, 16),
        st.sampled_from(["", ":seed0", ":seed7", ":seed-1"]), st.sampled_from(["", ":uniform", ":normal", ":cauchy"]),
    ),
    st.sampled_from(["", "rand:4x4", "rand:-1x4x4", "rand:4x4x4x4", "none.npz", "x.csv,y.csv", "x.csv"]),
)
#: --trials and the experiment config's trials and epochs: small counts, so
#: that none reaches a training length, and non-integers.
SMALL_COUNT = st.one_of(st.integers(-2, 3), st.sampled_from([0.5, True, None, "2", [1]]))
SIGMA_LIST = st.lists(NUMBER_TEXT, min_size=1, max_size=3).map(",".join)
#: An experiment config: any subset of its keys with values of every kind,
#: an unknown key, or a document that is not an object.
EXPERIMENT_DOC = st.one_of(
    st.fixed_dictionaries(
        {},
        optional={
            "trials": SMALL_COUNT,
            "epochs": SMALL_COUNT,
            "bits": ARCH_FIELD_VALUE,
            "sigma_train": ARCH_FIELD_VALUE,
            "seed": ARCH_FIELD_VALUE,
            "sigmas_eval": st.one_of(st.lists(ARCH_FIELD_VALUE, max_size=3), ARCH_FIELD_VALUE),
            "catalog": st.sampled_from(["foundry", "custom-sl", "exotic", 3, None]),
            "arch": st.sampled_from([{}, {"k": 4}, {"k": 0}, {"pipelined_readout": True}, [], "x"]),
            "sigma": st.just(0.1),
        },
    ),
    st.sampled_from([[], 3, "x", None]),
)


@st.composite
def cli_argv(draw, command):
    """(argv, arch file doc or None, experiment config doc or None): argv for command
    from per-flag strategies."""
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(ARCH_FLAGS), unique=True, max_size=4)):
        argv.append(f"{flag}={draw(NUMBER_TEXT)}")  # "=" lets a value start with "-"
    priced = command in ("cost", "sweep")
    for flag, options in CHOICE_FLAGS.items():
        if (priced or flag == "--variant") and draw(st.booleans()):
            argv.append(f"{flag}={draw(st.sampled_from(options))}")
    if priced and draw(st.booleans()):
        argv.append("--include-memory")
    if command == "simulate":
        if draw(st.integers(0, 9)):
            argv.append(f"--workload={draw(WORKLOAD)}")
        for flag, values in (("--mode", st.sampled_from([*MODES, "exotic"])), ("--sigma", NUMBER_TEXT),
                             ("--seed", NUMBER_TEXT)):
            if draw(st.booleans()):
                argv.append(f"{flag}={draw(values)}")
    experiment_doc = None
    if command == "robustness":
        for flag, values in (("--sigmas", SIGMA_LIST), ("--train-sigma", NUMBER_TEXT), ("--seed", NUMBER_TEXT),
                             ("--trials", st.one_of(st.integers(-2, 3).map(str), st.sampled_from(["", "1.5", "abc"])))):
            if draw(st.booleans()):
                argv.append(f"{flag}={draw(values)}")
        if draw(st.booleans()):
            experiment_doc = draw(EXPERIMENT_DOC)
    if command == "sweep":
        argv.append(f"--axis={draw(st.sampled_from(['K', 'T', 'variant', 'k']))}")
        if draw(st.integers(0, 4)):
            argv.append(f"--values={draw(SWEEP_VALUES)}")
    arch_doc = None
    if draw(st.integers(0, 3)) == 0:
        arch_doc = ArchConfig().to_dict()
        field = draw(st.sampled_from([*arch_doc, "pipelined_readout"]))
        arch_doc[field] = draw(ARCH_FIELD_VALUE)
    return argv, arch_doc, experiment_doc


class _RunStep(Exception):
    """Raised in place of the work: every input was resolved."""


def _run_step(*_, **__):
    raise _RunStep


def exit_code_and_stderr(argv):
    """main(argv) with the run step stubbed out: 0 once every input resolves.

    cost and sweep price their reports while resolving, so their run step is
    stubbed where it starts, at _out_dir.
    """
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with contextlib.ExitStack() as stubs:
            for name in ("_out_dir", "simulate_gemm", "train"):
                stubs.enter_context(mock.patch.object(cli, name, _run_step))
            try:
                code = main(argv)
            except SystemExit as e:  # argparse's usage errors
                code = e.code
            except _RunStep:
                code = 0
    return code, err.getvalue()


@pytest.mark.parametrize("command", ["cost", "sweep", "simulate", "robustness"])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_argv_exits_0_or_2_with_one_error_line(tmp_path_factory, command, data):
    """Any argv resolves, or exits 2 on one `error:` line; no traceback, no exit 1."""
    argv, arch_doc, experiment_doc = data.draw(cli_argv(command))
    d = tmp_path_factory.mktemp("fuzz")
    if arch_doc is not None:
        (d / "arch.json").write_text(json.dumps(arch_doc))
        argv.append(f"--arch={d / 'arch.json'}")
    if experiment_doc is not None:
        (d / "experiment.json").write_text(json.dumps(experiment_doc))
        argv.append(f"--config={d / 'experiment.json'}")
    code, err = exit_code_and_stderr([*argv, f"--out={d / 'o'}"])
    error_lines = [line for line in err.splitlines() if "error:" in line]
    assert (code, len(error_lines)) in ((0, 0), (2, 1)), (argv, arch_doc, code, err)
    assert not (d / "o").exists()


_CUSTOM_DOC = json.loads(builtin_catalog_path("custom-sl").read_text())
#: Each numeric field of custom_sl.json, as (device index, field name), and
#: the values a mutation gives one of them.
CATALOG_FIELDS = [(i, f) for i, entry in enumerate(_CUSTOM_DOC["devices"]) for f, v in entry.items()
                  if type(v) in (int, float)]
CATALOG_VALUES = [0, -1, 1e-320, 1e-300, 1e300, 1e308, math.inf, -math.inf, math.nan, True, "abc", 2**31,
                  10**400, -10**400]
#: Every command that prices or simulates a --catalog file.
CATALOG_RUNS = [
    ["cost"],
    ["cost", "--include-memory"],
    *(["sweep", "--axis", axis, "--values", "2..64", *memory]
      for axis in ("K", "T") for memory in ([], ["--include-memory"])),
    ["simulate", "--workload", "rand:4x4x4", "--mode", "quantized+noise+adc"],
    ["robustness"],
]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(field=st.sampled_from(CATALOG_FIELDS), value=st.sampled_from(CATALOG_VALUES))
def test_mutated_catalog_exits_0_or_2_through_every_command(tmp_path_factory, field, value):
    """One field of custom_sl.json at an extreme value: each command resolves, or exits 2 on one `error:` line."""
    index, name = field
    doc = json.loads(json.dumps(_CUSTOM_DOC))
    doc["devices"][index][name] = value
    d = tmp_path_factory.mktemp("catalog")
    (d / "catalog.json").write_text(json.dumps(doc))
    for argv in CATALOG_RUNS:
        code, err = exit_code_and_stderr([*argv, f"--catalog={d / 'catalog.json'}", f"--out={d / 'o'}"])
        error_lines = [line for line in err.splitlines() if "error:" in line]
        assert (code, len(error_lines)) in ((0, 0), (2, 1)), (argv, field, value, code, err)
        assert not (d / "o").exists()


@pytest.mark.parametrize(
    "args, defaults",
    [
        (["simulate", "--workload", "rand:4x4x4"], {"arch": ArchConfig(), "nm": NoiseModel()}),
        (["cost"], {"report.arch": ArchConfig()}),
        (["sweep", "--axis", "K", "--values", "8"], {"arch": ArchConfig()}),
        (["robustness"], {"arch": ArchConfig(), "cfg": MlpConfig()}),
    ],
    ids=["simulate", "cost", "sweep", "robustness"],
)
def test_no_flags_resolve_to_library_defaults(args, defaults):
    parsed = cli.build_parser().parse_args(args)
    resolved = SimpleNamespace(**inspect.getclosurevars(parsed.func(parsed)).nonlocals)  # what the run step works on
    assert {name: attrgetter(name)(resolved) for name in defaults} == defaults


class TestReadme:
    """README's examples run as written, from the repo root, each writing into its own --out directory."""

    def test_quick_start_has_every_command(self):
        assert [argv[0] for argv in README_COMMANDS] == [
            "simulate", "cost", "sweep", "sweep", "robustness", "catalog-validate",
        ]

    @pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
    def test_quick_start_command_runs(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(SRC.parent)
        argv = list(argv)
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(tmp_path / "run")
        code, _, err = run(argv, capsys)
        assert code == 0, err
        written = sorted((tmp_path / "run").glob("*.json"))
        assert bool(written) == ("--out" in argv)
        for path in written:
            strict_json(path)

    def test_library_example_runs(self):
        block = re.search(r"available as a library:\n\n```python\n(.*?)```", README, re.S)[1]
        namespace = {}
        exec(block, namespace)
        assert namespace["z_hat"].shape == (64, 64) and namespace["report"].tops > 0
