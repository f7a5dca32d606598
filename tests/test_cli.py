"""End-to-end CLI behavior: subcommands, outputs, exit codes, determinism."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ptcsim import MODES, builtin_catalog_path, cli, load_builtin_catalog
from ptcsim.catalog import _FIELD_RULES, _KIND_RULES
from ptcsim.cli import main

ARCH_SMALL = ["--tiles", "2", "--cores", "3", "-k", "4"]
SRC = Path(__file__).resolve().parents[1] / "src"


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
            ("quantized+noise+adc", "--bits-out", "1"),
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
            ({"sigma_train": "0.01"}, "train_sigma must be a finite number"),
            ({"sigma_train": float("nan")}, "train_sigma must be a finite number"),
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
            ('{"variant": "foundry", "devices": [{"kind": "dac", "name": "d", "power_w": 0.1, '
             '"rated_frequency_hz": 1e9, "rated_bits": 6.5, "area_um2": 1.0}]}',
             "rated_bits must be an integer, got 6.5"),
            ('{"variant": "foundry", "devices": [', "not valid JSON"),
            ('{"devices": []}', "requires 'variant' and 'devices'"),
            ('{"variant": "foundry", "devices": [5]}', "device entry must be an object, got int"),
            ('{"variant": "foundry", "devices": [{"kind": "laser", "power_w": 0.1}]}',
             "device entry requires 'kind' and 'name'"),
        ],
        ids=["top-level-list", "devices-5", "power-abc", "power-nan", "rated-bits-6.5", "truncated",
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
#: size the integrator (the simulator's resolve step), or whose required
#: laser power overflows a float (the cost model's run step).
RUN_CATALOGS = {
    "loss_1e6": ("fiber_coupling", "insertion_loss_db", 1e6),
    "laser_1e-305": ("laser", "power_w", 1e-305),
    "sensitivity_1e4": ("photodetector", "sensitivity_dbm", 1e4),
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
    (d / "not_zip.npz").write_text("x,y\n")
    (d / "epochs_0.json").write_text(json.dumps({"epochs": 0}))
    (d / "epochs_neg.json").write_text(json.dumps({"epochs": -1}))


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
    "npz-missing": ["simulate", "--workload", "{d}/none.npz"],
    "npz-no-x-y": ["simulate", "--workload", "{d}/no_xy.npz"],
    "csv-operand-missing": ["simulate", "--workload", "{d}/x.csv,{d}/none.csv"],
    "sweep-values-8..4": ["sweep", "--axis", "K", "--values", "8..4"],
    "sweep-values-a,b": ["sweep", "--axis", "K", "--values", "a,b"],
    "engine-loss-simulate": ["simulate", "--workload", "rand:4x4x4", "--catalog", "{d}/loss_1e6.json"],
    "engine-loss-robustness": ["robustness", "--catalog", "{d}/loss_1e6.json"],
    "engine-laser-simulate": ["simulate", "--workload", "rand:4x4x4", "--catalog", "{d}/laser_1e-305.json"],
    "engine-laser-robustness": ["robustness", "--catalog", "{d}/laser_1e-305.json"],
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


def no_work(*_, **__):
    raise AssertionError("work ran before every input was resolved")


class TestInputBoundary:
    """Bad input exits 2 before any work; an error raised by the work exits 1."""

    @pytest.mark.parametrize("probe", list(PROBES))
    def test_bad_input_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch, probe):
        for name in ("simulate_gemm", "cost_report", "sweep", "train"):
            monkeypatch.setattr(cli, name, no_work)
        write_probe_files(tmp_path)
        args = [a.format(d=tmp_path) for a in PROBES[probe]]
        if args[0] != "catalog-validate":  # the one command without --out
            args += ["--out", str(tmp_path / "o")]
        code, _, err = run(args, capsys)
        assert_one_line_exit_2(code, err, tmp_path / "o")

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

    @pytest.mark.parametrize(
        "args",
        [
            ["cost", "-k", "100000", "--topology", "double_layer"],
            ["cost", "--catalog", "{d}/sensitivity_1e4.json"],
            ["cost", "--catalog", "{d}/loss_1e6.json"],
        ],
        ids=["k-100000", "sensitivity-1e4", "loss-1e6"],
    )
    def test_laser_power_overflow_exits_1(self, tmp_path, capsys, args):
        write_probe_files(tmp_path)
        code, _, err = run([*(a.format(d=tmp_path) for a in args), "--out", str(tmp_path / "o")], capsys)
        assert code == 1
        assert err.startswith("error: the laser power for ") and len(err.strip().splitlines()) == 1
        assert err.rstrip().endswith("photodetector sensitivity overflows a float")

    @pytest.mark.parametrize("error", [ValueError("boom"), KeyError("boom")], ids=["ValueError", "KeyError"])
    @pytest.mark.parametrize(
        "args, target",
        [
            (["simulate", *ARCH_SMALL, "--workload", "rand:4x4x4", "--mode", "quantized"], "simulate_gemm"),
            (["cost"], "cost_report"),
            (["sweep", "--axis", "K", "--values", "4,8"], "sweep"),
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

    @pytest.mark.parametrize("probe", ["csv-entry-2", "sweep-k-0"])
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
