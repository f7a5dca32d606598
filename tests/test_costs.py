"""Analytical cost model: loss chain, laser power, area/power, metrics, sweeps."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from ptcsim import (
    ArchConfig,
    DeviceKind,
    area_estimate,
    comparison_points,
    cost_report,
    dac_power_scale,
    insertion_loss,
    load_builtin_catalog,
    metrics,
    min_laser_power,
    pareto_csv,
    power_estimate,
    report_to_text,
    sweep,
    sweep_to_csv,
)

CUSTOM = load_builtin_catalog("custom-sl")
FOUNDRY = load_builtin_catalog("foundry")
ARCH = ArchConfig()


class TestInsertionLoss:
    def test_budget_total_is_sum_of_parts(self):
        lb = insertion_loss(32, CUSTOM)
        parts = (
            lb.il_couple + lb.split_fanout_db + lb.il_mzm + lb.il_cross_total
            + lb.il_split_total + lb.il_ps + lb.il_dc
        )
        assert lb.total_db == pytest.approx(parts, abs=1e-9)

    def test_k32_custom_worked_value(self):
        assert insertion_loss(32, CUSTOM).total_db == pytest.approx(47.33, abs=0.01)

    def test_crossing_counts_by_topology(self):
        cross = CUSTOM.device(DeviceKind.CROSSING).insertion_loss_db
        eu = insertion_loss(8, CUSTOM, "embedded_uneven")
        dl = insertion_loss(8, CUSTOM, "double_layer")
        assert eu.il_cross_total == pytest.approx(7 * cross)
        assert dl.il_cross_total == pytest.approx(49 * cross)
        # Double layer replaces K taps with one secondary splitter.
        assert dl.il_split_total == CUSTOM.device(DeviceKind.SPLITTER_1XN).insertion_loss_db

    def test_loss_monotone_in_k(self):
        totals = [insertion_loss(k, CUSTOM).total_db for k in (2, 4, 8, 16, 32)]
        assert totals == sorted(totals)

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            insertion_loss(0, CUSTOM)
        with pytest.raises(ValueError, match="topology"):
            insertion_loss(8, CUSTOM, "mesh")

    def test_k1_has_no_fanout_term(self):
        assert insertion_loss(1, CUSTOM).split_fanout_db == 0.0


class TestLaserPower:
    def test_higher_loss_needs_exponentially_more_power(self):
        pd = CUSTOM.device(DeviceKind.PHOTODETECTOR)
        p20 = min_laser_power(20.0, pd, 10.0, 6)
        p30 = min_laser_power(30.0, pd, 10.0, 6)
        assert p30 / p20 == pytest.approx(10.0)

    def test_each_extra_bit_doubles_the_sensitivity_term(self):
        pd = CUSTOM.device(DeviceKind.PHOTODETECTOR)
        noise = pd.dark_current_a / pd.responsivity_a_per_w
        p6 = min_laser_power(0.0, pd, math.inf, 6) - noise
        p7 = min_laser_power(0.0, pd, math.inf, 7) - noise
        assert p7 / p6 == pytest.approx(2.0)

    @pytest.mark.parametrize("er", [0.0, -3.0])
    def test_nonpositive_er_rejected(self, er):
        with pytest.raises(ValueError, match="extinction ratio must be > 0 dB"):
            min_laser_power(20.0, CUSTOM.device(DeviceKind.PHOTODETECTOR), er, 6)

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            min_laser_power(20.0, CUSTOM.device(DeviceKind.PHOTODETECTOR), 10.0, 0)

    @pytest.mark.parametrize(
        "il_db, sensitivity_dbm",
        [(1e6, -27.0), (3080.0, 30.0), (0.0, 1e4), (0.0, 3079.0)],
        ids=["loss-power", "loss-product", "sensitivity-power", "sensitivity-product"],
    )
    def test_overflow_names_loss_and_sensitivity(self, il_db, sensitivity_dbm):
        # 10^(x/10) raises OverflowError past about 3083 dB; a product past
        # the float range gives inf instead.  Both are one ValueError.
        pd = replace(CUSTOM.device(DeviceKind.PHOTODETECTOR), sensitivity_dbm=sensitivity_dbm)
        message = f"the laser power for {il_db} dB of insertion loss and {sensitivity_dbm} dBm photodetector"
        with pytest.raises(ValueError, match=f"^{re.escape(message)} sensitivity overflows a float$"):
            min_laser_power(il_db, pd, 10.0, 6)


class TestDacPowerScale:
    def test_rated_point_is_identity(self):
        assert dac_power_scale(0.05, 8, 14e9, 8, 14e9) == pytest.approx(0.05)

    def test_headline_operating_point(self):
        # 8-bit 50 mW at 14 GS/s rescaled to 6 bits at 5 GHz.
        p = dac_power_scale(0.05, 8, 14e9, 6, 5e9)
        assert p * 1e3 == pytest.approx(5.952, abs=0.001)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            dac_power_scale(0.05, 8, 14e9, 0, 5e9)
        with pytest.raises(ValueError):
            dac_power_scale(-0.05, 8, 14e9, 6, 5e9)
        with pytest.raises(ValueError, match="bit width out of range: 17"):
            dac_power_scale(0.05, 8, 14e9, 17, 5e9)


class TestBreakdowns:
    def test_all_entries_nonnegative(self):
        for cat in (CUSTOM, FOUNDRY):
            assert all(v >= 0 for v in area_estimate(ARCH, cat, True).values())
            assert all(v >= 0 for v in power_estimate(ARCH, cat, True).values())

    def test_memory_only_appears_when_included(self):
        assert "memory" not in area_estimate(ARCH, CUSTOM)
        assert "memory" in area_estimate(ARCH, CUSTOM, include_memory=True)
        assert "memory" in power_estimate(ARCH, CUSTOM, include_memory=True)

    def test_no_sharing_reproduces_per_core_closed_forms(self):
        arch = replace(ARCH, share_readout=False, share_y_modulators=False)
        area = area_estimate(arch, CUSTOM)
        power = power_estimate(arch, CUSTOM)
        n_cores = arch.r_tiles * arch.c_cores
        k = arch.k
        # Single-core closed forms, scaled by R*C.
        dac = CUSTOM.device(DeviceKind.DAC)
        adc = CUSTOM.device(DeviceKind.ADC)
        assert area["dac"] * 1e6 == pytest.approx(n_cores * 2 * k * dac.footprint_um2)
        assert area["adc"] * 1e6 == pytest.approx(n_cores * k**2 * adc.footprint_um2)
        p_adc = adc.power_w * arch.clock_hz / (arch.t_int * adc.rated_frequency_hz)
        assert power["adc"] == pytest.approx(n_cores * k**2 * p_adc)

    def test_readout_sharing_divides_by_core_count(self):
        shared = area_estimate(ARCH, CUSTOM)
        unshared = area_estimate(replace(ARCH, share_readout=False), CUSTOM)
        for part in ("adc", "tia", "integrator"):
            assert unshared[part] / shared[part] == pytest.approx(ARCH.c_cores)

    def test_y_modulator_sharing_reduces_input_chains(self):
        shared = power_estimate(replace(ARCH, share_y_modulators=True), CUSTOM)
        full = power_estimate(ARCH, CUSTOM)
        # X side: R*C*K chains; shared Y side: C*K chains.
        expect = (ARCH.r_tiles * ARCH.c_cores + ARCH.c_cores) / (
            2 * ARCH.r_tiles * ARCH.c_cores
        )
        assert shared["dac"] / full["dac"] == pytest.approx(expect)

    def test_adc_power_scales_inversely_with_integration_window(self):
        p1 = power_estimate(replace(ARCH, t_int=1), CUSTOM)
        p60 = power_estimate(replace(ARCH, t_int=60), CUSTOM)
        assert p1["adc"] / p60["adc"] == pytest.approx(60.0)
        assert p1["dac"] == pytest.approx(p60["dac"])  # input side unaffected


class TestMetrics:
    def test_peak_formula(self):
        tops, tpw, tpmm2 = metrics(ARCH, area_mm2=100.0, power_w=10.0)
        expect = 2 * 32**2 * 36 * 5e9 / 1e12
        assert tops == pytest.approx(expect)
        assert tpw == pytest.approx(expect / 10.0)
        assert tpmm2 == pytest.approx(expect / 100.0)

    def test_reset_derating_factor(self):
        peak, _, _ = metrics(ARCH, 1.0, 1.0, "peak")
        der, _, _ = metrics(ARCH, 1.0, 1.0, "reset_derated")
        assert der / peak == pytest.approx(60 / 62)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            metrics(ARCH, 0.0, 1.0)
        with pytest.raises(ValueError):
            metrics(ARCH, 1.0, 1.0, "steady_state")


class TestCostReport:
    def test_totals_equal_sums_and_metric_identity(self):
        r = cost_report(ARCH, CUSTOM, include_memory=True)
        assert r.total_area_mm2 == pytest.approx(sum(r.area_by_component.values()))
        assert r.total_power_w == pytest.approx(sum(r.power_by_component.values()))
        assert r.tops_per_w * r.total_power_w == pytest.approx(r.tops)
        assert r.tops_per_mm2 * r.total_area_mm2 == pytest.approx(r.tops)
        assert r.wall_power_w == pytest.approx(
            r.total_power_w + r.laser_power_required_w
        )

    def test_dict_and_text_renderings(self):
        r = cost_report(ARCH, CUSTOM)
        d = r.to_dict()
        assert d["schema_version"] == 1
        assert d["area_mm2"]["total"] == pytest.approx(r.total_area_mm2)
        text = report_to_text(r)
        assert "custom_sl" in text and "TOPS/W" in text


class TestSweep:
    def test_k_sweep_monotone_area_and_power(self):
        reports = sweep(ARCH, {"custom_sl": CUSTOM}, "K", [2, 4, 8, 16, 32, 64])
        areas = [r.total_area_mm2 for r in reports]
        powers = [r.total_power_w for r in reports]
        assert areas == sorted(areas)
        assert powers == sorted(powers)

    def test_t_sweep_decreases_power(self):
        reports = sweep(ARCH, {"custom_sl": CUSTOM}, "T", [1, 10, 60])
        powers = [r.total_power_w for r in reports]
        assert powers == sorted(powers, reverse=True)

    def test_variant_sweep(self):
        cats = {"foundry": FOUNDRY, "custom_sl": CUSTOM}
        reports = sweep(ARCH, cats, "variant", ["foundry", "custom-sl"])
        assert [r.variant for r in reports] == ["foundry", "custom_sl"]

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            sweep(ARCH, {"custom_sl": CUSTOM}, "K", [])

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            sweep(ARCH, {"custom_sl": CUSTOM}, "f", [1])

    def test_csv_has_header_and_rows(self):
        reports = sweep(ARCH, {"custom_sl": CUSTOM}, "K", [8, 16])
        lines = sweep_to_csv(reports).strip().splitlines()
        assert lines[0].startswith("variant,k,t_int,total_area_mm2")
        assert len(lines) == 3


class TestParetoExport:
    def test_reference_points_load(self):
        points = comparison_points()
        names = {p["name"] for p in points}
        assert len(points) >= 5
        assert all(p["tops_per_w"] > 0 and p["tops_per_mm2"] > 0 for p in points)
        assert "nvidia_a100" in names

    def test_modeled_point_appended(self):
        r = cost_report(ARCH, CUSTOM, include_memory=True)
        lines = pareto_csv([r]).strip().splitlines()
        assert lines[-1].startswith("this_work_custom_sl,photonic")
        assert len(lines) == len(comparison_points()) + 2
