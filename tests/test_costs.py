"""Analytical cost model: loss chain, laser power, area/power, metrics, sweeps."""

import ast
import builtins
import gc
import hashlib
import json
import math
import re
import sys
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import gen_cost_report_sha256
from ptcsim import (
    CONVENTIONS,
    TOPOLOGIES,
    ArchConfig,
    CostReport,
    DeviceKind,
    area_estimate,
    comparison_points,
    cost_report,
    costs,
    insertion_loss,
    laser_power_required,
    load_builtin_catalog,
    metrics,
    min_laser_power,
    pareto_csv,
    power_estimate,
    report_to_text,
    sweep,
    sweep_to_csv,
)
from ptcsim.catalog import CatalogError, CatalogVariant, builtin_catalog_path, load_catalog
from ptcsim.costs import _PRICED_FIELDS, UM2_PER_MM2

CUSTOM = load_builtin_catalog("custom-sl")
FOUNDRY = load_builtin_catalog("foundry")
ARCH = ArchConfig()
#: SHA-256 of json.dumps(cost_report(...).to_dict()) at 120 points: the three
#: builtin catalogs x five archs x both topologies, conventions and memory;
#: then one SHA-256 over every report of a K and T sweep grid.
PINNED_REPORTS = gen_cost_report_sha256.PINNED


def pinned_cases():
    """The pinned cases: the 120 report cases, then the sweep grid's."""
    *reports, grid = json.loads(PINNED_REPORTS.read_text())
    return reports, grid


def unchecked_report(arch, cat, include_memory=False, convention="peak", topology="embedded_uneven"):
    """The report cost_report stands for, assembled from the pricing functions with no range check."""
    area = area_estimate(arch, cat, include_memory)
    power = power_estimate(arch, cat, include_memory)
    loss = insertion_loss(arch, cat, topology)
    laser_req = laser_power_required(arch, cat, loss.total_db)
    tops, tpw, tpmm2 = metrics(arch, sum(area.values()), sum(power.values()), convention)
    return CostReport(cat.name, arch, convention, topology, include_memory, area, power, loss, laser_req,
                      cat.device(DeviceKind.LASER).power_w, tops, tpw, tpmm2)


def test_annotations_name_only_bound_names():
    # The pricing functions are annotated with scheduler's ArchConfig, which
    # costs imports for type checkers only (scheduler imports costs).
    tree = ast.parse(Path(costs.__file__).read_text())
    bound = set(dir(builtins)) | {
        alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    } | {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    annotations = [node.annotation for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.AnnAssign))] + [
        node.returns for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    ]
    names = {n.id for a in annotations if a is not None for n in ast.walk(a) if isinstance(n, ast.Name)}
    assert "ArchConfig" in names
    assert names <= bound, names - bound


class TestInsertionLoss:
    def test_budget_total_is_sum_of_parts(self):
        lb = insertion_loss(ARCH, CUSTOM)
        parts = (
            lb.il_couple + lb.split_fanout_db + lb.il_mzm + lb.il_cross_total
            + lb.il_split_total + lb.il_ps + lb.il_dc
        )
        assert lb.total_db == pytest.approx(parts, abs=1e-9)

    def test_k32_custom_worked_value(self):
        assert ARCH.k == 32
        assert insertion_loss(ARCH, CUSTOM).total_db == pytest.approx(47.33, abs=0.01)

    def test_crossing_counts_by_topology(self):
        cross = CUSTOM.device(DeviceKind.CROSSING).insertion_loss_db
        eu = insertion_loss(ArchConfig(k=8), CUSTOM, "embedded_uneven")
        dl = insertion_loss(ArchConfig(k=8), CUSTOM, "double_layer")
        assert eu.il_cross_total == pytest.approx(7 * cross)
        assert dl.il_cross_total == pytest.approx(49 * cross)
        # Double layer replaces K taps with one secondary splitter.
        assert dl.il_split_total == CUSTOM.device(DeviceKind.SPLITTER_1XN).insertion_loss_db

    def test_loss_monotone_in_k(self):
        totals = [insertion_loss(ArchConfig(k=k), CUSTOM).total_db for k in (2, 4, 8, 16, 32)]
        assert totals == sorted(totals)

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="topology"):
            insertion_loss(ARCH, CUSTOM, "mesh")

    def test_k1_has_no_fanout_term(self):
        assert insertion_loss(ArchConfig(k=1), CUSTOM).split_fanout_db == 0.0


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
        with pytest.raises(ValueError, match="^bits_out must be >= 1, got 0$"):
            min_laser_power(20.0, CUSTOM.device(DeviceKind.PHOTODETECTOR), 10.0, 0)

    @pytest.mark.parametrize("topology", ["embedded_uneven", "double_layer"])
    def test_report_prices_every_core_at_its_loss(self, topology):
        arch = ArchConfig(r_tiles=2, c_cores=3, k=8, bits_out=5)
        il_db = insertion_loss(arch, CUSTOM, topology).total_db
        per_core = min_laser_power(
            il_db, CUSTOM.device(DeviceKind.PHOTODETECTOR), CUSTOM.modulator().extinction_ratio_db, 5
        )
        assert laser_power_required(arch, CUSTOM, il_db) == 6 * per_core
        assert cost_report(arch, CUSTOM, topology=topology).laser_power_required_w == 6 * per_core

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


class TestDacPower:
    """power_estimate rescales the DAC's rated power to the arch's bits_in and clock."""

    def test_rated_point_is_identity(self):
        # One core of K = 1 has two input chains.
        dac = CUSTOM.device(DeviceKind.DAC)
        arch = ArchConfig(r_tiles=1, c_cores=1, k=1, clock_hz=dac.rated_frequency_hz, bits_in=dac.rated_bits)
        assert power_estimate(arch, CUSTOM)["dac"] == pytest.approx(2 * dac.power_w)

    def test_headline_operating_point(self):
        # 8-bit 50 mW at 14 GS/s rescaled to 6 bits at 5 GHz.
        dac = CUSTOM.device(DeviceKind.DAC)
        assert (dac.power_w, dac.rated_bits, dac.rated_frequency_hz) == (0.05, 8, 14e9)
        inputs = 2 * ARCH.r_tiles * ARCH.c_cores * ARCH.k
        assert power_estimate(ARCH, CUSTOM)["dac"] / inputs * 1e3 == pytest.approx(5.952, abs=0.001)


class TestBreakdowns:
    def test_all_entries_nonnegative(self):
        for cat in (CUSTOM, FOUNDRY):
            assert all(v >= 0 for v in area_estimate(ARCH, cat, True).values())
            assert all(v >= 0 for v in power_estimate(ARCH, cat, True).values())

    def test_memory_only_appears_when_included(self):
        assert "memory" not in area_estimate(ARCH, CUSTOM)
        assert "memory" in area_estimate(ARCH, CUSTOM, include_memory=True)
        assert "memory" in power_estimate(ARCH, CUSTOM, include_memory=True)

    def test_counts_reproduce_closed_forms(self):
        # 2*R*C*K DAC+modulator chains; the C cores of a tile sum into one
        # readout array, so R*K^2 integrator/TIA/ADC chains.
        inputs = 2 * ARCH.r_tiles * ARCH.c_cores * ARCH.k
        readout = ARCH.r_tiles * ARCH.k**2
        f = ARCH.clock_hz
        area = area_estimate(ARCH, CUSTOM)
        power = power_estimate(ARCH, CUSTOM)
        dac, mod = CUSTOM.device(DeviceKind.DAC), CUSTOM.modulator()
        p_dac = dac.power_w * dac.rated_bits * 2.0**ARCH.bits_in * f / (2.0**dac.rated_bits * ARCH.bits_in
                                                                       * dac.rated_frequency_hz)
        assert area["dac"] * 1e6 == pytest.approx(inputs * dac.area_um2)
        assert area["modulator"] * 1e6 == pytest.approx(inputs * mod.area_um2)
        assert power["dac"] == pytest.approx(inputs * p_dac)
        assert power["modulator"] == pytest.approx(inputs * (mod.power_w + mod.energy_per_bit_j * f))
        for part in (DeviceKind.INTEGRATOR, DeviceKind.TIA, DeviceKind.ADC):
            dev = CUSTOM.device(part)
            rate = 1.0 if part == DeviceKind.INTEGRATOR else f / (ARCH.t_int * dev.rated_frequency_hz)
            assert area[part] * 1e6 == pytest.approx(readout * dev.area_um2)
            assert power[part] == pytest.approx(readout * dev.power_w * rate)

    @pytest.mark.parametrize("variant", ["foundry", "foundry-sl", "custom-sl"])
    @pytest.mark.parametrize("k, length_um, width_um", [(4, 27.8, 11.3), (6, 41.4, 16.9)])
    def test_fanout_mmi_scales_the_base_design_linearly(self, variant, k, length_um, width_um):
        # Every builtin catalog holds the 1x10 base MMI; scaled by 2K/10 its
        # length and width match the simulated 1x8 and 1x12 designs.
        cat = load_builtin_catalog(variant)
        base = cat.device(DeviceKind.SPLITTER_1XN)
        s = 2 * k / base.fanout_n
        assert base.length_um * s == pytest.approx(length_um, rel=0.01)
        assert base.width_um * s == pytest.approx(width_um, rel=0.01)
        area = area_estimate(ArchConfig(r_tiles=1, c_cores=1, k=k), cat)["fanout_mmi"]
        assert area == (base.length_um * s) * (base.width_um * s) / UM2_PER_MM2

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

    @pytest.mark.parametrize(
        "value", [0.0, -0.0, 1.5, -123456.789, 99999999.99996, 2.1e23, -sys.float_info.max, 5e-324, -math.inf, math.nan]
    )
    @pytest.mark.parametrize("width, decimals", [(10, 4), (14, 4), (14, 3), (14, 2)])
    def test_text_value_fits_its_column(self, value, width, decimals):
        # A value prints in fixed point, as it always has, unless that takes
        # more than its column's width; then in exponent form within it.
        text, fixed = costs._fixed(value, width, decimals), f"{value:.{decimals}f}"
        if len(fixed) <= width:
            assert text == fixed
        else:
            assert text == f"{value:.{width - 8}e}" and len(text) <= width

    def test_reports_match_pinned_digests(self):
        """Every float of a report is pinned: a change to any formula, or to
        the order of its operations, changes some digest."""
        changed = []
        for case in pinned_cases()[0]:
            r = cost_report(
                ArchConfig(**case["arch"]), load_builtin_catalog(case["variant"]),
                include_memory=case["include_memory"], convention=case["convention"], topology=case["topology"],
            )
            if hashlib.sha256(json.dumps(r.to_dict()).encode()).hexdigest() != case["sha256"]:
                changed.append({k: v for k, v in case.items() if k != "sha256"})
        assert changed == []

    def test_sweep_grid_matches_pinned_digest(self):
        # Every report of the grid's K and T sweeps, byte for byte.
        assert gen_cost_report_sha256.sweep_grid() == pinned_cases()[1]

    def test_generator_reproduces_the_pinned_file(self):
        # The cases and digests the generator computes are the file, byte for byte.
        assert gen_cost_report_sha256.render(gen_cost_report_sha256.digests()) == PINNED_REPORTS.read_text()


class TestCheckReport:
    """cost_report's range check, against the unchecked report it stands for."""

    def test_priced_fields_name_every_component(self):
        parts = {"area": area_estimate(ARCH, CUSTOM, True), "power": power_estimate(ARCH, CUSTOM, True)}
        assert {what: set(fields) for what, fields in _PRICED_FIELDS.items()} == {
            what: set(p) for what, p in parts.items()
        }
        for refs in (r for fields in _PRICED_FIELDS.values() for r in fields.values()):
            for ref in refs.split():
                kind, field = ref.split(".")
                device = CUSTOM.modulator() if kind == "modulator" else CUSTOM.device(kind)
                assert getattr(device, field) is not None, ref

    @pytest.mark.parametrize("variant", ["foundry", "foundry-sl", "custom-sl"])
    def test_builtin_catalogs_pass_at_the_arch_bounds(self, variant):
        # At k = 2^31 - 1 the laser power overflows, which min_laser_power reports.
        cat = load_builtin_catalog(variant)
        top = 2**31 - 1
        for arch in (ARCH, ArchConfig(r_tiles=top, c_cores=top, k=64, t_int=top, t_rst=top, clock_hz=1e15)):
            for topology in TOPOLOGIES:
                for convention in CONVENTIONS:
                    for memory in (False, True):
                        report = cost_report(arch, cat, memory, convention, topology)
                        assert report == unchecked_report(arch, cat, memory, convention, topology)

    def test_raises_exactly_when_the_report_is_not_strict_json(self):
        # Each priced float field of custom-sl, alone at an extreme value.
        refs = {r for fields in _PRICED_FIELDS.values() for rs in fields.values() for r in rs.split()}
        checked = failed = 0
        for ref in sorted(refs):
            kind, field = ref.split(".")
            device = CUSTOM.modulator() if kind == "modulator" else CUSTOM.device(kind)
            if field in ("rated_bits", "fanout_n"):  # bounded integers
                continue
            for value in (1e-300, 1e300, 1e308):
                try:
                    changed = replace(device, **{field: value})
                    cat = CatalogVariant(CUSTOM.name, {**CUSTOM.devices, device.kind: changed})
                except CatalogError:  # the catalog's own rules reject it first
                    continue
                try:
                    expected = unchecked_report(ARCH, cat, include_memory=True)
                    json.dumps(expected.to_dict(), allow_nan=False)
                    ok = True
                except ValueError:
                    ok = False
                try:
                    report = cost_report(ARCH, cat, include_memory=True)
                except ValueError as e:
                    assert not ok, (ref, value, e)
                    assert f"{field} = {value!r}" in str(e), (ref, value, e)
                    failed += 1
                else:
                    assert ok and report == expected, (ref, value)
                checked += 1
        assert checked > 30 and failed > 10

    def test_tiny_on_chip_power_raises(self):
        # Every nonzero power at 1e-320 W: TOPS/W leaves the float range.
        devices = {kind: replace(d, power_w=1e-320) if d.power_w else d for kind, d in CUSTOM.devices.items()}
        devices[DeviceKind.SLMZM] = replace(devices[DeviceKind.SLMZM], energy_per_bit_j=0.0)
        cat = CatalogVariant(CUSTOM.name, devices)
        with pytest.raises(ValueError, match="Out of range float values"):
            json.dumps(unchecked_report(ARCH, cat).to_dict(), allow_nan=False)
        with pytest.raises(ValueError, match="TOPS .* outside the float range"):
            cost_report(ARCH, cat)


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

    @pytest.mark.parametrize("values", [np.arange(2, 65), range(2, 65), (k for k in range(2, 65))],
                             ids=["array", "range", "generator"])
    def test_any_iterable_of_values_is_the_list_sweep(self, values):
        want = sweep(ARCH, {"custom_sl": CUSTOM}, "K", list(range(2, 65)))
        got = sweep(ARCH, {"custom_sl": CUSTOM}, "K", values)
        assert got == want
        assert [json.dumps(r.to_dict()) for r in got] == [json.dumps(r.to_dict()) for r in want]

    @pytest.mark.parametrize("values, message", [
        (np.array([], dtype=int), "sweep requires at least one value"), (np.array([0]), "k must be >= 1, got 0"),
    ], ids=["empty", "zero"])
    def test_bad_array_values_rejected_by_name(self, values, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sweep(ARCH, {"custom_sl": CUSTOM}, "K", values)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            sweep(ARCH, {"custom_sl": CUSTOM}, "f", [1])

    def test_point_out_of_the_float_range_raises(self):
        # A DAC rated at 1e-300 Hz prices its power past the float range.
        dac = replace(CUSTOM.device(DeviceKind.DAC), rated_frequency_hz=1e-300)
        cat = CatalogVariant(CUSTOM.name, {**CUSTOM.devices, DeviceKind.DAC: dac})
        with pytest.raises(ValueError, match="rated_frequency_hz = 1e-300"):
            sweep(ARCH, {cat.name: cat}, "K", [4, 8])

    @pytest.mark.parametrize("include_memory", [False, True])
    @pytest.mark.parametrize("convention", CONVENTIONS)
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("axis, values", [
        ("K", [1, 2, 3, 8, 17, 32, 64]), ("T", [1, 7, 60, 120]), ("variant", ["foundry", "foundry-sl", "custom_sl"]),
    ])
    def test_each_point_is_its_cost_report(self, axis, values, topology, convention, include_memory):
        kwargs = {"include_memory": include_memory, "convention": convention, "topology": topology}
        template = ArchConfig(r_tiles=2, c_cores=3, k=8, clock_hz=3e9, t_int=30, t_rst=1, bits_in=5, bits_out=7)
        names = ("foundry", "foundry_sl", "custom_sl")
        if axis == "variant":
            catalogs = [{v: load_builtin_catalog(v) for v in names}]
        else:
            catalogs = [{v: load_builtin_catalog(v)} for v in names]
        for cats in catalogs:
            reports = sweep(template, cats, axis, values, **kwargs)
            if axis == "variant":
                points = [(template, cats[v.replace("-", "_")]) for v in values]
            else:
                field, (cat,) = {"K": "k", "T": "t_int"}[axis], cats.values()
                points = [(replace(template, **{field: v}), cat) for v in values]
            assert [r.arch for r in reports] == [arch for arch, _ in points]
            for r, (arch, cat) in zip(reports, points):
                # The same floats: equal dicts, and equal JSON bytes.
                expected = cost_report(arch, cat, **kwargs).to_dict()
                assert r.to_dict() == expected
                assert json.dumps(r.to_dict()) == json.dumps(expected)

    def test_arch_fields_are_positional(self):
        # sweep builds each point from the template's init-field values by position.
        assert [f.name for f in fields(ArchConfig) if f.init and f.kw_only] == []

    @pytest.mark.parametrize("axis, value", [("K", 2.5), ("K", True), ("K", "8"), ("T", 60.9), ("T", False),
                                             ("T", "60"), ("K", np.float64(8.0)), ("T", None)])
    def test_non_integer_value_rejected_by_name(self, axis, value):
        field = {"K": "k", "T": "t_int"}[axis]
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {re.escape(repr(value))}"):
            sweep(ARCH, {"custom_sl": CUSTOM}, axis, [8, value])

    @pytest.mark.parametrize("axis, field", [("K", "k"), ("T", "t_int")])
    def test_numpy_integers_are_points(self, axis, field):
        values = [np.int64(8), np.uint8(16), np.int32(4)]
        reports = sweep(ARCH, {"custom_sl": CUSTOM}, axis, values)
        assert [type(getattr(r.arch, field)) for r in reports] == [int] * 3
        assert [r.to_dict() for r in reports] == [
            r.to_dict() for r in sweep(ARCH, {"custom_sl": CUSTOM}, axis, [8, 16, 4])
        ]

    @pytest.mark.parametrize("axis", ["K", "T"])
    @pytest.mark.parametrize("catalogs", [{}, {"foundry": FOUNDRY, "custom_sl": CUSTOM}], ids=["0", "2"])
    def test_k_and_t_sweeps_price_exactly_one_catalog(self, axis, catalogs):
        with pytest.raises(ValueError, match=f"a {axis} sweep prices exactly one catalog, got {len(catalogs)}"):
            sweep(ARCH, catalogs, axis, [4])

    def test_unknown_variant_named_with_the_catalogs_held(self):
        msg = "no catalog for variant 'foundry'; catalogs held: ['custom_sl']"
        with pytest.raises(ValueError, match=re.escape(msg)):
            sweep(ARCH, {"custom_sl": CUSTOM}, "variant", ["custom-sl", "foundry"])

    def test_csv_has_header_and_rows(self):
        reports = sweep(ARCH, {"custom_sl": CUSTOM}, "K", [8, 16])
        lines = sweep_to_csv(reports).strip().splitlines()
        assert lines[0].startswith("variant,k,t_int,total_area_mm2")
        assert len(lines) == 3


def fresh_custom():
    """A catalog object with the builtin custom_sl devices that nothing has priced yet."""
    return load_catalog(builtin_catalog_path("custom_sl"))


def counting(monkeypatch, module, name, calls):
    """Rebind module.name to a wrapper that counts its calls in calls[name]."""
    func = getattr(module, name)
    calls[name] = 0

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return func(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


class TestCatalogTerms:
    """A catalog's device terms are resolved once per catalog object, and
    each point is still priced through the module's pricing functions."""

    def test_each_point_calls_the_pricing_functions_by_module_name(self, monkeypatch):
        # The bench's traced run wraps these module attributes and counts their spans.
        calls = {}
        for name in ("cost_report", "insertion_loss", "area_estimate", "power_estimate"):
            counting(monkeypatch, costs, name, calls)
        sweep(ARCH, {"custom_sl": CUSTOM}, "K", [4, 8])
        assert calls == dict.fromkeys(calls, 2)

    def test_two_sweeps_resolve_a_catalog_once(self, monkeypatch):
        calls = {}
        counting(monkeypatch, costs, "_node_area_um2", calls)
        cat = fresh_custom()
        sweep(ARCH, {cat.name: cat}, "K", [4, 8])
        sweep(ARCH, {cat.name: cat}, "T", [10, 60])
        assert calls["_node_area_um2"] == 1

    @pytest.mark.parametrize("builtin_first", [True, False])
    def test_a_catalog_named_like_a_builtin_prices_from_its_own_devices(self, builtin_first):
        builtin = fresh_custom()
        dac = builtin.device(DeviceKind.DAC)
        changed = CatalogVariant("custom_sl", {**builtin.devices, DeviceKind.DAC: replace(dac, area_um2=2 * dac.area_um2)})
        order = (builtin, changed) if builtin_first else (changed, builtin)
        first, second = (cost_report(ARCH, cat) for cat in order)
        ref, mod = (first, second) if builtin_first else (second, first)
        (pinned,) = [c["sha256"] for c in pinned_cases()[0] if c["variant"] == "custom_sl"
                     and c["arch"] == {} and not c["include_memory"] and c["convention"] == "peak"
                     and c["topology"] == "embedded_uneven"]
        assert hashlib.sha256(json.dumps(ref.to_dict()).encode()).hexdigest() == pinned
        assert mod.area_by_component == {**ref.area_by_component, "dac": 2 * ref.area_by_component["dac"]}
        assert (mod.power_by_component, mod.loss, mod.laser_power_required_w) == (
            ref.power_by_component, ref.loss, ref.laser_power_required_w)

    def test_equal_catalogs_give_equal_reports(self):
        a, b = fresh_custom(), fresh_custom()
        assert a == b and a is not b
        ra, rb = (cost_report(ARCH, cat, include_memory=True) for cat in (a, b))
        assert json.dumps(ra.to_dict()) == json.dumps(rb.to_dict())

    def test_terms_are_freed_with_their_catalog(self):
        # Nothing process-wide keeps a catalog or its terms.
        cat = fresh_custom()
        sweep(ARCH, {cat.name: cat}, "K", [4, 8])
        refs = weakref.ref(cat), weakref.ref(costs._terms(cat))
        del cat
        gc.collect()
        assert [r() for r in refs] == [None, None]


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
