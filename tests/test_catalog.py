"""Catalog loading, schema validation, and photonic geometry formulas."""

import dataclasses
import json
import math

import pytest

from ptcsim import (
    COUPLING_LENGTH_TABLE_UM,
    CatalogError,
    CatalogVariant,
    DeviceKind,
    DeviceSpec,
    MmiDesign,
    beating_length,
    beta_for_width,
    builtin_catalog_path,
    coupling_length_for_ratio,
    dump_catalog,
    load_builtin_catalog,
    load_catalog,
    mmi_length_center_fed,
    mmi_length_general,
    mmi_length_paired,
    phase_shifter_delta,
    scale_1x2k_mmi,
    variant_name,
)
from ptcsim.catalog import _FIELD_RULES, _KIND_RULES


@pytest.fixture(params=["foundry", "foundry-sl", "custom-sl"])
def catalog(request):
    return load_builtin_catalog(request.param)


class TestCatalogIO:
    def test_builtin_catalogs_load_and_cover_all_needed_kinds(self, catalog):
        needed = (
            DeviceKind.DAC, DeviceKind.ADC, DeviceKind.PHOTODETECTOR,
            DeviceKind.TIA, DeviceKind.COUPLER_2X2, DeviceKind.PHASE_SHIFTER,
            DeviceKind.SPLITTER_1XN, DeviceKind.TAP_SPLITTER,
            DeviceKind.CROSSING, DeviceKind.FIBER_COUPLING, DeviceKind.LASER,
            DeviceKind.INTEGRATOR, DeviceKind.SRAM,
        )
        for kind in needed:
            assert catalog.device(kind) is not None

    def test_modulator_prefers_slow_light_variant(self):
        assert load_builtin_catalog("custom-sl").modulator().kind == DeviceKind.SLMZM
        assert load_builtin_catalog("foundry").modulator().kind == DeviceKind.MZM

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_catalog(tmp_path / "nope.json")

    @pytest.mark.parametrize("spelling", ["foundry-sl", "foundry_sl"])
    def test_variant_spellings_name_one_catalog(self, spelling):
        assert variant_name(spelling) == "foundry_sl"
        assert load_builtin_catalog(spelling).name == "foundry_sl"

    @pytest.mark.parametrize("name", ["", 7, None])
    def test_variant_name_must_be_a_nonempty_string(self, tmp_path, name):
        path = tmp_path / "cat.json"
        dump_catalog(load_builtin_catalog("foundry"), path)
        doc = json.loads(path.read_text())
        doc["variant"] = name
        path.write_text(json.dumps(doc))
        with pytest.raises(CatalogError, match="non-empty string"):
            load_catalog(path)

    def test_unknown_variant_rejected(self):
        with pytest.raises(CatalogError, match="no builtin catalog"):
            builtin_catalog_path("exotic")

    @pytest.mark.parametrize("variant", [3, None, b"foundry"])
    def test_non_string_variant_rejected(self, variant):
        with pytest.raises(CatalogError, match="no builtin catalog"):
            load_builtin_catalog(variant)

    def test_roundtrip_through_dump(self, tmp_path, catalog):
        path = tmp_path / "cat.json"
        dump_catalog(catalog, path)
        again = load_catalog(path)
        assert again.name == catalog.name
        assert set(again.devices) == set(catalog.devices)
        for kind, spec in catalog.devices.items():
            assert again.devices[kind] == spec

    def _write(self, tmp_path, doc):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(doc))
        return path

    def test_unknown_device_field_rejected(self, tmp_path):
        doc = {
            "schema_version": 1,
            "variant": "foundry",
            "devices": [{"kind": "laser", "name": "l", "power_w": 0.1, "wattage": 3}],
        }
        with pytest.raises(CatalogError, match="unknown fields"):
            load_catalog(self._write(tmp_path, doc))

    def test_missing_required_field_names_device_and_field(self, tmp_path):
        doc = {
            "schema_version": 1,
            "variant": "foundry",
            "devices": [{"kind": "dac", "name": "d", "power_w": 0.05}],
        }
        with pytest.raises(CatalogError, match="'d'.*rated_frequency_hz"):
            load_catalog(self._write(tmp_path, doc))

    def test_duplicate_kind_rejected(self, tmp_path):
        laser = {"kind": "laser", "name": "l", "power_w": 0.1}
        doc = {"schema_version": 1, "variant": "foundry", "devices": [laser, laser]}
        with pytest.raises(CatalogError, match="duplicate"):
            load_catalog(self._write(tmp_path, doc))

    def test_unknown_top_level_key_rejected(self, tmp_path):
        doc = {"schema_version": 1, "variant": "foundry", "devices": [], "extra": 1}
        with pytest.raises(CatalogError, match="unknown top-level"):
            load_catalog(self._write(tmp_path, doc))

    def test_unsupported_schema_version_rejected(self, tmp_path):
        doc = {"schema_version": 99, "variant": "foundry", "devices": []}
        with pytest.raises(CatalogError, match="schema_version"):
            load_catalog(self._write(tmp_path, doc))


class TestDeviceSpec:
    def test_negative_loss_rejected(self):
        with pytest.raises(CatalogError, match="insertion_loss_db"):
            DeviceSpec(kind="crossing", name="x", insertion_loss_db=-1.0, area_um2=64)

    def test_inconsistent_area_rejected(self):
        with pytest.raises(CatalogError, match="inconsistent"):
            DeviceSpec(
                kind="coupler_2x2", name="c", insertion_loss_db=0.1,
                length_um=30, width_um=6, area_um2=500,
            )

    def test_footprint_falls_back_to_length_width(self):
        spec = DeviceSpec(
            kind="coupler_2x2", name="c", insertion_loss_db=0.1,
            length_um=30, width_um=6,
        )
        assert spec.footprint_um2 == 180.0
        with pytest.raises(CatalogError, match="'l': no area information"):
            DeviceSpec(kind="laser", name="l", power_w=0.1).footprint_um2

    def test_unknown_kind_rejected(self):
        with pytest.raises(CatalogError, match="unknown device kind"):
            DeviceSpec(kind="gizmo", name="g")

    @pytest.mark.parametrize(
        "kind, field, value, message",
        [
            ("laser", "power_w", "0.1", "must be a finite number"),
            ("laser", "power_w", True, "must be a finite number"),
            ("laser", "power_w", math.nan, "must be a finite number"),
            ("laser", "power_w", math.inf, "must be a finite number"),
            ("crossing", "insertion_loss_db", -math.inf, "must be a finite number"),
            ("slmzm", "extinction_ratio_db", math.nan, "must be a finite number"),
            ("slmzm", "extinction_ratio_db", -math.inf, "must be a finite number"),
            ("photodetector", "dark_current_a", [1e-9], "must be a finite number"),
            ("dac", "rated_bits", 6.5, "must be an integer"),
            ("dac", "rated_bits", 6.0, "must be an integer"),
            ("dac", "rated_bits", True, "must be an integer"),
            ("splitter_1xn", "fanout_n", 4.0, "must be an integer"),
            ("slmzm", "extinction_ratio_db", math.inf, None),
            ("slmzm", "extinction_ratio_db", 0, "must be > 0, got 0"),
            ("slmzm", "extinction_ratio_db", -3, "must be > 0, got -3"),
            ("slmzm", "extinction_ratio_db", 1e-300, r"must be > 0 with 1 - 10\^\(-ER/10\) > 0, got 1e-300"),
            ("slmzm", "extinction_ratio_db", 1e-15, None),
            ("splitter_1xn", "fanout_n", 1, "must be >= 2, got 1"),
            ("splitter_1xn", "length_um", 0, "must be > 0, got 0"),
            ("photodetector", "dark_current_a", -1e-3, "must be >= 0, got -0.001"),
            ("slmzm", "energy_per_bit_j", -1e-12, "must be >= 0, got -1e-12"),
            ("dac", "rated_bits", 17, r"must be in \[1, 16\], got 17"),
            ("dac", "power_w", 0.0, "must be > 0, got 0.0"),
            ("laser", "power_w", 0.0, "must be > 0, got 0.0"),
            ("phase_shifter", "power_w", 0.0, None),
            ("photodetector", "sensitivity_dbm", -1e3, None),
        ],
    )
    def test_numeric_fields_checked_by_type(self, kind, field, value, message):
        # +inf extinction ratio is the ideal modulator, the one infinity allowed;
        # only the DAC and the laser must draw power.
        spec = load_builtin_catalog("custom-sl").device(kind)
        if message is None:
            assert getattr(dataclasses.replace(spec, **{field: value}), field) == value
            return
        with pytest.raises(CatalogError, match=f"{field} {message}"):
            dataclasses.replace(spec, **{field: value})


    def test_every_numeric_field_has_one_rule(self):
        numeric = {f.name for f in dataclasses.fields(DeviceSpec)} - {"kind", "name"}
        assert set(_FIELD_RULES) == numeric
        assert all(rules.keys() == numeric for rules in _KIND_RULES.values())


class TestCompleteCatalog:
    @pytest.mark.parametrize("kind", [k for k in DeviceKind.ALL if k not in ("mzm", "slmzm")])
    def test_every_kind_is_required(self, kind):
        devices = dict(load_builtin_catalog("custom-sl").devices)
        del devices[kind]
        with pytest.raises(CatalogError, match=f"catalog 'c' has no device of kind '{kind}'$"):
            CatalogVariant("c", devices)

    def test_one_modulator_of_either_kind_is_enough(self):
        custom, foundry = load_builtin_catalog("custom-sl"), load_builtin_catalog("foundry")
        assert DeviceKind.MZM not in custom.devices and DeviceKind.SLMZM not in foundry.devices
        devices = dict(custom.devices)
        del devices[DeviceKind.SLMZM]
        with pytest.raises(CatalogError, match="no device of kind 'mzm' or 'slmzm'"):
            CatalogVariant("c", devices)

    @pytest.mark.parametrize("field", ["length_um", "width_um"])
    def test_photodetector_needs_its_geometry_in_a_catalog(self, field):
        cat = load_builtin_catalog("custom-sl")
        pd = dataclasses.replace(cat.device(DeviceKind.PHOTODETECTOR), **{field: None})
        with pytest.raises(CatalogError, match=f"'ge_pd' \\(kind photodetector\\): missing required field '{field}'"):
            CatalogVariant("c", {**cat.devices, DeviceKind.PHOTODETECTOR: pd})


class TestMmiGeometry:
    # Effective width and index reproducing the simulated 1x10 base design.
    N_EFF, W_E, LAMBDA0 = 2.846, 13.7273419, 1.55

    def test_interference_length_relations(self):
        l_pi = 100.0
        assert mmi_length_general(l_pi, 8) == 3.0 * mmi_length_paired(l_pi, 8)
        assert mmi_length_center_fed(l_pi, 8) == pytest.approx(3 * 100 / 32)

    def test_base_design_dimensions_reproduced(self):
        l_pi = beating_length(self.N_EFF, self.W_E, self.LAMBDA0)
        # Center-fed 1x10 splitter: L = 3 L_pi / 40 -> 34.6 um.
        assert mmi_length_center_fed(l_pi, 10) == pytest.approx(34.6, rel=0.01)

    def test_linear_fanout_scaling_matches_simulated_family(self):
        base = load_builtin_catalog("custom-sl").mmi_base()
        small = scale_1x2k_mmi(base, 8)
        large = scale_1x2k_mmi(base, 12)
        assert small.l_mmi_um == pytest.approx(27.8, rel=0.01)
        assert small.w_mmi_um == pytest.approx(11.3, rel=0.01)
        assert large.l_mmi_um == pytest.approx(41.4, rel=0.01)
        assert large.w_mmi_um == pytest.approx(16.9, rel=0.01)
        # Insertion loss held constant across fanouts.
        assert small.il_db == base.il_db == large.il_db

    def test_scale_rejects_degenerate_fanout(self):
        base = load_builtin_catalog("custom-sl").mmi_base()
        with pytest.raises(ValueError):
            scale_1x2k_mmi(base, 1)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: MmiDesign(1, 30.0, 6.0, 0.1), "MMI fanout must be >= 2, got 1"),
            (lambda: MmiDesign(4, 0.0, 6.0, 0.1), "MMI dimensions must be > 0"),
            (lambda: MmiDesign(4, 30.0, -6.0, 0.1), "MMI dimensions must be > 0"),
            (lambda: beating_length(0.0, 13.7, 1.55), "beating_length arguments must be > 0"),
            (lambda: beating_length(2.8, 13.7, -1.55), "beating_length arguments must be > 0"),
            (lambda: mmi_length_center_fed(100.0, 1), "fanout_k must be >= 2, got 1"),
            (lambda: mmi_length_center_fed(100.0, 8, 0), "order_i must be >= 1, got 0"),
            (lambda: mmi_length_paired(100.0, 1), "k must be >= 2, got 1"),
            (lambda: mmi_length_paired(100.0, 8, 0), "order_i must be >= 1, got 0"),
        ],
    )
    def test_degenerate_design_rejected(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()


class TestSplitterTable:
    def test_tabulated_ratios(self):
        assert coupling_length_for_ratio("1:1") == 14.6
        assert coupling_length_for_ratio("1:5") == 7.0
        # Coupling length decreases monotonically with the tap ratio.
        lengths = [COUPLING_LENGTH_TABLE_UM[f"1:{i}"] for i in range(1, 6)]
        assert lengths == sorted(lengths, reverse=True)

    def test_ratio_beyond_table_raises_lookup_error(self):
        with pytest.raises(LookupError, match="1:6"):
            coupling_length_for_ratio("1:6")


class TestPhaseShifter:
    L_UM = 30.0

    def test_design_point_gives_quarter_wave(self):
        delta = phase_shifter_delta(beta_for_width(488), beta_for_width(472), self.L_UM)
        assert delta == pytest.approx(math.pi / 2, rel=1e-6)

    def test_worst_case_width_variation(self):
        delta = phase_shifter_delta(beta_for_width(490), beta_for_width(470), self.L_UM)
        assert delta == pytest.approx(0.6345 * math.pi, rel=1e-6)

    def test_equal_arms_give_zero_phase(self):
        assert phase_shifter_delta(beta_for_width(480), beta_for_width(480), 30.0) == 0.0

    def test_antisymmetric_in_width_offset(self):
        assert beta_for_width(488) - beta_for_width(480) == pytest.approx(
            beta_for_width(480) - beta_for_width(472)
        )

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            phase_shifter_delta(1.0, 0.9, 0.0)
