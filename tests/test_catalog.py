"""Catalog loading and schema validation."""

import dataclasses
import json
import math

import pytest

from ptcsim import (
    CatalogError,
    CatalogVariant,
    DeviceKind,
    DeviceSpec,
    builtin_catalog_path,
    dump_catalog,
    load_builtin_catalog,
    load_catalog,
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

    def test_unknown_variant_raises_on_every_load(self):
        for _ in range(2):
            with pytest.raises(CatalogError, match="no builtin catalog"):
                load_builtin_catalog("exotic")

    def test_builtin_catalogs_are_parsed_once_per_spelling(self):
        assert load_builtin_catalog("custom-sl") is load_builtin_catalog("custom_sl")
        assert load_builtin_catalog("foundry") is load_builtin_catalog("foundry")

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
            pytest.param("laser", "power_w", 10**400, "must be a finite number", id="laser-power_w-10**400"),
            pytest.param("crossing", "insertion_loss_db", -10**400, "must be a finite number",
                         id="crossing-insertion_loss_db--10**400"),
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
            ("dac", "rated_bits", 17, "must be <= 16, got 17"),
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


class TestReadOnlyCatalog:
    @pytest.fixture(params=["builtin", "file"])
    def cat(self, request, tmp_path):
        if request.param == "builtin":
            return load_builtin_catalog("custom-sl")
        dump_catalog(load_builtin_catalog("custom-sl"), tmp_path / "c.json")
        return load_catalog(tmp_path / "c.json")

    def test_devices_cannot_be_assigned_or_deleted(self, cat):
        laser = cat.device(DeviceKind.LASER)
        with pytest.raises(TypeError):
            cat.devices[DeviceKind.LASER] = dataclasses.replace(laser, power_w=1.0)
        with pytest.raises(TypeError):
            del cat.devices[DeviceKind.LASER]
        assert cat.device(DeviceKind.LASER) is laser

    def test_catalog_keeps_its_own_copy_of_the_devices(self, cat):
        devices = dict(cat.devices)
        copy = CatalogVariant("c", devices)
        del devices[DeviceKind.LASER]
        assert DeviceKind.LASER in copy.devices
