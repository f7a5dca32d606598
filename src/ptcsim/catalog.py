"""Device catalog: parameter tables and validation.

A catalog file is a strict-schema JSON document listing one device spec per
component kind (converters, modulators, splitters, detectors, ...).  Three
catalogs ship with the package (foundry, foundry_sl, custom_sl) covering the
modeled technology variants; load_builtin_catalog parses each once per
process, and every catalog is read-only, so callers share them.  This module
owns every rule of a valid device and catalog, so a catalog that loads is one
the cost model and the simulator can run, unless its losses take the laser
power or current out of the float range, or its fields a priced area or
power: cost_report and sweep then raise ValueError rather than return inf or
NaN, and the CLI reports each as bad input.  Each kind has its required fields
and each numeric field its type and range (_FIELD_RULES): powers, areas,
losses, dark current and energy per bit >= 0; lengths, widths, rated
frequency and responsivity > 0; extinction ratio > 0 or +inf (ideal), with
the engine's 1 - 10^(-ER/10) > 0; rated_bits in CONVERTER_BITS;
fanout_n >= 2; the DAC's and the laser's power > 0.  A catalog holds every
kind, one of mzm and slmzm being enough, and a photodetector with a length
and width.  _check_numbers is the package's one number rule: every config
type declares its rules (name, type, low, strict, high) and checks by it.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, fields
from pathlib import Path
from types import MappingProxyType

from .engine import _er_power_factor

__all__ = [
    "CatalogError",
    "DeviceKind",
    "DeviceSpec",
    "CatalogVariant",
    "load_catalog",
    "dump_catalog",
    "builtin_catalog_path",
    "load_builtin_catalog",
    "variant_name",
]


class CatalogError(ValueError):
    """Raised on schema violations or non-physical device parameters."""


class DeviceKind:
    """String constants for the supported device kinds."""

    DAC = "dac"
    ADC = "adc"
    PHOTODETECTOR = "photodetector"
    TIA = "tia"
    MZM = "mzm"
    SLMZM = "slmzm"
    COUPLER_2X2 = "coupler_2x2"
    PHASE_SHIFTER = "phase_shifter"
    SPLITTER_1XN = "splitter_1xn"
    TAP_SPLITTER = "tap_splitter"
    CROSSING = "crossing"
    FIBER_COUPLING = "fiber_coupling"
    LASER = "laser"
    INTEGRATOR = "integrator"
    SRAM = "sram"

    ALL = (
        DAC, ADC, PHOTODETECTOR, TIA, MZM, SLMZM, COUPLER_2X2, PHASE_SHIFTER,
        SPLITTER_1XN, TAP_SPLITTER, CROSSING, FIBER_COUPLING, LASER,
        INTEGRATOR, SRAM,
    )


_MODULATOR_FIELDS = ("power_w", "insertion_loss_db", "area_um2", "extinction_ratio_db", "energy_per_bit_j")

# Fields that must be present for each kind, beyond "kind" and "name".
_REQUIRED_FIELDS: dict[str, tuple[str, ...]] = {
    DeviceKind.DAC: ("power_w", "rated_frequency_hz", "rated_bits", "area_um2"),
    DeviceKind.ADC: ("power_w", "rated_frequency_hz", "rated_bits", "area_um2"),
    DeviceKind.PHOTODETECTOR: ("power_w", "area_um2", "responsivity_a_per_w", "sensitivity_dbm", "dark_current_a"),
    DeviceKind.TIA: ("power_w", "rated_frequency_hz", "area_um2"),
    DeviceKind.MZM: _MODULATOR_FIELDS,
    DeviceKind.SLMZM: _MODULATOR_FIELDS,
    DeviceKind.COUPLER_2X2: ("insertion_loss_db", "length_um", "width_um"),
    DeviceKind.PHASE_SHIFTER: ("power_w", "insertion_loss_db", "length_um", "width_um"),
    DeviceKind.SPLITTER_1XN: ("insertion_loss_db", "length_um", "width_um", "fanout_n"),
    DeviceKind.TAP_SPLITTER: ("insertion_loss_db", "length_um", "width_um"),
    DeviceKind.CROSSING: ("insertion_loss_db", "area_um2"),
    DeviceKind.FIBER_COUPLING: ("insertion_loss_db",),
    DeviceKind.LASER: ("power_w",),
    DeviceKind.INTEGRATOR: ("power_w", "area_um2"),
    DeviceKind.SRAM: ("power_w", "area_um2"),
}

_VARIANT_NAMES = ("foundry", "foundry_sl", "custom_sl")
_FLOAT_MAX = sys.float_info.max

#: The bit-width range of a converter: a DAC's or ADC's rated_bits, and
#: ArchConfig's bits_in and bits_out.
CONVERTER_BITS = (1, 16)

#: Fields a device needs in a catalog beyond _REQUIRED_FIELDS: the crossbar
#: node's layout places the detector pair by its length and width.
_CATALOG_FIELDS: dict[str, tuple[str, ...]] = {DeviceKind.PHOTODETECTOR: ("length_um", "width_um")}

#: The kinds a complete catalog holds, each as its alternatives: every kind,
#: with one input modulator of either kind.
_CATALOG_KINDS = tuple(
    (DeviceKind.MZM, DeviceKind.SLMZM) if kind == DeviceKind.MZM else (kind,)
    for kind in DeviceKind.ALL
    if kind != DeviceKind.SLMZM
)


def _check_numbers(obj, rules: Iterable[tuple], prefix: str = "", error: type = ValueError) -> None:
    """Raise error, as "{prefix}{name} must be ...", unless obj.name keeps each rule (name, type, low, strict, high).

    An int field holds an int, not a bool or a numpy integer; a float field a
    finite int or float, not a bool, or +inf if high is +inf.  The value must
    be > low when strict, else >= low (> -inf: no lower bound), and <= high
    unless high is None.  An error names the bound that failed.  Rules are
    flat tuples and fields are read by getattr, as ArchConfig is checked per
    sweep point: vars(obj) would build the __dict__ a dataclass lacks.
    """
    for name, kind, low, strict, high in rules:
        v = getattr(obj, name)
        if type(v) is kind and (low < v if strict else low <= v) and v <= (_FLOAT_MAX if high is None else high):
            continue
        if kind is int:
            if type(v) is not int:
                raise error(f"{prefix}{name} must be an integer, got {v!r}")
        elif isinstance(v, bool) or not isinstance(v, (int, float)) or not (
            abs(v) <= _FLOAT_MAX or v == high == math.inf  # NaN, and an int past the float range, fail
        ):
            raise error(f"{prefix}{name} must be a finite number, got {v!r}")
        if not (low < v if strict else low <= v):
            raise error(f"{prefix}{name} must be {'>' if strict else '>='} {low}, got {v}")
        if high is not None and v > high:
            raise error(f"{prefix}{name} must be <= {high}, got {v}")


@dataclass(frozen=True)
class DeviceSpec:
    """Tabulated parameters of one component class.

    Units are fixed: um, um^2, W, Hz, dB, dBm, A/W, A, J/bit.  For SRAM the
    power/area entries are densities per MB of capacity.  Each numeric field
    that is present is checked against its kind's rule for it, a type and a
    range (_KIND_RULES).
    """

    kind: str
    name: str
    power_w: float | None = None
    rated_frequency_hz: float | None = None
    rated_bits: int | None = None
    area_um2: float | None = None
    length_um: float | None = None
    width_um: float | None = None
    insertion_loss_db: float | None = None
    extinction_ratio_db: float | None = None
    responsivity_a_per_w: float | None = None
    sensitivity_dbm: float | None = None
    dark_current_a: float | None = None
    energy_per_bit_j: float | None = None
    fanout_n: int | None = None

    def __post_init__(self):
        if self.kind not in DeviceKind.ALL:
            raise CatalogError(f"unknown device kind {self.kind!r}")
        self._require(_REQUIRED_FIELDS[self.kind])
        self._check_physical()

    def _require(self, names: tuple[str, ...]) -> None:
        for name in names:
            if getattr(self, name) is None:
                raise CatalogError(
                    f"device {self.name!r} (kind {self.kind}): missing required field {name!r}"
                )

    def _check_physical(self):
        rules = [(name, *rule) for name, rule in _KIND_RULES[self.kind].items() if getattr(self, name) is not None]
        _check_numbers(self, rules, f"device {self.name!r}: ", CatalogError)
        er = self.extinction_ratio_db
        if er is not None:
            try:
                _er_power_factor(er)  # the engine's own rule, so the two cannot drift
            except ValueError:
                raise CatalogError(f"device {self.name!r}: extinction_ratio_db must be > 0 with 1 - 10^(-ER/10) > 0, "
                                   f"got {er!r}") from None
        # 0.5% slack covers rounded table entries.
        if self.area_um2 is not None and self.length_um is not None and self.width_um is not None:
            prod = self.length_um * self.width_um
            if prod > 0 and abs(prod - self.area_um2) / prod > 0.005:
                raise CatalogError(
                    f"device {self.name!r}: area_um2={self.area_um2} inconsistent with "
                    f"length x width = {prod}"
                )


#: The rule (type, low, strict, high) of each numeric field of DeviceSpec (see
#: _check_numbers); a high of +inf admits +inf itself, the ideal modulator.
_FIELD_RULES: dict[str, tuple] = {
    "power_w": (float, 0, False, None),
    "rated_frequency_hz": (float, 0, True, None),
    "rated_bits": (int, CONVERTER_BITS[0], False, CONVERTER_BITS[1]),
    "area_um2": (float, 0, False, None),
    "length_um": (float, 0, True, None),
    "width_um": (float, 0, True, None),
    "insertion_loss_db": (float, 0, False, None),
    "extinction_ratio_db": (float, 0, True, math.inf),
    "responsivity_a_per_w": (float, 0, True, None),
    "sensitivity_dbm": (float, -math.inf, True, None),
    "dark_current_a": (float, 0, False, None),
    "energy_per_bit_j": (float, 0, False, None),
    "fanout_n": (int, 2, False, None),
}

#: Each kind's rules: _FIELD_RULES, except that the DAC's power sets the input
#: chains' power scale and the laser's the engine's photocurrent, so neither
#: may be zero.
_KIND_RULES: dict[str, dict[str, tuple]] = {kind: dict(_FIELD_RULES) for kind in DeviceKind.ALL}
_KIND_RULES[DeviceKind.DAC]["power_w"] = _KIND_RULES[DeviceKind.LASER]["power_w"] = (float, 0, True, None)


@dataclass(frozen=True)
class CatalogVariant:
    """A complete device catalog for one technology variant.

    Complete means it holds a device of every kind, with one input modulator
    (mzm or slmzm) enough, and each device the fields the models read.  A
    catalog is read-only: it keeps a private copy of ``devices`` behind a
    MappingProxyType, so a catalog can be shared (load_builtin_catalog), and
    the cost model keeps the terms it resolves from a catalog on the object
    itself (costs._terms), outside the fields that equality and repr read.
    """

    name: str
    devices: Mapping[str, DeviceSpec]

    def __post_init__(self):
        object.__setattr__(self, "devices", MappingProxyType(dict(self.devices)))
        if not isinstance(self.name, str) or not self.name:
            raise CatalogError(f"variant name must be a non-empty string, got {self.name!r}")
        for kinds in _CATALOG_KINDS:
            if self.devices.keys().isdisjoint(kinds):
                raise CatalogError(
                    f"catalog {self.name!r} has no device of kind {' or '.join(map(repr, kinds))}"
                )
        for kind, names in _CATALOG_FIELDS.items():
            self.devices[kind]._require(names)

    def device(self, kind: str) -> DeviceSpec:
        return self.devices[kind]

    def modulator(self) -> DeviceSpec:
        """The input-encoding modulator: slow-light variant when present."""
        if DeviceKind.SLMZM in self.devices:
            return self.devices[DeviceKind.SLMZM]
        return self.device(DeviceKind.MZM)


# ---------------------------------------------------------------------------
# Catalog I/O

_SCHEMA_VERSION = 1


def _spec_from_dict(entry: dict) -> DeviceSpec:
    if not isinstance(entry, dict):
        raise CatalogError(f"device entry must be an object, got {type(entry).__name__}")
    allowed = {f.name for f in fields(DeviceSpec)}
    unknown = set(entry) - allowed
    if unknown:
        raise CatalogError(
            f"device {entry.get('name', '?')!r}: unknown fields {sorted(unknown)}"
        )
    if "kind" not in entry or "name" not in entry:
        raise CatalogError("device entry requires 'kind' and 'name'")
    return DeviceSpec(**entry)


def load_catalog(path: str | Path) -> CatalogVariant:
    """Load and validate a catalog JSON file.

    Raises CatalogError naming the offending device and field on any schema
    or physical-range violation.  Unknown fields are rejected.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"catalog not found: {path}")
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise CatalogError(f"{path}: not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise CatalogError(f"{path}: a catalog must be a JSON object, got {type(doc).__name__}")
    allowed_top = {"schema_version", "variant", "devices"}
    unknown = set(doc) - allowed_top
    if unknown:
        raise CatalogError(f"{path}: unknown top-level keys {sorted(unknown)}")
    if doc.get("schema_version", _SCHEMA_VERSION) != _SCHEMA_VERSION:
        raise CatalogError(f"{path}: unsupported schema_version {doc['schema_version']}")
    if "variant" not in doc or "devices" not in doc:
        raise CatalogError(f"{path}: requires 'variant' and 'devices'")
    if not isinstance(doc["devices"], list):
        raise CatalogError(f"{path}: 'devices' must be a list of objects, got {type(doc['devices']).__name__}")
    devices: dict[str, DeviceSpec] = {}
    for entry in doc["devices"]:
        spec = _spec_from_dict(entry)
        if spec.kind in devices:
            raise CatalogError(f"{path}: duplicate device kind {spec.kind!r}")
        devices[spec.kind] = spec
    return CatalogVariant(name=doc["variant"], devices=devices)


def dump_catalog(cat: CatalogVariant, path: str | Path) -> None:
    """Serialize a catalog back to JSON (inverse of load_catalog)."""
    entries = []
    for kind in DeviceKind.ALL:
        if kind not in cat.devices:
            continue
        spec = cat.devices[kind]
        entry = {
            f.name: getattr(spec, f.name)
            for f in fields(DeviceSpec)
            if getattr(spec, f.name) is not None
        }
        entries.append(entry)
    doc = {"schema_version": _SCHEMA_VERSION, "variant": cat.name, "devices": entries}
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


_DATA_DIR = Path(__file__).parent / "data"


def variant_name(variant: str) -> str:
    """Canonical variant name: CLI spellings use hyphens, catalogs underscores."""
    return variant.replace("-", "_")


def builtin_catalog_path(variant: str) -> Path:
    """Path of a shipped catalog: 'foundry', 'foundry_sl', or 'custom_sl'."""
    if not isinstance(variant, str) or variant_name(variant) not in _VARIANT_NAMES:
        raise CatalogError(f"no builtin catalog {variant!r}; a builtin catalog must be a catalog name: {_VARIANT_NAMES}")
    return _DATA_DIR / f"{variant_name(variant)}.json"


#: The builtin catalogs parsed so far, by canonical variant name.
_BUILTIN: dict[str, CatalogVariant] = {}


def load_builtin_catalog(variant: str) -> CatalogVariant:
    """A shipped catalog, parsed on its first load in the process and shared
    after that: 'custom-sl' and 'custom_sl' return the same read-only object."""
    cat = _BUILTIN.get(variant_name(variant)) if isinstance(variant, str) else None
    if cat is None:
        cat = _BUILTIN[variant_name(variant)] = load_catalog(builtin_catalog_path(variant))
    return cat
