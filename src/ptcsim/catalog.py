"""Device catalog: parameter tables, validation, and photonic geometry formulas.

A catalog file is a strict-schema JSON document listing one device spec per
component kind (converters, modulators, splitters, detectors, ...).  Three
catalogs ship with the package (foundry, foundry_sl, custom_sl) covering the
modeled technology variants.  This module owns every rule of a valid device
and catalog, so a catalog that loads is one the cost model and the simulator
can run, unless its losses take the laser power or current out of the float
range.  Each kind has its required fields and each numeric field its type
and range (_FIELD_RULES): powers, areas, losses, dark current and energy per
bit >= 0; lengths, widths, rated frequency and responsivity > 0; extinction
ratio > 0 or +inf (ideal), with the engine's 1 - 10^(-ER/10) > 0;
rated_bits in CONVERTER_BITS; fanout_n >= 2; the DAC's and the laser's
power > 0.  A catalog holds every kind, one of mzm and
slmzm being enough, and a photodetector with a length and width.

Geometry helpers compute multimode-interference splitter dimensions,
directional-coupler coupling lengths, and phase-shifter arm imbalance from
the underlying design formulas.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .engine import _er_power_factor

__all__ = [
    "CatalogError",
    "DeviceKind",
    "DeviceSpec",
    "CatalogVariant",
    "MmiDesign",
    "load_catalog",
    "dump_catalog",
    "builtin_catalog_path",
    "load_builtin_catalog",
    "variant_name",
    "beating_length",
    "mmi_length_center_fed",
    "mmi_length_paired",
    "mmi_length_general",
    "scale_1x2k_mmi",
    "coupling_length_for_ratio",
    "phase_shifter_delta",
    "beta_for_width",
    "COUPLING_LENGTH_TABLE_UM",
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
        for name, (number, low, strict, high) in _KIND_RULES[self.kind].items():
            v = getattr(self, name)
            if v is None:
                continue
            if number is int:
                if type(v) is not int:  # rejects bool too
                    raise CatalogError(f"device {self.name!r}: {name} must be an integer, got {v!r}")
            elif isinstance(v, bool) or not isinstance(v, (int, float)) or not (
                math.isfinite(v) or v == high == math.inf
            ):
                raise CatalogError(f"device {self.name!r}: {name} must be a finite number, got {v!r}")
            if not (v > low if strict else v >= low) or (high is not None and v > high):
                bound = f"{'>' if strict else '>='} {low}" if high in (None, math.inf) else f"in [{low}, {high}]"
                raise CatalogError(f"device {self.name!r}: {name} must be {bound}, got {v!r}")
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

    @property
    def footprint_um2(self) -> float:
        """Area in um^2, falling back to length x width when area is implicit."""
        if self.area_um2 is not None:
            return self.area_um2
        if self.length_um is not None and self.width_um is not None:
            return self.length_um * self.width_um
        raise CatalogError(f"device {self.name!r}: no area information")


#: The rule of each numeric field of DeviceSpec: (type, low, strict, high).
#: An int field holds an integer and a float field a finite number, neither a
#: bool; a high of +inf admits +inf itself (the ideal modulator).  The value
#: must be > low when strict, else >= low, and <= high unless high is None.
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
    "sensitivity_dbm": (float, -math.inf, False, None),
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
    (mzm or slmzm) enough, and each device the fields the models read.
    """

    name: str
    devices: dict[str, DeviceSpec]

    def __post_init__(self):
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

    def mmi_base(self) -> "MmiDesign":
        """The fanout-splitter MMI base design used for 1x2K scaling."""
        dev = self.device(DeviceKind.SPLITTER_1XN)
        return MmiDesign(
            fanout_n=dev.fanout_n,
            l_mmi_um=dev.length_um,
            w_mmi_um=dev.width_um,
            il_db=dev.insertion_loss_db,
        )


@dataclass(frozen=True)
class MmiDesign:
    """Geometry of a 1xN multimode-interference splitter."""

    fanout_n: int
    l_mmi_um: float
    w_mmi_um: float
    il_db: float

    def __post_init__(self):
        if self.fanout_n < 2:
            raise CatalogError(f"MMI fanout must be >= 2, got {self.fanout_n}")
        if self.l_mmi_um <= 0 or self.w_mmi_um <= 0:
            raise CatalogError("MMI dimensions must be > 0")

    @property
    def area_um2(self) -> float:
        return self.l_mmi_um * self.w_mmi_um


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


def load_builtin_catalog(variant: str) -> CatalogVariant:
    return load_catalog(builtin_catalog_path(variant))


# ---------------------------------------------------------------------------
# Geometry formulas


def beating_length(n_eff: float, w_e_um: float, lambda0_um: float) -> float:
    """Beat length of the two lowest modes: L_pi ~ 4 n_eff w_e^2 / (3 lambda0)."""
    if n_eff <= 0 or w_e_um <= 0 or lambda0_um <= 0:
        raise ValueError("beating_length arguments must be > 0")
    return 4.0 * n_eff * w_e_um**2 / (3.0 * lambda0_um)


def mmi_length_center_fed(l_pi_um: float, fanout_k: int, order_i: int = 1) -> float:
    """Multimode-section length for a center-fed 1xK splitter: 3 i L_pi / (4K)."""
    if fanout_k < 2:
        raise ValueError(f"fanout_k must be >= 2, got {fanout_k}")
    if order_i < 1:
        raise ValueError(f"order_i must be >= 1, got {order_i}")
    return 3.0 * order_i * l_pi_um / (4.0 * fanout_k)


def mmi_length_paired(l_pi_um: float, k: int, order_i: int = 1) -> float:
    """Multimode-section length under paired interference: i L_pi / K."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if order_i < 1:
        raise ValueError(f"order_i must be >= 1, got {order_i}")
    return order_i * l_pi_um / k


def mmi_length_general(l_pi_um: float, k: int, order_i: int = 1) -> float:
    """Multimode-section length under general interference: 3 i L_pi / K.

    Exactly 3x the paired-interference length for the same (i, K).
    """
    return 3.0 * mmi_length_paired(l_pi_um, k, order_i)


def scale_1x2k_mmi(base: MmiDesign, target_fanout: int) -> MmiDesign:
    """Scale a 1xN MMI design to a new fanout.

    Length and width scale linearly with fanout; insertion loss is held
    constant (near-constant measured IL across the simulated fanouts).
    """
    if target_fanout < 2:
        raise ValueError(f"target_fanout must be >= 2, got {target_fanout}")
    s = target_fanout / base.fanout_n
    return replace(
        base,
        fanout_n=target_fanout,
        l_mmi_um=base.l_mmi_um * s,
        w_mmi_um=base.w_mmi_um * s,
    )


#: Directional-coupler coupling length (um) vs splitting ratio, simulated with
#: 480 nm waveguides and a 200 nm gap.
COUPLING_LENGTH_TABLE_UM: dict[str, float] = {
    "1:1": 14.6,
    "1:2": 11.2,
    "1:3": 9.2,
    "1:4": 8.0,
    "1:5": 7.0,
}


def coupling_length_for_ratio(ratio: str) -> float:
    """Tabulated coupling length for an uneven splitting ratio ('1:1'..'1:5').

    Ratios beyond 1:5 have no published geometry and raise a lookup error;
    the loss model still covers them via the generic splitter IL entry.
    """
    try:
        return COUPLING_LENGTH_TABLE_UM[ratio]
    except KeyError:
        raise LookupError(
            f"no coupling length tabulated for ratio {ratio!r}; "
            f"supported: {sorted(COUPLING_LENGTH_TABLE_UM)}"
        ) from None


def phase_shifter_delta(beta1_per_um: float, beta2_per_um: float, length_um: float) -> float:
    """Phase difference (rad) between two equal-length arms: (b1 - b2) L."""
    if length_um <= 0:
        raise ValueError(f"length_um must be > 0, got {length_um}")
    return (beta1_per_um - beta2_per_um) * length_um


# Calibrated width-to-propagation-constant model for the static pi/2 shifter.
# The two arms sit symmetrically around a 480 nm nominal width; the odd
# quadratic term is fit so that the 488/472 nm design gives pi/2 over 30 um
# and the worst-case 490/470 nm pair gives 0.6345 pi.
_PS_NOMINAL_WIDTH_NM = 480.0
_PS_BETA_LINEAR = 3.0735248127620133e-3  # rad/um per nm of width offset
_PS_BETA_QUAD = 2.4870941840919292e-5    # rad/um per nm^2 (odd symmetric term)
_PS_BETA_BASE = 9.525        # rad/um at the nominal width (1550 nm, n_eff ~ 2.35)


def beta_for_width(width_nm: float) -> float:
    """Propagation constant (rad/um) of a shifter arm vs waveguide width.

    A calibrated odd-quadratic linearization around the 480 nm nominal width;
    valid over the few-nm design/variation range, no dispersion modeled.
    """
    d = width_nm - _PS_NOMINAL_WIDTH_NM
    return _PS_BETA_BASE + _PS_BETA_LINEAR * d + _PS_BETA_QUAD * d * abs(d)
