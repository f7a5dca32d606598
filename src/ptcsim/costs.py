"""Analytical system cost model: loss chain, laser power, area, power, metrics.

Counting convention
-------------------
The cost model prices the machine the simulator runs.  Per K x K core, the
input side needs 2K DAC+modulator chains, K for X and K for Y, and one 1x2K
fanout MMI; the crossbar holds K^2 dot-product nodes.  The C cores of a tile
sum their photocurrents into one integrator array, so at the architecture
level (R tiles x C cores) there are 2*R*C*K DAC+modulator chains, R*C*K^2
nodes and R*K^2 integrator/TIA/ADC readout chains.  TIA and ADC dynamic
power additionally scales by f / (T * f_rated): temporal integration divides
the conversion rate by T.

Laser power is off-chip and reported separately from on-chip power; memory
enters as fixed global + per-tile SRAM adders (GLOBAL_SRAM_MB, LOCAL_SRAM_MB).
The crossbar node's area is its layout bounding box, with a fixed bend radius
and node spacing (BEND_RADIUS_UM, NODE_SPACING_UM).

What a catalog adds to every point is resolved once per catalog object and
kept on that read-only object (_terms): the device specs the formulas read,
the seven loss terms, the node area, the configured laser, the modulator's
ER and the photodetector.  So a point pays only for its own R/C/K/T
arithmetic, and a catalog built with the name of another prices from its
own devices.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING

from .catalog import CONVERTER_BITS, CatalogVariant, DeviceKind, DeviceSpec, variant_name
from .engine import _er_power_factor

if TYPE_CHECKING:
    from .scheduler import ArchConfig

__all__ = [
    "LossBudget",
    "CostReport",
    "insertion_loss",
    "min_laser_power",
    "laser_power_required",
    "dac_power_scale",
    "area_estimate",
    "power_estimate",
    "metrics",
    "cost_report",
    "sweep",
    "report_to_text",
    "sweep_to_csv",
    "pareto_csv",
    "comparison_points",
    "TOPOLOGIES",
    "CONVENTIONS",
]

TOPOLOGIES = ("embedded_uneven", "double_layer")
CONVENTIONS = ("peak", "reset_derated")

UM2_PER_MM2 = 1e6

#: Global / per-tile buffer capacities (MB) used when memory is included.
GLOBAL_SRAM_MB = 2.0
LOCAL_SRAM_MB = 4.0 / 1024.0

#: Crossbar-node layout (um): the bend radius, and the spacing that covers
#: routing between neighboring nodes, a layout calibration input (the
#: published breakdown fixes it near 35 um).
BEND_RADIUS_UM = 5.0
NODE_SPACING_UM = 35.0


@dataclass(frozen=True)
class LossBudget:
    """Insertion-loss chain from laser facet to photodetector, in dB."""

    il_couple: float
    split_fanout_db: float
    il_mzm: float
    il_cross_total: float
    il_split_total: float
    il_ps: float
    il_dc: float

    @property
    def total_db(self) -> float:
        return (
            self.il_couple + self.split_fanout_db + self.il_mzm + self.il_cross_total
            + self.il_split_total + self.il_ps + self.il_dc
        )


def insertion_loss(
    k: int, cat: CatalogVariant, topology: str = "embedded_uneven"
) -> LossBudget:
    """Worst-path optical loss of a K x K core.

    The embedded-uneven-splitter routing pays (K-1) crossings and K tap
    splitters per path; the double-layer alternative pays (K-1)^2 crossings
    but only one secondary 1xK splitter.  Both include the 10 log10 K^2
    ideal fanout split.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}; options: {TOPOLOGIES}")
    t = _terms(cat)
    fanout = 10.0 * math.log10(float(k) ** 2) if k > 1 else 0.0
    if topology == "embedded_uneven":
        cross_total = (k - 1) * t.il_cross
        split_total = k * t.il_tap
    else:
        cross_total = (k - 1) ** 2 * t.il_cross
        split_total = t.il_splitter
    return LossBudget(t.il_couple, fanout, t.il_mzm, cross_total, split_total, t.il_ps, t.il_dc)


def min_laser_power(
    il_db: float, pd: DeviceSpec, er_db: float, bits_out: int
) -> float:
    """Minimum laser power (W) for b-bit output resolution at a given loss.

    Solves P * (1 - 10^(-ER/10)) / 10^(IL/10) = I_noise/R_PD + 2^b * 10^(S/10)
    at equality, with the PD sensitivity S in dBm; the photodetector spec
    brings its fields checked, and the ER penalty is the engine's.  Raises
    ValueError, naming the loss and the sensitivity, if P overflows a float.
    """
    if bits_out < 1:
        raise ValueError(f"bits_out must be >= 1, got {bits_out}")
    noise_floor_mw = pd.dark_current_a / pd.responsivity_a_per_w * 1e3
    try:  # 10^(x/10) raises past the float range; a product gives inf
        sensitivity_mw = 2.0**bits_out * 10.0 ** (pd.sensitivity_dbm / 10.0)
        p_mw = (noise_floor_mw + sensitivity_mw) * 10.0 ** (il_db / 10.0) / _er_power_factor(er_db)
    except OverflowError:
        p_mw = math.inf
    if p_mw == math.inf:
        raise ValueError(
            f"the laser power for {il_db} dB of insertion loss and {pd.sensitivity_dbm} dBm "
            "photodetector sensitivity overflows a float"
        )
    return p_mw / 1e3


def laser_power_required(arch: ArchConfig, cat: CatalogVariant, il_db: float) -> float:
    """Laser power (W) of the R*C cores: per core, min_laser_power at il_db dB,
    bits_out bits and the catalog's photodetector and modulator ER."""
    t = _terms(cat)
    return arch.r_tiles * arch.c_cores * min_laser_power(il_db, t.pd, t.er_db, arch.bits_out)


def dac_power_scale(p0: float, b0: int, fs0: float, b: int, f: float) -> float:
    """Rescale a rated DAC power to another bit width and update rate.

    P = P0 * b0 * 2^b * f / (2^b0 * b * fs0).
    """
    if min(p0, fs0, f) <= 0 or b0 <= 0 or b <= 0:
        raise ValueError("dac_power_scale arguments must be positive")
    if b > CONVERTER_BITS[1]:
        raise ValueError(f"bit width out of range: {b}")
    return p0 * b0 * 2.0**b * f / (2.0**b0 * b * fs0)


def _node_area_um2(cat: CatalogVariant) -> float:
    """Bounding-box area of one crossbar node (um^2).

    The box packs the tap coupler, bends, phase shifter, and the PD pair:
    length = L_coupler + 4*WBR + W_PD + W_coupler + spacing,
    width  = W_coupler + WBR + W_PS + L_PD + spacing.
    """
    coupler = cat.device(DeviceKind.COUPLER_2X2)
    pd = cat.device(DeviceKind.PHOTODETECTOR)
    ps = cat.device(DeviceKind.PHASE_SHIFTER)
    length = coupler.length_um + 4.0 * BEND_RADIUS_UM + pd.width_um + coupler.width_um + NODE_SPACING_UM
    width = coupler.width_um + BEND_RADIUS_UM + ps.width_um + pd.length_um + NODE_SPACING_UM
    return length * width


@dataclass(frozen=True)
class _CatalogTerms:
    """What a catalog adds to every cost-model point: the device specs the
    formulas read, the seven loss terms (dB), the crossbar node's area, the
    configured laser power and the modulator's ER."""

    dac: DeviceSpec
    mod: DeviceSpec
    mmi: DeviceSpec
    pd: DeviceSpec
    ps: DeviceSpec
    integ: DeviceSpec
    tia: DeviceSpec
    adc: DeviceSpec
    sram: DeviceSpec
    il_couple: float
    il_mzm: float
    il_cross: float
    il_tap: float
    il_splitter: float
    il_ps: float
    il_dc: float
    node_area_um2: float
    laser_w: float
    er_db: float

    @classmethod
    def resolve(cls, cat: CatalogVariant) -> _CatalogTerms:
        dev = cat.device
        mod, mmi, ps = cat.modulator(), dev(DeviceKind.SPLITTER_1XN), dev(DeviceKind.PHASE_SHIFTER)
        return cls(
            dac=dev(DeviceKind.DAC), mod=mod, mmi=mmi, pd=dev(DeviceKind.PHOTODETECTOR), ps=ps,
            integ=dev(DeviceKind.INTEGRATOR), tia=dev(DeviceKind.TIA), adc=dev(DeviceKind.ADC),
            sram=dev(DeviceKind.SRAM),
            il_couple=dev(DeviceKind.FIBER_COUPLING).insertion_loss_db, il_mzm=mod.insertion_loss_db,
            il_cross=dev(DeviceKind.CROSSING).insertion_loss_db, il_tap=dev(DeviceKind.TAP_SPLITTER).insertion_loss_db,
            il_splitter=mmi.insertion_loss_db, il_ps=ps.insertion_loss_db,
            il_dc=dev(DeviceKind.COUPLER_2X2).insertion_loss_db,
            node_area_um2=_node_area_um2(cat), laser_w=dev(DeviceKind.LASER).power_w,
            er_db=mod.extinction_ratio_db,
        )


def _terms(cat: CatalogVariant) -> _CatalogTerms:
    """cat's terms, resolved on the first call for this catalog object and
    kept on it: a catalog is read-only, so they cannot go stale, and they are
    freed with it.  A catalog built with another's name has its own."""
    try:
        return cat._cost_terms
    except AttributeError:
        terms = _CatalogTerms.resolve(cat)
        object.__setattr__(cat, "_cost_terms", terms)
        return terms


def area_estimate(
    arch: ArchConfig,
    cat: CatalogVariant,
    include_memory: bool = False,
) -> dict[str, float]:
    """Per-component area breakdown in mm^2.

    Single-core closed form: A = 2K*A_DAC + 2K*A_mod + A_1x2K_MMI
    + K^2 (A_node + A_int + A_TIA + A_ADC), scaled to R*C cores, except
    that the readout chains are counted per tile (module docstring).  The
    1x2K MMI is the catalog's 1xN splitter with its length and width each
    scaled by 2K/N.
    """
    t = _terms(cat)
    k = arch.k
    n_cores = arch.r_tiles * arch.c_cores
    mmi = t.mmi
    s = 2 * k / mmi.fanout_n
    inputs = 2 * n_cores * k
    readout = arch.r_tiles * k**2
    nodes = n_cores * k**2

    breakdown = {
        "dac": inputs * t.dac.area_um2 / UM2_PER_MM2,
        "modulator": inputs * t.mod.area_um2 / UM2_PER_MM2,
        "fanout_mmi": n_cores * ((mmi.length_um * s) * (mmi.width_um * s)) / UM2_PER_MM2,
        "crossbar_node": nodes * t.node_area_um2 / UM2_PER_MM2,
        "integrator": readout * t.integ.area_um2 / UM2_PER_MM2,
        "tia": readout * t.tia.area_um2 / UM2_PER_MM2,
        "adc": readout * t.adc.area_um2 / UM2_PER_MM2,
    }
    if include_memory:
        breakdown["memory"] = (
            (GLOBAL_SRAM_MB + arch.r_tiles * LOCAL_SRAM_MB) * t.sram.area_um2 / UM2_PER_MM2
        )
    return breakdown


def power_estimate(
    arch: ArchConfig,
    cat: CatalogVariant,
    include_memory: bool = False,
) -> dict[str, float]:
    """Per-component on-chip power breakdown in W.

    Single-core closed form: P = 2K (P_DAC + P_mod) + K^2 (2 P_PD + P_PS
    + P_int + P_TIA + P_ADC), with DAC power rescaled to the configured bit
    width and clock, and TIA/ADC scaled by f / (T * f_rated); scaled to R*C
    cores, except that the readout chains are counted per tile.
    """
    k = arch.k
    n_cores = arch.r_tiles * arch.c_cores
    f = arch.clock_hz
    t = _terms(cat)
    dac, mod, tia, adc = t.dac, t.mod, t.tia, t.adc

    p_dac = dac_power_scale(
        dac.power_w, dac.rated_bits, dac.rated_frequency_hz, arch.bits_in, f
    )
    p_mod = mod.power_w + mod.energy_per_bit_j * f
    p_tia = tia.power_w * f / (arch.t_int * tia.rated_frequency_hz)
    p_adc = adc.power_w * f / (arch.t_int * adc.rated_frequency_hz)

    inputs = 2 * n_cores * k
    readout = arch.r_tiles * k**2
    nodes = n_cores * k**2

    breakdown = {
        "dac": inputs * p_dac,
        "modulator": inputs * p_mod,
        "photodetector": nodes * 2 * t.pd.power_w,
        "phase_shifter": nodes * t.ps.power_w,
        "integrator": readout * t.integ.power_w,
        "tia": readout * p_tia,
        "adc": readout * p_adc,
    }
    if include_memory:
        breakdown["memory"] = (GLOBAL_SRAM_MB + arch.r_tiles * LOCAL_SRAM_MB) * t.sram.power_w
    return breakdown


def metrics(
    arch: ArchConfig,
    area_mm2: float,
    power_w: float,
    convention: str = "peak",
) -> tuple[float, float, float]:
    """(tops, tops_per_w, tops_per_mm2).

    Peak speed is 2 K^2 R C f operations/s; the reset-derated convention
    multiplies by T/(T + T_rst) for the integrator discharge dead time.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; options: {CONVENTIONS}")
    if area_mm2 <= 0 or power_w <= 0:
        raise ValueError("area and power must be > 0")
    ops = 2.0 * arch.k**2 * arch.r_tiles * arch.c_cores * arch.clock_hz
    if convention == "reset_derated":
        ops *= arch.t_int / (arch.t_int + arch.t_rst)
    tops = ops / 1e12
    return tops, tops / power_w, tops / area_mm2


@dataclass(frozen=True)
class CostReport:
    """Complete system cost summary for one configuration."""

    variant: str
    arch: ArchConfig
    convention: str
    topology: str
    include_memory: bool
    area_by_component: dict[str, float]
    power_by_component: dict[str, float]
    loss: LossBudget
    laser_power_required_w: float
    laser_power_configured_w: float
    tops: float
    tops_per_w: float
    tops_per_mm2: float

    @property
    def total_area_mm2(self) -> float:
        return sum(self.area_by_component.values())

    @property
    def total_power_w(self) -> float:
        return sum(self.power_by_component.values())

    @property
    def wall_power_w(self) -> float:
        """On-chip power plus the off-chip laser requirement."""
        return self.total_power_w + self.laser_power_required_w

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "variant": self.variant,
            "arch": self.arch.to_dict(),
            "convention": self.convention,
            "topology": self.topology,
            "include_memory": self.include_memory,
            "area_mm2": {**self.area_by_component, "total": self.total_area_mm2},
            "power_w": {**self.power_by_component, "total": self.total_power_w},
            "insertion_loss_db": {
                "couple": self.loss.il_couple,
                "fanout": self.loss.split_fanout_db,
                "modulator": self.loss.il_mzm,
                "crossings": self.loss.il_cross_total,
                "splitters": self.loss.il_split_total,
                "phase_shifter": self.loss.il_ps,
                "coupler": self.loss.il_dc,
                "total": self.loss.total_db,
            },
            "laser_power_required_w": self.laser_power_required_w,
            "laser_power_configured_w": self.laser_power_configured_w,
            "wall_power_w": self.wall_power_w,
            "tops": self.tops,
            "tops_per_w": self.tops_per_w,
            "tops_per_mm2": self.tops_per_mm2,
        }


def cost_report(
    arch: ArchConfig,
    cat: CatalogVariant,
    include_memory: bool = False,
    convention: str = "peak",
    topology: str = "embedded_uneven",
) -> CostReport:
    """Assemble the full cost report for one architecture point.

    Every number of the report is a finite float, or it raises ValueError:
    min_laser_power names the loss if the laser power overflows; an area or
    on-chip power total that is not finite and > 0 is named with the device
    fields of its largest (or first non-finite) component; and TOPS/W,
    TOPS/mm^2 and the wall power must stay in the float range.
    """
    loss = insertion_loss(arch.k, cat, topology)
    laser_req = laser_power_required(arch, cat, loss.total_db)
    area = area_estimate(arch, cat, include_memory)
    power = power_estimate(arch, cat, include_memory)
    total_area = sum(area.values())
    if not 0 < total_area < math.inf:  # NaN too
        raise _total_error(cat, "area", "mm^2", area)
    total_power = sum(power.values())
    if not 0 < total_power < math.inf:
        raise _total_error(cat, "power", "W", power)
    tops, tpw, tpmm2 = metrics(arch, total_area, total_power, convention)
    if not (tpw < math.inf and tpmm2 < math.inf and total_power + laser_req < math.inf):
        raise ValueError(f"catalog {cat.name!r} prices {tops} TOPS at {total_area} mm^2, {total_power} W on chip "
                         f"and {laser_req} W of laser, outside the float range")
    # Positional, as 13 keywords cost more to bind, and a sweep builds one report per point.
    return CostReport(cat.name, arch, convention, topology, include_memory, area, power, loss, laser_req,
                      _terms(cat).laser_w, tops, tpw, tpmm2)


#: The catalog fields each component of area_estimate and power_estimate is
#: priced from, as "kind.field"; the modulator is the catalog's input modulator.
_PRICED_FIELDS = {
    "area": {
        "dac": "dac.area_um2",
        "modulator": "modulator.area_um2",
        "fanout_mmi": "splitter_1xn.length_um splitter_1xn.width_um splitter_1xn.fanout_n",
        "crossbar_node": "coupler_2x2.length_um coupler_2x2.width_um photodetector.length_um "
                         "photodetector.width_um phase_shifter.width_um",
        "integrator": "integrator.area_um2",
        "tia": "tia.area_um2",
        "adc": "adc.area_um2",
        "memory": "sram.area_um2",
    },
    "power": {
        "dac": "dac.power_w dac.rated_bits dac.rated_frequency_hz",
        "modulator": "modulator.power_w modulator.energy_per_bit_j",
        "photodetector": "photodetector.power_w",
        "phase_shifter": "phase_shifter.power_w",
        "integrator": "integrator.power_w",
        "tia": "tia.power_w tia.rated_frequency_hz",
        "adc": "adc.power_w adc.rated_frequency_hz",
        "memory": "sram.power_w",
    },
}


def _total_error(cat: CatalogVariant, what: str, unit: str, parts: dict[str, float]) -> ValueError:
    """The error for an area or power total out of range: it names the first
    component past the float range, else the largest one, and its device fields."""
    name = max(parts, key=lambda c: (not math.isfinite(parts[c]), parts[c]))
    fields: dict[str, list[str]] = {}
    for ref in _PRICED_FIELDS[what][name].split():
        kind, field = ref.split(".")
        device = cat.modulator() if kind == "modulator" else cat.device(kind)
        fields.setdefault(device.name, []).append(f"{field} = {getattr(device, field)!r}")
    named = "; ".join(f"device {d!r}: {', '.join(f)}" for d, f in fields.items())
    return ValueError(f"catalog {cat.name!r} prices the total {what} at {sum(parts.values())} {unit} and the "
                      f"{name} {what} at {parts[name]} {unit}, from {named}")


def sweep(
    arch: ArchConfig,
    catalogs: dict[str, CatalogVariant],
    axis: str,
    values: Iterable,
    include_memory: bool = False,
    convention: str = "peak",
    topology: str = "embedded_uneven",
) -> list[CostReport]:
    """A cost report for each point along one axis: 'K', 'T', or 'variant'.

    ``values`` may be any iterable, a numpy array too; it is read once, as
    a list.  For 'variant', values are catalog names looked up in
    ``catalogs``; 'K' and 'T' price the one catalog ``catalogs`` must hold,
    and each value must be an int or a numpy integer.  Every point's
    ArchConfig is built, and so checked, here, before any is priced: the
    template's init-field values are read once, as a list, and each point
    is ``type(arch)(*values)`` with the swept field's entry replaced, so
    ArchConfig rejects a bool, float or str by field name.  Each point is
    then one cost_report call.  Raises ValueError, as cost_report does, at
    the first point it cannot price.
    """
    values = list(values)
    if not values:
        raise ValueError("sweep requires at least one value")
    if axis not in ("K", "T", "variant"):
        raise ValueError(f"unknown sweep axis {axis!r}; options: K, T, variant")
    if axis == "variant":
        names = [variant_name(str(v)) for v in values]
        for name in names:
            if name not in catalogs:
                raise ValueError(f"no catalog for variant {name!r}; catalogs held: {list(catalogs)}")
        points = [(arch, catalogs[name]) for name in names]
    else:
        if len(catalogs) != 1:
            raise ValueError(f"a {axis} sweep prices exactly one catalog, got {len(catalogs)}")
        (cat,) = catalogs.values()
        names = [f.name for f in fields(arch) if f.init]
        row = [getattr(arch, name) for name in names]
        swept = names.index("k" if axis == "K" else "t_int")
        points = []
        for v in values:
            if type(v) is not int and isinstance(v, numbers.Integral) and not isinstance(v, bool):
                v = int(v)
            row[swept] = v
            points.append((type(arch)(*row), cat))
    return [cost_report(point, cat, include_memory, convention, topology) for point, cat in points]


def _fixed(value: float, width: int, decimals: int) -> str:
    """value to decimals places, or, where that passes width characters, in exponent form, which never does."""
    text = f"{value:.{decimals}f}"
    return text if len(text) <= width else f"{value:.{width - 8}e}"


def report_to_text(report: CostReport) -> str:
    """Human-readable aligned table for one cost report; every value fits 14 characters."""
    lines = [
        f"variant: {report.variant}   "
        f"R={report.arch.r_tiles} C={report.arch.c_cores} K={report.arch.k} "
        f"f={report.arch.clock_hz / 1e9:g} GHz T={report.arch.t_int} "
        f"T_rst={report.arch.t_rst}",
        f"convention: {report.convention}   topology: {report.topology}   "
        f"memory: {'included' if report.include_memory else 'excluded'}",
        "",
        f"{'component':<16}{'area [mm^2]':>14}{'power [W]':>14}",
    ]
    for key in sorted(set(report.area_by_component) | set(report.power_by_component)):
        a, p = (
            _fixed(part[key], 14, 4) if key in part else "-"  # a part the breakdown does not price
            for part in (report.area_by_component, report.power_by_component)
        )
        lines.append(f"{key:<16}{a:>14}{p:>14}")
    lines += [
        f"{'total':<16}{_fixed(report.total_area_mm2, 14, 4):>14}{_fixed(report.total_power_w, 14, 4):>14}",
        "",
        f"insertion loss:      {_fixed(report.loss.total_db, 14, 3)} dB",
        f"laser required:      {_fixed(report.laser_power_required_w, 14, 4)} W "
        f"(configured {_fixed(report.laser_power_configured_w, 14, 3)} W)",
        f"wall power:          {_fixed(report.wall_power_w, 14, 3)} W",
        f"speed:               {_fixed(report.tops, 14, 2)} TOPS",
        f"energy efficiency:   {_fixed(report.tops_per_w, 14, 2)} TOPS/W",
        f"compute density:     {_fixed(report.tops_per_mm2, 14, 3)} TOPS/mm^2",
    ]
    return "\n".join(lines) + "\n"


_SWEEP_COLUMNS = (
    "variant", "k", "t_int", "total_area_mm2", "total_power_w",
    "insertion_loss_db", "laser_power_required_w", "tops", "tops_per_w",
    "tops_per_mm2",
)


_COMPARISON_POINTS_PATH = Path(__file__).parent / "data" / "comparison_points.csv"


def comparison_points() -> list[dict]:
    """Published efficiency/density points of digital and analog accelerators.

    Static reference data shipped with the package for the efficiency-vs-
    density frontier export; approximate peak figures from vendor datasheets.
    """
    with open(_COMPARISON_POINTS_PATH, newline="") as f:
        return [
            {**row, "tops_per_w": float(row["tops_per_w"]), "tops_per_mm2": float(row["tops_per_mm2"])}
            for row in csv.DictReader(f)
        ]


def pareto_csv(reports: list[CostReport]) -> str:
    """Plot-ready frontier CSV: modeled points merged with the reference set."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["name", "category", "tops_per_w", "tops_per_mm2"])
    for row in comparison_points():
        writer.writerow([row["name"], row["category"], row["tops_per_w"], row["tops_per_mm2"]])
    for r in reports:
        writer.writerow([f"this_work_{r.variant}", "photonic", f"{r.tops_per_w:.6g}", f"{r.tops_per_mm2:.6g}"])
    return buf.getvalue()


def sweep_to_csv(reports: list[CostReport]) -> str:
    """Plot-ready CSV for a sweep result."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_SWEEP_COLUMNS)
    for r in reports:
        writer.writerow([
            r.variant, r.arch.k, r.arch.t_int,
            f"{r.total_area_mm2:.6g}", f"{r.total_power_w:.6g}",
            f"{r.loss.total_db:.6g}", f"{r.laser_power_required_w:.6g}",
            f"{r.tops:.6g}", f"{r.tops_per_w:.6g}", f"{r.tops_per_mm2:.6g}",
        ])
    return buf.getvalue()
