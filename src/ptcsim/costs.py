"""Analytical system cost model: loss chain, laser power, area, power, metrics.

Counting conventions
--------------------
Per K x K core, the input side needs 2K DAC+modulator chains and one 1x2K
fanout MMI; the crossbar holds K^2 dot-product nodes; the readout side holds
K^2 integrator/TIA/ADC chains.  At the architecture level (R tiles x C cores):

* X-side and Y-side input chains are each counted per core (R*C*K).  When
  ``share_y_modulators`` is set, the Y-side arrays are counted once per
  column (C*K) and broadcast.  The headline calibration keeps this flag off:
  the published system totals only close with both sides fully counted.
* Readout chains are counted once per tile (R*K^2) when ``share_readout`` is
  set, since the C cores of a tile sum their photocurrents into one
  integrator array.  TIA and ADC dynamic power additionally scales by
  f / (T * f_rated): temporal integration divides the conversion rate by T.
* Disabling both flags reproduces R*C times the single-core closed forms
  exactly.

Laser power is off-chip and reported separately from on-chip power; memory
enters as fixed global + per-tile SRAM adders (GLOBAL_SRAM_MB, LOCAL_SRAM_MB).
The crossbar node's area is its layout bounding box, with a fixed bend radius
and node spacing (BEND_RADIUS_UM, NODE_SPACING_UM).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace

from pathlib import Path

from .catalog import CONVERTER_BITS, CatalogVariant, DeviceKind, DeviceSpec, scale_1x2k_mmi, variant_name
from .engine import _er_power_factor
from .scheduler import ArchConfig

__all__ = [
    "LossBudget",
    "CostReport",
    "insertion_loss",
    "min_laser_power",
    "dac_power_scale",
    "area_estimate",
    "power_estimate",
    "metrics",
    "cost_report",
    "sweep",
    "sweep_points",
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
    couple = cat.device(DeviceKind.FIBER_COUPLING).insertion_loss_db
    mzm = cat.modulator().insertion_loss_db
    cross = cat.device(DeviceKind.CROSSING).insertion_loss_db
    ps = cat.device(DeviceKind.PHASE_SHIFTER).insertion_loss_db
    dc = cat.device(DeviceKind.COUPLER_2X2).insertion_loss_db
    fanout = 10.0 * math.log10(float(k) ** 2) if k > 1 else 0.0
    if topology == "embedded_uneven":
        cross_total = (k - 1) * cross
        split_total = k * cat.device(DeviceKind.TAP_SPLITTER).insertion_loss_db
    else:
        cross_total = (k - 1) ** 2 * cross
        split_total = cat.device(DeviceKind.SPLITTER_1XN).insertion_loss_db
    return LossBudget(couple, fanout, mzm, cross_total, split_total, ps, dc)


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


def _input_chain_counts(arch: ArchConfig) -> tuple[int, int]:
    """(x_side, y_side) DAC+modulator chain counts."""
    x_side = arch.r_tiles * arch.c_cores * arch.k
    return x_side, arch.c_cores * arch.k if arch.share_y_modulators else x_side


def _readout_chain_count(arch: ArchConfig) -> int:
    if arch.share_readout:
        return arch.r_tiles * arch.k**2
    return arch.r_tiles * arch.c_cores * arch.k**2


def area_estimate(
    arch: ArchConfig,
    cat: CatalogVariant,
    include_memory: bool = False,
) -> dict[str, float]:
    """Per-component area breakdown in mm^2.

    Single-core closed form: A = 2K*A_DAC + 2K*A_mod + A_1x2K_MMI
    + K^2 (A_node + A_int + A_TIA + A_ADC), scaled to R*C cores with the
    sharing deductions described in the module docstring.
    """
    k = arch.k
    n_cores = arch.r_tiles * arch.c_cores
    dac = cat.device(DeviceKind.DAC)
    mod = cat.modulator()
    mmi = scale_1x2k_mmi(cat.mmi_base(), max(2 * k, 2))
    x_in, y_in = _input_chain_counts(arch)
    readout = _readout_chain_count(arch)
    nodes = n_cores * k**2

    breakdown = {
        "dac": (x_in + y_in) * dac.footprint_um2 / UM2_PER_MM2,
        "modulator": (x_in + y_in) * mod.footprint_um2 / UM2_PER_MM2,
        "fanout_mmi": n_cores * mmi.area_um2 / UM2_PER_MM2,
        "crossbar_node": nodes * _node_area_um2(cat) / UM2_PER_MM2,
        "integrator": readout * cat.device(DeviceKind.INTEGRATOR).footprint_um2 / UM2_PER_MM2,
        "tia": readout * cat.device(DeviceKind.TIA).footprint_um2 / UM2_PER_MM2,
        "adc": readout * cat.device(DeviceKind.ADC).footprint_um2 / UM2_PER_MM2,
    }
    if include_memory:
        sram = cat.device(DeviceKind.SRAM)
        breakdown["memory"] = (
            (GLOBAL_SRAM_MB + arch.r_tiles * LOCAL_SRAM_MB) * sram.footprint_um2 / UM2_PER_MM2
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
    width and clock, and TIA/ADC scaled by f / (T * f_rated).
    """
    k = arch.k
    n_cores = arch.r_tiles * arch.c_cores
    f = arch.clock_hz
    dac = cat.device(DeviceKind.DAC)
    mod = cat.modulator()
    pd = cat.device(DeviceKind.PHOTODETECTOR)
    ps = cat.device(DeviceKind.PHASE_SHIFTER)
    tia = cat.device(DeviceKind.TIA)
    adc = cat.device(DeviceKind.ADC)
    integ = cat.device(DeviceKind.INTEGRATOR)

    p_dac = dac_power_scale(
        dac.power_w, dac.rated_bits, dac.rated_frequency_hz, arch.bits_in, f
    )
    p_mod = mod.power_w + mod.energy_per_bit_j * f
    p_tia = tia.power_w * f / (arch.t_int * tia.rated_frequency_hz)
    p_adc = adc.power_w * f / (arch.t_int * adc.rated_frequency_hz)

    x_in, y_in = _input_chain_counts(arch)
    readout = _readout_chain_count(arch)
    nodes = n_cores * k**2

    breakdown = {
        "dac": (x_in + y_in) * p_dac,
        "modulator": (x_in + y_in) * p_mod,
        "photodetector": nodes * 2 * pd.power_w,
        "phase_shifter": nodes * ps.power_w,
        "integrator": readout * integ.power_w,
        "tia": readout * p_tia,
        "adc": readout * p_adc,
    }
    if include_memory:
        sram = cat.device(DeviceKind.SRAM)
        breakdown["memory"] = (GLOBAL_SRAM_MB + arch.r_tiles * LOCAL_SRAM_MB) * sram.power_w
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
    """Assemble the full cost report for one architecture point."""
    area = area_estimate(arch, cat, include_memory)
    power = power_estimate(arch, cat, include_memory)
    loss = insertion_loss(arch.k, cat, topology)
    pd = cat.device(DeviceKind.PHOTODETECTOR)
    er = cat.modulator().extinction_ratio_db
    laser_req = arch.r_tiles * arch.c_cores * min_laser_power(loss.total_db, pd, er, arch.bits_out)
    total_area = sum(area.values())
    total_power = sum(power.values())
    tops, tpw, tpmm2 = metrics(arch, total_area, total_power, convention)
    return CostReport(
        variant=cat.name,
        arch=arch,
        convention=convention,
        topology=topology,
        include_memory=include_memory,
        area_by_component=area,
        power_by_component=power,
        loss=loss,
        laser_power_required_w=laser_req,
        laser_power_configured_w=cat.device(DeviceKind.LASER).power_w,
        tops=tops,
        tops_per_w=tpw,
        tops_per_mm2=tpmm2,
    )


def sweep_points(
    arch: ArchConfig, catalogs: dict[str, CatalogVariant], axis: str, values: list
) -> list[tuple[ArchConfig, CatalogVariant]]:
    """The (arch, catalog) of each point along one axis: 'K', 'T', or 'variant'.

    For 'variant', values are catalog names looked up in ``catalogs``; for
    'K' and 'T' a single catalog keyed by the template's variant is used.
    Every point's ArchConfig is built, and so checked, here.
    """
    if not values:
        raise ValueError("sweep requires at least one value")
    if axis not in ("K", "T", "variant"):
        raise ValueError(f"unknown sweep axis {axis!r}; options: K, T, variant")
    if axis == "variant":
        return [(arch, catalogs[variant_name(str(v))]) for v in values]
    cat = catalogs[next(iter(catalogs))]
    return [(replace(arch, k=int(v)) if axis == "K" else replace(arch, t_int=int(v)), cat) for v in values]


def sweep(
    arch: ArchConfig,
    catalogs: dict[str, CatalogVariant],
    axis: str,
    values: list,
    include_memory: bool = False,
    convention: str = "peak",
    topology: str = "embedded_uneven",
) -> list[CostReport]:
    """A cost report for each of sweep_points(arch, catalogs, axis, values)."""
    return [
        cost_report(point, cat, include_memory=include_memory, convention=convention, topology=topology)
        for point, cat in sweep_points(arch, catalogs, axis, values)
    ]


def report_to_text(report: CostReport) -> str:
    """Human-readable aligned table for one cost report."""
    d = report.to_dict()
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
    keys = sorted(set(report.area_by_component) | set(report.power_by_component))
    for key in keys:
        a = report.area_by_component.get(key)
        p = report.power_by_component.get(key)
        lines.append(
            f"{key:<16}{a if a is not None else float('nan'):>14.4f}"
            f"{p if p is not None else float('nan'):>14.4f}"
        )
    lines += [
        f"{'total':<16}{report.total_area_mm2:>14.4f}{report.total_power_w:>14.4f}",
        "",
        f"insertion loss:      {report.loss.total_db:.3f} dB",
        f"laser required:      {report.laser_power_required_w:.4f} W "
        f"(configured {report.laser_power_configured_w:.3f} W)",
        f"wall power:          {report.wall_power_w:.3f} W",
        f"speed:               {report.tops:.2f} TOPS",
        f"energy efficiency:   {report.tops_per_w:.2f} TOPS/W",
        f"compute density:     {report.tops_per_mm2:.3f} TOPS/mm^2",
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
