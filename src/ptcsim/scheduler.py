"""GEMM-to-architecture mapping and behavioral simulation.

An M x N x Q GEMM is tiled into ceil(M/K) x ceil(Q/K) result blocks.  Each
block is a length-N reduction of K x K vector outer products, split across
the C cores of a tile (P = ceil(N/C) cycles) with three accumulation levels:
parallel photocurrent summation over the C cores, capacitive integration
over T timesteps, and digital summation of the per-epoch readouts.  Blocks
round-robin over the R tiles.

The simulator streams over readout epochs instead of cycles.  Reduction
index n = c*P + p is driven by core c in cycle p, so readout epoch e
integrates the columns {c*P + p : p in [eT, (e+1)T)}; every output element
is independent, so the epoch's readout for the whole M x Q result is one
matrix product over those columns, and the K x K block structure only
matters for cycle accounting.  Working memory is O(M*Q + M*N + N*Q): the
operands reordered cycle-major, the accumulated result, and one reused
buffer of per-cycle photocurrents.

The exact peak current and a no-saturation certificate per epoch come
from per-cycle photocurrents, formed a buffer-full at a time:
dt/C_int * sum over the epoch's cycles of a bound on max |I| bounds every
partial integrator voltage, so an epoch whose sum stays within the rail
cannot saturate.  Row m of cycle p carries at most
U = sum_c |x[m, p, c]| * max_q |y[p, c, q]|, so once a peak is known only
the rows whose U can beat it are formed; the other rows' entries are that
peak, which still bounds them.  An epoch that fails the certificate on
these bounds has its exact per-cycle peaks formed before it is judged,
and only an epoch that fails on the exact peaks is integrated cycle by
cycle with rail clamping.

Each operand is quantized once, in place, into its integer codes.  When
both operands sit on the quantizer lattice (quantized modes without noise)
the epoch products are taken over those codes, which is exact in float64,
and the step sizes are applied once.  ADC codes then do not
depend on summation order, tiling or the number of rows and columns.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .catalog import CatalogVariant, DeviceKind
from .engine import EngineConfig, size_capacitor
from .quantize import (
    NoiseModel,
    adc_sample,
    adc_value,
    fake_quantize,  # noqa: F401  (unused here; bench/test_bench.py rebinds scheduler.fake_quantize)
    inject_noise,
    minmax_params,
    quantize_codes,
)

__all__ = [
    "ArchConfig",
    "GemmWorkload",
    "Schedule",
    "SimStats",
    "MODES",
    "plan",
    "cycle_count",
    "simulate_gemm",
    "engine_config_for",
]

MODES = ("ideal", "quantized", "quantized+noise", "quantized+noise+adc")


@dataclass(frozen=True)
class ArchConfig:
    """Architecture shape: R tiles x C cores x (K x K) engines."""

    r_tiles: int = 6
    c_cores: int = 6
    k: int = 32
    clock_hz: float = 5e9
    t_int: int = 60
    t_rst: int = 2
    bits_in: int = 6
    bits_out: int = 6
    share_y_modulators: bool = False
    share_readout: bool = True
    pipelined_readout: bool = True

    def __post_init__(self):
        if min(self.r_tiles, self.c_cores, self.k) < 1:
            raise ValueError("r_tiles, c_cores, k must all be >= 1")
        if self.t_int < 1 or self.t_rst < 0:
            raise ValueError("t_int must be >= 1 and t_rst >= 0")
        if self.clock_hz <= 0:
            raise ValueError("clock_hz must be > 0")

    @classmethod
    def from_dict(cls, d: dict) -> "ArchConfig":
        return cls(**d)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class GemmWorkload:
    """An M x N x Q matrix product with operands pre-normalized to [-1, 1]."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.x.ndim != 2 or self.y.ndim != 2:
            raise ValueError("operands must be 2-D matrices")
        if self.x.shape[1] != self.y.shape[0]:
            raise ValueError(
                f"inner dimensions disagree: {self.x.shape} x {self.y.shape}"
            )
        for name, a in (("x", self.x), ("y", self.y)):
            peak = np.abs(a).max(initial=0.0)
            if not np.isfinite(peak):
                raise ValueError(f"operand {name} has non-finite entries")
            if peak > 1.0:
                raise ValueError("operands must be pre-normalized to [-1, 1]")

    @property
    def m(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def q(self) -> int:
        return self.y.shape[1]

    @classmethod
    def random(cls, m: int, n: int, q: int, seed: int = 0, distribution: str = "uniform") -> "GemmWorkload":
        rng = np.random.default_rng(seed)
        if distribution == "uniform":
            x = rng.uniform(-1, 1, size=(m, n))
            y = rng.uniform(-1, 1, size=(n, q))
        elif distribution == "normal":
            x = np.clip(rng.standard_normal((m, n)) / 3.0, -1, 1)
            y = np.clip(rng.standard_normal((n, q)) / 3.0, -1, 1)
        else:
            raise ValueError(f"unknown distribution {distribution!r}")
        return cls(x, y)


@dataclass(frozen=True)
class Schedule:
    """Static block-to-tile plan for one GEMM."""

    block_rows: int
    block_cols: int
    rounds: int
    p_cycles: int
    n_padded: int
    readouts_per_block: int
    r_tiles: int

    @property
    def blocks(self) -> int:
        return self.block_rows * self.block_cols

    def assignments(self):
        """Yield ((block_row, block_col), tile) in round-robin issue order."""
        for a in range(self.block_rows):
            for b in range(self.block_cols):
                yield (a, b), (a * self.block_cols + b) % self.r_tiles

    def cycles(self, t_rst: int) -> tuple[int, int, int]:
        """(compute_cycles, reset_cycles, readouts) of this schedule."""
        readouts = self.blocks * self.readouts_per_block
        return self.rounds * self.p_cycles, readouts * t_rst, readouts


@dataclass
class SimStats:
    """Run accounting emitted alongside the simulated result."""

    mode: str
    compute_cycles: int
    reset_cycles: int
    readouts: int
    saturation_events: int
    max_abs_current_a: float
    normalization_v: float
    alpha_x: float
    alpha_y: float
    schedule: Schedule

    def to_dict(self) -> dict:
        """JSON-ready summary; the step sizes are None in ideal mode."""
        return {
            "mode": self.mode,
            "compute_cycles": self.compute_cycles,
            "reset_cycles": self.reset_cycles,
            "readouts": self.readouts,
            "saturation_events": self.saturation_events,
            "max_abs_current_a": self.max_abs_current_a,
            "normalization_v": self.normalization_v,
            "alpha_x": None if math.isnan(self.alpha_x) else self.alpha_x,
            "alpha_y": None if math.isnan(self.alpha_y) else self.alpha_y,
            "blocks": self.schedule.blocks,
            "rounds": self.schedule.rounds,
            "p_cycles": self.schedule.p_cycles,
        }


def plan(work: GemmWorkload, arch: ArchConfig) -> Schedule:
    """Tile the workload onto the architecture.

    Non-divisible dimensions are zero-padded to the next multiple of K
    (spatial) and C (reduction); padded rows and columns contribute exactly
    zero to the result.
    """
    br = math.ceil(work.m / arch.k)
    bc = math.ceil(work.q / arch.k)
    p = math.ceil(work.n / arch.c_cores)
    return Schedule(
        block_rows=br,
        block_cols=bc,
        rounds=math.ceil(br * bc / arch.r_tiles),
        p_cycles=p,
        n_padded=p * arch.c_cores,
        readouts_per_block=math.ceil(p / arch.t_int),
        r_tiles=arch.r_tiles,
    )


def cycle_count(work: GemmWorkload, arch: ArchConfig) -> tuple[int, int, int]:
    """(compute_cycles, reset_cycles, readouts) for the planned schedule.

    For divisible shapes compute_cycles reduces to M*Q*N / (R*C*K^2).
    """
    return plan(work, arch).cycles(arch.t_rst)


def engine_config_for(arch: ArchConfig, cat: CatalogVariant) -> EngineConfig:
    """Physical engine constants for this architecture and device catalog.

    Per-arm power follows the laser through the distribution loss chain; the
    integration capacitor is sized for the aggregated current of C cores so
    that full-scale operands integrate exactly to the rail.
    """
    from .costs import insertion_loss  # local import to avoid a cycle

    il = insertion_loss(arch.k, cat).total_db
    pd = cat.device(DeviceKind.PHOTODETECTOR)
    laser = cat.device(DeviceKind.LASER)
    cfg = EngineConfig(
        p_arm_w=laser.power_w * 10.0 ** (-il / 10.0),
        responsivity_a_per_w=pd.responsivity_a_per_w,
        extinction_ratio_db=cat.modulator().extinction_ratio_db,
        t_max=arch.t_int,
        t_rst=arch.t_rst,
        dt=1.0 / arch.clock_hz,
    )
    c_int = size_capacitor(
        arch.c_cores * cfg.current_scale(), arch.t_int, arch.clock_hz, cfg.v_dd
    )
    return dataclasses.replace(cfg, c_int=c_int)


#: Per-cycle photocurrent elements formed per batched matmul (2 MiB).
_CURRENT_BUFFER_ELEMS = 1 << 18


def _cycle_major(x: np.ndarray, y: np.ndarray, c_cores: int, p_cycles: int):
    """Zero-pad the reduction to C*P and index it by (cycle, core).

    Returns xs of shape (M, P, C) and ys of shape (P, C, Q): reduction
    index n = c*P + p lands at [.., p, c], so the columns of a run of
    cycles form one contiguous slice.  Whole cores are copied through
    transposed views, then the partial last core.
    """
    m, q = x.shape[0], y.shape[1]
    xs = np.zeros((m, p_cycles, c_cores))
    ys = np.zeros((p_cycles, c_cores, q))
    if p_cycles:
        full, rem = divmod(x.shape[1], p_cycles)
        xt, yt = xs.transpose(0, 2, 1), ys.transpose(1, 0, 2)
        xt[:, :full] = x[:, : full * p_cycles].reshape(m, full, p_cycles)
        yt[:full] = y[: full * p_cycles].reshape(full, p_cycles, q)
        if rem:
            xt[:, full, :rem] = x[:, full * p_cycles :]
            yt[full, :rem] = y[full * p_cycles :]
    return xs, ys


def _engine_operands(work: GemmWorkload, arch: ArchConfig, nm: NoiseModel | None, mode: str):
    """The operands as the engine multiplies them: (x, y, alpha_x, alpha_y, on_lattice).

    Each operand is quantized once, into a fresh buffer of integer codes.
    On the quantizer lattice (quantized modes without noise) those codes are
    returned as they are; in noise modes each buffer is dequantized in place
    (the min-max zero point is 0, so codes * alpha is fake_quantize), given
    multiplicative noise and clipped to [-1, 1].
    """
    if mode == "ideal":
        return work.x, work.y, float("nan"), float("nan"), False
    px = minmax_params(work.x, arch.bits_in)
    py = minmax_params(work.y, arch.bits_in)
    alpha_x, alpha_y = float(px.alpha[0]), float(py.alpha[0])
    x, y = quantize_codes(work.x, px), quantize_codes(work.y, py)
    nm = NoiseModel() if nm is None else nm
    if mode == "quantized" or not nm.enabled or nm.sigma == 0.0:
        return x, y, alpha_x, alpha_y, True
    x *= alpha_x
    x = inject_noise(x, nm, stream=0)
    np.clip(x, -1.0, 1.0, out=x)
    y *= alpha_y
    y = inject_noise(y, nm, stream=1)
    np.clip(y, -1.0, 1.0, out=y)
    return x, y, alpha_x, alpha_y, False


def _row_bounds(xe: np.ndarray, ye: np.ndarray) -> np.ndarray:
    """U[p, m] = sum_c |xe[m, p, c]| * max_q |ye[p, c, q]|.

    No photocurrent of row m in cycle p exceeds U[p, m].
    """
    y_max = np.maximum(ye.max(axis=2, initial=0.0), -ye.min(axis=2, initial=0.0))
    return (np.abs(xe).transpose(1, 0, 2) @ y_max[:, :, None])[:, :, 0]


def _cycle_peaks(
    xe: np.ndarray, ye: np.ndarray, buf: np.ndarray, best: float | None = None
) -> np.ndarray:
    """Bounds on max |sum over cores| of each cycle in an epoch, a buffer-full at a time.

    With best None every row is formed and the entries are exact.  Given
    the best peak known so far, once it is nonzero only rows whose bound U
    (inflated by 1e-12 for rounding) can beat it are formed, and a cycle's
    entry is max(its formed rows, best): still an upper bound on every
    current in the cycle, and the largest entry is the exact peak.
    """
    t_cycles, m, q = ye.shape[0], xe.shape[0], ye.shape[-1]
    xt = xe.transpose(1, 0, 2)
    peaks = np.empty(t_cycles)
    bound = None
    keep_best = 0.0  # keep is re-taken only when best rises
    s = 0
    while s < t_cycles:
        t, order = min(buf.shape[0], t_cycles - s), None
        if best:
            if bound is None:
                bound = _row_bounds(xe, ye) * (1.0 + 1e-12)
            if best != keep_best:
                keep_best, keep = best, bound > best
                counts = keep.sum(axis=1)
            rows = np.maximum.accumulate(counts[s:])
            # The longest run of cycles whose kept rows fit in the buffer.
            fits = np.arange(1, rows.size + 1) * rows * q <= buf.size
            t = max(1, int(np.count_nonzero(fits)))
            if rows[t - 1] < m:
                # Kept rows first; a cycle with fewer also forms some pruned
                # rows, whose currents cannot exceed best.
                order = np.argsort(~keep[s : s + t], axis=1, kind="stable")[:, : rows[t - 1]]
        xc = xt[s : s + t] if order is None else xt[s + np.arange(t)[:, None], order]
        r = xc.shape[1]
        out = np.matmul(xc, ye[s : s + t], out=buf.reshape(-1)[: t * r * q].reshape(t, r, q))
        flat = out.reshape(t, -1)
        cur = peaks[s : s + t]
        np.maximum(flat.max(axis=1, initial=best or 0.0), -flat.min(axis=1, initial=0.0), out=cur)
        if best is not None:
            best = max(best, float(cur.max()))
        s += t
    return peaks


def _sequential_clamp(xe: np.ndarray, ye: np.ndarray, gain: float, v_dd: float) -> tuple[np.ndarray, int]:
    """Clamped integration of one epoch, cycle by cycle; returns (final v, events)."""
    v = np.zeros((xe.shape[0], ye.shape[-1]))
    events = 0
    for xp, yp in zip(xe.transpose(1, 0, 2), ye):
        v += gain * (xp @ yp)
        events += int(np.count_nonzero(v > v_dd) + np.count_nonzero(v < -v_dd))
        np.clip(v, -v_dd, v_dd, out=v)
    return v, events


def simulate_gemm(
    work: GemmWorkload,
    arch: ArchConfig,
    cat: CatalogVariant,
    nm: NoiseModel | None = None,
    mode: str = "ideal",
):
    """Run a GEMM through the behavioral engine model.

    Returns (z_hat, stats).  In ideal mode z_hat matches X @ Y to floating
    point (the end-to-end optical/electrical scale is inverted exactly);
    quantized modes apply b-bit fake quantization to both operands, noise
    modes add the multiplicative Gaussian perturbation after quantization,
    and the adc mode digitizes every integrator readout at bits_out.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; options: {MODES}")
    sched = plan(work, arch)
    cfg = engine_config_for(arch, cat)

    x, y, alpha_x, alpha_y, on_lattice = _engine_operands(work, arch, nm, mode)
    scale = cfg.current_scale()  # amperes per unit of operand product
    if on_lattice:
        # Integer codes: every partial sum below is exact in float64.
        scale *= alpha_x * alpha_y

    xs, ys = _cycle_major(x, y, arch.c_cores, sched.p_cycles)
    del x, y  # only the cycle-major copies are read from here on
    volt_scale = cfg.dt / cfg.c_int
    gain = scale * volt_scale  # readout volts per unit of operand product
    tol = cfg.v_dd * (1.0 + 1e-12)
    chunk = min(arch.t_int, sched.p_cycles, _CURRENT_BUFFER_ELEMS // max(1, work.m * work.q))
    buf = np.empty((max(chunk, 1), work.m, work.q))
    z_accum = np.zeros((work.m, work.q))
    peak = 0.0
    saturation_events = 0
    for p0 in range(0, sched.p_cycles, arch.t_int):
        xe, ye = xs[:, p0 : p0 + arch.t_int], ys[p0 : p0 + arch.t_int]
        peaks = _cycle_peaks(xe, ye, buf, best=peak)
        certified = gain * float(peaks.sum()) <= tol
        if not certified:
            # Pruned entries are only bounds: decide on the exact peaks.
            peaks = _cycle_peaks(xe, ye, buf)
            certified = gain * float(peaks.sum()) <= tol
        peak = max(peak, float(peaks.max()))
        if certified:
            cols = ye.shape[0] * arch.c_cores
            v = gain * (xe.reshape(work.m, cols) @ ye.reshape(cols, work.q))
        else:
            v, events = _sequential_clamp(xe, ye, gain, cfg.v_dd)
            saturation_events += events
        if mode == "quantized+noise+adc":
            v = adc_value(adc_sample(v, cfg.v_dd, arch.bits_out), cfg.v_dd, arch.bits_out)
        z_accum += v

    if mode == "ideal" and saturation_events > 0:
        raise RuntimeError(
            "saturation in ideal mode: integrator under-provisioned for the "
            "aggregated current of C cores"
        )

    norm = cfg.normalization()
    compute, reset_cycles, readouts = sched.cycles(arch.t_rst)
    stats = SimStats(
        mode=mode,
        compute_cycles=compute,
        reset_cycles=reset_cycles,
        readouts=readouts,
        saturation_events=saturation_events,
        max_abs_current_a=scale * peak,
        normalization_v=norm,
        alpha_x=alpha_x,
        alpha_y=alpha_y,
        schedule=sched,
    )
    return z_accum / norm, stats
