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
operands in cycle-major order, the accumulated result, and one reused
buffer of per-cycle photocurrents.  An epoch's readout is digitized in
place, in its own buffer, before it is added to the result.

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
cycle with rail clamping.  When no peak is known yet and an epoch takes more
than one buffer-full, the current of each cycle's largest-bound row seeds
the search, so the first epoch is pruned too.

The operand front end walks each operand in row blocks of about 256 KiB,
which stay in cache: a block is quantized once into its integer codes, in
noise modes dequantized, perturbed and clipped in the same buffer, and
stored straight into the zero-padded cycle-major layout, so no other
operand-sized buffer is made.  When both operands sit on the quantizer
lattice (quantized modes without noise) the epoch products are taken over
the codes, which is exact in float64, and the step sizes are applied once.
ADC codes then do not depend on summation order, tiling or the number of
rows and columns.
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
    QuantizerParams,
    adc_readout,
    apply_noise,
    fake_quantize,  # noqa: F401  (unused here; bench/test_bench.py rebinds scheduler.fake_quantize)
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


#: Operand elements the front end carries through each pass at once (256 KiB).
_OPERAND_BLOCK_ELEMS = 1 << 15


def _engine_operands(
    work: GemmWorkload, arch: ArchConfig, nm: NoiseModel | None, mode: str, p_cycles: int
):
    """The operands as the engine multiplies them, cycle-major: (xs, ys, alpha_x, alpha_y, on_lattice).

    xs has shape (M, P, C) and ys (P, C, Q), with the reduction zero-padded
    to C*P: index n = c*P + p lands at [.., p, c], so the columns of a run of
    cycles form one contiguous slice.  On the quantizer lattice (quantized
    modes without noise) the entries are integer codes; in noise modes they
    are dequantized (the min-max zero point is 0, so codes * alpha is
    fake_quantize), given multiplicative noise and clipped to [-1, 1].
    """
    alpha_x = alpha_y = float("nan")
    px = py = noise = None
    on_lattice = False
    if mode != "ideal":
        px = minmax_params(work.x, arch.bits_in)
        py = minmax_params(work.y, arch.bits_in)
        alpha_x, alpha_y = float(px.alpha[0]), float(py.alpha[0])
        nm = NoiseModel() if nm is None else nm
        on_lattice = mode == "quantized" or not nm.enabled or nm.sigma == 0.0
        noise = None if on_lattice else nm
    xs = np.zeros((work.m, p_cycles, arch.c_cores))
    ys = np.zeros((p_cycles, arch.c_cores, work.q))
    if p_cycles:
        for r0, blk in _operand_blocks(work.x, px, noise, stream=0):
            _store_cycle_major(xs[r0 : r0 + len(blk)].transpose(2, 1, 0), blk.T, 0)
        for n0, blk in _operand_blocks(work.y, py, noise, stream=1):
            _store_cycle_major(ys.transpose(1, 0, 2), blk, n0)
    return xs, ys, alpha_x, alpha_y, on_lattice


def _operand_blocks(a: np.ndarray, params: QuantizerParams | None, nm: NoiseModel | None, stream: int):
    """Yield (first row, block) of operand a as the engine sees it, a row block at a time.

    A block is one pass of each step over about _OPERAND_BLOCK_ELEMS
    elements, in buffers reused from block to block: quantize_codes once,
    then in noise modes dequantize, perturb and clip in place.  The noise
    comes from one generator per operand, drawn block by block in row-major
    order, which gives the same values as one whole-operand draw.  Without
    params (ideal mode) a is one block as it is.
    """
    if params is None:
        yield 0, a
        return
    rows = max(1, _OPERAND_BLOCK_ELEMS // max(1, a.shape[1]))
    rng = None if nm is None else nm.rng(stream)
    codes = draws = None
    for r0 in range(0, a.shape[0], rows):
        blk = a[r0 : r0 + rows]
        codes = quantize_codes(blk, params, None if codes is None else codes[: len(blk)])
        if rng is None:
            yield r0, codes
            continue
        codes *= params.alpha[0]
        if draws is None:
            draws = rng.standard_normal(codes.shape)
        else:
            draws = rng.standard_normal(out=draws[: len(blk)])
        noisy = apply_noise(codes, draws, nm.sigma)
        yield r0, np.clip(noisy, -1.0, 1.0, out=noisy)


def _store_cycle_major(dst: np.ndarray, rows: np.ndarray, n0: int) -> None:
    """Write reduction rows n0, n0 + 1, ... into dst, a (C, P, ...) view.

    Row n lands at dst[n // P, n % P]: first the rest of a core an earlier
    block began, then whole cores through one reshaped view, then the start
    of the next core.
    """
    p = dst.shape[1]
    c, r = divmod(n0, p)
    if r:
        head = rows[: p - r]
        dst[c, r : r + len(head)] = head
        rows, c = rows[len(head) :], c + 1
    full = len(rows) // p
    dst[c : c + full] = rows[: full * p].reshape(full, p, *rows.shape[1:])
    if len(rows) > full * p:
        dst[c + full, : len(rows) - full * p] = rows[full * p :]


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
    if best == 0.0 and t_cycles > buf.shape[0]:
        # No peak known and more than one buffer-full to form: seed best with
        # the current of each cycle's largest-bound row.  This matmul may
        # round that current differently from the buffered ones below, so
        # best is shrunk by 1e-12: the row is formed again there, and the
        # largest entry is still a current those matmuls formed.
        bound = _row_bounds(xe, ye) * (1.0 + 1e-12)
        seeds = np.matmul(xt[np.arange(t_cycles), bound.argmax(axis=1)][:, None], ye)
        best = max(float(seeds.max()), -float(seeds.min())) * (1.0 - 1e-12)
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

    xs, ys, alpha_x, alpha_y, on_lattice = _engine_operands(work, arch, nm, mode, sched.p_cycles)
    scale = cfg.current_scale()  # amperes per unit of operand product
    if on_lattice:
        # Integer codes: every partial sum below is exact in float64.
        scale *= alpha_x * alpha_y

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
            v = xe.reshape(work.m, cols) @ ye.reshape(cols, work.q)
            v *= gain
        else:
            v, events = _sequential_clamp(xe, ye, gain, cfg.v_dd)
            saturation_events += events
        if mode == "quantized+noise+adc":
            adc_readout(v, cfg.v_dd, arch.bits_out)
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
