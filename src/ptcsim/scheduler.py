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
operands in cycle-major order and the accumulated result.  An epoch's
readout is digitized in place, in its own buffer, before it is added to the
result.

engine_config_for sizes the integration capacitor so that a full-scale
C-core, T-cycle ramp lands exactly on the rail, and checks once that it
does.  Every operand the engine multiplies is bounded by 1, so no readout
can pass the rail and nothing is clamped.

The operand front end walks each operand in row blocks of about 256 KiB,
which stay in cache: a block is quantized once into its integer codes, in
noise modes dequantized, perturbed and clipped in the same buffer, and
stored straight into the zero-padded cycle-major layout, so no other
operand-sized buffer is made.  When both operands sit on the quantizer
lattice (quantized modes without noise) the epoch products are taken over
the codes, which is exact in float64, and the step sizes are applied once.
ADC codes then do not depend on summation order, tiling or the number of
rows and columns.

simulate_chain runs a chain of such products, the layers of a robustness
study, over many noise trials in quantized+noise mode.  Both run every
product through one routine, _product: the front end, the lattice choice
and the epoch loop.  The work the trials share is done once:
the width check and engine configuration per study, and per layer the
weights' scale, validation, plan and quantizer params.  Each trial then
quantizes its input and the weights block by block, as simulate_gemm does,
one layer after the other.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .catalog import CONVERTER_BITS, CatalogVariant, DeviceKind
from .engine import EngineConfig, size_capacitor
from .quantize import (
    ADC_BITS,
    QUANTIZER_BITS,
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
    "simulate_chain",
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

    def __post_init__(self):
        # type(v) is int rejects bool too.  One chained test keeps the common
        # case cheap: the cost model builds an ArchConfig per sweep point.
        if not (
            type(self.r_tiles) is type(self.c_cores) is type(self.k) is type(self.t_int)
            is type(self.t_rst) is type(self.bits_in) is type(self.bits_out) is int
        ):
            for name in ("r_tiles", "c_cores", "k", "t_int", "t_rst", "bits_in", "bits_out"):
                if type(getattr(self, name)) is not int:
                    raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not type(self.share_y_modulators) is type(self.share_readout) is bool:
            for name in ("share_y_modulators", "share_readout"):
                if type(getattr(self, name)) is not bool:
                    raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if min(self.r_tiles, self.c_cores, self.k, self.t_int) < 1 or self.t_rst < 0:
            for name, low in (("r_tiles", 1), ("c_cores", 1), ("k", 1), ("t_int", 1), ("t_rst", 0)):
                if getattr(self, name) < low:
                    raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        # The converter range the catalog allows for rated_bits; _check_widths
        # narrows it to what each simulator mode can run.
        lo, hi = CONVERTER_BITS
        if not (lo <= self.bits_in <= hi and lo <= self.bits_out <= hi):
            for name in ("bits_in", "bits_out"):
                if not lo <= getattr(self, name) <= hi:
                    raise ValueError(f"{name} must be in [{lo}, {hi}], got {getattr(self, name)}")
        if isinstance(self.clock_hz, bool) or not isinstance(self.clock_hz, (int, float)):
            raise ValueError(f"clock_hz must be a number, got {self.clock_hz!r}")
        if not math.isfinite(self.clock_hz) or self.clock_hz <= 0:
            raise ValueError(f"clock_hz must be finite and > 0, got {self.clock_hz}")

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

    @property
    def blocks(self) -> int:
        return self.block_rows * self.block_cols

    def cycles(self, t_rst: int) -> tuple[int, int, int]:
        """(compute_cycles, reset_cycles, readouts) of this schedule."""
        readouts = self.blocks * self.readouts_per_block
        return self.rounds * self.p_cycles, readouts * t_rst, readouts


@dataclass
class SimStats:
    """Run accounting emitted alongside the simulated result.

    saturation_events is always 0: engine_config_for sizes the capacitor so
    that no input reaches the rail.  The field stays because the CLI summary
    and the benchmark's span counters (bench/spans.py) read it.  No field
    depends on the BLAS kernel or its thread count.
    """

    mode: str
    compute_cycles: int
    reset_cycles: int
    readouts: int
    saturation_events: int
    normalization_v: float
    alpha_x: float
    alpha_y: float
    schedule: Schedule

    def to_dict(self) -> dict:
        """JSON-ready summary: the fields, NaN as None (the step sizes in
        ideal mode), with the schedule flattened to blocks, rounds, p_cycles."""
        d = dataclasses.asdict(self)
        sched = d.pop("schedule")
        d.update(blocks=self.schedule.blocks, rounds=sched["rounds"], p_cycles=sched["p_cycles"])
        return {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in d.items()}


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
    that a full-scale ramp, normalization() * C * T, lands on the rail.  No
    operand the engine multiplies passes 1, so no readout can pass it either.
    Raises ValueError if the ramp misses V_DD by more than 1e-12 relative,
    which only a current outside the normal float range does.
    """
    from .costs import insertion_loss  # local import to avoid a cycle

    il = insertion_loss(arch.k, cat).total_db
    pd = cat.device(DeviceKind.PHOTODETECTOR)
    laser = cat.device(DeviceKind.LASER)
    cfg = EngineConfig(
        p_arm_w=laser.power_w * 10.0 ** (-il / 10.0),
        responsivity_a_per_w=pd.responsivity_a_per_w,
        extinction_ratio_db=cat.modulator().extinction_ratio_db,
        dt=1.0 / arch.clock_hz,
    )
    i_max = arch.c_cores * cfg.current_scale()
    c_int = size_capacitor(i_max, arch.t_int, arch.clock_hz, cfg.v_dd) if i_max > 0 else 0.0
    cfg = dataclasses.replace(cfg, c_int=c_int)
    if not (c_int > 0 and math.isclose(cfg.normalization() * arch.c_cores * arch.t_int, cfg.v_dd, rel_tol=1e-12)):
        raise ValueError(f"laser power {laser.power_w} W through {il} dB of insertion loss gives a full-scale "
                         f"current of {i_max} A, outside the float range the integrator can be sized for")
    return cfg


#: Operand elements the front end carries through each pass at once (256 KiB).
_OPERAND_BLOCK_ELEMS = 1 << 15


def _engine_operands(
    x: np.ndarray, y: np.ndarray, px: QuantizerParams | None, py: QuantizerParams | None,
    noise: NoiseModel | None, c_cores: int, p_cycles: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The operands as the engine multiplies them, cycle-major: (xs, ys).

    xs has shape (M, P, C) and ys (P, C, Q), with the reduction zero-padded
    to C*P: index n = c*P + p lands at [.., p, c], so the columns of a run of
    cycles form one contiguous slice.  px and py are the operands' quantizer
    params, None in ideal mode, and noise the NoiseModel that perturbs them,
    None if nothing does.  With params and no noise the entries are integer
    codes, on the quantizer lattice; with noise they are dequantized (the
    min-max zero point is 0, so codes * alpha is fake_quantize), given
    multiplicative noise and clipped to [-1, 1].
    """
    xs = np.zeros((x.shape[0], p_cycles, c_cores))
    ys = np.zeros((p_cycles, c_cores, y.shape[1]))
    if p_cycles:
        for r0, blk in _operand_blocks(x, px, noise, stream=0):
            _store_cycle_major(xs[r0 : r0 + len(blk)].transpose(2, 1, 0), blk.T, 0)
        for n0, blk in _operand_blocks(y, py, noise, stream=1):
            _store_cycle_major(ys.transpose(1, 0, 2), blk, n0)
    return xs, ys


def _operand_blocks(a: np.ndarray, params: QuantizerParams | None, nm: NoiseModel | None, stream: int):
    """Yield (first row, block) of operand a as the engine sees it, a row block at a time.

    Without params (ideal mode) a is one block as it is.  Otherwise a block
    is one pass of each step over about _OPERAND_BLOCK_ELEMS elements, in
    buffers reused from block to block: quantize_codes once, then with nm
    dequantized, perturbed and clipped.  The noise comes from one generator
    per operand, drawn block by block in row-major order, which gives the
    same values as one whole-operand draw.
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
        codes *= params.alpha
        if draws is None:
            draws = rng.standard_normal(blk.shape)
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


def _check_widths(arch: ArchConfig, mode: str) -> None:
    """Reject a mode, or a bit width the mode uses, the engine cannot run, before any work.

    The ranges are the quantizer's and the ADC's, narrower than ArchConfig's
    CONVERTER_BITS.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; options: {MODES}")
    for name, (lo, hi), used in (
        ("bits_in", QUANTIZER_BITS, mode != "ideal"),
        ("bits_out", ADC_BITS, mode == "quantized+noise+adc"),
    ):
        if used and not lo <= getattr(arch, name) <= hi:
            raise ValueError(f"{name} must be in [{lo}, {hi}] in mode {mode!r}, got {getattr(arch, name)}")


def _product(
    x: np.ndarray, y: np.ndarray, px: QuantizerParams | None, py: QuantizerParams | None,
    noise: NoiseModel | None, p_cycles: int, arch: ArchConfig, cfg: EngineConfig, adc: bool = False,
) -> np.ndarray:
    """x @ y on the engine, as the summed readouts in volts.

    The operands go through the front end (see _engine_operands) and then
    through the readout epochs: each is one matmul over its cycles' columns,
    scaled by the gain, digitized in place when adc is set, and added to the
    accumulator.  On the lattice the operands are integer codes, so every
    partial sum is exact in float64 and the step sizes alpha_x * alpha_y go
    into the gain once.
    """
    xs, ys = _engine_operands(x, y, px, py, noise, arch.c_cores, p_cycles)
    step = px.alpha * py.alpha if px is not None and noise is None else 1.0  # 1.0: operands in [-1, 1]
    m, q = xs.shape[0], ys.shape[-1]
    gain = cfg.current_scale() * step * (cfg.dt / cfg.c_int)  # readout volts per engine unit of product
    z_accum = np.zeros((m, q))
    for p0 in range(0, p_cycles, arch.t_int):
        xe, ye = xs[:, p0 : p0 + arch.t_int], ys[p0 : p0 + arch.t_int]
        cols = ye.shape[0] * arch.c_cores
        v = xe.reshape(m, cols) @ ye.reshape(cols, q)
        v *= gain
        if adc:
            adc_readout(v, cfg.v_dd, arch.bits_out)
        z_accum += v
    return z_accum


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
    _check_widths(arch, mode)
    sched = plan(work, arch)
    cfg = engine_config_for(arch, cat)

    px = py = noise = None
    alpha_x = alpha_y = float("nan")
    if mode != "ideal":
        px, py = minmax_params(work.x, arch.bits_in), minmax_params(work.y, arch.bits_in)
        alpha_x, alpha_y = px.alpha, py.alpha
        nm = NoiseModel() if nm is None else nm
        noise = nm if mode != "quantized" and nm.sigma != 0.0 else None
    z_accum = _product(work.x, work.y, px, py, noise, sched.p_cycles, arch, cfg, mode == "quantized+noise+adc")

    norm = cfg.normalization()
    compute, reset_cycles, readouts = sched.cycles(arch.t_rst)
    stats = SimStats(
        mode=mode,
        compute_cycles=compute,
        reset_cycles=reset_cycles,
        readouts=readouts,
        saturation_events=0,
        normalization_v=norm,
        alpha_x=alpha_x,
        alpha_y=alpha_y,
        schedule=sched,
    )
    return z_accum / norm, stats


def _encodable(a: np.ndarray, name: str) -> tuple[np.ndarray, float]:
    """(a / s, s) with s = max(peak |a|, 1e-30), so that a / s lies in [-1, 1].

    Raises as GemmWorkload does if a has a non-finite entry (s is then NaN
    or infinite).
    """
    s = max(float(np.abs(a).max()), 1e-30)
    if not math.isfinite(s):
        raise ValueError(f"operand {name} has non-finite entries")
    return a / s, s


class _ChainLayer:
    """One weight matrix of simulate_chain, with what its trials share.

    That is the weights scaled into [-1, 1] (y), their scale (sw), their
    quantizer params and the plan's cycle count.  They are validated
    together with x, the first trial's input to the layer, as GemmWorkload
    validates the operands of a simulate_gemm call.
    """

    def __init__(self, x: np.ndarray, w: np.ndarray, arch: ArchConfig):
        self.y, self.sw = _encodable(np.asarray(w, dtype=float), "y")
        self.p_cycles = plan(GemmWorkload(x, self.y), arch).p_cycles
        self.params = minmax_params(self.y, arch.bits_in)

    def product(self, x: np.ndarray, nm: NoiseModel, arch: ArchConfig, cfg: EngineConfig) -> np.ndarray:
        """Summed readouts in volts of simulate_gemm(GemmWorkload(x, y), ..., nm, "quantized+noise")."""
        px = minmax_params(x, arch.bits_in)
        return _product(x, self.y, px, self.params, nm if nm.sigma != 0.0 else None, self.p_cycles, arch, cfg)


def simulate_chain(x, weights, arch: ArchConfig, cat: CatalogVariant, trials, digital):
    """Yield, trial by trial, the output of a chain of matrix products on the core.

    Layer i scales its input and weights[i] into [-1, 1] by their peaks,
    multiplies them as simulate_gemm does in quantized+noise mode, and
    undoes both scales; digital(i, z) turns that product into the next
    layer's input, or the last layer's into the trial's output.  A trial is
    a sequence of one NoiseModel per layer.  The outputs, and the errors
    raised, are those of one simulate_gemm call per layer and trial, bit for
    bit, except that a bit width the mode cannot run is rejected first.

    The work trials share is done once: the width check and
    engine_config_for per chain; per layer, when the first trial reaches
    it, the weights' scale, validation, plan and quantizer params.  Each
    trial runs through every layer before the next one starts, so one
    trial's activations are live at a time.  A trial without noise in any
    layer does not depend on its seeds: the first one runs, and later ones
    yield its output again (the same array).  No SimStats is built.
    """
    _check_widths(arch, "quantized+noise")
    cfg = engine_config_for(arch, cat)
    norm = cfg.normalization()
    layers: list[_ChainLayer] = []
    clean = None
    for trial in trials:
        noisy = any(nm.sigma != 0.0 for nm in trial)
        if clean is not None and not noisy:
            yield clean
            continue
        h = np.asarray(x, dtype=float)
        for i, (w, nm) in enumerate(zip(weights, trial, strict=True)):
            xq, sx = _encodable(h, "x")
            if i == len(layers):
                layers.append(_ChainLayer(xq, w, arch))
            layer = layers[i]
            h = digital(i, layer.product(xq, nm, arch, cfg) / norm * (sx * layer.sw))
        if not noisy:
            clean = h
        yield h
