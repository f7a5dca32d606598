"""GEMM-to-architecture mapping and behavioral simulation.

An M x N x Q GEMM is tiled into ceil(M/K) x ceil(Q/K) result blocks.  Each
block is a length-N reduction of K x K vector outer products, split across
the C cores of a tile (P = ceil(N/C) cycles) with three accumulation levels:
parallel photocurrent summation over the C cores, capacitive integration
over T timesteps, and digital summation of the per-epoch readouts.  Blocks
round-robin over the R tiles.

The paper fixes the three levels but not which reduction index a (core,
cycle) pair handles; here n = p*C + c is driven by core c in cycle p, so
readout epoch e integrates the C*T consecutive columns [e*C*T, (e+1)*C*T).
Every output element is independent, so an epoch's readout for the whole
M x Q result is one matrix product over that column slice of x and those
rows of y, and the K x K blocks only matter for cycle accounting.

One kernel, _product, runs every mode.  Ideal mode is one x @ y; the others
walk y a chunk of rows at a time.  Only the ADC reads an epoch, so only the
ADC mode's chunks are epochs: y one epoch at a time in float64, each
epoch's product turned in place into its ADC codes on a rail of C*T
products, and the codes summed.  Without the ADC the readouts are
summed linearly, over chunks of _LINEAR_ROWS rows of y whatever the
machine, so z_hat does not depend on C, T or R, bit for bit.  Quantized
mode (and quantized+noise at sigma = 0) sums the integer codes in float32,
where a chunk of at most 1024 rows keeps every partial sum an integer of at
most 2^24 and so exact, into float64, exact below 2^53, and scales once by
alpha_x * alpha_y.  quantized+noise at sigma > 0 sums the perturbed
operands in float64.  With the ADC at sigma = 0 every epoch sum is an exact
code sum too, so ADC codes do not depend on summation order or tiling.

The quantized modes walk x whole and y in chunks of rows, each in row
blocks of about 256 KiB, which stay in cache: a block is quantized once
into its integer codes, straight into its rows of x's copy or of the one
chunk buffer of y, and in noise modes dequantized, perturbed and clipped in
those rows.  Each operand draws its noise from its own generator in
row-major order, so the values do not depend on the blocks or chunks.
Working memory is the result, one product buffer, one copy of x and one
chunk of y; the ADC mode's result is its product buffer, and it sums its
codes in float32.  engine_config_for sizes the integration capacitor so that a
full-scale ramp, C*T unit products, lands exactly on the rail; no operand
passes 1, so no readout passes the rail and nothing is clamped.  That
ramp is why the ADC reads in product units: the laser, the loss chain, the
responsivity and the ER scale the readout and its rail alike, so they do
not reach z_hat or SimStats.  They reach only the errors
engine_config_for raises, which _readout, the one resolve call of every
simulator entry point, passes on; no kernel takes them.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .catalog import CONVERTER_BITS, CatalogVariant, DeviceKind, _check_numbers
from .costs import insertion_loss
from .engine import EngineConfig, size_capacitor
from .quantize import (
    ADC_BITS,
    QUANTIZER_BITS,
    NoiseModel,
    QuantizerParams,
    _adc_codes,
    _peak,
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

#: The largest value of an ArchConfig count (the bit widths have their own
#: range): far above any machine modeled, and low enough that every count
#: the cost model derives (R*C*K^2, ...) stays a finite float.
_ARCH_INT_MAX = 2**31 - 1
#: The fastest clock, 1 PHz, past the optical carrier (194 THz at 1550 nm):
#: with a builtin catalog, every rate and power the cost model derives is finite.
_CLOCK_HZ_MAX = 1e15
#: The slowest clock whose period 1 / clock_hz is a finite float (about 5.6e-309 Hz).
_CLOCK_HZ_MIN = math.nextafter(1.0 / sys.float_info.max, math.inf)
#: ArchConfig's rules (see catalog._check_numbers).  The bit widths' range is
#: the converter range the catalog allows for rated_bits; _readout narrows
#: it to what each simulator mode can run.
_ARCH_RULES = (
    ("r_tiles", int, 1, False, _ARCH_INT_MAX), ("c_cores", int, 1, False, _ARCH_INT_MAX),
    ("k", int, 1, False, _ARCH_INT_MAX), ("clock_hz", float, 0, True, _CLOCK_HZ_MAX),
    ("t_int", int, 1, False, _ARCH_INT_MAX), ("t_rst", int, 0, False, _ARCH_INT_MAX),
    ("bits_in", int, CONVERTER_BITS[0], False, CONVERTER_BITS[1]),
    ("bits_out", int, CONVERTER_BITS[0], False, CONVERTER_BITS[1]),
)


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

    def __post_init__(self):
        _check_numbers(self, _ARCH_RULES)
        if self.clock_hz < _CLOCK_HZ_MIN:
            raise ValueError(f"clock_hz must have a finite period 1 / clock_hz, got {self.clock_hz}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _real(a, name: str) -> np.ndarray:
    """a as a float array.  Raises if a is complex, where a cast to float
    would drop the imaginary parts; the check reads the dtype, not the data."""
    a = np.asarray(a)
    if a.dtype.kind == "c":
        raise ValueError(f"operand {name} has complex entries")
    return a.astype(float, copy=False)


def _check_shapes(x_shape: tuple, y_shape: tuple) -> None:
    """Raise unless x_shape and y_shape are those of two matrices that multiply."""
    if len(x_shape) != 2 or len(y_shape) != 2:
        raise ValueError("operands must be 2-D matrices")
    if x_shape[1] != y_shape[0]:
        raise ValueError(f"inner dimensions disagree: {x_shape} x {y_shape}")


@dataclass(frozen=True)
class GemmWorkload:
    """An M x N x Q matrix product with operands pre-normalized to [-1, 1]."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _real(self.x, "x"))
        object.__setattr__(self, "y", _real(self.y, "y"))
        _check_shapes(self.x.shape, self.y.shape)
        for name, a in (("x", self.x), ("y", self.y)):
            peak = _peak(a)
            if not math.isfinite(peak):
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

    The two cycle counts have different units.  compute_cycles is the
    elapsed cycles of one tile, rounds x P; reset_cycles is summed over all
    blocks, blocks x epochs x t_rst.  At 512x2048x512 on the default machine
    they are 43 x 342 = 14706 and 256 x 6 x 2 = 3072.

    saturation_events is always 0: engine_config_for sizes the capacitor so
    that no input reaches the rail.  The field stays because the CLI summary
    and the benchmark's span counters (bench/spans.py) read it.  No field
    depends on the catalog, the BLAS kernel or its thread count.
    """

    mode: str
    compute_cycles: int
    reset_cycles: int
    readouts: int
    saturation_events: int
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
    il = insertion_loss(arch, cat).total_db
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


def _engine_rows(
    a: np.ndarray, params: QuantizerParams, sigma: float, normals: np.random.Generator | np.ndarray | None,
    rows: int, dtype: type,
) -> Iterator[np.ndarray]:
    """Yield operand a as the engine multiplies it, `rows` rows at a time.

    a is an operand in [-1, 1], or its int8 codes under params (the cached
    weights and activations of mlp's study pass).  Every slice is filled into one buffer of
    min(rows, len(a)) rows of dtype, which the next slice overwrites, a row
    block of about _OPERAND_BLOCK_ELEMS elements at a time: quantize_codes
    once, or the cached codes cast, so the entries are integer codes on the
    quantizer lattice, and with noise dequantized (the min-max zero point is
    0, so codes * alpha is fake_quantize), perturbed to x_q + n * (sigma *
    |x_q|) and clipped to [-1, 1], unless normals is None.  normals is a
    generator, from which n is drawn block by block in row-major order (the
    same values as one whole-operand draw), or a's standard normals drawn
    beforehand, which are read, never written.
    """
    out = np.empty((min(rows, len(a)), a.shape[1]), dtype)
    block = max(1, _OPERAND_BLOCK_ELEMS // max(1, a.shape[1]))
    cached = a.dtype == np.int8
    drawn = isinstance(normals, np.ndarray)
    for r0 in range(0, len(a), rows):
        ar = a[r0 : r0 + rows]
        oe = out[: len(ar)]
        for b0 in range(0, len(ar), block):
            blk = oe[b0 : b0 + block]
            if cached:
                blk[...] = ar[b0 : b0 + block]
            else:
                quantize_codes(ar[b0 : b0 + block], params, blk)
            if normals is not None:
                blk *= params.alpha
                n = normals[r0 + b0 : r0 + b0 + len(blk)] if drawn else normals.standard_normal(blk.shape)
                if sigma > 1e300:  # sigma * |x_q| * n may overflow (|x_q| <= 1, draws < 1e8); the clip saturates it
                    with np.errstate(over="ignore"):
                        np.clip(apply_noise(blk, n, sigma, out=blk), -1.0, 1.0, out=blk)
                else:
                    np.clip(apply_noise(blk, n, sigma, out=blk), -1.0, 1.0, out=blk)
                del n  # the last block's draws are not kept alive across the yield
        yield oe


def _readout(arch: ArchConfig, cat: CatalogVariant, mode: str) -> tuple[int, int] | None:
    """Resolve a run of mode on arch and cat, before any work: the readout _product takes.

    That is (C*T, bits_out), an epoch's rows and the ADC's width, in the ADC
    mode, else None.  Raises for a mode, or a bit width the mode uses, the
    engine cannot run (the quantizer's and the ADC's ranges, narrower than
    ArchConfig's CONVERTER_BITS), and for what engine_config_for rejects.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; options: {MODES}")
    for name, (lo, hi), used in (
        ("bits_in", QUANTIZER_BITS, mode != "ideal"),
        ("bits_out", ADC_BITS, mode == "quantized+noise+adc"),
    ):
        if used and not lo <= getattr(arch, name) <= hi:
            raise ValueError(f"{name} must be in [{lo}, {hi}] in mode {mode!r}, got {getattr(arch, name)}")
    engine_config_for(arch, cat)
    return (arch.c_cores * arch.t_int, arch.bits_out) if mode == "quantized+noise+adc" else None


#: Rows of y the linear modes multiply at a time, whatever the machine.  Any
#: count up to 1024 keeps every float32 partial sum of codes within
#: 1024 * 128^2 = 2^24, exact at the quantizer's widest 8 bits.
_LINEAR_ROWS = 256


#: The noise of a product: None, or (sigma, x's normals, y's normals), each
#: a generator or the operand's standard normals (see _engine_rows).
_Normals = np.random.Generator | np.ndarray
_Noise = tuple[float, _Normals, _Normals] | None


def _product(x: np.ndarray, y: np.ndarray, px: QuantizerParams | None, py: QuantizerParams | None,
             noise: _Noise, adc: tuple[int, int] | None) -> np.ndarray:
    """x @ y on the engine, in units of the product of operands in [-1, 1] (z_hat).

    Ideal mode (px None) is x @ y itself.  Otherwise x goes through the
    front end (_engine_rows) whole and y a chunk of rows at a time, and the
    chunks' products are summed.  adc is None, or the readout (rail, bits)
    = (C*T, bits_out): a chunk is then one epoch, which integrates at most
    C*T unit products, and its product is scaled to products (codes only;
    perturbed operands are in [-1, 1] already) and turned in place into its
    ADC codes c, which are summed, exactly: in float32 while E * 2^(b-1) <=
    2^24 for E epochs, else float64.  The product buffer then takes ((sum +
    E/2) * C*T) / 2^(b-1), the float64 sum of the readouts (c + 1/2) * C*T /
    2^(b-1) bit for bit: each is an odd multiple of C*T / 2^b, and C*T < N
    if E >= 2, so each partial sum is exact while N * 2^13 < 2^53.  Without
    the ADC a chunk is _LINEAR_ROWS rows, of float32 codes (noise None) or
    perturbed float64 operands, summed in float64, and the code sum is
    scaled by alpha_x * alpha_y once.  When y is one chunk its product is
    the result itself, with no second (M, Q) buffer.

    At sigma = 0, with operand peaks of 1 (step sizes that are powers of
    two), an epoch's code sum S reads (code + 1/2) * C*T / 2^(b-1) exactly,
    where code is floor(S * alpha_x * alpha_y * 2^(b-1) / (C*T)) clipped to
    [-2^(b-1), 2^(b-1) - 1].
    """
    if px is None or not x.size:  # with M = 0 or N = 0, x @ y is the zero result (float for int8 codes too)
        return (x @ y).astype(float, copy=False)
    m, q = len(x), y.shape[1]
    rows = _LINEAR_ROWS if adc is None else adc[0]
    dtype = np.float32 if noise is None and adc is None else np.float64
    epochs = -(-len(y) // rows)
    zdtype = np.float32 if adc is not None and epochs << (adc[1] - 1) <= 1 << 24 else np.float64
    sigma, rx, ry = noise or (0.0, None, None)
    (xe,) = _engine_rows(x, px, sigma, rx, m, dtype)
    z = v = None
    for n0, ye in zip(range(0, len(y), rows), _engine_rows(y, py, sigma, ry, rows, dtype)):
        if z is None and len(y) > rows:  # after y's first chunk, so its scratch is freed first
            z, v = np.zeros((m, q), zdtype), np.empty((m, q), dtype)
        w = np.matmul(xe[:, n0 : n0 + rows], ye, out=v)
        if adc is not None:
            if noise is None:
                w *= px.alpha * py.alpha
            _adc_codes(w, *adc)
        if z is None:  # y is one chunk: its product is the result, -0.0 read as +0.0 as zeros + w reads it
            z = w.astype(float, copy=False)
            z += 0.0
        else:
            z += w
    if adc is not None:  # every epoch's readout, (code + 1/2) * C*T / 2^(b-1), summed at once in the product buffer
        z = np.add(z, epochs / 2, out=z if v is None else v, dtype=float)
        z *= adc[0]
        z /= 2 ** (adc[1] - 1)
    elif noise is None:
        z *= px.alpha * py.alpha
    return z


def simulate_gemm(
    work: GemmWorkload,
    arch: ArchConfig,
    cat: CatalogVariant,
    nm: NoiseModel | None = None,
    mode: str = "ideal",
):
    """Run a GEMM through the behavioral engine model.

    Returns (z_hat, stats).  In ideal mode z_hat is X @ Y, and in quantized
    mode the exact sum of the b-bit integer codes of both operands times
    their step sizes (the end-to-end optical/electrical scale cancels); noise
    modes add the multiplicative Gaussian perturbation after quantization,
    and the adc mode digitizes every integrator readout at bits_out.
    """
    adc = _readout(arch, cat, mode)
    sched = plan(work, arch)

    px = py = noise = None
    alpha_x = alpha_y = float("nan")
    if mode != "ideal":
        px, py = minmax_params(work.x, arch.bits_in), minmax_params(work.y, arch.bits_in)
        alpha_x, alpha_y = px.alpha, py.alpha
        nm = NoiseModel() if nm is None else nm
        if mode != "quantized" and nm.sigma != 0.0:
            noise = nm.sigma, nm.rng(0), nm.rng(1)
    z_hat = _product(work.x, work.y, px, py, noise, adc)

    compute, reset_cycles, readouts = sched.cycles(arch.t_rst)
    stats = SimStats(
        mode=mode,
        compute_cycles=compute,
        reset_cycles=reset_cycles,
        readouts=readouts,
        saturation_events=0,
        alpha_x=alpha_x,
        alpha_y=alpha_y,
        schedule=sched,
    )
    return z_hat, stats

