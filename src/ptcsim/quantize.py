"""Digital-analog boundary: fake quantization, STE gradients, noise, ADC codes.

The quantizer is per-tensor: one step size alpha and one zero point for a
whole tensor, since the core scales each operand by one peak.  Noise with
sigma = 0 is no noise.

Rounding ties go half-away-from-zero everywhere.  The b-bit code range
[-2^(b-1), 2^(b-1) - 1] is not sign-symmetric: with the min-max step size
alpha = peak / 2^(b-1), a negative peak maps to code -2^(b-1) exactly, but a
positive peak clips to code 2^(b-1) - 1, a gain error of -1/2^(b-1) (-3.1% at
6 bits) on the largest positive entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import _check_numbers

__all__ = [
    "QuantizerParams",
    "NoiseModel",
    "quantize_codes",
    "fake_quantize",
    "quantize_grad_ste",
    "inject_noise",
    "apply_noise",
    "adc_sample",
    "adc_value",
    "adc_readout",
    "minmax_params",
]

#: The bit widths the quantizer's signed codes and the ADC's codes span.
QUANTIZER_BITS = (2, 8)
ADC_BITS = (2, 12)


#: QuantizerParams' rules, once alpha and zero_point are floats (see catalog._check_numbers).
_QUANTIZER_RULES = (
    ("bits", int, QUANTIZER_BITS[0], False, QUANTIZER_BITS[1]), ("alpha", float, 0, True, None),
    ("zero_point", float, -math.inf, True, None),
)


@dataclass(frozen=True)
class QuantizerParams:
    """Per-tensor learnable-step-size quantizer parameters.

    alpha (the step size) and zero_point are floats, one per tensor; a
    size-1 array is taken as its one value.  bits, b, is an int in
    QUANTIZER_BITS; b-bit signed codes span [-2^(b-1), 2^(b-1)-1].
    """

    bits: int
    alpha: float
    zero_point: float

    def __post_init__(self):
        if not type(self.alpha) is type(self.zero_point) is float:
            for name in ("alpha", "zero_point"):
                try:
                    v = np.asarray(getattr(self, name), dtype=float)
                except OverflowError:  # an int past the float range
                    raise ValueError(f"{name} must be finite, got an integer past the float range") from None
                if v.size != 1:
                    raise ValueError(f"{name} must be one number (the quantizer is per-tensor), got {v.size} values")
                object.__setattr__(self, name, v.item())
        _check_numbers(self, _QUANTIZER_RULES)

    @property
    def q_min(self) -> int:
        return -(2 ** (self.bits - 1))

    @property
    def q_max(self) -> int:
        return 2 ** (self.bits - 1) - 1


def quantize_codes(x: np.ndarray, p: QuantizerParams, out: np.ndarray | None = None) -> np.ndarray:
    """Integer codes: clip(x / alpha + z, q_min, q_max) rounded half away from zero, as floats.

    Six passes in place on one scratch buffer and the result, which goes to
    out when given (a float64 or float32 array of x's shape, which may be
    reused block after block), else to a new float64 array.  The result
    first holds copysign(1/2, v); v plus that is +-(|v| + 1/2), so its
    truncation is v rounded half away from zero, floor(|v| + 1/2) with v's sign.
    Every sum runs in float64, and only the integer code is cast to out's
    type, which is exact: a float32 v would round k + 1/2 - ulp up to the
    tie k + 1/2 and so to the code k + 1.
    """
    x = np.asarray(x, dtype=float)
    v = x / p.alpha
    # z + 0.0 turns a -0.0 zero point into +0.0, which leaves the codes
    # unchanged but keeps -0.0 out of v, so -0.0 rounds to +0.0.
    v += p.zero_point + 0.0
    np.clip(v, p.q_min, p.q_max, out=v)
    half = np.copysign(0.5, v, out=out)  # +-1/2, exact in float32 too
    v += half
    return np.trunc(v, out=half)


def fake_quantize(x: np.ndarray, p: QuantizerParams) -> np.ndarray:
    """Quantize-dequantize onto the lattice (q - z) * alpha.

    Idempotent: applying the transform twice returns the first result exactly.
    """
    q = quantize_codes(x, p)
    q -= p.zero_point
    q *= p.alpha
    return q


def quantize_grad_ste(
    upstream: np.ndarray, x: np.ndarray, p: QuantizerParams
) -> tuple[np.ndarray, np.ndarray]:
    """Backward pass of fake_quantize.

    grad_x uses the straight-through estimator: upstream passes where
    x/alpha + z lands inside the clip range, zero outside.  grad_alpha is the
    exact local derivative of the quantizer output with respect to alpha
    (rounded code minus zero-point inside the range, the clip code at the
    rails), summed over the tensor into an array of shape (1,); this is the
    quantity a central finite difference on fake_quantize measures.
    """
    upstream = np.asarray(upstream, dtype=float)
    x = np.asarray(x, dtype=float)
    if upstream.shape != x.shape:
        raise ValueError(f"upstream shape {upstream.shape} != x shape {x.shape}")
    z = p.zero_point
    v = x / p.alpha + z
    grad_x = upstream * ~((v < p.q_min) | (v > p.q_max))
    # quantize_codes clips before rounding, so at the rails this is the rail code minus z.
    weighted = upstream * (quantize_codes(x, p) - z)
    return grad_x, np.array([weighted.sum()])


@dataclass(frozen=True)
class NoiseModel:
    """Multiplicative Gaussian hardware noise: std = sigma * |value|.

    The default intensity is the value measured in modulator chip testing.
    Parallel workers draw from independent substreams of the same seed.
    sigma must be a finite number >= 0 and seed an integer >= 0.
    """

    sigma: float = 0.0031
    seed: int = 0

    def __post_init__(self):
        _check_numbers(self, (("sigma", float, 0, False, None), ("seed", int, 0, False, None)))

    def rng(self, stream: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])


def inject_noise(x_q: np.ndarray, nm: NoiseModel, stream: int = 0) -> np.ndarray:
    """Add zero-mean Gaussian noise with elementwise std sigma * |x_q|."""
    x_q = np.asarray(x_q, dtype=float)
    if nm.sigma == 0.0:
        return x_q.copy()
    return apply_noise(x_q, nm.rng(stream).standard_normal(x_q.shape), nm.sigma)


def apply_noise(x_q: np.ndarray, draws: np.ndarray, sigma: float, out: np.ndarray | None = None) -> np.ndarray:
    """x_q + draws * (sigma * |x_q|), into out, or in place on draws when out is None.

    draws holds standard normal samples of x_q's shape, and is only read
    when out is given (out may be x_q itself).  Filling it block by block
    from one generator, in row-major order, draws the same values as one
    whole-tensor draw, so a tensor may be perturbed a block at a time.
    """
    std = np.abs(x_q)
    std *= sigma
    std *= draws
    return np.add(x_q, std, out=draws if out is None else out)


def adc_sample(v, full_scale: float, bits: int):
    """Mid-rise uniform quantization of v clipped to +-full_scale.

    Codes run 0 .. 2^bits - 1; the reconstruction lattice is
    (code - (2^(bits-1) - 0.5)) * full_scale / 2^(bits-1), so adc_value is
    the documented inverse.
    """
    v = np.asarray(v, dtype=float)
    half = _adc_half(v, full_scale, bits)
    delta = full_scale / half
    code = np.floor(v / delta) + half
    code = np.clip(code, 0, 2 * half - 1).astype(int)
    return code if code.ndim else int(code)


def adc_value(code, full_scale: float, bits: int):
    """Reconstruction value at the center of an ADC code bin."""
    half = 2 ** (bits - 1)
    return (np.asarray(code, dtype=float) - (half - 0.5)) * full_scale / half


def adc_readout(v: np.ndarray, full_scale: float, bits: int) -> np.ndarray:
    """adc_value(adc_sample(v)), in place on the float array v; returns v.

    The same float operations in the same order, so the result is equal bit
    for bit; the codes are never cast to integers and back, which is exact
    for them anyway.
    """
    half = _adc_half(v, full_scale, bits)
    v /= full_scale / half
    np.floor(v, out=v)
    v += half
    np.clip(v, 0, 2 * half - 1, out=v)
    v -= half - 0.5
    v *= full_scale
    v /= half
    return v


def _adc_half(v: np.ndarray, full_scale: float, bits: int) -> int:
    """Half the ADC code count, 2^(bits-1), once the arguments are checked."""
    if not ADC_BITS[0] <= bits <= ADC_BITS[1]:
        raise ValueError(f"adc bits must be in [{ADC_BITS[0]}, {ADC_BITS[1]}], got {bits}")
    if full_scale <= 0:
        raise ValueError(f"full_scale must be > 0, got {full_scale}")
    if not np.all(np.isfinite(v)):
        raise ValueError("adc input must be finite")
    return 2 ** (bits - 1)


def _peak(a: np.ndarray) -> float:
    """max |a| of a float array as max(max a, -min a), with no |a| temporary: 0 if a is empty, NaN if a holds one."""
    return max(float(a.max(initial=0.0)), -float(a.min(initial=0.0)))


def minmax_params(x: np.ndarray, bits: int) -> QuantizerParams:
    """Min-max initialization of per-tensor quantizer parameters (z = 0).

    alpha = peak |x| / 2^(b-1); an all-zero or empty tensor, or one with a
    NaN, is given peak 1.
    """
    peak = _peak(np.asarray(x, dtype=float))
    alpha = (peak if peak > 0 else 1.0) / (2 ** (bits - 1))
    return QuantizerParams(bits, alpha, 0.0)
