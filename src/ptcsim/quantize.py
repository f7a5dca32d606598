"""Digital-analog boundary: fake quantization, STE gradients, noise, ADC codes.

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

__all__ = [
    "QuantizerParams",
    "NoiseModel",
    "round_half_away",
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


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, ties away from zero; -0.0 rounds to +0.0."""
    x = np.asarray(x)
    return np.copysign(np.floor(np.abs(x) + 0.5), x + 0.0)


@dataclass(frozen=True)
class QuantizerParams:
    """Per-channel learnable-step-size quantizer parameters.

    alpha and zero_point are broadcast along channel_axis; b-bit signed codes
    span [-2^(b-1), 2^(b-1)-1].
    """

    bits: int
    alpha: np.ndarray
    zero_point: np.ndarray
    channel_axis: int = -1

    def __post_init__(self):
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        zero_point = np.atleast_1d(np.asarray(self.zero_point, dtype=float))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "zero_point", zero_point)
        if not 2 <= self.bits <= 8:
            raise ValueError(f"bits must be in [2, 8], got {self.bits}")
        if alpha.size == zero_point.size == 1:
            # Per-tensor: scalar checks, far cheaper than array reductions.
            bad_alpha = alpha.item() <= 0
            bad_zero = not math.isfinite(zero_point.item())
        else:
            bad_alpha = np.any(alpha <= 0)
            bad_zero = not np.all(np.isfinite(zero_point))
        if bad_alpha:
            raise ValueError("alpha must be positive elementwise")
        if bad_zero:
            raise ValueError("zero_point must be finite")
        if zero_point.shape not in ((1,), alpha.shape):
            raise ValueError("zero_point shape must match alpha")

    @property
    def q_min(self) -> int:
        return -(2 ** (self.bits - 1))

    @property
    def q_max(self) -> int:
        return 2 ** (self.bits - 1) - 1

    def _expand(self, vec: np.ndarray, ndim: int) -> np.ndarray:
        if vec.size == 1:
            return vec.reshape(())
        shape = [1] * ndim
        shape[self.channel_axis] = vec.size
        return vec.reshape(shape)


def _check_channels(x: np.ndarray, p: QuantizerParams) -> None:
    if p.alpha.size not in (1, x.shape[p.channel_axis]):
        raise ValueError(
            f"alpha length {p.alpha.size} does not match tensor channel dim "
            f"{x.shape[p.channel_axis]}"
        )


def quantize_codes(x: np.ndarray, p: QuantizerParams, out: np.ndarray | None = None) -> np.ndarray:
    """Integer codes q = round_half_away(clip(x / alpha + z, q_min, q_max)), as floats.

    Every pass runs in place on one result and one scratch buffer.  The
    result goes to out when given (a float array of x's shape, which may be
    reused block after block), else to a new array.
    """
    x = np.asarray(x, dtype=float)
    _check_channels(x, p)
    alpha = p._expand(p.alpha, x.ndim)
    z = p._expand(p.zero_point, x.ndim)
    v = x / alpha
    # z + 0.0 turns a -0.0 zero point into +0.0, which leaves the codes
    # unchanged but keeps -0.0 out of v, so v itself carries the sign
    # round_half_away takes from x + 0.0.
    v += z + 0.0
    np.clip(v, p.q_min, p.q_max, out=v)
    q = np.abs(v, out=out)
    q += 0.5
    np.floor(q, out=q)
    return np.copysign(q, v, out=q)


def fake_quantize(x: np.ndarray, p: QuantizerParams) -> np.ndarray:
    """Quantize-dequantize onto the per-channel lattice (q - z) * alpha.

    Idempotent: applying the transform twice returns the first result exactly.
    """
    q = quantize_codes(x, p)
    q -= p._expand(p.zero_point, q.ndim)
    q *= p._expand(p.alpha, q.ndim)
    return q


def quantize_grad_ste(
    upstream: np.ndarray, x: np.ndarray, p: QuantizerParams
) -> tuple[np.ndarray, np.ndarray]:
    """Backward pass of fake_quantize.

    grad_x uses the straight-through estimator: upstream passes where
    x/alpha + z lands inside the clip range, zero outside.  grad_alpha is the
    exact local derivative of the quantizer output with respect to alpha
    (rounded code minus zero-point inside the range, the clip code at the
    rails), reduced over all non-channel axes; this is the quantity a central
    finite difference on fake_quantize measures.
    """
    upstream = np.asarray(upstream, dtype=float)
    x = np.asarray(x, dtype=float)
    if upstream.shape != x.shape:
        raise ValueError(f"upstream shape {upstream.shape} != x shape {x.shape}")
    _check_channels(x, p)
    alpha = p._expand(p.alpha, x.ndim)
    z = p._expand(p.zero_point, x.ndim)
    v = x / alpha + z
    grad_x = upstream * ~((v < p.q_min) | (v > p.q_max))
    # quantize_codes clips before rounding, so at the rails this is the rail code minus z.
    weighted = upstream * (quantize_codes(x, p) - z)
    if p.alpha.size == 1:
        grad_alpha = np.array([weighted.sum()])
    else:
        axes = tuple(i for i in range(x.ndim) if i != p.channel_axis % x.ndim)
        grad_alpha = weighted.sum(axis=axes)
    return grad_x, grad_alpha


@dataclass(frozen=True)
class NoiseModel:
    """Multiplicative Gaussian hardware noise: std = sigma * |value|.

    The default intensity is the value measured in modulator chip testing.
    Parallel workers draw from independent substreams of the same seed.
    """

    sigma: float = 0.0031
    seed: int = 0
    enabled: bool = True

    def __post_init__(self):
        if not 0 <= self.sigma < math.inf:  # also rejects NaN
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")

    def rng(self, stream: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])


def inject_noise(x_q: np.ndarray, nm: NoiseModel, stream: int = 0) -> np.ndarray:
    """Add zero-mean Gaussian noise with elementwise std sigma * |x_q|."""
    x_q = np.asarray(x_q, dtype=float)
    if not nm.enabled or nm.sigma == 0.0:
        return x_q.copy()
    return apply_noise(x_q, nm.rng(stream).standard_normal(x_q.shape), nm.sigma)


def apply_noise(x_q: np.ndarray, draws: np.ndarray, sigma: float) -> np.ndarray:
    """x_q + draws * (sigma * |x_q|), one pass at a time in place on draws.

    draws holds standard normal samples of x_q's shape.  Filling it block by
    block from one generator, in row-major order, draws the same values as
    one whole-tensor draw, so a tensor may be perturbed a block at a time.
    """
    std = np.abs(x_q)
    std *= sigma
    draws *= std
    draws += x_q
    return draws


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
    if not 2 <= bits <= 12:
        raise ValueError(f"adc bits must be in [2, 12], got {bits}")
    if full_scale <= 0:
        raise ValueError(f"full_scale must be > 0, got {full_scale}")
    if not np.all(np.isfinite(v)):
        raise ValueError("adc input must be finite")
    return 2 ** (bits - 1)


def minmax_params(x: np.ndarray, bits: int, channel_axis: int = -1, per_channel: bool = False) -> QuantizerParams:
    """Min-max initialization of quantizer parameters (z = 0).

    alpha = peak |x| / 2^(b-1); an all-zero or empty tensor (or channel) is
    given peak 1.
    """
    x = np.asarray(x, dtype=float)
    # max(max x, -min x) is max |x| without an |x| temporary; a NaN in x
    # makes both NaN, so it still yields peak 1.
    if per_channel:
        axes = tuple(i for i in range(x.ndim) if i != channel_axis % x.ndim)
        peak = np.maximum(x.max(axis=axes, initial=0.0), -x.min(axis=axes, initial=0.0))
        alpha = np.where(peak > 0, peak, 1.0) / (2 ** (bits - 1))
    else:
        peak = max(float(x.max(initial=0.0)), -float(x.min(initial=0.0)))
        alpha = np.array([(peak if peak > 0 else 1.0) / (2 ** (bits - 1))])
    return QuantizerParams(
        bits=bits,
        alpha=alpha,
        zero_point=np.zeros(alpha.shape),
        channel_axis=channel_axis,
    )
