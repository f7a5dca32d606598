"""Behavioral model of one dynamic optical dot-product engine.

The engine encodes a pair of operands onto two optical field amplitudes,
interferes them in a 50:50 coupler behind a -pi/2 phase shifter, detects the
two outputs on a balanced photodetector pair, and accumulates the signed
photocurrent on a capacitive integrator.  All functions are pure.
EngineConfig folds the chain into one current per unit operand product,
which the scheduler integrates for a whole GEMM at once; size_capacitor
sets the integrator so that a full-scale ramp lands exactly on the rail.

Field amplitudes are complex numbers in sqrt(W), so |E|^2 is optical power in
watts and detected currents come out in amperes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "FieldPair",
    "EngineOutput",
    "EngineConfig",
    "er_amplitude_factor",
    "mzm_encode",
    "engine_transfer",
    "balanced_detect",
    "size_capacitor",
]

_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class FieldPair:
    """Two complex optical field amplitudes entering the coupler."""

    e1: complex
    e2: complex


@dataclass(frozen=True)
class EngineOutput:
    """Balanced-detection result: per-arm optical powers and the net current."""

    i_out: float
    p_out1: float
    p_out2: float


def er_amplitude_factor(extinction_ratio_db: float | None) -> float:
    """Amplitude-range compression from a finite modulator extinction ratio.

    The encodable amplitude span shrinks by sqrt(1 - 10^(-ER/10)), the
    amplitude-level equivalent of the laser power penalty term.  None or
    infinite ER means an ideal modulator (factor 1).
    """
    if extinction_ratio_db is None or math.isinf(extinction_ratio_db):
        return 1.0
    if extinction_ratio_db <= 0:
        raise ValueError(f"extinction ratio must be > 0 dB, got {extinction_ratio_db}")
    return math.sqrt(1.0 - 10.0 ** (-extinction_ratio_db / 10.0))


def mzm_encode(value: float, e_in: complex, extinction_ratio_db: float | None = None) -> complex:
    """Encode a dimensionless value in [-1, 1] onto a field amplitude.

    The modulator maps value v to E_in * cos(theta) with cos(theta) = v, so
    both signs ride on a single coherent carrier.  Finite extinction ratio
    symmetrically compresses the achievable amplitude range.
    """
    if abs(value) > 1.0:
        raise ValueError(f"encode value must satisfy |v| <= 1, got {value}")
    return e_in * value * er_amplitude_factor(extinction_ratio_db)


def engine_transfer(fields: FieldPair) -> FieldPair:
    """Lossless 50:50 coupler behind a -pi/2 shifter on arm 2.

    For inputs (e1, e2) the outputs are (sqrt(2)/2)(e1 + e2) and
    j(sqrt(2)/2)(e1 - e2); total power is conserved exactly.
    """
    out1 = _SQRT_HALF * (fields.e1 + fields.e2)
    out2 = 1j * _SQRT_HALF * (fields.e1 - fields.e2)
    return FieldPair(out1, out2)


def balanced_detect(
    fields: FieldPair,
    responsivity: float,
    dark_current: float = 0.0,
    loss_db: float = 0.0,
) -> EngineOutput:
    """Differential photocurrent of the balanced pair.

    Dark current sets the detection noise floor used in laser-power sizing;
    its mean cancels in the balanced subtraction, so it does not appear as a
    deterministic offset here.
    """
    if responsivity <= 0:
        raise ValueError(f"responsivity must be > 0, got {responsivity}")
    loss = 10.0 ** (-loss_db / 10.0)
    p1 = abs(fields.e1) ** 2 * loss
    p2 = abs(fields.e2) ** 2 * loss
    return EngineOutput(i_out=responsivity * (p1 - p2), p_out1=p1, p_out2=p2)


def size_capacitor(i_pd_max: float, t_steps: int, clock_hz: float, v_dd: float) -> float:
    """Integration capacitance that places a full-rate ramp exactly at the rail.

    C_int = I_max * T / (f * V_DD).  I_max is the post-aggregation maximum
    current into the integrator (C engines summed when cores share readout).
    """
    if i_pd_max <= 0 or t_steps <= 0 or clock_hz <= 0 or v_dd <= 0:
        raise ValueError("size_capacitor arguments must all be > 0")
    return i_pd_max * t_steps / (clock_hz * v_dd)


@dataclass(frozen=True)
class EngineConfig:
    """Physical constants of one dot-product engine.

    p_arm_w is the optical power arriving at each modulator arm (laser power
    after the distribution loss chain).
    """

    p_arm_w: float = 1.0
    responsivity_a_per_w: float = 1.0
    extinction_ratio_db: float | None = None
    v_dd: float = 0.24
    c_int: float = 5.5e-12
    dt: float = 0.2e-9

    def current_scale(self) -> float:
        """Photocurrent (A) produced by a unit product x*y = 1.

        The balanced output of the coupler gives I = 2 R P_arm x y; the ER
        compression acts on both encoded amplitudes.
        """
        return (
            2.0
            * self.responsivity_a_per_w
            * self.p_arm_w
            * er_amplitude_factor(self.extinction_ratio_db) ** 2
        )

    def normalization(self) -> float:
        """Readout volts contributed by a unit product in one timestep.

        Dividing an integrated voltage by this constant recovers the plain
        arithmetic sum of products.
        """
        return self.current_scale() * self.dt / self.c_int
