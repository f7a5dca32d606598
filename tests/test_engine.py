"""Dot-product engine physics: encode, interfere, detect, size the integrator."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptcsim import (
    EngineConfig,
    FieldPair,
    balanced_detect,
    engine_transfer,
    er_amplitude_factor,
    mzm_encode,
    size_capacitor,
)

values = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
amps = st.floats(min_value=1e-4, max_value=1.0, allow_nan=False)


class TestEncode:
    def test_ideal_encode_is_linear(self):
        assert mzm_encode(0.5, 2.0) == 1.0
        assert mzm_encode(-1.0, 2.0) == -2.0
        assert mzm_encode(0.0, 2.0) == 0.0

    def test_out_of_range_value_rejected(self):
        with pytest.raises(ValueError, match=r"\|v\| <= 1"):
            mzm_encode(1.0001, 1.0)

    def test_finite_er_compresses_range(self):
        assert er_amplitude_factor(None) == 1.0
        assert er_amplitude_factor(math.inf) == 1.0
        f6 = er_amplitude_factor(6.0)
        assert f6 == pytest.approx(math.sqrt(1 - 10 ** -0.6))
        assert abs(mzm_encode(1.0, 1.0, 6.0)) < 1.0

    def test_nonpositive_er_rejected(self):
        with pytest.raises(ValueError):
            er_amplitude_factor(0.0)

    @pytest.mark.parametrize("er", [-1e6, -math.inf, math.nan, 1e-300])
    def test_er_without_power_to_encode_rejected(self, er):
        # -1e6 would overflow 10^(-ER/10); 1e-300 rounds 1 - 10^(-ER/10) to 0.
        with pytest.raises(ValueError, match="extinction ratio must be > 0 dB"):
            er_amplitude_factor(er)


class TestTransfer:
    @settings(max_examples=200)
    @given(values, values, amps)
    def test_energy_conservation(self, x, y, amp):
        fields = FieldPair(x * amp, y * amp)
        out = engine_transfer(fields)
        p_in = abs(fields.e1) ** 2 + abs(fields.e2) ** 2
        p_out = abs(out.e1) ** 2 + abs(out.e2) ** 2
        assert p_out == pytest.approx(p_in, abs=1e-15)

    # Rounding bound, with u = 2^-53 the float64 unit roundoff.  Each arm
    # power |out|^2 <= 2 passes about six roundings (x * amp, the sum, the
    # sqrt(1/2) constant and product, the modulus, the square), so its
    # relative error is at most about 11u; p1 - p2 is then off by at most
    # 11u * (p1 + p2) + u * |p1 - p2| <= 24u, since p1 + p2 = amp^2 (x^2 + y^2)
    # <= 2, and the factor 1.1 with its rounding makes that 28u.  The
    # reference 2 * 1.1 * amp^2 * x * y, at most 2.2, adds four roundings,
    # 9u.  37u is 9.25 ulps of 2.2, so the bound is 10 ulps; observed
    # errors reach 3 ulps (the example below is off by 1.33e-15).
    @settings(max_examples=200)
    @given(values, values, amps)
    @example(x=1.0, y=0.99999, amp=0.99999)
    def test_balanced_current_is_product(self, x, y, amp):
        out = balanced_detect(engine_transfer(FieldPair(x * amp, y * amp)), 1.1)
        assert out.i_out == pytest.approx(2 * 1.1 * amp**2 * x * y, abs=10 * math.ulp(2.2))

    def test_nonpositive_responsivity_rejected(self):
        with pytest.raises(ValueError):
            balanced_detect(FieldPair(1.0, 0.0), 0.0)


class TestIntegrator:
    def test_size_capacitor_anchor_and_errors(self):
        assert size_capacitor(110e-6, 60, 5e9, 0.24) == pytest.approx(5.5e-12)
        with pytest.raises(ValueError):
            size_capacitor(0.0, 60, 5e9, 0.24)
        with pytest.raises(ValueError):
            size_capacitor(110e-6, 60, 5e9, -0.1)

    def test_rail_is_a_constant(self):
        assert EngineConfig().v_dd == 0.24
        with pytest.raises(TypeError, match="v_dd"):
            EngineConfig(v_dd=0.3)
