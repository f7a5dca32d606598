"""Quantization, STE gradients, noise injection, and ADC conversion."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from ptcsim import (
    NoiseModel,
    QuantizerParams,
    adc_readout,
    adc_sample,
    adc_value,
    apply_noise,
    fake_quantize,
    inject_noise,
    minmax_params,
    quantize_codes,
    quantize_grad_ste,
)


def scalar_params(bits=6, alpha=0.05, z=0.0):
    return QuantizerParams(bits=bits, alpha=np.array([alpha]), zero_point=np.array([z]))


# The earlier allocating formulas; the in-place kernels must match them bit for bit.
def formula_round_half_away(x):
    x = np.asarray(x)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def formula_fake_quantize(x, p):
    x = np.asarray(x, dtype=float)
    alpha, z = p.alpha, p.zero_point
    v = np.clip(x / alpha + z, p.q_min, p.q_max)
    return (formula_round_half_away(v) - z) * alpha


def formula_grad_alpha_terms(x, p):
    """upstream's factor in grad_alpha: code minus zero point, the clip code at the rails."""
    x = np.asarray(x, dtype=float)
    z = p.zero_point
    v = x / p.alpha + z
    below, above = v < p.q_min, v > p.q_max
    return np.where(
        ~(below | above),
        formula_round_half_away(np.clip(v, p.q_min, p.q_max)) - z,
        np.where(below, p.q_min - z, p.q_max - z),
    )


def formula_minmax_alpha(x, bits):
    peak = np.abs(np.asarray(x, dtype=float)).max(initial=0.0)
    return np.where(peak > 0, peak, 1.0) / (2 ** (bits - 1))


def formula_inject_noise(x, nm, stream):
    rng = nm.rng(stream)
    return x + rng.standard_normal(x.shape) * (nm.sigma * np.abs(x))


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# Signed zeros, values in (-0.5, 0), ties, subnormals, out-of-range values.
SPECIAL = np.concatenate([
    [0.0, -0.0, -0.49999999999999994, -0.3, -1e-300, -5e-324, 0.49999999999999994, 1e-300],
    np.arange(-40, 40) + 0.5,
    np.nextafter(np.arange(-40, 40) + 0.5, 0.0),
    np.linspace(-50, 50, 2001),
])
floats_with_signed_zeros = arrays(
    float,
    array_shapes(max_dims=2, max_side=16),
    elements=st.one_of(
        st.floats(-40, 40, allow_nan=False), st.sampled_from([0.0, -0.0, 0.125, -0.375, 0.5, -0.5])
    ),
)


#: One step per unit and the 8-bit code range, wide enough for SPECIAL:
#: quantize_codes is then round-half-away-from-zero itself.
UNIT = scalar_params(bits=8, alpha=1.0)


class TestRounding:
    """quantize_codes rounds ties away from zero; -0.0 rounds to +0.0."""

    def test_ties_away_from_zero(self):
        got = quantize_codes(np.array([0.5, -0.5, 1.5, -1.5, 2.4, -2.4]), UNIT)
        assert np.array_equal(got, [1, -1, 2, -2, 2, -2])

    def test_matches_sign_floor_formula_bitwise(self):
        x = np.concatenate([SPECIAL, [np.inf, -np.inf]])
        assert_same_bits(quantize_codes(x, UNIT), formula_round_half_away(np.clip(x, UNIT.q_min, UNIT.q_max)))
        assert_same_bits(quantize_codes(np.array([-0.0]), UNIT), [0.0])
        assert_same_bits(quantize_codes(np.array([-0.3]), UNIT), [-0.0])

    def test_float32_input_is_divided_in_float64(self):
        # float32(12.45) is 12.4499998...: its float32 quotient by 0.1 would
        # round to the tie 124.5, and so to the code 125.
        p = QuantizerParams(8, 0.1, 0.0)
        assert_same_bits(quantize_codes(np.float32([-12.45, 12.45]), p), [-124.0, 124.0])

    @given(floats_with_signed_zeros)
    def test_matches_sign_floor_formula_on_random_arrays(self, x):
        assert_same_bits(quantize_codes(x, UNIT), formula_round_half_away(x))


class TestQuantizerParams:
    def test_code_range(self):
        p = scalar_params(bits=6)
        assert (p.q_min, p.q_max) == (-32, 31)

    @pytest.mark.parametrize("bits", [1, 9])
    def test_bits_out_of_range_rejected(self, bits):
        with pytest.raises(ValueError):
            scalar_params(bits=bits)

    @pytest.mark.parametrize("bits", [6.5, "6", True, np.int64(6)], ids=repr)
    def test_bits_must_be_an_integer(self, bits):
        # A bits of 6.5 would give q_max = 44.25, off the code lattice; a
        # numpy integer is refused as ArchConfig and MlpConfig refuse it.
        with pytest.raises(ValueError, match=f"^bits must be an integer, got {re.escape(repr(bits))}$"):
            QuantizerParams(bits=bits, alpha=0.1, zero_point=0.0)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError):
            scalar_params(alpha=0.0)

    def test_nonfinite_zero_point_rejected(self):
        with pytest.raises(ValueError):
            scalar_params(z=np.inf)

    @pytest.mark.parametrize("as_array", [False, True])
    @pytest.mark.parametrize(
        "alpha, z, message",
        [(0.0, 0.0, "alpha"), (-0.1, 0.0, "alpha"), (0.1, np.inf, "zero_point"),
         (0.1, np.nan, "zero_point"), (np.nan, 0.0, "alpha must be a finite number, got nan"),
         (np.inf, 0.0, "alpha must be a finite number, got inf"), (0.1, -0.0, None),
         ([0.1, 0.1, 0.1], 0.0, "alpha must be one number"), (0.1, [0.0, 0.0], "zero_point must be one number"),
         pytest.param(10**400, 0.0, "alpha must be a finite number, got ", id="alpha-10**400"),
         pytest.param(0.1, -10**400, "zero_point must be a finite number, got ", id="zero_point--10**400"),
         ("0.1", 0.0, "alpha must be a finite number, got "), (0.1, True, "zero_point must be a finite number, got "),
         (0.1, "0", "zero_point must be a finite number, got "), (False, 0.0, "alpha must be a finite number, got "),
         (np.bool_(False), 0.0, "alpha must be a finite number, got "), ([None], 0.0, "alpha must be a finite number"),
         (0.1, b"1", "zero_point must be a finite number, got "), (0.1, 1j, "zero_point must be a finite number, got ")],
    )
    def test_per_tensor_checks(self, as_array, alpha, z, message):
        # Floats and size-1 arrays are checked alike; the params are
        # per-tensor, so a longer array is rejected.  A str or bool is refused
        # as given: converting would read "0.1" as 0.1 and True as 1.0.
        def make():
            if as_array:
                return QuantizerParams(bits=6, alpha=np.atleast_1d(alpha), zero_point=np.atleast_1d(z))
            return QuantizerParams(bits=6, alpha=alpha, zero_point=z)

        if message is None:
            p = make()
            assert type(p.alpha) is type(p.zero_point) is float
        else:
            with pytest.raises(ValueError, match=message):
                make()

    @pytest.mark.parametrize(
        "value",
        [3, np.int64(3), np.uint8(3), np.float32(0.25), np.array([[0.25]], dtype=np.float16), np.longdouble(0.25)],
        ids=repr,
    )
    def test_one_integer_or_real_value_is_taken_as_a_float(self, value):
        p = QuantizerParams(6, value, value)
        assert type(p.alpha) is type(p.zero_point) is float
        assert p.alpha == p.zero_point == float(np.asarray(value).item())


class TestFakeQuantize:
    @settings(max_examples=200)
    @given(
        arrays(
            float,
            array_shapes(max_dims=2, max_side=16),
            elements=st.floats(-4, 4, allow_nan=False),
        )
    )
    def test_idempotent_exactly(self, x):
        p = scalar_params()
        once = fake_quantize(x, p)
        assert np.array_equal(fake_quantize(once, p), once)

    def test_output_on_lattice_and_clipped(self):
        p = scalar_params(bits=4, alpha=0.1)
        x = np.linspace(-3, 3, 101)
        q = fake_quantize(x, p)
        codes = q / 0.1
        assert np.allclose(codes, np.round(codes), atol=1e-12)
        assert codes.min() >= p.q_min and codes.max() <= p.q_max

    @pytest.mark.parametrize("bits", [2, 6, 8])
    @pytest.mark.parametrize("z", [0.0, -0.0, 1.0, -2.5])
    def test_per_tensor_matches_formula_bitwise(self, bits, z):
        p = scalar_params(bits=bits, alpha=0.7 / 2 ** (bits - 1), z=z)
        x = SPECIAL * (0.7 / 40)
        assert_same_bits(fake_quantize(x, p), formula_fake_quantize(x, p))

    @given(floats_with_signed_zeros, st.sampled_from([0.0, -0.0, 3.0, -1.5]), st.integers(2, 8))
    def test_per_tensor_matches_formula_on_random_arrays(self, x, z, bits):
        p = scalar_params(bits=bits, alpha=0.25, z=z)  # 0.125 lands on a tie
        assert_same_bits(fake_quantize(x, p), formula_fake_quantize(x, p))
        codes = quantize_codes(x, p)
        assert_same_bits(codes, formula_round_half_away(np.clip(x / p.alpha + z, p.q_min, p.q_max)))

    def test_codes_into_a_reused_block_buffer(self):
        x = SPECIAL[: 36 * 60].reshape(36, 60) / 40
        p = scalar_params(bits=6, alpha=1 / 32)
        buf = np.full((8, 60), np.nan)
        blocks = []
        for r0 in range(0, len(x), 8):
            out = quantize_codes(x[r0 : r0 + 8], p, buf[: len(x[r0 : r0 + 8])])
            assert np.shares_memory(out, buf)
            blocks.append(out.copy())
        assert_same_bits(np.concatenate(blocks), quantize_codes(x, p))

    @pytest.mark.parametrize("bits", [2, 6, 8])
    @pytest.mark.parametrize("scale", [1.0, 0.7])  # a power-of-two step, and one that is not
    def test_codes_into_float32_match_float64_at_and_below_ties(self, bits, scale):
        # k + 1/2 and the float just below it, for every code k: a float32
        # |x / alpha| would round the second up to the tie, and so to k + 1.
        p = scalar_params(bits=bits, alpha=scale / 2 ** (bits - 1))
        ties = np.arange(p.q_min, p.q_max + 1) + 0.5
        x = np.concatenate([ties, -ties, np.nextafter(ties, 0), np.nextafter(-ties, 0)]) * p.alpha
        out = np.full(x.shape, np.nan, dtype=np.float32)
        codes = quantize_codes(x, p, out)
        assert codes is out
        assert np.array_equal(codes, quantize_codes(x, p))


class TestSteGradients:
    def test_grad_x_masks_clipped_entries(self):
        p = scalar_params(bits=4, alpha=0.1)  # range covers [-0.8, 0.7]
        x = np.array([0.0, 0.5, 5.0, -5.0])
        gx, _ = quantize_grad_ste(np.ones(4), x, p)
        assert np.array_equal(gx, [1.0, 1.0, 0.0, 0.0])

    def test_grad_alpha_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        alpha = 0.07
        p = scalar_params(bits=4, alpha=alpha)
        x = rng.uniform(-1, 1, 64)
        # Snap near-boundary samples onto the lattice so the FD probe stays
        # on one smooth branch.
        v = x / alpha
        x = np.where(np.abs(v - np.round(v)) < 0.45, x, np.round(v) * alpha)
        upstream = rng.standard_normal(64)
        _, ga = quantize_grad_ste(upstream, x, p)
        h = 1e-7
        fd = (
            (upstream * fake_quantize(x, scalar_params(bits=4, alpha=alpha + h))).sum()
            - (upstream * fake_quantize(x, scalar_params(bits=4, alpha=alpha - h))).sum()
        ) / (2 * h)
        assert ga[0] == pytest.approx(fd, rel=1e-4)

    @given(floats_with_signed_zeros, st.sampled_from([0.0, -0.0, 3.0, -1.5]), st.integers(2, 8))
    def test_grad_alpha_matches_formula_bitwise(self, x, z, bits):
        p = scalar_params(bits=bits, alpha=0.25, z=z)  # 0.125 lands on a tie
        upstream = np.linspace(-1, 1, x.size).reshape(x.shape)
        _, ga = quantize_grad_ste(upstream, x, p)
        assert_same_bits(ga, [(upstream * formula_grad_alpha_terms(x, p)).sum()])

    @pytest.mark.parametrize("upstream_shape, x_shape", [((3,), (4,)), ((3,), (1,)), ((1, 3), (2, 3))])
    def test_shape_mismatch_rejected(self, upstream_shape, x_shape):
        # The last two would broadcast into a gradient of another shape than x.
        message = f"upstream shape {upstream_shape} != x shape {x_shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            quantize_grad_ste(np.ones(upstream_shape), np.zeros(x_shape), scalar_params())

    def test_array_likes_taken_as_float_arrays(self):
        p = scalar_params(bits=4, alpha=0.1)
        gx, ga = quantize_grad_ste([1, 2, 3], [0.0, 0.5, 5.0], p)
        want_gx, want_ga = quantize_grad_ste(np.array([1.0, 2.0, 3.0]), np.array([0.0, 0.5, 5.0]), p)
        assert gx.dtype == float
        assert_same_bits(gx, want_gx)
        assert_same_bits(ga, want_ga)


class TestNoise:
    @pytest.mark.parametrize("x", [np.array([1.0, -0.0, np.inf, -np.inf]), [1, 0, -1]], ids=["floats", "int-list"])
    def test_zero_sigma_or_disabled_is_identity_copy(self, x):
        # sigma = 0 is how noise is disabled: no draw touches an entry, so
        # -0.0 and an infinity (where 0 * draw * inf would be NaN) stay.
        out = inject_noise(x, NoiseModel(sigma=0.0))
        assert type(out) is np.ndarray and out.dtype == float and out is not x
        assert_same_bits(out, x)

    def test_std_proportional_to_magnitude(self):
        nm = NoiseModel(sigma=0.05, seed=1)
        for mag in (0.25, 1.0):
            x = np.full(200_000, mag)
            noise = inject_noise(x, nm) - x
            assert noise.std() == pytest.approx(0.05 * mag, rel=0.02)

    def test_substreams_are_independent_but_reproducible(self):
        nm = NoiseModel(sigma=0.1, seed=7)
        x = np.ones(100)
        a0 = inject_noise(x, nm, stream=0)
        a1 = inject_noise(x, nm, stream=1)
        assert not np.array_equal(a0, a1)
        assert np.array_equal(a0, inject_noise(x, nm, stream=0))

    @pytest.mark.parametrize("stream", [0, 5])
    def test_matches_formula_bitwise(self, stream):
        nm = NoiseModel(sigma=0.0031, seed=11)
        x = np.concatenate([SPECIAL, -SPECIAL]).reshape(2, -1) / 50
        assert_same_bits(inject_noise(x, nm, stream=stream), formula_inject_noise(x, nm, stream))

    @pytest.mark.parametrize("rows", [1, 3, 37])
    def test_block_draws_match_one_whole_draw(self, rows):
        nm = NoiseModel(sigma=0.0031, seed=11)
        x = np.random.default_rng(4).uniform(-1, 1, (100, 13))
        rng, draws, blocks = nm.rng(1), np.empty((rows, 13)), []
        for r0 in range(0, len(x), rows):
            blk = x[r0 : r0 + rows]
            blocks.append(apply_noise(blk, rng.standard_normal(out=draws[: len(blk)]), nm.sigma).copy())
        assert_same_bits(np.concatenate(blocks), inject_noise(x, nm, stream=1))

    def test_input_is_not_modified(self):
        x = np.linspace(-1, 1, 11)
        before = x.copy()
        inject_noise(x, NoiseModel(sigma=0.1, seed=2))
        assert_same_bits(x, before)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(sigma=-0.1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf"), pytest.param(10**400, id="10**400")])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must be a finite number"):
            NoiseModel(sigma=sigma)

    @pytest.mark.parametrize("sigma", ["0.1", True, None])
    def test_non_number_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must be a finite number"):
            NoiseModel(sigma=sigma)

    @pytest.mark.parametrize("seed", [-1, True, 1.5, "0", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1" if seed == -1 else "seed must be an integer, got "):
            NoiseModel(seed=seed)


class TestAdc:
    @pytest.mark.parametrize("v", [np.array([-10.0, 10.0]), [-10, 10]], ids=["array", "int-list"])
    def test_codes_span_full_range(self, v):
        codes = adc_sample(v, full_scale=1.0, bits=6)
        assert list(codes) == [0, 63]

    def test_value_is_bin_center_inverse(self):
        fs, bits = 0.24, 6
        v = np.linspace(-fs, fs, 1001)
        recon = adc_value(adc_sample(v, fs, bits), fs, bits)
        delta = fs / 2 ** (bits - 1)
        assert np.abs(recon - np.clip(v, -fs, fs - 1e-9)).max() <= delta / 2 + 1e-12

    def test_monotone_in_input(self):
        v = np.linspace(-1, 1, 500)
        codes = adc_sample(v, 1.0, 8)
        assert np.all(np.diff(codes) >= 0)

    def test_scalar_round_trip(self):
        code = adc_sample(0.0, 1.0, 6)
        assert isinstance(code, int)
        assert abs(adc_value(code, 1.0, 6)) < 1.0 / 32

    @pytest.mark.parametrize("bits", [1, 13])
    def test_bits_out_of_range_rejected(self, bits):
        with pytest.raises(ValueError):
            adc_sample(0.0, 1.0, bits)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(ValueError):
            adc_sample(np.array([np.nan]), 1.0, 6)

    @pytest.mark.parametrize("fs, bits", [(1.0, 6), (0.37, 2), (2.5e-3, 8), (1.0, 12)])
    def test_in_place_readout_matches_sample_then_value(self, fs, bits):
        delta = fs / 2 ** (bits - 1)
        edges = np.arange(-(2 ** (bits - 1)), 2 ** (bits - 1) + 1) * delta
        v = np.concatenate([
            [0.0, -0.0, fs, -fs, np.nextafter(fs, 0), np.nextafter(-fs, 0), 3 * fs, -3 * fs, 1e300, -1e300],
            edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
            np.random.default_rng(bits).uniform(-1.2 * fs, 1.2 * fs, 500),
        ])
        want = adc_value(adc_sample(v, fs, bits), fs, bits)
        got = v.copy()
        assert adc_readout(got, fs, bits) is got
        assert_same_bits(got, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_in_place_readout_rejects_nonfinite(self, bad):
        v = np.array([[0.1, bad], [0.0, -0.2]])
        with pytest.raises(ValueError, match="finite"):
            adc_readout(v, 1.0, 6)

    @pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_readout_finds_nonfinite_at_either_end(self, bad, at):
        v = np.linspace(-0.5, 0.5, 12).reshape(3, 4)
        v.flat[at] = bad
        with pytest.raises(ValueError, match="^adc input must be finite$"):
            adc_readout(v, 1.0, 6)

    def test_readout_makes_no_temporary(self):
        # The finite check reads v's extremes: no bool array of v's shape.
        v = np.random.default_rng(0).uniform(-1, 1, (256, 256))
        tracemalloc.start()
        try:
            adc_readout(v, 1.0, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < v.size // 8

    @pytest.mark.parametrize("fs, bits", [(1.0, 1), (1.0, 13), (0.0, 6), (-1.0, 6)])
    def test_in_place_readout_checks_its_arguments(self, fs, bits):
        with pytest.raises(ValueError):
            adc_readout(np.zeros(3), fs, bits)


class TestMinmaxParams:
    def test_symmetric_peak_mapping(self):
        x = np.array([-0.8, 0.5])
        p = minmax_params(x, bits=6)
        assert p.alpha == pytest.approx(0.8 / 32)
        assert p.zero_point == 0.0
        # The peak value is representable after quantization.
        assert fake_quantize(x, p)[0] == pytest.approx(-0.8)

    def test_all_zero_tensor_gets_unit_alpha(self):
        p = minmax_params(np.zeros(5), bits=6)
        assert p.alpha == pytest.approx(1.0 / 32)

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0)])
    def test_empty_tensor_gets_unit_alpha(self, shape):
        assert minmax_params(np.zeros(shape), bits=6).alpha == pytest.approx(1.0 / 32)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_entry_rejected(self, bad):
        # Its step size would be infinite, and every code 0.
        with pytest.raises(ValueError, match="alpha must be a finite number, got inf"):
            minmax_params(np.array([0.5, bad]), bits=6)

    def test_positive_peak_clips_one_code_short(self):
        # The code range [-2^(b-1), 2^(b-1) - 1] is not sign-symmetric.
        x = np.array([-1.0, 1.0])
        assert np.array_equal(fake_quantize(x, minmax_params(x, bits=6)), [-1.0, 31 / 32])

    @given(
        arrays(
            float,
            array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
            elements=st.one_of(
                st.floats(-2, 2), st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324])
            ),
        ),
        st.integers(2, 8),
    )
    def test_matches_abs_formula_bitwise(self, x, bits):
        want = formula_minmax_alpha(x, bits)
        # A subnormal peak underflows to a zero step size, an infinite one
        # gives an infinite step size.
        if not 0 < want < np.inf:
            with pytest.raises(ValueError, match="alpha must be > 0, got 0.0" if want == 0 else "alpha must be a finite number, got inf"):
                minmax_params(x, bits)
            return
        p = minmax_params(x, bits)
        assert_same_bits(p.alpha, want)
        assert_same_bits(p.zero_point, 0.0)
