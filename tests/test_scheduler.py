"""GEMM tiling, cycle accounting, and behavioral simulation modes."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import gen_simulate_sha256
from scheduler_oracle import (
    assert_engine_rows_match_oracle,
    oracle_engine_rows,
    oracle_simulate_gemm,
    record_engine_rows,
)

from ptcsim import (
    MODES,
    ArchConfig,
    CatalogVariant,
    DeviceKind,
    GemmWorkload,
    NoiseModel,
    adc_readout,
    cycle_count,
    engine_config_for,
    load_builtin_catalog,
    minmax_params,
    plan,
    quantize_codes,
    scheduler,
    simulate_gemm,
)

CAT = load_builtin_catalog("custom-sl")
SMALL = ArchConfig(r_tiles=2, c_cores=3, k=4)
SRC, TESTS = Path(__file__).resolve().parents[1] / "src", Path(__file__).resolve().parent

#: Prints "mode sigma sha256(z_hat) repr(stats)" for a 256x2048x256 GEMM on
#: the default machine in every mode, and in the ADC mode at sigma = 0 too.
THREAD_PROBE = """
import hashlib
import numpy as np
from ptcsim import MODES, ArchConfig, GemmWorkload, NoiseModel, load_builtin_catalog, simulate_gemm
rng = np.random.default_rng(7)
w = GemmWorkload(rng.uniform(-1, 1, (256, 2048)), rng.uniform(-1, 1, (2048, 256)))
cat = load_builtin_catalog("custom-sl")
for mode, sigma in [(mode, 0.0031) for mode in MODES] + [("quantized+noise+adc", 0.0)]:
    z, stats = simulate_gemm(w, ArchConfig(), cat, nm=NoiseModel(sigma=sigma, seed=7), mode=mode)
    print(mode, sigma, hashlib.sha256(z.tobytes()).hexdigest(), repr(stats))
"""

#: Prints the pinned cases' digests as computed on the running host, as JSON.
DIGEST_PROBE = """
import json
import gen_simulate_sha256
print(json.dumps(gen_simulate_sha256.digests()))
"""
#: OpenBLAS kernels to force, each with the CPU flags its code needs.
FORCED_KERNELS = {"Haswell": {"avx2", "fma"}, "SandyBridge": {"avx"}, "Nehalem": {"sse4_2"}, "Prescott": {"pni"}}


def adc_lsb_products(arch):
    """One ADC step of a readout, in units of the operand product: the rail is C*T products."""
    return arch.c_cores * arch.t_int / 2 ** (arch.bits_out - 1)


def exact_lattice_product(x, y, bits):
    """Quantized-mode z_hat: the integer code sum, exact in int64, times alpha_x * alpha_y."""
    px, py = minmax_params(x, bits), minmax_params(y, bits)
    codes = quantize_codes(x, px).astype(np.int64) @ quantize_codes(y, py).astype(np.int64)
    return codes * (px.alpha * py.alpha)


def assert_matches_oracle(z, stats, z_ref, ref):
    """z to 1e-12 relative; every SimStats field equal."""
    assert np.linalg.norm(z - z_ref) <= 1e-12 * np.linalg.norm(z_ref)
    assert stats.schedule == ref.schedule
    assert stats.to_dict() == ref.to_dict()


class TestWorkload:
    def test_dimension_properties(self):
        w = GemmWorkload.random(3, 5, 7, seed=0)
        assert (w.m, w.n, w.q) == (3, 5, 7)

    def test_inner_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="inner dimensions"):
            GemmWorkload(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_unnormalized_operands_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            GemmWorkload(np.full((2, 2), 1.5), np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("operand", ["x", "y"])
    def test_nonfinite_operands_rejected(self, operand, bad):
        x, y = np.array([[0.5, 0.0]]), np.array([[0.5], [0.0]])
        (x if operand == "x" else y)[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            GemmWorkload(x, y)

    @pytest.mark.parametrize("operand", ["x", "y"])
    def test_complex_operand_rejected_by_name(self, operand):
        # A cast to float would drop the imaginary part, with a ComplexWarning.
        x, y = np.array([[0.5, 0.0]]), np.array([[0.5], [0.0]])
        if operand == "x":
            x = x + 0.5j
        else:
            y = y.astype(complex)
        with pytest.raises(ValueError, match=f"^operand {operand} has complex entries$"):
            GemmWorkload(x, y)

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            GemmWorkload(np.zeros(3), np.zeros((3, 2)))

    def test_nested_lists_taken_as_float_arrays(self):
        w = GemmWorkload([[1, 0]], [[0.5], [-1]])
        assert w.x.dtype == w.y.dtype == float and (w.m, w.n, w.q) == (1, 2, 1)

    def test_peak_check_makes_no_operand_sized_temporary(self):
        # The check reads max a and min a; an |a| array would be 8 MiB here.
        a = np.random.default_rng(0).uniform(-1, 1, (1024, 1024))
        tracemalloc.start()
        try:
            GemmWorkload(a, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a.shape[1] * a.itemsize  # less than one row of the operand

    def test_random_is_seeded_and_bounded(self):
        a = GemmWorkload.random(4, 4, 4, seed=3)
        b = GemmWorkload.random(4, 4, 4, seed=3)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert np.abs(a.x).max() <= 1.0
        n = GemmWorkload.random(64, 64, 64, seed=0, distribution="normal")
        assert np.abs(n.x).max() <= 1.0

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValueError, match="unknown distribution 'cauchy'"):
            GemmWorkload.random(4, 4, 4, distribution="cauchy")


class TestPlan:
    def test_ceil_tiling(self):
        w = GemmWorkload.random(9, 7, 10, seed=0)
        s = plan(w, SMALL)
        assert (s.block_rows, s.block_cols) == (3, 3)
        assert s.p_cycles == 3  # ceil(7 / 3)
        assert s.n_padded == 9
        assert s.rounds == 5  # ceil(9 blocks / 2 tiles)
        assert s.readouts_per_block == 1

    def test_epoch_split_when_reduction_exceeds_window(self):
        arch = ArchConfig(r_tiles=1, c_cores=1, k=2, t_int=4)
        w = GemmWorkload.random(2, 10, 2, seed=0)
        s = plan(w, arch)
        assert s.p_cycles == 10
        assert s.readouts_per_block == 3  # ceil(10 / 4), last epoch partial


class TestCycleCount:
    def test_divisible_closed_form(self):
        w = GemmWorkload.random(8, 12, 16, seed=1)
        compute, reset, readouts = cycle_count(w, SMALL)
        assert compute == 8 * 12 * 16 // (2 * 3 * 16)
        assert readouts == (2 * 4) * 1
        assert reset == readouts * SMALL.t_rst

    def test_zero_reset_cost(self):
        arch = ArchConfig(r_tiles=2, c_cores=3, k=4, t_rst=0)
        w = GemmWorkload.random(8, 12, 16, seed=1)
        _, reset, _ = cycle_count(w, arch)
        assert reset == 0

    def test_compute_cycles_are_elapsed_and_reset_cycles_summed_over_blocks(self):
        # compute_cycles: rounds x P, the cycles one tile runs for;
        # reset_cycles: blocks x epochs x t_rst, summed over every block.
        _, stats = simulate_gemm(GemmWorkload.random(512, 2048, 512, seed=0), ArchConfig(), CAT)
        s = stats.schedule
        assert (s.rounds, s.p_cycles, s.blocks, s.readouts_per_block, ArchConfig.t_rst) == (43, 342, 256, 6, 2)
        assert stats.compute_cycles == 14706 == 43 * 342
        assert stats.reset_cycles == 3072 == 256 * 6 * 2


def test_arch_config_dict_round_trip():
    arch = ArchConfig(r_tiles=2, c_cores=3, k=4, clock_hz=2e9)
    assert list(arch.to_dict()) == [
        "r_tiles", "c_cores", "k", "clock_hz", "t_int", "t_rst", "bits_in", "bits_out",
    ]
    assert ArchConfig(**arch.to_dict()) == arch


@pytest.mark.parametrize("value", [0, -1, 17, 40])
@pytest.mark.parametrize("field", ["bits_in", "bits_out"])
def test_arch_config_rejects_bit_width_no_converter_has(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be {'>= 1' if value < 1 else '<= 16'}, got {value}$"):
        ArchConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("r_tiles", 0, "r_tiles must be >= 1, got 0"),
        ("c_cores", -1, "c_cores must be >= 1, got -1"),
        ("k", 0, "k must be >= 1, got 0"),
        ("t_int", 0, "t_int must be >= 1, got 0"),
        ("t_rst", -1, "t_rst must be >= 0, got -1"),
        *((f, 2**31, f"{f} must be <= 2147483647, got 2147483648")
          for f in ("r_tiles", "c_cores", "k", "t_int", "t_rst")),
        ("k", 10**40, f"k must be <= 2147483647, got {10**40}"),
    ],
)
def test_arch_config_range_error_names_field_and_value(field, value, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        ArchConfig(**{field: value})


@pytest.mark.parametrize("field", ["r_tiles", "c_cores", "k", "t_int", "t_rst"])
def test_arch_config_accepts_every_count_up_to_its_bound(field):
    assert getattr(ArchConfig(**{field: 2**31 - 1}), field) == 2**31 - 1


@pytest.mark.parametrize("value", [1, 16])
@pytest.mark.parametrize("field", ["bits_in", "bits_out"])
def test_arch_config_accepts_every_converter_bit_width(field, value):
    assert getattr(ArchConfig(**{field: value}), field) == value


@pytest.mark.parametrize(
    "clock_hz, message",
    [*((v, "a finite number") for v in (float("nan"), float("inf"), -float("inf"), 10**400, -(10**400))),
     (0.0, "> 0"), (-5e9, "> 0"), (2e15, "<= 1000000000000000.0")],
)
def test_arch_config_rejects_bad_clock(clock_hz, message):
    with pytest.raises(ValueError, match=f"^clock_hz must be {message}, got "):
        ArchConfig(clock_hz=clock_hz)


@pytest.mark.parametrize("clock_hz", [1e-320, 5e-324, 5.56e-309, np.float64(1e-311)])
def test_arch_config_rejects_clock_whose_period_overflows(clock_hz):
    with pytest.raises(ValueError, match=r"clock_hz must have a finite period 1 / clock_hz, got "):
        ArchConfig(clock_hz=clock_hz)


def test_arch_config_accepts_slowest_clock_with_finite_period():
    slowest = ArchConfig(clock_hz=5.56268464626801e-309).clock_hz
    assert 1.0 / slowest < math.inf and 1.0 / math.nextafter(slowest, 0.0) == math.inf


@pytest.mark.parametrize("value", [2.5, 6.0, True, "6", None])
@pytest.mark.parametrize("field", ["r_tiles", "c_cores", "k", "t_int", "t_rst", "bits_in", "bits_out"])
def test_arch_config_rejects_non_integer_fields(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ArchConfig(**{field: value})


@pytest.mark.parametrize("clock_hz", [True, False, "5e9", None, [5e9]])
def test_arch_config_rejects_non_number_clock(clock_hz):
    with pytest.raises(ValueError, match="clock_hz must be a finite number, got "):
        ArchConfig(clock_hz=clock_hz)


def test_arch_config_accepts_integer_and_numpy_clock():
    assert ArchConfig(clock_hz=2_000_000_000).clock_hz == 2e9
    assert ArchConfig(clock_hz=np.float64(2e9)).clock_hz == 2e9


class TestEngineConfigFor:
    def test_capacitor_sized_for_aggregated_current(self):
        cfg = engine_config_for(SMALL, CAT)
        # Full-scale products on all C cores for T steps land on the rail.
        i_max = SMALL.c_cores * cfg.current_scale()
        ramp = i_max * SMALL.t_int * cfg.dt / cfg.c_int
        assert ramp == pytest.approx(cfg.v_dd, rel=1e-12)

    def test_clock_sets_timestep(self):
        cfg = engine_config_for(SMALL, CAT)
        assert cfg.dt == pytest.approx(1.0 / SMALL.clock_hz)

    @settings(max_examples=200, deadline=None)
    @given(
        st.builds(
            ArchConfig,
            r_tiles=st.integers(1, 64), c_cores=st.integers(1, 64), k=st.integers(1, 256),
            t_int=st.integers(1, 10_000), clock_hz=st.floats(1e6, 1e12),
        ),
        st.sampled_from(["foundry", "foundry-sl", "custom-sl"]),
        st.floats(-320.0, 0.0),
    )
    @example(ArchConfig(), "custom-sl", -305.0).via("a subnormal full-scale current")
    @example(ArchConfig(), "custom-sl", -300.0).via("a subnormal capacitor")
    def test_full_scale_ramp_lands_on_rail_or_raises(self, arch, variant, exponent):
        cat = load_builtin_catalog(variant)
        laser = cat.device(DeviceKind.LASER)
        laser = dataclasses.replace(laser, power_w=laser.power_w * 10.0**exponent)
        cat = CatalogVariant(cat.name, {**cat.devices, DeviceKind.LASER: laser})
        try:
            cfg = engine_config_for(arch, cat)
        except ValueError as e:
            assert str(e).startswith(f"laser power {laser.power_w} W through ")
            # Only a current far outside the normal float range fails.
            assert exponent < -250
            return
        assert cfg.normalization() * arch.c_cores * arch.t_int == pytest.approx(cfg.v_dd, rel=1e-12, abs=0)

    @pytest.mark.parametrize("mode", MODES)
    def test_simulate_gemm_raises_the_engine_error_in_every_mode(self, monkeypatch, mode):
        # A 1e6 dB fiber coupling loss leaves no full-scale current to size
        # the integrator for, whatever the mode, and no product runs.
        fiber = CAT.device(DeviceKind.FIBER_COUPLING)
        cat = CatalogVariant(CAT.name, {**CAT.devices, DeviceKind.FIBER_COUPLING: dataclasses.replace(fiber, insertion_loss_db=1e6)})
        monkeypatch.setattr(scheduler, "_product", mock.Mock(side_effect=AssertionError("a product ran")))
        with pytest.raises(ValueError, match="outside the float range the integrator can be sized for"):
            simulate_gemm(GemmWorkload.random(4, 4, 4), SMALL, cat, nm=NoiseModel(sigma=0.0031), mode=mode)


class TestSimulateIdeal:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 20), st.integers(1, 20), st.integers(1, 20),
        st.integers(0, 10_000),
    )
    def test_oracle_equivalence_property(self, m, n, q, seed):
        w = GemmWorkload.random(m, n, q, seed=seed)
        z, stats = simulate_gemm(w, SMALL, CAT, mode="ideal")
        exact = w.x @ w.y
        assert np.linalg.norm(z - exact) <= 1e-6 * max(np.linalg.norm(exact), 1e-30)
        assert stats.saturation_events == 0

    def test_padding_neutrality(self):
        # A workload whose dims are far from multiples of K and C.
        w = GemmWorkload.random(5, 7, 9, seed=2)
        z, _ = simulate_gemm(w, SMALL, CAT, mode="ideal")
        assert z.shape == (5, 9)
        assert np.allclose(z, w.x @ w.y, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "mode, field, value",
        [
            ("quantized", "bits_in", 9),
            ("quantized+noise", "bits_in", 1),
            ("quantized+noise+adc", "bits_out", 1),
            ("quantized+noise+adc", "bits_out", 13),
        ],
    )
    def test_bit_widths_checked_before_any_work(self, monkeypatch, mode, field, value):
        monkeypatch.setattr(scheduler, "plan", None)  # any work would raise TypeError
        arch = dataclasses.replace(SMALL, **{field: value})
        with pytest.raises(ValueError, match=f"{field} must be in"):
            simulate_gemm(GemmWorkload.random(2, 3, 2, seed=0), arch, CAT, mode=mode)

    def test_bit_widths_a_mode_does_not_use_are_free(self):
        w = GemmWorkload.random(2, 3, 2, seed=0)
        simulate_gemm(w, dataclasses.replace(SMALL, bits_in=9, bits_out=1), CAT, mode="ideal")
        simulate_gemm(w, dataclasses.replace(SMALL, bits_out=16), CAT, mode="quantized+noise")

    def test_unknown_mode_rejected(self):
        w = GemmWorkload.random(2, 2, 2, seed=0)
        with pytest.raises(ValueError, match="unknown mode"):
            simulate_gemm(w, SMALL, CAT, mode="analog")

    @pytest.mark.parametrize("mode", MODES)
    def test_one_resolve_per_call(self, monkeypatch, mode):
        # The mode, the bit widths and the engine constants are resolved in
        # one call, which also gives the kernel its readout.
        calls, real = [], scheduler._readout
        monkeypatch.setattr(scheduler, "_readout", lambda *a: calls.append(a) or real(*a))
        simulate_gemm(GemmWorkload.random(4, 20, 3, seed=0), SMALL, CAT, mode=mode)
        assert calls == [(SMALL, CAT, mode)]
        want = (SMALL.c_cores * SMALL.t_int, SMALL.bits_out) if mode == "quantized+noise+adc" else None
        assert real(SMALL, CAT, mode) == want


class TestSimulateQuantized:
    def test_noise_near_the_float_maximum_saturates(self):
        # sigma * |x_q| * n passes the float range: every nonzero code goes
        # to the rail on its draw's side, with no overflow warning.
        w = GemmWorkload.random(3, 12, 4, seed=5)
        nm = NoiseModel(sigma=sys.float_info.max, seed=1)
        z, _ = simulate_gemm(w, SMALL, CAT, nm=nm, mode="quantized+noise")
        sx, sy = (
            np.sign(nm.rng(i).standard_normal(a.shape)) * (quantize_codes(a, minmax_params(a, SMALL.bits_in)) != 0)
            for i, a in enumerate((w.x, w.y))
        )
        assert np.array_equal(z, sx @ sy)

    def test_quantized_error_bounded_by_step_sizes(self):
        w = GemmWorkload.random(16, 12, 16, seed=4)
        z, stats = simulate_gemm(w, SMALL, CAT, mode="quantized")
        exact = w.x @ w.y
        # Worst-case linearized quantization error per output element.
        bound = w.n * (stats.alpha_x + stats.alpha_y) / 2 * 1.5
        assert np.abs(z - exact).max() <= bound

    def test_noise_mode_is_seed_deterministic(self):
        w = GemmWorkload.random(8, 6, 8, seed=5)
        nm = NoiseModel(sigma=0.01, seed=42)
        z1, _ = simulate_gemm(w, SMALL, CAT, nm=nm, mode="quantized+noise")
        z2, _ = simulate_gemm(w, SMALL, CAT, nm=nm, mode="quantized+noise")
        assert np.array_equal(z1, z2)
        z3, _ = simulate_gemm(
            w, SMALL, CAT, nm=NoiseModel(sigma=0.01, seed=43), mode="quantized+noise"
        )
        assert not np.array_equal(z1, z3)

    def test_zero_noise_collapses_to_quantized(self):
        w = GemmWorkload.random(8, 6, 8, seed=6)
        zq, _ = simulate_gemm(w, SMALL, CAT, mode="quantized")
        zn, _ = simulate_gemm(
            w, SMALL, CAT, nm=NoiseModel(sigma=0.0), mode="quantized+noise"
        )
        assert np.allclose(zq, zn, rtol=0, atol=1e-15)

    def test_adc_mode_adds_bounded_readout_error(self):
        arch = ArchConfig(r_tiles=1, c_cores=2, k=4, bits_out=8)
        w = GemmWorkload.random(4, 8, 4, seed=7)
        za, stats = simulate_gemm(
            w, arch, CAT, nm=NoiseModel(sigma=0.0), mode="quantized+noise+adc"
        )
        zq, _ = simulate_gemm(w, arch, CAT, mode="quantized")
        # One readout per block: ADC error <= half an LSB of the full scale.
        assert np.abs(za - zq).max() <= adc_lsb_products(arch) / 2 + 1e-9

    def test_stats_account_cycles(self):
        w = GemmWorkload.random(8, 12, 16, seed=8)
        _, stats = simulate_gemm(w, SMALL, CAT, mode="ideal")
        compute, reset, readouts = cycle_count(w, SMALL)
        assert (stats.compute_cycles, stats.reset_cycles, stats.readouts) == (
            compute, reset, readouts,
        )
        d = stats.to_dict()
        assert d["mode"] == "ideal" and d["blocks"] == stats.schedule.blocks

    @pytest.mark.parametrize("mode", ["ideal", "quantized"])
    def test_stats_dict_keys_and_values(self, mode):
        _, stats = simulate_gemm(GemmWorkload.random(8, 12, 16, seed=8), SMALL, CAT, mode=mode)
        d = stats.to_dict()
        assert list(d) == [
            "mode", "compute_cycles", "reset_cycles", "readouts", "saturation_events",
            "alpha_x", "alpha_y", "blocks", "rounds", "p_cycles",
        ]
        sched = stats.schedule
        assert (d["blocks"], d["rounds"], d["p_cycles"]) == (sched.blocks, sched.rounds, sched.p_cycles)
        if mode == "ideal":
            assert d["alpha_x"] is None and d["alpha_y"] is None
        else:
            assert (d["alpha_x"], d["alpha_y"]) == (stats.alpha_x, stats.alpha_y)


archs = st.builds(
    ArchConfig,
    r_tiles=st.integers(1, 4),
    c_cores=st.integers(1, 4),
    k=st.integers(1, 5),
    t_int=st.integers(1, 6),
)


class TestEpochStreaming:
    """The epoch-streamed simulator against the per-cycle reference algorithm."""

    @settings(max_examples=60, deadline=None)
    @given(
        archs,
        st.integers(1, 11), st.integers(1, 30), st.integers(1, 11),
        st.sampled_from(MODES), st.sampled_from([0.0, 0.02]), st.integers(0, 10_000),
    )
    def test_matches_per_cycle_oracle(self, arch, m, n, q, mode, sigma, seed):
        w = GemmWorkload.random(m, n, q, seed=seed)
        nm = NoiseModel(sigma=sigma, seed=seed)
        z, stats = simulate_gemm(w, arch, CAT, nm=nm, mode=mode)
        z_ref, ref = oracle_simulate_gemm(w, arch, CAT, nm=nm, mode=mode)
        if mode == "quantized+noise+adc":
            assert np.abs(z - z_ref).max() <= adc_lsb_products(arch) * (1 + 1e-9)
            z = z_ref  # the remaining fields must still agree exactly
        assert_matches_oracle(z, stats, z_ref, ref)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("variant", ["custom-sl", "foundry"])
    @pytest.mark.parametrize("n", [15, 16, 30])  # C*T, C*T + 1 and 2*C*T
    def test_ramp_lands_on_rail(self, n, variant, mode):
        # All-+-1 operands.  The first 8 rows of x and columns of y are -1,
        # which quantizes to exactly -1, so z[:8, :8] holds n unit products:
        # each full epoch of C*T of them reads out exactly V_DD, and the
        # last, partial one its share.  Noise only shrinks those products,
        # so no epoch passes the rail in any mode.
        cat = load_builtin_catalog(variant)
        arch = ArchConfig(r_tiles=2, c_cores=3, k=4, t_int=5)
        rng = np.random.default_rng(n)
        x, y = rng.choice([-1.0, 1.0], (16, n)), rng.choice([-1.0, 1.0], (n, 16))
        x[:8], y[:, :8] = -1.0, -1.0
        z, stats = simulate_gemm(GemmWorkload(x, y), arch, cat, mode=mode)
        if mode == "ideal":
            assert np.abs(z - x @ y).max() <= 1e-12 * n
        cfg = engine_config_for(arch, cat)
        readout = z[:8, :8] * cfg.normalization()
        if mode in ("ideal", "quantized"):
            assert np.allclose(readout, n / (arch.c_cores * arch.t_int) * cfg.v_dd, rtol=1e-12, atol=0)
        else:
            assert np.abs(readout).max() <= stats.schedule.readouts_per_block * cfg.v_dd * (1 + 1e-12)

    @pytest.mark.parametrize("sigma", [0.0, 0.02])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "arch", [ArchConfig(), ArchConfig(r_tiles=2, c_cores=3, k=4, t_int=5)], ids=["default", "small"]
    )
    def test_catalog_does_not_reach_the_output(self, arch, mode, sigma):
        # C*T unit products land on the rail whatever the catalog, so the
        # ADC reads products: the laser, the loss chain, the responsivity and
        # the ER cancel.  Two whole epochs and a partial third.
        w = GemmWorkload.random(5, 2 * arch.c_cores * arch.t_int + 7, 4, seed=3)
        runs = {
            variant: simulate_gemm(w, arch, load_builtin_catalog(variant), nm=NoiseModel(sigma=sigma, seed=7), mode=mode)
            for variant in ("foundry", "foundry-sl", "custom-sl")
        }
        z, stats = runs["custom-sl"]
        for variant, (z_v, stats_v) in runs.items():
            assert (z_v.tobytes(), repr(stats_v)) == (z.tobytes(), repr(stats)), variant

    def test_epochs_take_consecutive_columns(self):
        # Core c drives reduction index n = p*C + c in cycle p, so epoch e
        # integrates columns [e*C*T, (e+1)*C*T).  Here the 11 unit products
        # sit in columns 0-10: epoch sums 11 and 0 read 23.5 and 0.5 LSB of
        # the 6-bit ADC.  The blocked mapping n = c*P + p would split them
        # 6 and 5 (12.5 + 10.5 = 23 LSB, z = 10.78125).
        arch = ArchConfig(r_tiles=1, c_cores=3, k=4, t_int=5)
        x, y = -np.ones((1, 30)), np.zeros((30, 1))
        y[:11] = -1.0
        z, stats = simulate_gemm(GemmWorkload(x, y), arch, CAT, nm=NoiseModel(sigma=0.0), mode="quantized+noise+adc")
        assert stats.readouts == 2
        lsb_products = adc_lsb_products(arch)
        assert lsb_products == pytest.approx(15 / 32, rel=1e-12)
        assert z[0, 0] == pytest.approx(24 * lsb_products, rel=1e-12)
        assert z[0, 0] == pytest.approx(11.25, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 6), st.integers(1, 40), st.integers(1, 6),
        st.integers(0, 4), st.integers(0, 4), st.integers(1, 4), st.integers(1, 4),
        st.sampled_from(["quantized", "quantized+noise+adc"]), st.integers(0, 10_000),
    )
    def test_lattice_codes_are_independent_of_shape_and_tiling(
        self, m, n, q, extra_rows, extra_cols, r1, r2, mode, seed
    ):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (m + extra_rows, n))
        y = rng.uniform(-1, 1, (n, q + extra_cols))
        # A full-scale entry in each operand pins the quantizer step sizes.
        x[0, 0], y[0, 0] = rng.choice([-1.0, 1.0], size=2)
        nm = NoiseModel(sigma=0.0)
        base = ArchConfig(r_tiles=r1, c_cores=3, k=4, t_int=5)
        z, _ = simulate_gemm(GemmWorkload(x[:m], y[:, :q]), base, CAT, nm=nm, mode=mode)
        wide, _ = simulate_gemm(
            GemmWorkload(x, y), dataclasses.replace(base, r_tiles=r2), CAT, nm=nm, mode=mode
        )
        assert np.array_equal(z, wide[:m, :q])

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 6), st.integers(2, 12), st.integers(1, 6),
        st.sampled_from([(1, 12), (2, 6), (3, 4), (4, 3), (6, 2), (12, 1)]),
        st.sampled_from(["quantized", "quantized+noise+adc"]), st.integers(0, 10_000),
    )
    def test_lattice_codes_are_independent_of_summation_order(self, m, n, q, cores_t, mode, seed):
        # With C*T fixed the capacitor, and so the readout scale, is fixed;
        # a reduction of N <= C*T is one epoch whose columns the core count
        # only reorders.
        w = GemmWorkload.random(m, n, q, seed=seed)
        c, t = cores_t
        nm = NoiseModel(sigma=0.0)
        z, _ = simulate_gemm(w, ArchConfig(c_cores=12, k=4, t_int=1), CAT, nm=nm, mode=mode)
        z_c, _ = simulate_gemm(w, ArchConfig(c_cores=c, k=4, t_int=t), CAT, nm=nm, mode=mode)
        assert np.array_equal(z, z_c)

    @settings(max_examples=40, deadline=None)
    @given(
        st.builds(ArchConfig, r_tiles=st.integers(1, 4), c_cores=st.integers(1, 4), k=st.integers(1, 5),
                  t_int=st.integers(1, 6), bits_in=st.integers(2, 8)),
        st.integers(1, 6), st.integers(1, 6), st.data(), st.integers(0, 10_000),
    )
    def test_linear_modes_are_exact_whatever_the_epochs(self, arch, m, q, data, seed):
        # Quantized mode is the exact integer code sum times alpha_x * alpha_y
        # and ideal mode is x @ y, bit for bit, for reductions of one or
        # several readout epochs: neither depends on C*T, R or K.
        n = data.draw(st.integers(1, 3 * arch.c_cores * arch.t_int + 1), label="n")
        w = GemmWorkload.random(m, n, q, seed=seed)
        z, _ = simulate_gemm(w, arch, CAT, mode="quantized")
        assert np.array_equal(bits_of(z), bits_of(exact_lattice_product(w.x, w.y, arch.bits_in)))
        z, _ = simulate_gemm(w, arch, CAT, mode="ideal")
        assert np.array_equal(bits_of(z), bits_of(w.x @ w.y))

    def test_noise_mode_does_not_depend_on_cores_or_window(self):
        # Without the ADC the readouts are summed linearly, in chunks of y
        # that do not depend on the machine, so neither do the bytes of z_hat.
        w = GemmWorkload.random(6, 700, 5, seed=4)
        nm = NoiseModel(sigma=0.02, seed=4)
        zs = {
            (c, t): simulate_gemm(w, ArchConfig(c_cores=c, t_int=t), CAT, nm=nm, mode="quantized+noise")[0].tobytes()
            for c in (1, 3, 6) for t in (1, 7, 60)
        }
        assert len(set(zs.values())) == 1, zs.keys()

    def test_lattice_sums_past_float32_exactly(self):
        # At 8 bits the codes are +-127, odd, and a readout epoch of
        # C*T = 1440 of their products sums past 2^24, above which float32
        # holds only even integers.  Nine in ten codes are +127; x[0, 0] is
        # 0 and column 0 of y is +127, so z[0, 0]'s first epoch sums 1439
        # products of +-127^2 to an odd integer that a float32 epoch cannot
        # hold.
        arch = ArchConfig(c_cores=12, k=4, t_int=120, bits_in=8)
        cols = arch.c_cores * arch.t_int
        rng = np.random.default_rng(0)
        x, y = (np.where(rng.random(shape) < 0.9, 1.0, -127 / 128) for shape in ((4, 2 * cols + 1), (2 * cols + 1, 4)))
        x[0, 0], y[:, 0] = 0.0, 1.0
        px, py = minmax_params(x, 8), minmax_params(y, 8)
        cx, cy = quantize_codes(x, px).astype(np.int64), quantize_codes(y, py).astype(np.int64)
        assert set(np.abs(cx[:, 1:]).flat) == set(np.abs(cy).flat) == {127}
        epoch = cx[:, :cols] @ cy[:cols]
        assert epoch[0, 0] > 2**24 and epoch[0, 0] % 2
        assert (cx[:, :cols].astype(np.float32) @ cy[:cols].astype(np.float32))[0, 0] != epoch[0, 0]
        w = GemmWorkload(x, y)
        z, _ = simulate_gemm(w, arch, CAT, mode="quantized")
        assert np.array_equal(bits_of(z), bits_of(exact_lattice_product(x, y, 8)))
        # The ADC mode at sigma = 0 still reads out each epoch's exact code
        # sum in float64, scaled by the step sizes to products, on a rail of C*T.
        z, _ = simulate_gemm(w, arch, CAT, nm=NoiseModel(sigma=0.0), mode="quantized+noise+adc")
        want = np.zeros((4, 4))
        for n0 in range(0, len(y), cols):
            v = (cx[:, n0 : n0 + cols] @ cy[n0 : n0 + cols]).astype(float)
            v *= px.alpha * py.alpha
            want += adc_readout(v, cols, arch.bits_out)
        assert np.array_equal(bits_of(z), bits_of(want))

    @pytest.mark.parametrize("arch", [ArchConfig(r_tiles=2, c_cores=3, k=4, t_int=5), ArchConfig()],
                             ids=["small", "default"])
    def test_adc_codes_are_exact_at_bin_edges(self, arch):
        # With operand peaks of 1, an epoch's code sum S reads exactly
        # (code + 1/2) * C*T / 2^(b-1), code = floor(S * alpha_x * alpha_y *
        # 2^(b-1) / (C*T)) clipped to [-2^(b-1), 2^(b-1) - 1].  Rows 0-63 of
        # x are -k/32, codes -k for k = -31 ... 32, against a column of -1,
        # code -32: each of their whole epochs sums to S = 32 * C*T * k, a
        # bin edge, which a readout rounded through another scale can miss.
        cols = arch.c_cores * arch.t_int
        n = 2 * cols + 7
        rng = np.random.default_rng(cols)
        x, y = rng.uniform(-1, 1, (70, n)), rng.uniform(-1, 1, (n, 5))
        x[:64] = -np.arange(-31, 33)[:, None] / 32
        y[:, 0] = -1.0
        z, stats = simulate_gemm(GemmWorkload(x, y), arch, CAT, nm=NoiseModel(sigma=0.0), mode="quantized+noise+adc")
        assert stats.alpha_x == stats.alpha_y == 2.0 ** (1 - arch.bits_in)
        cx, cy = (quantize_codes(a, minmax_params(a, arch.bits_in)).astype(np.int64) for a in (x, y))
        assert [int(s) for s in cx[:64, :cols] @ cy[:cols, 0]] == [32 * cols * k for k in range(-31, 33)]
        half = 2 ** (arch.bits_out - 1)
        scale = Fraction(stats.alpha_x) * Fraction(stats.alpha_y) * half / cols
        for i, j in np.ndindex(z.shape):
            want = Fraction(0)
            for n0 in range(0, n, cols):
                code = math.floor(int(cx[i, n0 : n0 + cols] @ cy[n0 : n0 + cols, j]) * scale)
                want += (min(max(code, -half), half - 1) + Fraction(1, 2)) * cols / half
            assert Fraction(z[i, j]) == want, (i, j)

    @pytest.mark.parametrize("m, n, q", [(0, 3, 2), (2, 3, 0), (2, 0, 2)])
    def test_empty_dimensions(self, m, n, q):
        w = GemmWorkload(np.zeros((m, n)), np.zeros((n, q)))
        for mode in MODES:
            z, stats = simulate_gemm(w, SMALL, CAT, mode=mode)
            assert z.shape == (m, q) and not z.any()
            if mode != "ideal":
                # An empty operand quantizes with peak 1.
                assert stats.alpha_x == stats.alpha_y == 2.0 ** (1 - SMALL.bits_in)

    def test_results_do_not_depend_on_blas_threads(self):
        runs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            out = subprocess.run(
                [sys.executable, "-c", THREAD_PROBE], env=env, capture_output=True, text=True, timeout=120, check=True
            ).stdout
            runs.append([line.split(" ", 3) for line in out.splitlines()])
        one, two = runs
        assert len(one) == len(two) == len(MODES) + 1
        for (mode, sigma, z1, stats1), (_, _, z2, stats2) in zip(one, two, strict=True):
            assert stats1 == stats2, mode
            # On the lattice every partial sum is exact, so no summation order shows.
            if mode == "quantized" or (mode == "quantized+noise+adc" and sigma == "0.0"):
                assert z1 == z2, mode

    def test_plans_once_per_call(self, monkeypatch):
        calls = []
        real = scheduler.plan
        monkeypatch.setattr(scheduler, "plan", lambda *a: calls.append(a) or real(*a))
        monkeypatch.setattr(scheduler, "cycle_count", None)
        simulate_gemm(GemmWorkload.random(5, 7, 9, seed=0), SMALL, CAT)
        assert len(calls) == 1

    def test_one_kernel_call_per_mode(self, monkeypatch):
        # Every mode, the ADC's too, runs one _product; only the ADC mode passes it a readout.
        calls = []
        real = scheduler._product
        monkeypatch.setattr(scheduler, "_product", lambda *a: calls.append(a[5]) or real(*a))
        w = GemmWorkload.random(5, 7, 9, seed=0)
        for mode in MODES:
            calls.clear()
            simulate_gemm(w, SMALL, CAT, nm=NoiseModel(sigma=0.02), mode=mode)
            adc = (SMALL.c_cores * SMALL.t_int, SMALL.bits_out) if mode == "quantized+noise+adc" else None
            assert calls == [adc], mode

    # The second shape has three readout epochs and a result larger than the
    # bound's slack: a product buffer made anew for each epoch would pass it.
    @pytest.mark.parametrize("m, n, q", [(256, 2048, 256), (512, 1080, 512)])
    def test_peak_memory_is_bounded(self, m, n, q):
        rng = np.random.default_rng(0)
        w = GemmWorkload(rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, (n, q)))
        arch = ArchConfig()
        tracemalloc.start()
        try:
            simulate_gemm(w, arch, CAT, mode="quantized+noise+adc")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The accumulator and one readout, one copy of x, one readout epoch
        # of y and a few blocks of front-end scratch.
        epoch_of_y = min(w.n, arch.c_cores * arch.t_int) * w.q * 8
        assert peak <= 2 * w.m * w.q * 8 + w.x.nbytes + epoch_of_y + 3 * scheduler._OPERAND_BLOCK_ELEMS * 8


def bits_of(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestEngineOperands:
    """Blocked front end against whole-operand fake_quantize + np.rint."""

    @staticmethod
    def check_front_end(w, arch, nm, mode, block_elems):
        """Run simulate_gemm with front-end blocks of block_elems elements and check every
        slice _engine_rows yields, and the result, against the oracle's, bit for bit."""
        calls = []
        with mock.patch.object(scheduler, "_OPERAND_BLOCK_ELEMS", block_elems), mock.patch.object(
            scheduler, "_engine_rows", record_engine_rows(calls)
        ):
            z, stats = simulate_gemm(w, arch, CAT, nm=nm, mode=mode)
        if mode == "ideal":  # x @ y as given: nothing goes through the front end
            assert not calls and np.array_equal(bits_of(z), bits_of(w.x @ w.y))
        elif w.x.size:
            # x whole, then y in chunks: readout epochs of C*T rows of
            # float64 in the ADC mode, else _LINEAR_ROWS rows, of float32
            # codes on the lattice.
            (xargs, xs), (yargs, ys) = calls
            px, py, rx, ry = xargs[1], yargs[1], xargs[3], yargs[3]
            adc = mode == "quantized+noise+adc"
            dtype = np.float32 if rx is None and not adc else np.float64
            rows = arch.c_cores * arch.t_int if adc else scheduler._LINEAR_ROWS
            assert xargs[0] is w.x and xargs[4:] == (w.m, dtype) and len(xs) == 1
            assert yargs[0] is w.y and yargs[4:] == (rows, dtype)
            assert len(ys) == math.ceil(w.n / rows)
            assert px is not None and py is not None
            # The default NoiseModel has sigma = 0.0031; quantized mode draws no noise.
            noise = nm or NoiseModel()
            if mode in MODES[2:] and noise.sigma > 0:
                # Each operand gets a fresh generator of its own: streams 0 and 1.
                assert xargs[2] == yargs[2] == noise.sigma
                assert [g.bit_generator.state for g in (rx, ry)] == [noise.rng(s).bit_generator.state for s in (0, 1)]
            else:
                assert rx is ry is None
        else:  # M = 0 or N = 0: no epoch, so no operand goes through the front end
            assert not calls and not z.any()
        assert_engine_rows_match_oracle(calls)
        with mock.patch.object(scheduler, "_engine_rows", oracle_engine_rows):
            z_ref, ref = simulate_gemm(w, arch, CAT, nm=nm, mode=mode)
        assert np.array_equal(bits_of(z), bits_of(z_ref))
        assert repr(stats) == repr(ref)

    @settings(max_examples=80, deadline=None)
    @given(
        archs,
        st.integers(0, 9), st.integers(0, 24), st.integers(0, 9), st.sampled_from(MODES),
        st.sampled_from([None, 0.0, 0.02]),  # sigma
        st.integers(0, 10_000), st.integers(1, 3),
    )
    def test_matches_earlier_front_end_bitwise(self, arch, m, n, q, mode, noise, seed, y_rows):
        rng = np.random.default_rng(seed)
        x, y = rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, (n, q))
        for a in (x, y):  # signed zeros, and sometimes a full-scale peak
            a[rng.random(a.shape) < 0.2] = 0.0
            a[rng.random(a.shape) < 0.2] = -0.0
            if a.size and seed % 2:
                a.flat[rng.integers(a.size)] = rng.choice([-1.0, 1.0])
        nm = None if noise is None else NoiseModel(sigma=noise, seed=seed)
        # y goes through in blocks of 1-3 rows, and both operands draw
        # their noise a few rows at a time.
        self.check_front_end(GemmWorkload(x, y), arch, nm, mode, y_rows * max(q, 1))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4), st.integers(1, 5), st.sampled_from(["0", "<", "=", "k", "k+1"]), st.integers(2, 3),
        st.integers(1, 6), st.integers(1, 6), st.sampled_from(MODES), st.sampled_from([0.0, 0.02]),
        st.integers(0, 10_000), st.integers(1, 3),
    )
    def test_epoch_slices_match_whole_operand_bitwise(self, c, t, kind, k, m, q, mode, sigma, seed, y_rows):
        # Blocks of 1-3 rows of y restart at every chunk boundary, so a
        # block straddles where C*T is no multiple of it, and y's noise
        # draws run on from one chunk into the next.  The linear modes'
        # chunks are cut to C*T rows here, so that they have boundaries too.
        cols = c * t
        n = {"0": 0, "<": cols - 1, "=": cols, "k": k * cols, "k+1": k * cols + 1}[kind]
        w = GemmWorkload.random(m, n, q, seed=seed)
        arch = ArchConfig(r_tiles=2, c_cores=c, k=3, t_int=t)
        with mock.patch.object(scheduler, "_LINEAR_ROWS", cols):
            self.check_front_end(w, arch, NoiseModel(sigma=sigma, seed=seed), mode, y_rows * q)

    def test_quantized_modes_add_one_copy_of_x_and_one_chunk_of_y(self):
        rng = np.random.default_rng(0)
        w = GemmWorkload(rng.uniform(-1, 1, (256, 2048)), rng.uniform(-1, 1, (2048, 256)))
        arch = ArchConfig()
        peaks = {}
        for mode in MODES:
            tracemalloc.start()
            try:
                simulate_gemm(w, arch, CAT, mode=mode)
                peaks[mode] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # Ideal mode is one product of the operands as given.  The other
        # modes hold the result, one product buffer, one copy of x, one chunk
        # of y (_LINEAR_ROWS rows, a readout epoch of C*T rows in the ADC
        # mode) and a few blocks of scratch; without noise or the ADC the
        # buffer and both copies are float32, half the size.
        block = scheduler._OPERAND_BLOCK_ELEMS * 8
        result = w.m * w.q * 8
        chunk_of_y = min(w.n, scheduler._LINEAR_ROWS) * w.q * 8
        epoch_of_y = min(w.n, arch.c_cores * arch.t_int) * w.q * 8
        assert peaks["ideal"] <= result + block, peaks
        assert peaks["quantized"] <= result + (result + w.x.nbytes + chunk_of_y) / 2 + 3 * block, peaks
        assert peaks["quantized+noise"] <= 2 * result + w.x.nbytes + chunk_of_y + 3 * block, peaks
        assert peaks["quantized+noise+adc"] <= 2 * result + w.x.nbytes + epoch_of_y + 3 * block, peaks

    @staticmethod
    def one_chunk_operands(sigma):
        """A 512x8x512 product, every third row of x zero, with y one chunk of rows in every mode."""
        rng = np.random.default_rng(5)
        x, y = rng.uniform(-1, 1, (512, 8)), rng.uniform(-1, 1, (8, 512))
        x[::3] = 0.0
        px, py, nm = minmax_params(x, 6), minmax_params(y, 6), NoiseModel(sigma=sigma, seed=3)
        return x, y, px, py, nm, (sigma, nm.rng(0), nm.rng(1)) if sigma else None

    @pytest.mark.parametrize("sigma", [0.0, 0.02])
    def test_one_chunk_product_reads_as_zeros_plus_its_product(self, sigma):
        # A y of one chunk writes its product straight into the result;
        # under a BLAS that sums an all-zero row to -0.0 it still reads
        # +0.0 there, as np.zeros + the product does.
        x, y, px, py, nm, noise = self.one_chunk_operands(sigma)
        dtype = np.float64 if noise else np.float32
        gens = (nm.rng(0), nm.rng(1)) if noise else (None, None)
        (xe,), (ye,) = (oracle_engine_rows(a, p, sigma, g, len(a), dtype) for a, p, g in zip((x, y), (px, py), gens))
        real = np.matmul

        def signed_zero_matmul(a, b, out=None):
            v = real(a, b, out=out)
            v[v == 0] = -0.0
            return v

        want = np.zeros((len(x), y.shape[1])) + signed_zero_matmul(xe, ye)
        if noise is None:
            want *= px.alpha * py.alpha
        assert np.signbit(want[::3]).sum() == 0 and (want[::3] == 0).all()
        with mock.patch.object(np, "matmul", signed_zero_matmul):
            z = scheduler._product(x, y, px, py, noise, None)
        assert z.dtype == np.float64 and z.tobytes() == want.tobytes()

    def test_one_chunk_noise_product_holds_one_result_buffer(self):
        x, y, px, py, _, noise = self.one_chunk_operands(0.02)
        tracemalloc.start()
        try:
            scheduler._product(x, y, px, py, noise, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The result, one copy of each operand and their front-end scratch:
        # no second (M, Q) buffer, which alone is 2 MiB here.
        result = len(x) * y.shape[1] * 8
        assert result <= peak <= result + 4 * (x.nbytes + y.nbytes)

    def test_quantizes_each_operand_once(self, monkeypatch):
        calls = []
        real = scheduler.quantize_codes
        monkeypatch.setattr(scheduler, "quantize_codes", lambda *a: calls.append(a) or real(*a))
        monkeypatch.setattr(scheduler, "fake_quantize", None)
        w = GemmWorkload.random(5, 7, 9, seed=0)
        for mode in MODES:
            calls.clear()
            simulate_gemm(w, SMALL, CAT, nm=NoiseModel(sigma=0.02), mode=mode)
            assert len(calls) == (0 if mode == "ideal" else 2)

    @pytest.mark.parametrize("mode", MODES)
    def test_operand_memory_order_does_not_matter(self, mode):
        # Ideal mode reads the caller's arrays as they are; the quantized
        # modes copy them a few rows at a time.
        rng = np.random.default_rng(3)
        x, y = rng.uniform(-1, 1, (37, 50)), rng.uniform(-1, 1, (50, 23))
        arch = ArchConfig(r_tiles=2, c_cores=3, k=4, t_int=5)  # four epochs, the last partial
        orders = {
            "C": np.ascontiguousarray,
            "Fortran": np.asfortranarray,
            "transposed view": lambda a: np.ascontiguousarray(a.T).T,
            "strided view": lambda a: np.repeat(a, 2, axis=1)[:, ::2],
        }
        zs = {}
        with mock.patch.object(scheduler, "_OPERAND_BLOCK_ELEMS", 64):
            for name, order in orders.items():
                w = GemmWorkload(order(x), order(y))
                zs[name], _ = simulate_gemm(w, arch, CAT, nm=NoiseModel(sigma=0.0), mode=mode)
        for z in zs.values():
            if mode == "ideal":
                assert np.abs(z - x @ y).max() <= 1e-12
            else:  # sigma = 0: on the lattice every partial sum is exact
                assert np.array_equal(bits_of(z), bits_of(zs["C"]))

    def test_block_draws_not_kept_across_the_yield(self):
        # A slice is yielded while the caller multiplies it; the last
        # block's draws are released first, not held until the next slice.
        a = np.random.default_rng(0).uniform(-1, 1, (6, 5))
        rows = scheduler._engine_rows(a, minmax_params(a, 8), 0.02, np.random.default_rng(1), 4, np.float64)
        for _ in range(2):
            next(rows)
            assert "n" not in rows.gi_frame.f_locals


class TestPinnedOutputs:
    def test_outputs_match_pinned_digests(self):
        # Regenerate with tests/gen_simulate_sha256.py only in a change meant
        # to move outputs, and list the cases that moved.
        pinned = json.loads(gen_simulate_sha256.PINNED.read_text())
        assert pinned["numpy"] and pinned["note"]
        got = gen_simulate_sha256.digests()
        case_of = gen_simulate_sha256.case_of
        assert [case_of(e) for e in got] == [case_of(e) for e in pinned["cases"]]
        moved = [e for e, want in zip(got, pinned["cases"], strict=True) if e != want]
        assert moved == []

    def test_only_float_sums_depend_on_the_blas_kernel(self):
        # Under every OpenBLAS kernel this CPU can run, the only cases that
        # move are those whose float64 sums BLAS may round in another order:
        # quantized+noise at sigma > 0, and the study, whose trained weights
        # come from train's float64 products.  Code sums on the lattice are
        # exact, and the ADC cases are digitized.
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        except TypeError:  # numpy before 1.26 does not report its BLAS this way
            blas = "unknown"
        if "openblas" not in blas:
            pytest.skip(f"numpy's BLAS is {blas}, not OpenBLAS")
        cpuinfo = Path("/proc/cpuinfo")
        if not cpuinfo.exists():
            pytest.skip("no /proc/cpuinfo to read the CPU flags from")
        found = re.search(r"^flags\s*:(.*)$", cpuinfo.read_text(), re.M)  # x86 only: no kernel to force elsewhere
        flags = set(found.group(1).split()) if found else set()
        pinned = json.loads(gen_simulate_sha256.PINNED.read_text())["cases"]
        for kernel in [k for k, needs in FORCED_KERNELS.items() if needs <= flags]:
            env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(SRC), str(TESTS))), "OPENBLAS_CORETYPE": kernel}
            out = subprocess.run(
                [sys.executable, "-c", DIGEST_PROBE], env=env, capture_output=True, text=True, timeout=300, check=True
            ).stdout
            got = json.loads(out)
            # No SimStats field depends on the kernel, so a case moves on its z_sha256 (or study sha256) alone.
            assert [e.get("stats") for e in got] == [e.get("stats") for e in pinned], kernel
            moved = [e for e, want in zip(got, pinned, strict=True) if e != want]
            assert all("study" in e or (e["mode"] == "quantized+noise" and e["sigma"] > 0) for e in moved), (
                kernel, moved)

    def test_ideal_mode_is_the_host_product(self):
        # The pinned ideal-mode cases hold stats only: z_hat is x @ y,
        # byte for byte, on whatever BLAS kernel this host runs.
        for _, arch, w in gen_simulate_sha256.workloads():
            z, _ = simulate_gemm(w, arch, CAT, mode="ideal")
            assert z.tobytes() == (w.x @ w.y).tobytes(), (w.m, w.n, w.q)
