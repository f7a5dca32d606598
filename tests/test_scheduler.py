"""GEMM tiling, cycle accounting, and behavioral simulation modes."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scheduler_oracle import oracle_cycle_major, oracle_front_end, oracle_simulate_gemm

from ptcsim import (
    MODES,
    ArchConfig,
    CatalogVariant,
    DeviceKind,
    GemmWorkload,
    NoiseModel,
    cycle_count,
    engine_config_for,
    load_builtin_catalog,
    plan,
    scheduler,
    simulate_gemm,
)

CAT = load_builtin_catalog("custom-sl")
SMALL = ArchConfig(r_tiles=2, c_cores=3, k=4)
SRC = Path(__file__).resolve().parents[1] / "src"

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


def adc_lsb_products(arch):
    """One ADC step of a readout, in units of the operand product."""
    cfg = engine_config_for(arch, CAT)
    return (cfg.v_dd / 2 ** (arch.bits_out - 1)) / cfg.normalization()


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

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            GemmWorkload(np.zeros(3), np.zeros((3, 2)))

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


def test_arch_config_dict_round_trip():
    arch = ArchConfig(r_tiles=2, c_cores=3, k=4, clock_hz=2e9, share_readout=False)
    assert list(arch.to_dict()) == [
        "r_tiles", "c_cores", "k", "clock_hz", "t_int", "t_rst", "bits_in", "bits_out",
        "share_y_modulators", "share_readout",
    ]
    assert ArchConfig(**arch.to_dict()) == arch


@pytest.mark.parametrize("value", [0, -1, 17, 40])
@pytest.mark.parametrize("field", ["bits_in", "bits_out"])
def test_arch_config_rejects_bit_width_no_converter_has(field, value):
    with pytest.raises(ValueError, match=rf"{field} must be in \[1, 16\], got {value}"):
        ArchConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("r_tiles", 0, "r_tiles must be >= 1, got 0"),
        ("c_cores", -1, "c_cores must be >= 1, got -1"),
        ("k", 0, "k must be >= 1, got 0"),
        ("t_int", 0, "t_int must be >= 1, got 0"),
        ("t_rst", -1, "t_rst must be >= 0, got -1"),
    ],
)
def test_arch_config_range_error_names_field_and_value(field, value, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        ArchConfig(**{field: value})


@pytest.mark.parametrize("value", [1, 16])
@pytest.mark.parametrize("field", ["bits_in", "bits_out"])
def test_arch_config_accepts_every_converter_bit_width(field, value):
    assert getattr(ArchConfig(**{field: value}), field) == value


@pytest.mark.parametrize("clock_hz", [float("nan"), float("inf"), -float("inf"), 0.0, -5e9])
def test_arch_config_rejects_bad_clock(clock_hz):
    with pytest.raises(ValueError, match="clock_hz must be finite and > 0"):
        ArchConfig(clock_hz=clock_hz)


@pytest.mark.parametrize("value", [2.5, 6.0, True, "6", None])
@pytest.mark.parametrize("field", ["r_tiles", "c_cores", "k", "t_int", "t_rst", "bits_in", "bits_out"])
def test_arch_config_rejects_non_integer_fields(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ArchConfig(**{field: value})


@pytest.mark.parametrize("clock_hz", [True, False, "5e9", None, [5e9]])
def test_arch_config_rejects_non_number_clock(clock_hz):
    with pytest.raises(ValueError, match="clock_hz must be a number"):
        ArchConfig(clock_hz=clock_hz)


def test_arch_config_accepts_integer_and_numpy_clock():
    assert ArchConfig(clock_hz=2_000_000_000).clock_hz == 2e9
    assert ArchConfig(clock_hz=np.float64(2e9)).clock_hz == 2e9


@pytest.mark.parametrize("value", ["no", "false", 0, 1, None])
@pytest.mark.parametrize("field", ["share_y_modulators", "share_readout"])
def test_arch_config_rejects_non_bool_flags(field, value):
    with pytest.raises(ValueError, match=f"{field} must be true or false"):
        ArchConfig(**{field: value})


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


class TestSimulateQuantized:
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
            "normalization_v", "alpha_x", "alpha_y", "blocks", "rounds", "p_cycles",
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

    def test_peak_memory_is_bounded(self):
        rng = np.random.default_rng(0)
        w = GemmWorkload(rng.uniform(-1, 1, (256, 2048)), rng.uniform(-1, 1, (2048, 256)))
        tracemalloc.start()
        try:
            simulate_gemm(w, ArchConfig(), CAT, mode="quantized+noise+adc")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


def bits_of(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestEngineOperands:
    """Blocked front end against whole-operand fake_quantize + np.rint and a scatter."""

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
        w = GemmWorkload(x, y)
        nm = None if noise is None else NoiseModel(sigma=noise, seed=seed)
        calls = []
        real = scheduler._engine_operands

        def spy(*args):
            calls.append((args, real(*args)))
            return calls[-1][1]

        # Blocks of 1-3 rows of y straddle core boundaries, and both
        # operands draw their noise a few rows at a time.
        with mock.patch.object(scheduler, "_OPERAND_BLOCK_ELEMS", y_rows * max(q, 1)), mock.patch.object(
            scheduler, "_engine_operands", spy
        ):
            z, stats = simulate_gemm(w, arch, CAT, nm=nm, mode=mode)
        ((args, got),) = calls
        px, py, noisy = args[2:5]
        assert (px is None) == (py is None) == (mode == "ideal")
        # The default NoiseModel has sigma = 0.0031; quantized mode draws no noise.
        assert (noisy is not None) == (mode in MODES[2:] and (noise is None or noise > 0))
        assert args[5:] == (arch.c_cores, plan(w, arch).p_cycles)
        want = oracle_front_end(*args)
        for a, b in zip(got, want, strict=True):
            assert a.shape == b.shape and np.array_equal(bits_of(a), bits_of(b))
        with mock.patch.object(scheduler, "_engine_operands", oracle_front_end):
            z_ref, ref = simulate_gemm(w, arch, CAT, nm=nm, mode=mode)
        assert np.array_equal(bits_of(z), bits_of(z_ref))
        assert repr(stats) == repr(ref)

    def test_quantized_modes_add_at_most_one_block_of_memory(self):
        rng = np.random.default_rng(0)
        w = GemmWorkload(rng.uniform(-1, 1, (256, 2048)), rng.uniform(-1, 1, (2048, 256)))
        peaks = {}
        for mode in MODES:
            tracemalloc.start()
            try:
                simulate_gemm(w, ArchConfig(), CAT, mode=mode)
                peaks[mode] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        block = scheduler._OPERAND_BLOCK_ELEMS * 8
        assert all(peaks[mode] <= peaks["ideal"] + block for mode in MODES[1:]), peaks

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

    @pytest.mark.parametrize("c_cores, n", [(3, 7), (4, 13), (6, 2048), (5, 5), (1, 9), (4, 0)])
    def test_cycle_major_matches_scatter(self, c_cores, n):
        rng = np.random.default_rng(n)
        x, y = rng.uniform(-1, 1, (3, n)), rng.uniform(-1, 1, (n, 4))
        p_cycles = -(-n // c_cores)
        xs, ys = scheduler._engine_operands(x, y, None, None, None, c_cores, p_cycles)
        xs_ref, ys_ref = oracle_cycle_major(x, y, c_cores, p_cycles)
        assert np.array_equal(xs, xs_ref) and np.array_equal(ys, ys_ref)
        assert xs.shape == (3, p_cycles, c_cores) and ys.shape == (p_cycles, c_cores, 4)
