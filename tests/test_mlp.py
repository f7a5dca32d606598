"""Noise-aware MLP training and core-in-the-loop robustness evaluation."""

import copy
import dataclasses
import functools
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mlp_oracle import oracle_forward_via_core, oracle_robustness_table
from scheduler_oracle import assert_engine_rows_match_oracle, oracle_engine_rows, record_engine_rows

from ptcsim import (
    ArchConfig,
    CatalogVariant,
    DeviceKind,
    MlpConfig,
    NoiseModel,
    TinyMlp,
    evaluate,
    forward_via_core,
    load_builtin_catalog,
    make_blobs,
    mlp,
    robustness_table,
    scheduler,
    train,
)

CAT = load_builtin_catalog("custom-sl")
#: The mlp-robustness benchmark's machine.
ARCH = ArchConfig(r_tiles=2, c_cores=3, k=8)
#: ARCH with a two-cycle window: an 11-cycle layer takes six readout epochs.
MULTI_EPOCH = dataclasses.replace(ARCH, t_int=2)


def trained_model(**overrides):
    cfg = MlpConfig(**overrides)
    x, y = make_blobs(512, cfg.layer_sizes[0], cfg.layer_sizes[-1], seed=0)
    model = TinyMlp(cfg)
    train(model, x, y)
    return model


class TestDataset:
    def test_deterministic_and_bounded(self):
        x1, y1 = make_blobs(100, 8, 4, seed=1)
        x2, y2 = make_blobs(100, 8, 4, seed=1)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
        assert np.abs(x1).max() <= 1.0

    def test_different_sample_seeds_share_class_geometry(self):
        model = trained_model()
        held_x, held_y = make_blobs(200, 8, 4, seed=999)
        assert evaluate(model, held_x, held_y) > 0.9


class TestTraining:
    def test_separable_two_class_task_reaches_95_percent(self):
        cfg = MlpConfig(layer_sizes=(8, 16, 2), bits=6, train_sigma=0.01, epochs=40)
        x, y = make_blobs(400, 8, 2, seed=0, spread=0.15)
        model = TinyMlp(cfg)
        train(model, x, y)
        assert evaluate(model, x, y) >= 0.95

    def test_full_precision_matches_plain_float_training(self):
        quant = trained_model(bits=6, train_sigma=0.0)
        plain = trained_model(bits=16, train_sigma=0.0)
        tx, ty = make_blobs(256, 8, 4, seed=100)
        assert abs(evaluate(quant, tx, ty) - evaluate(plain, tx, ty)) <= 0.01

    def test_training_is_seed_deterministic(self):
        a, b = trained_model(), trained_model()
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_weights_stay_encodable(self):
        model = trained_model()
        for w in model.weights:
            assert np.abs(w).max() <= 1.0

    def test_nan_input_stops_training(self):
        x, y = make_blobs(64, 8, 4, seed=0)
        x[3, 2] = np.nan
        with pytest.raises(RuntimeError, match="training diverged: loss=nan at epoch 0"):
            train(TinyMlp(MlpConfig()), x, y)

    def test_one_bit_config_rejected(self):
        with pytest.raises(ValueError):
            MlpConfig(bits=1)

    @pytest.mark.parametrize("bits", [9, 12, 15])
    def test_bits_the_quantizer_cannot_run_rejected(self, bits):
        with pytest.raises(ValueError, match="at most 8, or >= 16"):
            MlpConfig(bits=bits)

    @pytest.mark.parametrize("bits", [2, 8, 16, 32])
    def test_quantizer_and_full_precision_bits_accepted(self, bits):
        assert MlpConfig(bits=bits).bits == bits

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("layer_sizes", [8, 4], "layer_sizes must be a tuple of integers >= 1"),
            ("layer_sizes", (8, 0), "layer_sizes must be a tuple of integers >= 1"),
            ("layer_sizes", (8,), "layer_sizes needs at least input and output widths"),
            ("bits", 6.0, "bits must be an integer"),
            ("epochs", True, "epochs must be an integer"),
            ("seed", None, "seed must be an integer"),
            ("train_sigma", "0.01", "train_sigma must be a finite number"),
            ("train_sigma", float("inf"), "train_sigma must be a finite number"),
            pytest.param("train_sigma", 10**400, "train_sigma must be a finite number", id="train_sigma-10**400"),
            ("epochs", 0, "epochs must be >= 1"),
            ("epochs", -1, "epochs must be >= 1"),
            ("seed", -1, "seed must be >= 0"),
            ("train_sigma", -0.1, "train_sigma must be >= 0"),
        ],
    )
    def test_bad_field_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            MlpConfig(**{field: value})

    def test_wide_hidden_layer_trains_and_runs_on_core(self):
        model = trained_model(layer_sizes=(8, 96, 4), epochs=5)
        tx, ty = make_blobs(64, 8, 4, seed=100)
        acc = (forward_via_core(model, tx, ARCH, CAT, sigma=0.02, seed=0).argmax(axis=1) == ty).mean()
        assert model.weights[0].shape == (8, 96)
        assert np.isfinite(acc) and acc >= 0.5  # four classes: chance is 0.25


class TestCoreForward:
    def test_matches_digital_quantized_forward_closely(self):
        model = trained_model()
        tx, ty = make_blobs(64, 8, 4, seed=100)
        core_logits = forward_via_core(model, tx, ARCH, CAT, sigma=0.0, seed=0)
        digital_logits, _ = model.forward(tx)
        # Same quantization transform on both paths; the core adds only
        # floating-point scale round trips.
        assert np.abs(core_logits - digital_logits).max() < 1e-5

    def test_accuracy_preserved_on_core(self):
        model = trained_model()
        tx, ty = make_blobs(128, 8, 4, seed=100)
        acc_core = (forward_via_core(model, tx, ARCH, CAT, sigma=0.0, seed=0).argmax(axis=1) == ty).mean()
        assert acc_core >= evaluate(model, tx, ty) - 0.01

    def test_engine_error_raises_before_any_product(self, monkeypatch):
        # A 1e6 dB fiber coupling loss leaves no full-scale current to size
        # the integrator for: the pass resolves the engine before its first product.
        fiber = CAT.device(DeviceKind.FIBER_COUPLING)
        cat = CatalogVariant(CAT.name, {**CAT.devices, DeviceKind.FIBER_COUPLING: dataclasses.replace(fiber, insertion_loss_db=1e6)})
        products = count_calls(monkeypatch, mlp, "_product")
        with pytest.raises(ValueError, match="outside the float range the integrator can be sized for"):
            forward_via_core(trained_model(), make_blobs(4, 8, 4, seed=100)[0], ARCH, cat, sigma=0.0031, seed=0)
        assert not products

    @pytest.mark.parametrize("seed, message", [(2.5, "an integer, got 2.5"), ("1", "an integer, got '1'"),
                                               (True, "an integer, got True"), (-1, ">= 0, got -1")])
    def test_bad_seed_names_the_given_seed(self, monkeypatch, seed, message):
        # The seed is checked as given, not as the layer's seed << 8 (a
        # TypeError for 2.5 and "1", seed 1 for True, -256 for -1).
        model = study_model((8, 13, 7, 4))
        tx, _ = study_set((8, 13, 7, 4))
        products = count_calls(monkeypatch, mlp, "_product")
        with pytest.raises(ValueError, match=f"^seed must be {re.escape(message)}$"):
            forward_via_core(model, tx, ARCH, CAT, sigma=0.02, seed=seed)
        assert not products


class TestRobustnessTable:
    def test_rows_and_reproducibility(self):
        model = trained_model()
        tx, ty = make_blobs(64, 8, 4, seed=100)
        rows1 = robustness_table(model, tx, ty, ARCH, CAT, [-0.0, 0.02], n_seeds=2)
        rows2 = robustness_table(model, tx, ty, ARCH, CAT, [-0.0, 0.02], n_seeds=2)
        assert rows1 == rows2
        assert [str(r["sigma"]) for r in rows1] == ["0.0", "0.02"]  # -0.0 reads as 0.0
        for r in rows1:
            assert len(r["accuracies"]) == 2
            assert 0.0 <= r["mean_accuracy"] <= 1.0

    def test_sigma_zero_has_no_variance(self):
        model = trained_model()
        tx, ty = make_blobs(64, 8, 4, seed=100)
        (row,) = robustness_table(model, tx, ty, ARCH, CAT, [0.0], n_seeds=3)
        assert row["std_accuracy"] == 0.0

    @pytest.mark.parametrize("shape", [(1,), (63,), (65,), (64, 1)])
    def test_labels_not_matching_the_test_set_rejected(self, shape):
        # A y of shape (1,) or (64, 1) would broadcast against the 64 rows into an accuracy.
        model = study_model((8, 13, 7, 4))
        tx, ty = study_set((8, 13, 7, 4))
        ty = np.resize(ty, shape)
        message = f"the labels y have shape {shape}, not one label per row of x: (64,)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            robustness_table(model, tx, ty, ARCH, CAT, [0.0, 0.02], n_seeds=2)

    @pytest.mark.parametrize("n_seeds, message", [(0, ">= 1, got 0"), (2.5, "an integer, got 2.5"),
                                                  ("2", "an integer, got '2'"), (True, "an integer, got True")])
    def test_invalid_seed_count_rejected(self, monkeypatch, n_seeds, message):
        # Before any product: 2.5 and "2" would fail in range(), and True would run one seed.
        model = study_model((8, 13, 7, 4))
        tx, ty = study_set((8, 13, 7, 4))
        products = count_calls(monkeypatch, mlp, "_product")
        with pytest.raises(ValueError, match=f"^n_seeds must be {re.escape(message)}$"):
            robustness_table(model, tx, ty, ARCH, CAT, [0.0, 0.02], n_seeds=n_seeds)
        assert not products

    @pytest.mark.parametrize("n, sigmas, message", [(16, [], "^sigmas must hold at least one noise level$"),
                                                    (0, [0.0], "^the test set x is empty$")])
    def test_empty_study_rejected(self, n, sigmas, message):
        # Either would give no accuracy to report: no row, or the mean of nothing.
        model = trained_model()
        tx, ty = make_blobs(n, 8, 4, seed=100)
        with pytest.raises(ValueError, match=message):
            robustness_table(model, tx, ty, ARCH, CAT, sigmas, n_seeds=2)


SRC, TESTS = Path(__file__).resolve().parents[1] / "src", Path(__file__).resolve().parent
#: Every trial's logits and the rows of a seed-major study against the
#: oracle, bit for bit, in a process on one BLAS thread.
ONE_THREAD_STUDY = """
from mlp_oracle import oracle_forward_via_core, oracle_robustness_table
from ptcsim import ArchConfig, MlpConfig, TinyMlp, load_builtin_catalog, make_blobs, mlp, robustness_table, train
cat, arch = load_builtin_catalog("custom-sl"), ArchConfig(r_tiles=2, c_cores=3, k=8)
model = TinyMlp(MlpConfig(epochs=5))
train(model, *make_blobs(512, 8, 4, seed=0))
x, y = make_blobs(64, 8, 4, seed=100)
sigmas = [0.0, 0.0031, 0.08, 0.0]
trials = [(s, seed) for seed in range(3) for s in sigmas]
for (s, seed), z in zip(trials, mlp._core_logits(model, x, arch, cat, trials), strict=True):
    assert z.tobytes() == oracle_forward_via_core(model, x, arch, cat, s, seed).tobytes(), (s, seed)
assert robustness_table(model, x, y, arch, cat, sigmas, 3) == oracle_robustness_table(model, x, y, arch, cat, sigmas, 3)
print("ok")
"""
#: The tracemalloc peak of the bench's study, after a warm-up call that
#: makes the first-call allocations, as the bench's warm-up does.
STUDY_PEAK = """
import tracemalloc
from ptcsim import ArchConfig, MlpConfig, TinyMlp, load_builtin_catalog, make_blobs, robustness_table, train
cat, arch = load_builtin_catalog("custom-sl"), ArchConfig(r_tiles=2, c_cores=3, k=8)
sizes = {sizes}
model = TinyMlp(MlpConfig(layer_sizes=sizes, epochs=5))
train(model, *make_blobs(512, sizes[0], sizes[-1], seed=0))
x, y = make_blobs({m}, sizes[0], sizes[-1], seed=111)
robustness_table(model, x, y, arch, cat, {sigmas}, 5)
tracemalloc.start()
robustness_table(model, x, y, arch, cat, {sigmas}, 5)
print(tracemalloc.get_traced_memory()[1])
"""


@functools.lru_cache(maxsize=None)
def study_model(layer_sizes):
    """A briefly trained model, shared by the tests: none of them changes its weights."""
    return trained_model(layer_sizes=layer_sizes, epochs=5)


def study_set(layer_sizes):
    return make_blobs(64, layer_sizes[0], layer_sizes[-1], seed=100)


def count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(1) or real(*a))
    return calls


class TestStudyPass:
    """robustness_table's one pass against a simulate_gemm call per layer and trial."""

    @pytest.mark.parametrize("x_scale", [None, 1e-35, 3.7e-31, 1e-300, 5e-324, 0.0])
    @pytest.mark.parametrize("arch", [ARCH, MULTI_EPOCH], ids=["one-epoch", "multi-epoch"])
    @pytest.mark.parametrize("sizes", [(8, 32, 32, 4), (8, 13, 7, 4)])
    def test_every_trial_matches_oracle_bitwise(self, sizes, arch, x_scale):
        model = study_model(sizes)
        tx, ty = study_set(sizes)
        if x_scale is not None:
            # With the biases zeroed, a tiny x makes every layer's input
            # peak fall below the 1e-30 scale floor, or be all zero.
            model = copy.copy(model)
            model.biases = [np.zeros_like(b) for b in model.biases]
            tx = tx * x_scale
        trials = [(sigma, seed) for sigma in (0.0, 0.0031, 0.08) for seed in range(3)]
        for (sigma, seed), logits in zip(trials, mlp._core_logits(model, tx, arch, CAT, trials), strict=True):
            want = oracle_forward_via_core(model, tx, arch, CAT, sigma, seed)
            assert logits.shape == want.shape and logits.tobytes() == want.tobytes(), (sigma, seed)
        sigmas = [0.0, 0.0031, 0.08]
        assert robustness_table(model, tx, ty, arch, CAT, sigmas, 3) == oracle_robustness_table(
            model, tx, ty, arch, CAT, sigmas, 3
        )

    def test_noise_free_trial_runs_once_per_study(self, monkeypatch):
        model = study_model((8, 32, 32, 4))
        tx, ty = study_set((8, 32, 32, 4))
        sigmas = [0.0, 0.02, 0.0]
        want = oracle_robustness_table(model, tx, ty, ARCH, CAT, sigmas, 3)
        # The pass looks up _product and _readout in mlp.
        passes = count_calls(monkeypatch, mlp, "_product")
        resolves = count_calls(monkeypatch, mlp, "_readout")
        plans = count_calls(monkeypatch, scheduler, "plan")
        # Every operand's step size comes with its scale, from the one peak.
        minmax = count_calls(monkeypatch, mlp, "minmax_params")
        assert robustness_table(model, tx, ty, ARCH, CAT, sigmas, 3) == want
        # One noise-free trial and three noisy ones, each through 3 layers.
        assert len(passes) == (1 + 3) * 3
        assert len(resolves) == 1 and not plans and not minmax

    @pytest.mark.parametrize("arch", [ARCH, MULTI_EPOCH], ids=["one-epoch", "multi-epoch"])
    def test_runs_the_one_front_end(self, monkeypatch, arch):
        # The study pass prepares its operands through the front end that
        # simulate_gemm uses: every slice it yields, of x whole and of y
        # one chunk at a time, cached int8 codes included, is the
        # whole-operand oracle's bit for bit, and swapping the oracle in
        # leaves every trial's logits unchanged.  The trials run seed-major,
        # as robustness_table runs them.
        sizes = (8, 13, 7, 4)
        model = study_model(sizes)
        tx, _ = study_set(sizes)
        trials = [(sigma, seed) for seed in range(3) for sigma in (0.0, 0.0031, 0.08)]
        calls, quantized, built = [], [], []
        monkeypatch.setattr(scheduler, "_engine_rows", record_engine_rows(calls))
        real_codes, real_rng = scheduler.quantize_codes, np.random.default_rng
        # The front end quantizes in scheduler, the pass's cached codes in mlp.
        for module in (scheduler, mlp):
            monkeypatch.setattr(module, "quantize_codes", lambda a, *r: quantized.append(a.copy()) or real_codes(a, *r))
        monkeypatch.setattr(np.random, "default_rng", lambda s=None: built.append(tuple(s)) or real_rng(s))
        want = [z.tobytes() for z in mlp._core_logits(model, tx, arch, CAT, trials)]
        monkeypatch.undo()
        assert_engine_rows_match_oracle(calls)
        monkeypatch.setattr(scheduler, "_engine_rows", oracle_engine_rows)
        assert [z.tobytes() for z in mlp._core_logits(model, tx, arch, CAT, trials)] == want
        # Each seed's trials go through layer i, x then y, before any goes
        # to layer i + 1; the three noise-free trials run once, in seed 0's.
        runs = {0: (0.0, 0.0031, 0.08), 1: (0.0031, 0.08), 2: (0.0031, 0.08)}
        order = [(sigma, seed, i) for seed, run in runs.items() for i in range(3) for sigma in run]
        assert len(calls) == len(order) * 2
        for ((sigma, seed, i), stream), (args, _) in zip(itertools.product(order, (0, 1)), calls, strict=True):
            if sigma:
                # The draws of a fresh generator of (seed, layer, stream),
                # unchanged by the trials of the seed that ran before.
                fresh = NoiseModel(sigma, (seed << 8) + i).rng(stream).standard_normal(args[0].shape)
                assert args[2] == sigma and args[3].tobytes() == fresh.tobytes(), (sigma, seed, i, stream)
            else:
                assert args[3] is None
        # Each layer passes the same cached int8 weight codes and params to
        # every trial, and layer 0 the same input codes and params; the
        # hidden inputs arrive as int8 codes too.
        xs, ys = [args for args, _ in calls[0::2]], [args for args, _ in calls[1::2]]
        layer = [i for _, _, i in order]
        for i in range(3):
            assert len({(id(a[0]), id(a[1])) for a, j in zip(ys, layer) if j == i}) == 1, i
        assert len({(id(a[0]), id(a[1])) for a, j in zip(xs, layer) if j == 0}) == 1
        assert {a[0].dtype for a in xs + ys} == {np.dtype(np.int8)}
        # quantize_codes runs once on each layer's scaled weights and once on
        # the scaled input, and on the hidden inputs of each trial that runs.
        scaled = [w / np.abs(w).max() for w in model.weights] + [tx / np.abs(tx).max()]
        for a in scaled:
            assert sum(q.shape == a.shape and np.array_equal(q, a) for q in quantized) == 1
        assert len(quantized) == len(scaled) + (1 + 6) * 2
        # One generator per (seed, layer, stream) of the noisy trials.
        assert sorted(built) == [((seed << 8) + i, s) for seed in range(3) for i in range(3) for s in (0, 1)]

    @pytest.mark.parametrize("arch", [ARCH, MULTI_EPOCH], ids=["one-epoch", "multi-epoch"])
    def test_seed_groups_match_oracle_bitwise(self, arch):
        # Seed 1 at non-consecutive positions, a sigma repeated within a
        # group, and sigma = 0 inside a group of noisy trials.
        sizes = (8, 13, 7, 4)
        model = study_model(sizes)
        tx, _ = study_set(sizes)
        trials = [(0.02, 1), (0.0, 1), (0.02, 1), (0.08, 0), (0.0031, 1), (0.0031, 1), (0.0, 0), (0.08, 1)]
        got = list(mlp._core_logits(model, tx, arch, CAT, trials))
        for (sigma, seed), logits in zip(trials, got, strict=True):
            want = oracle_forward_via_core(model, tx, arch, CAT, sigma, seed)
            assert logits.tobytes() == want.tobytes(), (sigma, seed)
        assert got[1] is got[6]  # the noise-free trial ran once
        assert got[0] is got[2] and got[4] is got[5]  # and a sigma once per group

    def test_repeated_sigma_runs_once_per_group(self, monkeypatch):
        model = study_model((8, 32, 32, 4))
        tx, ty = study_set((8, 32, 32, 4))
        want = oracle_robustness_table(model, tx, ty, ARCH, CAT, [0.02, 0.02], 1)
        passes = count_calls(monkeypatch, mlp, "_product")
        assert robustness_table(model, tx, ty, ARCH, CAT, [0.02, 0.02], 1) == want
        assert len(passes) == 3  # one trial through 3 layers

    def test_draws_once_per_seed_layer_and_stream(self, monkeypatch):
        # The bench's study, seed-major: 5 seeds x 3 layers x 2 streams.
        sizes = (8, 32, 32, 4)
        model = study_model(sizes)
        tx, ty = make_blobs(256, sizes[0], sizes[-1], seed=111)
        sigmas = [0.0, 0.0031, 0.02, 0.04, 0.08]
        want = oracle_robustness_table(model, tx, ty, ARCH, CAT, sigmas, 5)
        draws, real_rng = [], NoiseModel.rng

        class Counted:
            def __init__(self, g):
                self.g = g

            def standard_normal(self, *args, **kwargs):
                draws.append(args)
                return self.g.standard_normal(*args, **kwargs)

        monkeypatch.setattr(NoiseModel, "rng", lambda nm, stream=0: Counted(real_rng(nm, stream)))
        assert robustness_table(model, tx, ty, ARCH, CAT, sigmas, 5) == want
        assert len(draws) == 5 * 3 * 2

    def test_group_sigmas_checked_before_its_first_product(self, monkeypatch):
        model = study_model((8, 13, 7, 4))
        tx, _ = study_set((8, 13, 7, 4))
        passes = count_calls(monkeypatch, mlp, "_product")
        with pytest.raises(ValueError, match="sigma must be >= 0, got -0.01"):
            list(mlp._core_logits(model, tx, ARCH, CAT, [(0.02, 0), (0.0, 0), (-0.01, 0)]))
        assert not passes

    def test_study_resolves_before_its_first_product(self, monkeypatch):
        # A bad sigma in a later seed group, and a bad weight in the last
        # layer, raise before the first group's first product.
        model = study_model((8, 13, 7, 4))
        tx, _ = study_set((8, 13, 7, 4))
        passes = count_calls(monkeypatch, mlp, "_product")
        with pytest.raises(ValueError, match=r"^sigma must be >= 0, got -0\.01$"):
            list(mlp._core_logits(model, tx, ARCH, CAT, [(0.02, 0), (0.0, 1), (-0.01, 1)]))
        assert not passes
        tx, ty = study_set(MlpConfig().layer_sizes)
        nan = TinyMlp(MlpConfig()).weights[2]
        nan[3, 1] = np.nan
        for w, message in ((nan, "operand y has non-finite entries"),
                           (np.full((8, 4), 0.5), "inner dimensions disagree: (64, 32) x (8, 4)")):
            model = TinyMlp(MlpConfig())
            model.weights[2] = w
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                robustness_table(model, tx, ty, ARCH, CAT, [0.0, 0.02], 2)
            assert not passes

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(sigmas=st.lists(st.sampled_from([0.0, 0.0031, 0.02, 0.08]), min_size=1, max_size=6),
           n_seeds=st.integers(1, 4))
    @example(sigmas=[0.08, 0.0, 0.02, 0.0, 0.0031, 0.0], n_seeds=3)
    @example(sigmas=[0.02, 0.0031, 0.02, 0.0], n_seeds=4)
    @example(sigmas=[0.0, 0.0], n_seeds=1)
    def test_seed_major_rows_equal_oracle(self, sigmas, n_seeds):
        # The trials run seed-major and are regrouped into sigma rows in
        # the order given: unsorted, repeated and several zero sigmas too.
        sizes = (8, 13, 7, 4)
        model = study_model(sizes)
        tx, ty = make_blobs(16, sizes[0], sizes[-1], seed=100)
        assert robustness_table(model, tx, ty, ARCH, CAT, sigmas, n_seeds) == oracle_robustness_table(
            model, tx, ty, ARCH, CAT, sigmas, n_seeds
        )

    def test_layer_draws_freed_before_the_next_draws(self, monkeypatch):
        # A layer's draws are released before the next layer, or the next
        # group, draws, and are not held across a yield: with two wide
        # layers, (8, 1024, 1024, 1024, 4) at 256 test points, holding them
        # raised the study's peak from 21.8 MB to 23.6 MB.
        model = study_model((8, 13, 7, 4))
        tx, _ = study_set((8, 13, 7, 4))
        held, real = [], NoiseModel

        def noise_model(*args, **kwargs):
            held.append(study.gi_frame.f_locals.get("normals"))
            return real(*args, **kwargs)

        monkeypatch.setattr(mlp, "NoiseModel", noise_model)
        study = mlp._core_logits(model, tx, ARCH, CAT, [(0.02, 0), (0.02, 1)])
        for _ in range(2):
            next(study)
            assert study.gi_frame.f_locals["normals"] is None
        assert len(held) == 2 + 2 * 3  # each trial's check, then each group's layers
        assert all(normals is None for normals in held)

    def test_study_peak_memory_stays_within_the_per_trial_pass(self):
        # The bench's study, in a fresh interpreter so that the tests run
        # before it cannot move the peak.  Its peak is layer 1's product in
        # a group of five trials; the pass then holds only these arrays:
        m, sizes, sigmas = 256, (8, 32, 32, 4), [0.0, 0.0031, 0.02, 0.04, 0.08]
        n0, n1, n2, _ = sizes
        arrays = (
            2 * (m * n1 + n1 * n2) * 8  # layer 1's draws of x and y, and the perturbed operands in float64
            + m * n2 * 8  # the product
            + len(sigmas) * m * n1  # each trial's int8 input to layer 1 (in later groups, one is the logits)
            + m * n0 + sum(a * b for a, b in itertools.pairwise(sizes))  # layer 0's input codes, the weight codes
        )
        # 12 KiB for the interpreter objects the pass holds besides (about
        # 8 KiB with numpy 2.4.6).  Keeping layer 0's draws into layer 1 (18
        # KiB), a float activation between layers or a second (M, Q) buffer
        # per product (64 KiB each) exceeds the bound.
        bound = arrays + 12 * 1024
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        peak = int(subprocess.run([sys.executable, "-c", STUDY_PEAK.format(sizes=sizes, m=m, sigmas=sigmas)],
                                  env=env, capture_output=True, text=True, timeout=300, check=True).stdout)
        assert peak <= bound, (peak, arrays, bound)

    def test_trials_equal_oracle_on_one_blas_thread(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(str(p) for p in (SRC, TESTS)),
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        out = subprocess.run([sys.executable, "-c", ONE_THREAD_STUDY], env=env, capture_output=True, text=True,
                             timeout=300, check=True).stdout
        assert out == "ok\n"

    @pytest.mark.parametrize("sigma", [0.0, 0.02])
    def test_empty_batch_gives_empty_logits(self, sigma):
        # As simulate_gemm at M = 0 and TinyMlp.forward do.
        model = study_model((8, 13, 7, 4))
        z = forward_via_core(model, np.zeros((0, 8)), ARCH, CAT, sigma, 0)
        assert z.shape == model.forward(np.zeros((0, 8)))[0].shape == (0, 4) and z.dtype == float
        want = oracle_forward_via_core(model, np.zeros((0, 8)), ARCH, CAT, sigma, 0)
        assert want.shape == z.shape and want.dtype == z.dtype and want.tobytes() == z.tobytes()

    def test_complex_input_raises(self):
        # The input's imaginary part is not dropped with a ComplexWarning.
        model = study_model((8, 13, 7, 4))
        tx, ty = study_set((8, 13, 7, 4))
        tx = tx.astype(complex)
        with pytest.raises(ValueError, match="^operand x has complex entries$"):
            forward_via_core(model, tx, ARCH, CAT, 0.02, 0)
        with pytest.raises(ValueError, match="^operand x has complex entries$"):
            robustness_table(model, tx, ty, ARCH, CAT, [0.0, 0.02], 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("layer", [0, 2])
    def test_nonfinite_weight_raises(self, layer, bad):
        model = TinyMlp(MlpConfig())
        model.weights[layer][3, 1] = bad
        tx, ty = study_set(MlpConfig().layer_sizes)
        # The oracle scales an infinite weight to inf / inf before its check.
        with pytest.raises(ValueError, match="operand y has non-finite entries"), np.errstate(invalid="ignore"):
            oracle_forward_via_core(model, tx, ARCH, CAT, 0.02, 0)
        with pytest.raises(ValueError, match="operand y has non-finite entries"):
            robustness_table(model, tx, ty, ARCH, CAT, [0.0, 0.02], 2)
