"""Noise-aware MLP training and core-in-the-loop robustness evaluation."""

import dataclasses
import functools
import re

import numpy as np
import pytest
from mlp_oracle import oracle_forward_via_core, oracle_robustness_table
from scheduler_oracle import oracle_front_end

from ptcsim import (
    ArchConfig,
    MlpConfig,
    TinyMlp,
    evaluate,
    evaluate_via_core,
    forward_via_core,
    load_builtin_catalog,
    make_blobs,
    mlp,
    robustness_table,
    scheduler,
    train,
)

CAT = load_builtin_catalog("custom-sl")
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
        assert not plain.quantized
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
        acc = evaluate_via_core(model, tx, ty, ARCH, CAT, sigma=0.02, seed=0)
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
        acc_core = evaluate_via_core(model, tx, ty, ARCH, CAT, sigma=0.0, seed=0)
        assert acc_core >= evaluate(model, tx, ty) - 0.01


class TestRobustnessTable:
    def test_rows_and_reproducibility(self):
        model = trained_model()
        tx, ty = make_blobs(64, 8, 4, seed=100)
        rows1 = robustness_table(model, tx, ty, ARCH, CAT, [0.0, 0.02], n_seeds=2)
        rows2 = robustness_table(model, tx, ty, ARCH, CAT, [0.0, 0.02], n_seeds=2)
        assert rows1 == rows2
        assert [r["sigma"] for r in rows1] == [0.0, 0.02]
        for r in rows1:
            assert len(r["accuracies"]) == 2
            assert 0.0 <= r["mean_accuracy"] <= 1.0

    def test_sigma_zero_has_no_variance(self):
        model = trained_model()
        tx, ty = make_blobs(64, 8, 4, seed=100)
        (row,) = robustness_table(model, tx, ty, ARCH, CAT, [0.0], n_seeds=3)
        assert row["std_accuracy"] == 0.0

    def test_invalid_seed_count_rejected(self):
        model = trained_model()
        tx, ty = make_blobs(16, 8, 4, seed=100)
        with pytest.raises(ValueError):
            robustness_table(model, tx, ty, ARCH, CAT, [0.0], n_seeds=0)


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

    @pytest.mark.parametrize("arch", [ARCH, MULTI_EPOCH], ids=["one-epoch", "multi-epoch"])
    @pytest.mark.parametrize("sizes", [(8, 32, 32, 4), (8, 13, 7, 4)])
    def test_every_trial_matches_oracle_bitwise(self, sizes, arch):
        model = study_model(sizes)
        tx, ty = study_set(sizes)
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
        passes = count_calls(monkeypatch, scheduler, "_product")
        configs = count_calls(monkeypatch, scheduler, "engine_config_for")
        widths = count_calls(monkeypatch, scheduler, "_check_widths")
        plans = count_calls(monkeypatch, scheduler, "plan")
        assert robustness_table(model, tx, ty, ARCH, CAT, sigmas, 3) == want
        # One noise-free trial and three noisy ones, each through 3 layers.
        assert len(passes) == (1 + 3) * 3
        assert len(configs) == len(widths) == 1 and len(plans) == 3

    @pytest.mark.parametrize("arch", [ARCH, MULTI_EPOCH], ids=["one-epoch", "multi-epoch"])
    def test_runs_the_one_front_end(self, monkeypatch, arch):
        # The study pass prepares its operands through the front end that
        # simulate_gemm uses: swapping in the whole-operand oracle leaves
        # every trial's logits unchanged, bit for bit.
        sizes = (8, 13, 7, 4)
        model = study_model(sizes)
        tx, _ = study_set(sizes)
        trials = [(sigma, seed) for sigma in (0.0, 0.0031, 0.08) for seed in range(3)]
        want = [z.tobytes() for z in mlp._core_logits(model, tx, arch, CAT, trials)]
        calls = []
        monkeypatch.setattr(scheduler, "_engine_operands", lambda *a: calls.append(a) or oracle_front_end(*a))
        got = [z.tobytes() for z in mlp._core_logits(model, tx, arch, CAT, trials)]
        assert got == want
        # Once per (trial, layer); the three noise-free trials run once.
        assert len(calls) == (1 + 6) * 3
        # Each layer passes the same cached weights and params to every trial.
        for i in range(3):
            assert len({(id(a[1]), id(a[3])) for a in calls[i::3]}) == 1

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
