"""Noise-aware MLP training and core-in-the-loop robustness evaluation."""

import numpy as np
import pytest

from ptcsim import (
    ArchConfig,
    MlpConfig,
    TinyMlp,
    evaluate,
    evaluate_via_core,
    forward_via_core,
    load_builtin_catalog,
    make_blobs,
    robustness_table,
    train,
)

CAT = load_builtin_catalog("custom-sl")
ARCH = ArchConfig(r_tiles=2, c_cores=3, k=8)


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

    def test_one_bit_config_rejected(self):
        with pytest.raises(ValueError):
            MlpConfig(bits=1)

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
