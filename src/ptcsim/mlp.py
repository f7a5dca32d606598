"""Noise-aware multilayer perceptron for end-to-end robustness studies.

A small numpy MLP is trained on a synthetic classification task with the
same quantization and multiplicative-noise transforms the analog core
applies, then evaluated by routing every layer's matrix product through the
behavioral core simulation.  The study output is an accuracy-versus-noise
table with mean and standard deviation across evaluation seeds.

A study is one pass of scheduler.simulate_chain over its (sigma, seed)
trials: the bit widths are checked and the engine configuration is built
once per study, each layer's weights are scaled, validated, planned and
given their quantizer params once, and each trial runs every layer's
product through the routine simulate_gemm uses, one layer after the other.
The sigma = 0 trial has no noise, so it runs once and serves every seed.
forward_via_core is the one-trial case of the same pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .catalog import CatalogVariant
from .quantize import NoiseModel, fake_quantize, inject_noise, minmax_params
from .scheduler import (
    ArchConfig,
    simulate_chain,
    simulate_gemm,  # noqa: F401  (unused here; bench/test_bench.py rebinds mlp.simulate_gemm)
)

__all__ = [
    "MlpConfig",
    "TinyMlp",
    "make_blobs",
    "train",
    "evaluate",
    "forward_via_core",
    "evaluate_via_core",
    "robustness_table",
]


@dataclass(frozen=True)
class MlpConfig:
    """Training hyperparameters for the robustness-study MLP.

    bits is in [2, 8], the quantizer's range, or >= 16, which disables
    quantization entirely (full-precision baseline).
    train_sigma > 0 injects multiplicative Gaussian noise into every
    quantized tensor during training, which is what makes the trained
    network noise-aware.
    """

    layer_sizes: tuple = (8, 32, 32, 4)
    bits: int = 6
    train_sigma: float = 0.0031
    learning_rate: float = 0.1
    momentum: float = 0.9
    epochs: int = 40
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if len(self.layer_sizes) < 2:
            raise ValueError("layer_sizes needs at least input and output widths")
        if self.bits < 2:
            raise ValueError(f"bits must be >= 2, got {self.bits}")
        if 8 < self.bits < 16:
            raise ValueError(f"bits must be at most 8, or >= 16 for full precision, got {self.bits}")


class TinyMlp:
    """Fully connected ReLU network with per-tensor fake-quantized forward."""

    def __init__(self, cfg: MlpConfig):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        self.weights = []
        self.biases = []
        for n_in, n_out in zip(cfg.layer_sizes[:-1], cfg.layer_sizes[1:]):
            # He initialization, scaled down to keep weights inside [-1, 1].
            w = rng.standard_normal((n_in, n_out)) * math.sqrt(2.0 / n_in) * 0.5
            self.weights.append(np.clip(w, -1.0, 1.0))
            self.biases.append(np.zeros(n_out))

    @property
    def quantized(self) -> bool:
        return self.cfg.bits < 16

    def _transform(self, t: np.ndarray, nm: NoiseModel | None, stream: int) -> np.ndarray:
        if self.quantized:
            t = fake_quantize(t, minmax_params(t, self.cfg.bits))
        if nm is not None and nm.enabled and nm.sigma > 0:
            t = inject_noise(t, nm, stream=stream)
        return t

    def forward(
        self, x: np.ndarray, nm: NoiseModel | None = None
    ) -> tuple[np.ndarray, list]:
        """Return (logits, cache) applying quantization/noise to every GEMM operand."""
        cache = []
        h = np.asarray(x, dtype=float)
        n_layers = len(self.weights)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h_t = self._transform(h, nm, stream=2 * i)
            w_t = self._transform(w, nm, stream=2 * i + 1)
            z = h_t @ w_t + b
            a = z if i == n_layers - 1 else np.maximum(z, 0.0)
            cache.append((h_t, w_t, z))
            h = a
        return h, cache

    def predict(self, x: np.ndarray, nm: NoiseModel | None = None) -> np.ndarray:
        logits, _ = self.forward(x, nm)
        return logits.argmax(axis=1)


def make_blobs(
    n_samples: int,
    n_features: int,
    n_classes: int,
    seed: int = 0,
    spread: float = 0.35,
    centers_seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic Gaussian-blob classification set with inputs in [-1, 1].

    centers_seed fixes the class geometry; seed varies only the sampled
    points, so train and test splits drawn with different seeds share the
    same task.
    """
    rng = np.random.default_rng(seed)
    centers = np.random.default_rng(centers_seed).uniform(
        -0.7, 0.7, size=(n_classes, n_features)
    )
    labels = rng.integers(0, n_classes, size=n_samples)
    x = centers[labels] + spread * rng.standard_normal((n_samples, n_features))
    return np.clip(x, -1.0, 1.0), labels


def _softmax_xent_grad(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = len(labels)
    loss = -np.log(probs[np.arange(n), labels] + 1e-30).mean()
    grad = probs
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def train(
    model: TinyMlp, x: np.ndarray, y: np.ndarray
) -> list[float]:
    """SGD-with-momentum training through the quantized/noisy forward pass.

    The backward pass treats quantization and noise as identity
    (straight-through); weights are clipped back into [-1, 1] after every
    update so they stay encodable.  Returns the per-epoch loss trace and
    raises on a NaN loss.
    """
    cfg = model.cfg
    nm = (
        NoiseModel(sigma=cfg.train_sigma, seed=cfg.seed + 1)
        if cfg.train_sigma > 0
        else None
    )
    rng = np.random.default_rng(cfg.seed + 2)
    velocity_w = [np.zeros_like(w) for w in model.weights]
    velocity_b = [np.zeros_like(b) for b in model.biases]
    losses = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(x))
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(x), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            logits, cache = model.forward(x[idx], nm)
            loss, grad = _softmax_xent_grad(logits, y[idx])
            if not math.isfinite(loss):
                raise RuntimeError(f"training diverged: loss={loss} at epoch {epoch}")
            epoch_loss += loss
            n_batches += 1
            for i in reversed(range(len(model.weights))):
                h_t, w_t, z = cache[i]
                if i != len(model.weights) - 1:
                    grad = grad * (z > 0)
                gw = h_t.T @ grad
                gb = grad.sum(axis=0)
                grad = grad @ w_t.T
                velocity_w[i] = cfg.momentum * velocity_w[i] - cfg.learning_rate * gw
                velocity_b[i] = cfg.momentum * velocity_b[i] - cfg.learning_rate * gb
                model.weights[i] = np.clip(model.weights[i] + velocity_w[i], -1.0, 1.0)
                model.biases[i] = model.biases[i] + velocity_b[i]
        losses.append(epoch_loss / max(n_batches, 1))
    return losses


def evaluate(model: TinyMlp, x: np.ndarray, y: np.ndarray, nm: NoiseModel | None = None) -> float:
    """Classification accuracy of the plain (in-memory) forward pass."""
    return float((model.predict(x, nm) == y).mean())


def _core_logits(model: TinyMlp, x: np.ndarray, arch: ArchConfig, cat: CatalogVariant, trials):
    """Logits of each (sigma, seed) trial, computed one trial at a time on the core.

    Layer i of trial (sigma, seed) draws its noise from seed (seed << 8) + i;
    biases and activations stay digital.
    """
    last = len(model.weights) - 1

    def digital(i, z):
        z += model.biases[i]
        return z if i == last else np.maximum(z, 0.0)

    noise = (
        tuple(NoiseModel(sigma=sigma, seed=(seed << 8) + i, enabled=sigma > 0) for i in range(last + 1))
        for sigma, seed in trials
    )
    return simulate_chain(x, model.weights, arch, cat, noise, digital)


def _accuracy(logits: np.ndarray, y: np.ndarray) -> float:
    return float((logits.argmax(axis=1) == y).mean())


def forward_via_core(
    model: TinyMlp,
    x: np.ndarray,
    arch: ArchConfig,
    cat: CatalogVariant,
    sigma: float,
    seed: int,
) -> np.ndarray:
    """Run the network's matrix products through the behavioral core model.

    Each layer's operands are scaled into the encodable [-1, 1] range,
    multiplied on the simulated core in quantized+noise mode, and rescaled;
    biases and activations stay digital.
    """
    return next(_core_logits(model, x, arch, cat, [(sigma, seed)]))


def evaluate_via_core(
    model: TinyMlp,
    x: np.ndarray,
    y: np.ndarray,
    arch: ArchConfig,
    cat: CatalogVariant,
    sigma: float,
    seed: int,
) -> float:
    return _accuracy(forward_via_core(model, x, arch, cat, sigma, seed), y)


def robustness_table(
    model: TinyMlp,
    x: np.ndarray,
    y: np.ndarray,
    arch: ArchConfig,
    cat: CatalogVariant,
    sigmas: list[float],
    n_seeds: int = 5,
) -> list[dict]:
    """Accuracy versus noise intensity on the simulated core.

    One row per sigma: {'sigma', 'mean_accuracy', 'std_accuracy', 'accuracies'},
    aggregated over n_seeds independent noise seeds.
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    logits = _core_logits(model, x, arch, cat, ((s, seed) for s in sigmas for seed in range(n_seeds)))
    rows = []
    for sigma in sigmas:
        accs = [_accuracy(next(logits), y) for _ in range(n_seeds)]
        rows.append(
            {
                "sigma": float(sigma),
                "mean_accuracy": float(np.mean(accs)),
                "std_accuracy": float(np.std(accs)),
                "accuracies": [float(a) for a in accs],
            }
        )
    return rows
