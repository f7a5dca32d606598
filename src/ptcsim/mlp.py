"""Noise-aware multilayer perceptron for end-to-end robustness studies.

A small numpy MLP is trained on a synthetic classification task with the
same quantization and multiplicative-noise transforms the analog core
applies, then evaluated by routing every layer's matrix product through the
behavioral core simulation.  The study output is an accuracy-versus-noise
table with mean and standard deviation across evaluation seeds.

A study is one pass of _core_logits over its (sigma, seed) trials.  The
pass first resolves every input: it checks each trial's sigma and seed and
encodes x and every layer's weights, so that a bad input raises before the
first product.  One step, _encode, encodes every operand of the pass: it
scales the operand by its peak into [-1, 1] and quantizes it into int8
codes at the step size that peak gives.  The pass then runs the trials
seed-major, so that all the trials of a seed go through each layer
together and share that layer's noise draws.  Each trial runs every
layer's product through the kernel simulate_gemm runs in every mode
(scheduler._product), without the ADC, then the bias and the ReLU, and the
accuracies are regrouped into one row per sigma.  forward_via_core is the
one-trial case of the same pass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .catalog import CatalogVariant, _check_numbers
from .quantize import (
    QUANTIZER_BITS,
    NoiseModel,
    QuantizerParams,
    _peak,
    fake_quantize,
    inject_noise,
    minmax_params,
    quantize_codes,
)
from .scheduler import (
    ArchConfig,
    _check_shapes,
    _product,
    _readout,
    _real,
    simulate_gemm,  # noqa: F401  (unused here; bench/test_bench.py rebinds mlp.simulate_gemm)
)

__all__ = [
    "MlpConfig",
    "TinyMlp",
    "make_blobs",
    "train",
    "evaluate",
    "forward_via_core",
    "robustness_table",
]

#: SGD-with-momentum settings of train.
LEARNING_RATE = 0.1
MOMENTUM = 0.9
BATCH_SIZE = 32


@dataclass(frozen=True)
class MlpConfig:
    """Training hyperparameters for the robustness-study MLP.

    bits is in [2, 8], the quantizer's range, or >= 16, which disables
    quantization entirely (full-precision baseline).
    train_sigma > 0 injects multiplicative Gaussian noise into every
    quantized tensor during training, which is what makes the trained
    network noise-aware.  Every field is type-checked at construction;
    train_sigma must be finite and >= 0, epochs >= 1 and seed >= 0.
    """

    layer_sizes: tuple = (8, 32, 32, 4)
    bits: int = 6
    train_sigma: float = 0.0031
    epochs: int = 40
    seed: int = 0

    def __post_init__(self):
        # type(v) is int rejects bool too.
        if not isinstance(self.layer_sizes, tuple) or not all(type(n) is int and n >= 1 for n in self.layer_sizes):
            raise ValueError(f"layer_sizes must be a tuple of integers >= 1, got {self.layer_sizes!r}")
        if len(self.layer_sizes) < 2:
            raise ValueError("layer_sizes needs at least input and output widths")
        _check_numbers(self, [
            ("bits", int, QUANTIZER_BITS[0], False, None), ("train_sigma", float, 0, False, None),
            ("epochs", int, 1, False, None), ("seed", int, 0, False, None),
        ])
        if QUANTIZER_BITS[1] < self.bits < 16:
            raise ValueError(f"bits must be at most {QUANTIZER_BITS[1]}, or >= 16 for full precision, got {self.bits}")


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

    def _transform(self, t: np.ndarray, nm: NoiseModel | None, stream: int) -> np.ndarray:
        if self.cfg.bits < 16:
            t = fake_quantize(t, minmax_params(t, self.cfg.bits))
        if nm is not None:
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


def make_blobs(
    n_samples: int,
    n_features: int,
    n_classes: int,
    seed: int = 0,
    spread: float = 0.35,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic Gaussian-blob classification set with inputs in [-1, 1].

    The class centres are always drawn from seed 0, so the geometry is fixed;
    seed varies only the sampled points, so train and test splits drawn with
    different seeds share the same task.
    """
    rng = np.random.default_rng(seed)
    centers = np.random.default_rng(0).uniform(
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


def train(model: TinyMlp, x: np.ndarray, y: np.ndarray) -> None:
    """SGD-with-momentum training, in place, through the quantized/noisy forward pass.

    The backward pass treats quantization and noise as identity
    (straight-through); weights are clipped back into [-1, 1] after every
    update so they stay encodable.  Raises RuntimeError on a non-finite
    batch loss.
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
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(x), BATCH_SIZE):
            idx = order[start : start + BATCH_SIZE]
            logits, cache = model.forward(x[idx], nm)
            loss, grad = _softmax_xent_grad(logits, y[idx])
            if not math.isfinite(loss):
                raise RuntimeError(f"training diverged: loss={loss} at epoch {epoch}")
            for i in reversed(range(len(model.weights))):
                h_t, w_t, z = cache[i]
                if i != len(model.weights) - 1:
                    grad = grad * (z > 0)
                gw = h_t.T @ grad
                gb = grad.sum(axis=0)
                grad = grad @ w_t.T
                velocity_w[i] = MOMENTUM * velocity_w[i] - LEARNING_RATE * gw
                velocity_b[i] = MOMENTUM * velocity_b[i] - LEARNING_RATE * gb
                model.weights[i] = np.clip(model.weights[i] + velocity_w[i], -1.0, 1.0)
                model.biases[i] = model.biases[i] + velocity_b[i]


def evaluate(model: TinyMlp, x: np.ndarray, y: np.ndarray) -> float:
    """Classification accuracy of the noise-free in-memory forward pass (quantized unless bits >= 16)."""
    return _accuracy(model.forward(x)[0], y)


def _encode(a, name: str, bits: int, out: np.ndarray | None = None) -> tuple[np.ndarray, QuantizerParams, float]:
    """(codes, params, s): a / s quantized at bits into int8 codes, with s = max(peak |a|, 1e-30).

    a / s lies in [-1, 1], and params are minmax_params(a / s, bits) without
    a second pass for the peak: division by s is monotone, so that peak is
    peak / s, exactly 1 whenever peak >= 1e-30.  a / s, then its codes, go
    to out when given (out may be a itself); int8 holds the codes of every
    width up to 8 bits exactly.  Raises as GemmWorkload does if a is complex
    or has a non-finite entry (s is then NaN or infinite).
    """
    a = _real(a, name)
    peak = _peak(a)
    s = max(peak, 1e-30)
    if not math.isfinite(s):
        raise ValueError(f"operand {name} has non-finite entries")
    params = QuantizerParams(bits, (peak / s if peak else 1.0) / 2 ** (bits - 1), 0.0)
    a = np.divide(a, s, out=out)
    return quantize_codes(a, params, a).astype(np.int8), params, s


def _core_logits(model: TinyMlp, x: np.ndarray, arch: ArchConfig, cat: CatalogVariant, trials):
    """Yield the logits of each (sigma, seed) trial, computed on the core one group of a seed's trials at a time.

    Layer i scales its input and weights by their peaks into [-1, 1],
    multiplies them through scheduler._product with no ADC readout, as
    simulate_gemm does in quantized+noise mode, with noise NoiseModel(sigma,
    (seed << 8) + i), and undoes both scales; the bias and the ReLU stay
    digital.  The logits, and the errors raised, are those of one
    simulate_gemm call per layer and trial, bit for bit, except that every
    error such a call would raise on the study's inputs is raised before the
    first product.  Only a non-finite hidden activation, which a bias or an
    overflow can make, is found where it is computed.

    The pass resolves the whole study before it runs any of it: it makes
    simulate_gemm's one resolve call, scheduler._readout, for the readout of
    quantized+noise mode (None) and the errors it raises; takes in every
    trial and checks each (sigma, seed); and encodes once, by _encode, each
    layer's weights, each validated against the shape of the layer's input,
    (M, n_in), and x, every trial's input to layer 0, each into a (codes,
    params, scale) triple.  Then consecutive trials with one seed form a
    group, which runs breadth first: all its trials go through layer i
    before any goes to layer i + 1, each keeping its activation between
    layers as such a triple: the product's buffer is rescaled, biased,
    ReLU'd and encoded in place.  Layer i's noise does not depend on sigma,
    so the layer draws x's and y's standard normals once per group, from
    fresh stream-0 and stream-1 generators, every sigma scales those same
    draws, and the draws are freed before the next layer's.  A group's
    trials are yielded, in order, when it completes.  One dict holds each
    trial's input to the running layer, then its logits: a trial with sigma
    = 0 runs once per study, and each other sigma once per group; their
    repeats yield the same array again.
    """
    readout = _readout(arch, cat, "quantized+noise")
    groups = [(seed, [sigma for sigma, _ in group]) for seed, group in itertools.groupby(trials, key=lambda t: t[1])]
    for seed, sigmas in groups:
        for sigma in sigmas:
            NoiseModel(sigma=sigma, seed=seed)  # checks sigma and seed, before seed << 8 reads the seed
    layers, shape = [], np.shape(x)
    for w in model.weights:
        layers.append(_encode(w, "y", arch.bits_in))
        codes = layers[-1][0]
        _check_shapes(shape, codes.shape)  # GemmWorkload's, on shapes alone
        shape = shape[0], codes.shape[1]
    x0 = _encode(x, "x", arch.bits_in)  # layer 0's input in every trial
    logits = {}  # sigma -> its trial's input to the running layer, then its logits
    for seed, sigmas in groups:
        logits = {sigma: z for sigma, z in logits.items() if not sigma}  # sigma = 0's is kept for the study
        run = [sigma for sigma in dict.fromkeys(sigmas) if sigma not in logits]
        logits.update(dict.fromkeys(run, x0))
        for i, ((y, py, sy), b) in enumerate(zip(layers, model.biases)):
            if any(run):
                rng = NoiseModel(seed=(seed << 8) + i).rng
                normals = rng(0).standard_normal((len(x0[0]), len(y))), rng(1).standard_normal(y.shape)
            for sigma in run:
                h, px, sx = logits[sigma]
                h = _product(h, y, px, py, (sigma, *normals) if sigma else None, readout)
                h *= sx * sy
                h += b
                if i < len(layers) - 1:
                    h = _encode(np.maximum(h, 0.0, out=h), "x", arch.bits_in, out=h)
                logits[sigma] = h
            normals = None  # freed before the next layer draws
        for sigma in sigmas:
            yield logits[sigma]


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
    aggregated over n_seeds independent noise seeds.  The trials run
    seed-major, every sigma of seed 0 first, so that each layer draws a
    seed's noise once for all its sigmas; each trial's accuracy is taken as
    its seed's trials complete, and the accuracies are regrouped into one
    row per sigma.
    Raises ValueError for an n_seeds that is not an integer >= 1, no sigma,
    an empty x or labels y that are not one label per row of x, of shape
    (len(x),).
    """
    _check_numbers(SimpleNamespace(n_seeds=n_seeds), [("n_seeds", int, 1, False, None)])
    if not len(sigmas):
        raise ValueError("sigmas must hold at least one noise level")
    if not len(x):  # the accuracy would be the mean of nothing
        raise ValueError("the test set x is empty")
    if np.shape(y) != (len(x),):  # a y of length 1, or of shape (len(x), 1), would broadcast into an accuracy
        raise ValueError(f"the labels y have shape {np.shape(y)}, not one label per row of x: ({len(x)},)")
    logits = _core_logits(model, x, arch, cat, ((s, seed) for seed in range(n_seeds) for s in sigmas))
    # next() inside the call: each trial's logits are freed once its accuracy is taken.
    accs = [_accuracy(next(logits), y) for _ in range(n_seeds * len(sigmas))]
    rows = []
    for j, sigma in enumerate(sigmas):
        row = accs[j :: len(sigmas)]
        rows.append(
            {
                "sigma": float(sigma) + 0.0,  # a sigma of -0.0 reads as 0.0
                "mean_accuracy": float(np.mean(row)),
                "std_accuracy": float(np.std(row)),
                "accuracies": row,
            }
        )
    return rows
