"""Reference robustness study: one ``simulate_gemm`` call per layer, seed and sigma.

This is the study as it ran before the study pass: every trial, the
noise-free ones included, runs every layer through ``simulate_gemm`` with
its own plan, engine configuration, validation and quantization.  Tests
compare ``forward_via_core`` and ``robustness_table`` against it bit for bit.
"""

import numpy as np

from ptcsim.quantize import NoiseModel
from ptcsim.scheduler import GemmWorkload, simulate_gemm


def oracle_forward_via_core(model, x, arch, cat, sigma, seed):
    """Logits of one trial, each layer's product simulated by its own simulate_gemm call."""
    h = np.asarray(x, dtype=float)
    n_layers = len(model.weights)
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        sx = max(float(np.abs(h).max(initial=0.0)), 1e-30)
        sw = max(float(np.abs(w).max(initial=0.0)), 1e-30)
        work = GemmWorkload(h / sx, w / sw)
        nm = NoiseModel(sigma=sigma, seed=(seed << 8) + i)
        z_hat, _ = simulate_gemm(work, arch, cat, nm=nm, mode="quantized+noise")
        z = z_hat * (sx * sw) + b
        h = z if i == n_layers - 1 else np.maximum(z, 0.0)
    return h


def oracle_robustness_table(model, x, y, arch, cat, sigmas, n_seeds=5):
    """robustness_table rows, every (sigma, seed) trial run in full."""
    rows = []
    for sigma in sigmas:
        accs = [
            float((oracle_forward_via_core(model, x, arch, cat, sigma, seed).argmax(axis=1) == y).mean())
            for seed in range(n_seeds)
        ]
        rows.append(
            {
                "sigma": float(sigma),
                "mean_accuracy": float(np.mean(accs)),
                "std_accuracy": float(np.std(accs)),
                "accuracies": [float(a) for a in accs],
            }
        )
    return rows
