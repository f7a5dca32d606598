"""Write tests/data/simulate_sha256.json: digests of the simulator's outputs.

Each simulate_gemm case pins the SHA-256 of its z_hat bytes (z_sha256) and
its SimStats, every field written out (stats), over two machines, shapes of
one, a partial and several readout epochs and empty ones, and all four
modes at three noise levels.  The two are apart, so a change to SimStats
shows which z_hat bytes, if any, moved with it.  An ideal-mode case pins
its stats only: its z_hat is x @ y, whose bytes depend on the BLAS kernel,
so the test compares it with x @ y on the running host instead.
The study cases are the digests of one small robustness_table's rows and
of every trial's logits, on the benchmark's mlp-robustness set-up: once
sigma-major, where no two consecutive trials share a noise seed, and once
seed-major at the benchmark's sigmas, where every sigma of a seed does.

Run from the repository root after a change that is meant to move them:

    PYTHONPATH=src python tests/gen_simulate_sha256.py

It prints every case it adds, and every case whose outputs it changes with
the fields that changed, before it writes the file.

tests/test_scheduler.py::TestPinnedOutputs compares the current outputs
with the file and names every case that moved.
"""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from ptcsim import MODES, ArchConfig, GemmWorkload, MlpConfig, NoiseModel, TinyMlp, load_builtin_catalog, mlp
from ptcsim import make_blobs, robustness_table, simulate_gemm, train

PINNED = Path(__file__).parent / "data" / "simulate_sha256.json"
MACHINES = {"default": ArchConfig(), "small": ArchConfig(r_tiles=2, c_cores=3, k=4, t_int=5)}
#: (M, N, Q) per machine: N < C*T, a partial last epoch, several whole
#: epochs, and M, N or Q = 0 (C*T is 360 on the default machine, 15 on the small one).
SHAPES = {
    "default": [(4, 100, 5), (5, 1000, 3), (3, 1080, 4), (0, 100, 3), (3, 0, 3), (3, 100, 0)],
    "small": [(3, 7, 5), (5, 37, 4), (4, 45, 3), (0, 7, 3), (3, 0, 3), (3, 7, 0)],
}
SIGMAS = (0.0, 0.0031, 0.02)
#: The study: MlpConfig() trained on the mlp-robustness benchmark's data
#: (seed 11) and evaluated on its machine, two trials per sigma.
STUDY_SEED, STUDY_SIGMAS, STUDY_TRIALS = 11, (0.0, 0.0031, 0.02), 2
#: The benchmark's sigmas, run seed-major as robustness_table runs them.
SEED_MAJOR_SIGMAS = (0.0, 0.0031, 0.02, 0.04, 0.08)
#: The fields of an entry that the outputs fill; the rest name its case.
OUTPUTS = ("z_sha256", "stats", "sha256")
NOTE = (
    "quantized mode and the ADC mode at sigma = 0 sum integer codes exactly, so their digests hold on any "
    "BLAS; an ideal-mode case pins its stats only, and the test checks its z_hat against x @ y on "
    "the running host; quantized+noise at sigma > 0 and the study go through float64 BLAS sums, which gave "
    "the same bytes at 1 and 2 OpenBLAS threads on the host that wrote this file, so a mismatch on another "
    "BLAS may be the BLAS"
)


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def readable(stats) -> dict:
    """stats as JSON: every field, the schedule's too, with NaN (the step sizes in ideal mode) as None."""
    return {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in dataclasses.asdict(stats).items()}


def workloads():
    """Yield (machine, arch, workload) for every pinned shape."""
    for machine, arch in MACHINES.items():
        for m, n, q in SHAPES[machine]:
            yield machine, arch, GemmWorkload.random(m, n, q, seed=m * 10_000 + n * 10 + q)


def simulate_cases():
    """Yield (case, outputs) for every simulate_gemm case: z_sha256 (not in ideal mode) and stats."""
    cat = load_builtin_catalog("custom-sl")
    for machine, arch, w in workloads():
        for mode in MODES:
            for sigma in SIGMAS:
                z, stats = simulate_gemm(w, arch, cat, nm=NoiseModel(sigma=sigma, seed=7), mode=mode)
                case = {"machine": machine, "m": w.m, "n": w.n, "q": w.q, "mode": mode, "sigma": sigma}
                out = {} if mode == "ideal" else {"z_sha256": sha256(z.tobytes())}
                yield case, {**out, "stats": readable(stats)}


def study_cases():
    """Yield (case, outputs) for the study's rows and each of its trials' logits: their sha256."""
    cat = load_builtin_catalog("custom-sl")
    cfg = MlpConfig()
    sizes = cfg.layer_sizes
    model = TinyMlp(cfg)
    train(model, *make_blobs(512, sizes[0], sizes[-1], seed=STUDY_SEED))
    x, y = make_blobs(256, sizes[0], sizes[-1], seed=STUDY_SEED + 100)
    arch = ArchConfig(r_tiles=2, c_cores=3, k=8)
    rows = robustness_table(model, x, y, arch, cat, list(STUDY_SIGMAS), n_seeds=STUDY_TRIALS)
    yield {"study": "rows"}, {"sha256": sha256(json.dumps(rows).encode())}
    orders = {
        "logits": [(sigma, seed) for sigma in STUDY_SIGMAS for seed in range(STUDY_TRIALS)],
        "seed-major logits": [(sigma, seed) for seed in range(STUDY_TRIALS) for sigma in SEED_MAJOR_SIGMAS],
    }
    for study, trials in orders.items():
        for (sigma, seed), logits in zip(trials, mlp._core_logits(model, x, arch, cat, trials), strict=True):
            digest = sha256(np.ascontiguousarray(logits).tobytes())
            yield {"study": study, "sigma": sigma, "seed": seed}, {"sha256": digest}


def digests() -> list[dict]:
    """Every case with its outputs, as the file holds them."""
    entries = [{**case, **out} for cases in (simulate_cases(), study_cases()) for case, out in cases]
    return json.loads(json.dumps(entries))


def case_of(entry: dict) -> dict:
    """The fields of entry that name its case, without its outputs."""
    return {k: v for k, v in entry.items() if k not in OUTPUTS}


if __name__ == "__main__":
    entries = digests()
    old = {json.dumps(case_of(e)): e for e in json.loads(PINNED.read_text())["cases"]} if PINNED.exists() else {}
    for e in entries:
        key = json.dumps(case_of(e))
        changed = [k for k in OUTPUTS if key in old and old[key].get(k) != e.get(k)]
        if key not in old or changed:
            print(f"moved {'/'.join(changed)}" if changed else "added", key)
    lines = ",\n".join(json.dumps(e) for e in entries)
    head = json.dumps({"numpy": np.__version__, "note": NOTE})[:-1]
    PINNED.write_text(f'{head}, "cases": [\n{lines}\n]}}\n')
    print(f"wrote {len(entries)} cases to {PINNED}")
