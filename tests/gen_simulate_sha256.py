"""Write tests/data/simulate_sha256.json: digests of the simulator's outputs.

Each simulate_gemm case is the SHA-256 of its z_hat bytes followed by
repr(SimStats), over two machines, shapes of one, a partial and several
readout epochs and empty ones, and all four modes at three noise levels.
An ideal-mode case hashes repr(SimStats) only: its z_hat is x @ y, whose
bytes depend on the BLAS kernel, so the test compares it with x @ y on the
running host instead.
The study cases are the digests of one small robustness_table's rows and
of every trial's logits, on the benchmark's mlp-robustness set-up: once
sigma-major, where no two consecutive trials share a noise seed, and once
seed-major at the benchmark's sigmas, where every sigma of a seed does.

Run from the repository root after a change that is meant to move them:

    PYTHONPATH=src python tests/gen_simulate_sha256.py

It prints every case whose digest it changes or adds before it writes the file.

tests/test_scheduler.py::TestPinnedOutputs compares the current outputs
with the file and names every case that moved.
"""

import hashlib
import json
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
NOTE = (
    "quantized mode and the ADC mode at sigma = 0 sum integer codes exactly, so their digests hold on any "
    "BLAS; an ideal-mode digest covers repr(SimStats) only, and the test checks its z_hat against x @ y on "
    "the running host; quantized+noise at sigma > 0 and the study go through float64 BLAS sums, which gave "
    "the same bytes at 1 and 2 OpenBLAS threads on the host that wrote this file, so a mismatch on another "
    "BLAS may be the BLAS"
)


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def workloads():
    """Yield (machine, arch, workload) for every pinned shape."""
    for machine, arch in MACHINES.items():
        for m, n, q in SHAPES[machine]:
            yield machine, arch, GemmWorkload.random(m, n, q, seed=m * 10_000 + n * 10 + q)


def simulate_cases():
    """Yield (case, digest) for every simulate_gemm case."""
    cat = load_builtin_catalog("custom-sl")
    for machine, arch, w in workloads():
        for mode in MODES:
            for sigma in SIGMAS:
                z, stats = simulate_gemm(w, arch, cat, nm=NoiseModel(sigma=sigma, seed=7), mode=mode)
                case = {"machine": machine, "m": w.m, "n": w.n, "q": w.q, "mode": mode, "sigma": sigma}
                yield case, sha256(*([] if mode == "ideal" else [z.tobytes()]), repr(stats).encode())


def study_cases():
    """Yield (case, digest) for the study's rows and each of its trials' logits."""
    cat = load_builtin_catalog("custom-sl")
    cfg = MlpConfig()
    sizes = cfg.layer_sizes
    model = TinyMlp(cfg)
    train(model, *make_blobs(512, sizes[0], sizes[-1], seed=STUDY_SEED))
    x, y = make_blobs(256, sizes[0], sizes[-1], seed=STUDY_SEED + 100)
    arch = ArchConfig(r_tiles=2, c_cores=3, k=8)
    rows = robustness_table(model, x, y, arch, cat, list(STUDY_SIGMAS), n_seeds=STUDY_TRIALS)
    yield {"study": "rows"}, sha256(json.dumps(rows).encode())
    orders = {
        "logits": [(sigma, seed) for sigma in STUDY_SIGMAS for seed in range(STUDY_TRIALS)],
        "seed-major logits": [(sigma, seed) for seed in range(STUDY_TRIALS) for sigma in SEED_MAJOR_SIGMAS],
    }
    for study, trials in orders.items():
        for (sigma, seed), logits in zip(trials, mlp._core_logits(model, x, arch, cat, trials), strict=True):
            yield {"study": study, "sigma": sigma, "seed": seed}, sha256(np.ascontiguousarray(logits).tobytes())


def digests() -> list[dict]:
    return [{**case, "sha256": d} for cases in (simulate_cases(), study_cases()) for case, d in cases]


def _key(entry: dict) -> str:
    return json.dumps({k: v for k, v in entry.items() if k != "sha256"})


if __name__ == "__main__":
    entries = digests()
    old = {_key(e): e["sha256"] for e in json.loads(PINNED.read_text())["cases"]} if PINNED.exists() else {}
    for e in entries:
        if old.get(_key(e)) != e["sha256"]:
            print("moved" if _key(e) in old else "added", _key(e))
    lines = ",\n".join(json.dumps(e) for e in entries)
    head = json.dumps({"numpy": np.__version__, "note": NOTE})[:-1]
    PINNED.write_text(f'{head}, "cases": [\n{lines}\n]}}\n')
    print(f"wrote {len(entries)} digests to {PINNED}")
