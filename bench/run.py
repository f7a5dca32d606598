"""ptcsim benchmark: one workload per invocation, untraced or traced.

    python3 bench/run.py --workload gemm-deep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The report lists every end-to-end figure by name and unit, marked as host
time or as a simulated quantity.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``).  A record of the run, and with
``--trace 1`` its spans, is written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPS = 3


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def pin_blas_threads() -> None:
    """Cap every BLAS/OpenMP pool at nproc; must run before numpy is imported."""
    threads = nproc()
    for var in BLAS_THREAD_VARS:
        try:
            threads = min(threads, max(int(os.environ[var]), 1))
        except (KeyError, ValueError):
            pass
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)


def import_program() -> float:
    """Import numpy and ptcsim from this checkout; returns the seconds taken."""
    if not (SRC / "ptcsim" / "__init__.py").is_file():
        raise SystemExit(f"error: ptcsim sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import numpy  # noqa: F401
    import ptcsim

    elapsed = time.perf_counter() - t
    if Path(ptcsim.__file__).resolve().parent != SRC / "ptcsim":
        raise SystemExit(f"error: ptcsim imported from {ptcsim.__file__}, not from {SRC}")
    return elapsed


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "nproc": nproc(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": platform.python_version(),
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up, measure and check one workload; returns the run's record.

    Untraced: set-up SETUP_REPS times (each ends with one warm-up op), one
    tracemalloc pass over one op, then ops for ``seconds``.  Traced: the
    same set-up under the tracing wrappers, then ops for ``seconds`` that
    alternate untraced and traced on the same input.  Every op is checked.
    """
    import_s = import_program()
    import spans as tracing
    from workloads import WORKLOADS, Metric

    wl = WORKLOADS[workload](seed, tiny=tiny)
    rec = tracing.SpanRecorder()
    tracer = tracing.Tracer(rec) if trace else None
    attempted = 0
    failures: list[str] = []

    def checked(st, out):
        nonlocal attempted
        attempted += 1
        failures.extend(wl.check(st, out))

    def tracing_on(on: bool):
        return tracer.installed() if on else contextlib.nullcontext()

    setup_s = []
    for rep in range(SETUP_REPS):
        t = time.perf_counter()
        with tracing_on(trace):
            st = wl.setup()
            out = wl.op(st, wl.warmup_first + rep)
        setup_s.append(time.perf_counter() - t)
        checked(st, out)

    peak_mib = None
    if not trace:
        tracemalloc.start()
        try:
            out = wl.op(st, wl.peak_op)
            peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        checked(st, out)

    times: dict[bool, list[float]] = {False: [], True: []}
    ref_s: list[float] = []
    ratios: list[float] = []

    def timed_reference():
        t = time.perf_counter()
        wl.reference()
        ref_s.append(time.perf_counter() - t)

    # Traced runs pair each untraced op with a traced one on the same input.
    # The loop ends on a whole cycle of the workload's inputs, so every run
    # weighs them alike.
    step = 2 if trace else 1
    i = 0
    wl.reference()  # untimed: first touch of the reference's buffers
    t_end = time.perf_counter() + seconds
    timed_reference()
    while i == 0 or i % (step * wl.cycle) or time.perf_counter() < t_end:
        traced = i % step == 1
        j = i // step
        rec.current_op = i if traced else tracing.NO_OP
        with tracing_on(traced):
            t = time.perf_counter()
            out = wl.op(st, j)
            dt = time.perf_counter() - t
        rec.current_op = tracing.NO_OP
        times[traced].append(dt)
        checked(st, out)
        wl.between_ops(st)
        timed_reference()
        if not traced:
            ratios.append(dt / ((ref_s[-2] + ref_s[-1]) / 2))
        i += 1

    untraced = sorted(times[False])
    p50 = statistics.median(untraced)
    e2e = [
        Metric("setup_s", import_s + statistics.median(setup_s), "s", "host",
               f"import {import_s:.3f} s + median of {SETUP_REPS} set-ups, each with one warm-up op"),
        Metric("op_s_p50", p50, "s", "host", f"{len(untraced)} ops"),
        Metric("op_x_ref", statistics.median(ratios), "x", "host",
               f"median of op time over the reference task timed around it ({wl.reference_note}, "
               f"median {statistics.median(ref_s) * 1e3:.3g} ms)"),
    ]
    if workload != "gemm-deep":
        p90 = statistics.quantiles(untraced, n=10)[8] if len(untraced) > 1 else untraced[0]
        beyond = sum(1 for v in untraced if v > p90)
        e2e.append(Metric("op_s_p90", p90 if beyond >= 10 else None, "s", "host",
                          f"{beyond} of {len(untraced)} ops beyond it"))
    e2e += wl.metrics(p50)
    e2e.append(Metric("peak_mib", peak_mib, "MiB", "host", "tracemalloc peak of one op, untimed pass"))

    record = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "end_to_end": [dataclasses.asdict(m) for m in e2e],
        "op_s": times[False],
        "op_x_ref": ratios,
        "reference_s": ref_s,
    }
    if trace:
        layers = tracing.layer_metrics(rec, len(times[True]))
        layers["numpy.matmul_s"] = statistics.median(getattr(wl, "floor_s", None) or [0.0])
        layers["trace.overhead_frac"] = statistics.median(times[True]) / p50 - 1.0
        record["per_layer"] = layers
        record["wrappers_left"] = tracing.leftover_wrappers()
        record["spans"] = rec
    return record


def gated_metrics(record: dict, spec: dict) -> dict:
    """The BENCHMARK.json metrics of this run, with the spec's units."""
    if record["trace"]:
        values, names = record["per_layer"], spec["per_layer"]
    else:
        values = {m["name"]: m["value"] for m in record["end_to_end"]}
        names = spec["end_to_end"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}


def report_lines(record: dict, metrics: dict) -> list[str]:
    env = record["environment"]
    lines = [
        f"ptcsim benchmark: workload {record['workload']}, seed {env['seed']}, "
        f"{record['seconds']} s, trace {record['trace']}",
        f"environment: numpy {env['numpy']}, BLAS {env['blas']}, {env['blas_threads']} BLAS "
        f"threads, nproc {env['nproc']}, python {env['python']}",
        "model: unvalidated against hardware; the repository holds no measured reference data",
    ]
    for m in record["end_to_end"]:
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        lines.append(f"  {m['name']:<12} {value:>12} {m['unit']:<7} {m['kind']:<9} {m['note']}")
    if record["trace"]:
        lines.append("per layer, per op, traced:")
        lines += [f"  {n:<36} {m['value']:>12.6g} {m['unit']}" for n, m in metrics.items()]
    lines.append(f"ops: {record['attempted']} attempted, {record['failed']} failed")
    lines.extend(f"  FAILED: {f}" for f in record["failures"])
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("gemm-deep", "mlp-robustness", "dse-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_blas_threads()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = gated_metrics(record, spec)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    if spans is not None:
        spans.save(OUT / f"{stem}-spans.npz")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("\n".join(report_lines(record, metrics)))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
