"""Span recorder and tracing wrappers for the per-layer benchmark run.

Tracing is done from outside the program: each wrapped function is rebound,
in every ``ptcsim`` module that holds it, to a wrapper that records a span
(name, start, end, parent span, op id).  Callers inside the package look the
name up in their own module globals at call time, so they pick the wrapper
up without any change to the package.  ``Tracer.installed()`` restores every
original binding on exit.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from array import array

#: (defining module, function) pairs wrapped in the traced run.  The span
#: name is "<module>.<function>", e.g. "scheduler.plan".
TARGETS = (
    ("catalog", "load_builtin_catalog"),
    ("engine", "size_capacitor"),
    ("engine", "mzm_encode"),
    ("engine", "engine_transfer"),
    ("engine", "balanced_detect"),
    ("quantize", "minmax_params"),
    ("quantize", "fake_quantize"),
    ("quantize", "inject_noise"),
    ("quantize", "adc_sample"),
    ("quantize", "adc_value"),
    ("scheduler", "plan"),
    ("scheduler", "cycle_count"),
    ("scheduler", "engine_config_for"),
    ("scheduler", "simulate_gemm"),
    ("costs", "insertion_loss"),
    ("costs", "area_estimate"),
    ("costs", "power_estimate"),
    ("costs", "cost_report"),
    ("costs", "sweep"),
    ("mlp", "train"),
    ("mlp", "robustness_table"),
    ("mlp", "forward_via_core"),
)

NO_OP = -1
SIM_KEYS = ("sim_cycles", "readouts", "saturation_events", "useful_macs", "issued_macs")


class SpanRecorder:
    """Spans held in flat arrays; index i describes span i.

    ``parent[i]`` is the index of the span open when span i started, or -1.
    ``op[i]`` is the benchmark op the span belongs to, or NO_OP for spans
    recorded during set-up and checks.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = NO_OP
        self._stack: list[int] = []
        #: Simulated statistics summed over the ops' simulate_gemm results.
        self.sim = dict.fromkeys(SIM_KEYS, 0)

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add_span(self, name: str, start: float, end: float, parent: int = -1, op: int = NO_OP) -> int:
        """Append a finished span; used to build synthetic trees in tests."""
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        return idx

    def observe_simulation(self, work, arch, stats) -> None:
        """Accumulate the simulated statistics of one simulate_gemm call."""
        if self.current_op == NO_OP:
            return
        sched = stats.schedule
        acc = self.sim
        acc["sim_cycles"] += stats.compute_cycles
        acc["readouts"] += stats.readouts
        acc["saturation_events"] += stats.saturation_events
        acc["useful_macs"] += work.m * work.n * work.q
        acc["issued_macs"] += sched.blocks * arch.k**2 * sched.n_padded

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its child spans cover."""
        children: dict[int, list[int]] = {}
        for i, p in enumerate(self.parent):
            if p >= 0:
                children.setdefault(p, []).append(i)
        out = []
        for i in range(len(self)):
            s, e = self.start[i], self.end[i]
            covered, reach = 0.0, s
            for c in sorted(children.get(i, ()), key=self.start.__getitem__):
                lo, hi = max(self.start[c], reach), min(self.end[c], e)
                if hi > lo:
                    covered += hi - lo
                reach = max(reach, self.end[c])
            out.append(e - s - covered)
        return out

    def save(self, path) -> None:
        """Write the spans as a compressed numpy archive."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


def _wrap(func, name_id: int, rec: SpanRecorder):
    observe = func.__name__ == "simulate_gemm"

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        idx = rec.open(name_id)
        try:
            result = func(*args, **kwargs)
        finally:
            rec.close(idx)
        if observe:
            rec.observe_simulation(args[0], args[1], result[1])
        return result

    wrapper.__bench_wrapped__ = func
    return wrapper


class Tracer:
    """Rebinds every TARGETS function, wherever a ptcsim module holds it."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self.bindings = []  # (module, attribute, original, wrapper)
        package = sys.modules["ptcsim"]
        modules = [m for n, m in sorted(sys.modules.items()) if n == "ptcsim" or n.startswith("ptcsim.")]
        for mod_name, func_name in TARGETS:
            orig = getattr(getattr(package, mod_name), func_name)
            wrapper = _wrap(orig, rec.name_id(f"{mod_name}.{func_name}"), rec)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self.bindings.append((mod, attr, orig, wrapper))

    @contextlib.contextmanager
    def installed(self):
        for mod, attr, _, wrapper in self.bindings:
            setattr(mod, attr, wrapper)
        try:
            yield self.rec
        finally:
            for mod, attr, orig, _ in self.bindings:
                setattr(mod, attr, orig)


def layer_metrics(rec: SpanRecorder, n_ops: int) -> dict[str, float]:
    """Per-op layer figures from the spans of ``n_ops`` traced ops.

    For every traced function F: ``F.calls``, ``F.s`` (busy time) and
    ``F.self_s`` (busy time not covered by a child span), each per op.
    ``mlp.layer<i>.simulate_s`` is the time of the i-th simulate_gemm
    inside each forward_via_core.  ``mlp.train.s`` is the median training
    span of the set-up repetitions.  The ``scheduler.*`` statistics are
    simulated quantities summed over the op's simulate_gemm calls.
    """
    selfs = rec.self_times()
    out: dict[str, float] = {}
    for mod_name, func_name in TARGETS:
        for key in ("calls", "s", "self_s"):
            out[f"{mod_name}.{func_name}.{key}"] = 0.0
    fwd = rec.name_id("mlp.forward_via_core")
    sim = rec.name_id("scheduler.simulate_gemm")
    layer_s: dict[int, float] = {}
    sibling_count: dict[int, int] = {}
    train = rec.name_id("mlp.train")
    train_s = []
    for i in range(len(rec)):
        dur = rec.end[i] - rec.start[i]
        if rec.op[i] == NO_OP:
            if rec.name[i] == train:
                train_s.append(dur)
            continue
        name = rec.names[rec.name[i]]
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += dur
        out[f"{name}.self_s"] += selfs[i]
        p = rec.parent[i]
        if rec.name[i] == sim and p >= 0 and rec.name[p] == fwd:
            layer = sibling_count.get(p, 0)
            sibling_count[p] = layer + 1
            layer_s[layer] = layer_s.get(layer, 0.0) + dur
    for layer in range(3):
        out[f"mlp.layer{layer}.simulate_s"] = layer_s.get(layer, 0.0)
    for k in ("sim_cycles", "readouts", "saturation_events"):
        out[f"scheduler.{k}"] = float(rec.sim[k])
    n = max(n_ops, 1)
    out = {k: v / n for k, v in out.items()}
    out["scheduler.pad_util"] = (
        rec.sim["useful_macs"] / rec.sim["issued_macs"] if rec.sim["issued_macs"] else 0.0
    )
    out["mlp.train.s"] = statistics.median(train_s) if train_s else 0.0
    return out


def leftover_wrappers() -> list[str]:
    """Names in ptcsim modules still bound to a tracing wrapper."""
    found = []
    for name, mod in sorted(sys.modules.items()):
        if name == "ptcsim" or name.startswith("ptcsim."):
            for attr, value in vars(mod).items():
                if hasattr(value, "__bench_wrapped__"):
                    found.append(f"{name}.{attr}")
    return found
