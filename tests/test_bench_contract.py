"""The names the benchmark's tracer wraps or rebinds, and the fields it reads, still exist in the package.

bench/spans.py traces by rebinding module attributes, and counts what each
simulate_gemm result reports, so a refactor that renames or drops one of
them breaks ``pytest bench`` without touching a test here.  This loads
spans.py by path and checks its contract.
"""

import importlib.util
from pathlib import Path

import pytest

import ptcsim
from ptcsim import ArchConfig, GemmWorkload, load_builtin_catalog, simulate_gemm

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, function", load_spans().TARGETS)
def test_every_traced_function_resolves(module, function):
    assert callable(getattr(getattr(ptcsim, module), function))


def test_rebound_names_are_still_bound():
    # bench/test_bench.py checks that these two bindings are wrapped and restored.
    assert ptcsim.mlp.simulate_gemm is ptcsim.scheduler.simulate_gemm
    assert ptcsim.scheduler.fake_quantize is ptcsim.quantize.fake_quantize


def test_observed_simulation_fields_exist():
    # The traced simulate_gemm hands each result to observe_simulation,
    # which reads these SimStats and Schedule fields.
    arch = ArchConfig(r_tiles=2, c_cores=3, k=4)
    work = GemmWorkload.random(5, 6, 7)
    _, stats = simulate_gemm(work, arch, load_builtin_catalog("custom-sl"), mode="quantized+noise+adc")
    rec = load_spans().SpanRecorder()
    rec.current_op = 0
    rec.observe_simulation(work, arch, stats)
    sched = stats.schedule
    assert rec.sim == {
        "sim_cycles": stats.compute_cycles,
        "readouts": stats.readouts,
        "saturation_events": stats.saturation_events,
        "useful_macs": 5 * 6 * 7,
        "issued_macs": sched.blocks * 4**2 * sched.n_padded,
    }
