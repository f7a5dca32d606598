"""The names the benchmark's tracer wraps or rebinds still exist in the package.

bench/spans.py traces by rebinding module attributes, so a refactor that
renames or drops one of them breaks ``pytest bench`` without touching a
test here.  This loads spans.py by path and checks its contract.
"""

import importlib.util
from pathlib import Path

import pytest

import ptcsim

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
