"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import math

import pytest

import run

run.import_program()

import ptcsim  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

#: End-to-end figures each workload prints, beyond those gated for all.
PRINTED = {
    "gemm-deep": {"gmac_per_s", "x_numpy", "rel_err_adc"},
    "mlp-robustness": {"op_s_p90", "gmac_per_s", "acc_mean"},
    "dse-sweep": {"op_s_p90", "points_per_s"},
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    record = run.run_benchmark(workload, seed=3, seconds=0.2, trace=bool(trace), tiny=True)
    assert record["failed"] == 0, record["failures"]
    assert record["attempted"] >= 4
    metrics = run.gated_metrics(record, SPEC)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(metrics) == [m["name"] for m in spec]
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert math.isfinite(metrics[m["name"]]["value"])
    printed = {m["name"] for m in record["end_to_end"]}
    assert PRINTED[workload] | {"setup_s", "op_s_p50", "op_x_ref", "peak_mib"} == printed
    text = "\n".join(run.report_lines(record, metrics))
    for m in record["end_to_end"]:
        assert f"{m['name']} " in text and f" {m['unit']} " in text
    if trace:
        assert record["wrappers_left"] == []


def test_self_time_is_duration_minus_union_of_children():
    rec = spans.SpanRecorder()
    root = rec.add_span("root", 0.0, 10.0)
    a = rec.add_span("a", 1.0, 4.0, parent=root)
    rec.add_span("a1", 2.0, 3.0, parent=a)
    rec.add_span("b", 3.0, 6.0, parent=root)  # overlaps a: root covered [1, 6]
    rec.add_span("c", 8.0, 12.0, parent=root)  # clipped to the root: [8, 10]
    assert rec.self_times() == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])


def test_layer_metrics_are_per_op_and_split_by_layer():
    rec = spans.SpanRecorder()
    for op in (0, 1):
        base = 10.0 * op
        fwd = rec.add_span("mlp.forward_via_core", base, base + 7.0, op=op)
        for layer, width in enumerate((1.0, 2.0, 3.0)):
            start = base + sum((1.0, 2.0, 3.0)[:layer])
            sim = rec.add_span("scheduler.simulate_gemm", start, start + width, parent=fwd, op=op)
            rec.add_span("scheduler.plan", start, start + 0.5, parent=sim, op=op)
    rec.add_span("mlp.train", 100.0, 104.0)  # set-up span: no op
    out = spans.layer_metrics(rec, n_ops=2)
    assert out["mlp.forward_via_core.calls"] == 1
    assert out["mlp.forward_via_core.self_s"] == pytest.approx(1.0)
    assert out["scheduler.simulate_gemm.calls"] == 3
    assert out["scheduler.simulate_gemm.self_s"] == pytest.approx(6.0 - 1.5)
    assert out["scheduler.plan.calls"] == 3
    assert [out[f"mlp.layer{i}.simulate_s"] for i in range(3)] == pytest.approx([1.0, 2.0, 3.0])
    assert out["mlp.train.s"] == 4.0


def test_wrappers_are_installed_only_inside_the_traced_block():
    originals = {
        "scheduler.fake_quantize": ptcsim.scheduler.fake_quantize,
        "mlp.simulate_gemm": ptcsim.mlp.simulate_gemm,
        "costs.cost_report": ptcsim.costs.cost_report,
    }
    rec = spans.SpanRecorder()
    tracer = spans.Tracer(rec)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert ptcsim.mlp.simulate_gemm is not originals["mlp.simulate_gemm"]
            assert ptcsim.scheduler.fake_quantize is not originals["scheduler.fake_quantize"]
            ptcsim.costs.sweep(
                ptcsim.ArchConfig(), {"c": ptcsim.load_builtin_catalog("custom-sl")}, "K", [4, 8]
            )
            raise RuntimeError("restore even on error")
    assert spans.leftover_wrappers() == []
    assert ptcsim.scheduler.fake_quantize is originals["scheduler.fake_quantize"]
    assert ptcsim.mlp.simulate_gemm is originals["mlp.simulate_gemm"]
    assert ptcsim.costs.cost_report is originals["costs.cost_report"]
    names = [rec.names[i] for i in rec.name]
    assert names.count("costs.cost_report") == 2
    assert names.count("costs.insertion_loss") == 2
