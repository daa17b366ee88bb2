import json
import os
import types

import pytest

import mzi_lab
from mzi_lab import optimize

from perfbench import tracing

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_self_time_on_a_synthetic_span_tree():
    # 0: [0, 10] root; 1: [1, 4] and 2: [5, 9] its children; 3: [2, 3] child of 1.
    starts = [0.0, 1.0, 5.0, 2.0]
    ends = [10.0, 4.0, 9.0, 3.0]
    parents = [-1, 0, 0, 1]
    assert tracing.self_times(starts, ends, parents) == [3.0, 2.0, 4.0, 1.0]


def _fake_targets():
    module = types.ModuleType("mzi_lab._perfbench_fake")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) + module.inner(x)

    module.inner, module.outer = inner, outer
    return module, {
        "fake.outer": (module.__name__, "outer", tracing.SPAN, None, None),
        "fake.inner": (module.__name__, "inner", tracing.SPAN, None, None),
        "fake.gone": (module.__name__, "deleted_by_a_later_change", tracing.SPAN, None, None),
        "fake.nomodule": ("mzi_lab.no_such_module", "f", tracing.SPAN, None, None),
    }


def test_spans_nest_and_absent_targets_do_not_crash(monkeypatch):
    module, targets = _fake_targets()
    original = module.outer
    monkeypatch.setitem(__import__("sys").modules, module.__name__, module)
    tracer = tracing.Tracer(targets)
    tracer.install()
    try:
        tracer.active, tracer.op_id = True, 4
        assert module.outer(1) == 4
        tracer.active = False
        module.outer(1)  # inactive: no spans
    finally:
        tracer.uninstall()
    assert sorted(tracer.absent) == ["mzi_lab._perfbench_fake.deleted_by_a_later_change", "mzi_lab.no_such_module.f"]
    spans = tracer.spans()
    assert [(s[0], s[3], s[4]) for s in spans] == [("fake.outer", -1, 4), ("fake.inner", 0, 4), ("fake.inner", 0, 4)]
    summary = tracing.summarize(tracer)
    assert summary["calls"]["fake.inner"] == 2
    assert summary["self_s"]["fake.outer"] == pytest.approx(
        (spans[0][2] - spans[0][1]) - sum(s[2] - s[1] for s in spans[1:])
    )
    assert module.outer is original


def test_every_module_binding_a_target_is_patched():
    tracer = tracing.Tracer()
    original = optimize.scheme_sensitivity
    tracer.install()
    try:
        assert mzi_lab.scheme_sensitivity is optimize.scheme_sensitivity is not original
        from mzi_lab import cli, interferometer, measurements

        assert measurements.output_grid is interferometer.output_grid is optimize.output_grid
        assert cli.run_sweep is optimize.run_sweep
        tracer.active = True
        mzi_lab.scheme_sensitivity(
            mzi_lab.Scheme.PARITY, mzi_lab.ResourceKind.TMSV, 4.0, mzi_lab.LossModel.symmetric(0.9)
        )
        tracer.active = False
    finally:
        tracer.uninstall()
    assert mzi_lab.scheme_sensitivity is original
    summary = tracing.summarize(tracer)
    metrics = tracing.per_layer_metrics(summary, 1.0)
    assert metrics["optimize.scheme_sensitivity.calls"] == 1
    assert metrics["optimize.min_over_phi.calls"] == 1
    assert metrics["measurements.sensitivity_profile.phases"] >= 720
    assert metrics["interferometer.output_grid.phases"] == 5 * metrics["measurements.sensitivity_profile.phases"]
    assert tracer.absent == []


def test_benchmark_json_lists_exactly_the_metrics_produced():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    produced = tracing.per_layer_metrics(tracing.summarize(tracing.Tracer()), 1.0)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(produced)
    end_to_end = {"setup_s", "peak_rss_mb", "ops_per_s", "latency_p50_ms", "latency_p90_ms", "cpu_ms_per_op"}
    assert {m["name"] for m in spec["end_to_end"]} == end_to_end
