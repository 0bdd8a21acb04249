"""Smoke tests of the benchmark itself, on tiny inputs.

Run with ``python -m pytest bench``.  They check that every workload
answers and passes its own checks, that answers repeat exactly, that a
traced run reports every per-layer metric BENCHMARK.json declares, and the
span self-time arithmetic.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import concord.inference as cinference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, has_ancestor, percentile, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_answers_repeat_and_pass_checks(name):
    workload = WORKLOADS[name]
    for data in workload.inputs(1, tiny=True):
        first = workload.solve(data)
        again = workload.solve(data)
        assert first.problems == [] and again.problems == []
        assert first.fingerprint == again.fingerprint
        assert 0.0 < first.setup_s <= first.wall_s
        assert first.pairs > 0
        assert 0.0 <= first.f1 <= 1.0
        assert 0.0 < first.balanced_accuracy <= 1.0
        assert 0.0 < first.consistent_share <= 1.0
        workload.setup(data)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_follow_the_seed(name):
    workload = WORKLOADS[name]
    first = [workload.solve(d).fingerprint for d in workload.inputs(2, tiny=True)]
    again = [workload.solve(d).fingerprint for d in workload.inputs(2, tiny=True)]
    assert first == again


def test_untraced_run_reports_end_to_end_metrics():
    attempts, metrics = run.measure("tune", 0, seconds=0.0, tiny=True)
    assert attempts.failed == 0
    assert attempts.attempted == len(WORKLOADS["tune"].inputs(0, tiny=True))
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in metrics.values())


def test_traced_run_reports_every_layer_metric():
    attempts, metrics, spans = run.measure_traced("partitioned", 0, seconds=0.0, tiny=True)
    assert attempts.failed == 0
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["partition.partitions"] > 0
    assert metrics["inference.decodes"] == metrics["partition.partitions"]
    assert metrics["graph.builds"] == metrics["partition.partitions"]
    assert metrics["inference.rounds"] >= metrics["inference.decodes"]
    assert metrics["priors.feature_calls"] == 0
    assert {span.name for span in spans} >= {
        "partition.build_partitions", "partition.top_k_neighbors", "inference.lbp_map",
        "inference.jacobi_round", "graph.build_factor_graph", "evaluation.audit_labels",
    }
    # The wrappers are gone once the traced answer is done.
    assert not hasattr(cinference.lbp_map, "__wrapped__")


def test_quality_scores():
    gold = {(0, 1): 1, (0, 2): 0, (1, 2): 0, (0, 3): 0}
    all_negative = dict.fromkeys(gold, 0)
    assert workloads._balanced_accuracy(all_negative, gold) == 0.5
    assert workloads._balanced_accuracy(gold, gold) == 1.0
    # 0~1 and 1~2 are equivalent but 0~2 is not: the one closable clique breaks.
    assert workloads._consistent_share({(0, 1): 1, (0, 2): 0, (1, 2): 1}) == 0.0
    assert workloads._consistent_share(all_negative) == 1.0
    assert workloads._consistent_share({(0, 1): 1}) == 1.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("child", 1.0, 3.0, 0, 0),
        Span("child", 4.0, 6.0, 0, 0),
        Span("grandchild", 4.5, 5.0, 2, 0),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.5, 0.5]
    assert has_ancestor(spans, 3, "root")
    assert not has_ancestor(spans, 1, "child")


def test_tracer_records_nesting_and_restores():
    class Module:
        @staticmethod
        def outer():
            return Module.inner() + 1

        @staticmethod
        def inner():
            return 1

    original = Module.inner
    with Tracer(run=7) as tracer:
        tracer.patch(Module, "outer", "m.outer", observe=lambda result: {"result": result})
        tracer.patch(Module, "inner", "m.inner")
        assert Module.outer() == 2
    assert Module.inner is original
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, outer.counts) == ("m.outer", -1, {"result": 2})
    assert (inner.name, inner.parent, inner.run) == ("m.inner", 0, 7)
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.98) == 98
    assert percentile([3.0], 0.98) == 3.0
    assert percentile([], 0.5) == 0.0
