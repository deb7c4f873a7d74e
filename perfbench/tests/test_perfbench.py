"""Tests of the benchmark's own logic (run: ``python3 -m pytest perfbench/tests``)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import layers, plan
from perfbench.harness import Op, Workload, _result, end_to_end, run_ops
from perfbench.service_mixed import _outcome
from perfbench.stats import (
    Samples,
    check_metric_name,
    failed_ratio,
    percentile,
    result_line,
    samples_beyond,
    tail_percentile,
)
from perfbench.tracer import Tracer, coverage, self_times

ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name", ["setup_s", "op_p50_ms", "chase.round_ms", "a-b.c_d", "9lives", "x" * 64]
)
def test_metric_name_accepts(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize(
    "name", ["", "_lead", ".lead", "has space", "slash/no", "ünicode", "x" * 65, 3]
)
def test_metric_name_rejects(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_every_declared_metric_name_is_valid():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    names += [w["name"] for w in document["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        check_metric_name(name)
    assert [m["name"] for m in document["per_layer"]] == [n for n, _ in layers.PER_LAYER]


def test_result_line_rejects_bad_names_and_values():
    with pytest.raises(ValueError):
        result_line(True, 1, 0, {"bad name": (1.0, "ms")})
    with pytest.raises(ValueError):
        result_line(True, 1, 0, {"x": (float("nan"), "ms")})
    line = json.loads(result_line(True, 3, 1, {"x_ms": (1.5, "ms")}))
    assert line == {
        "correct": True,
        "attempted": 3,
        "failed": 1,
        "metrics": {"x_ms": {"value": 1.5, "unit": "ms"}},
    }


# ----------------------------------------------------------------------
# Tail rule: the highest percentile with at least ten samples beyond it
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile(n, expected):
    assert tail_percentile(n) == expected


def test_tail_percentile_respects_cap():
    assert tail_percentile(10000, cap=95.0) == 95.0
    assert tail_percentile(150, cap=75.0) == 75.0


@pytest.mark.parametrize("n", [20, 57, 100, 333, 1000, 4321])
def test_chosen_tail_has_ten_samples_beyond(n):
    values = [float(index) for index in range(n)]
    pct = tail_percentile(n)
    beyond = sum(1 for value in values if value > percentile(values, pct))
    assert beyond >= 10 and samples_beyond(n, pct) >= 10
    higher = [p for p in (75.0, 90.0, 95.0, 99.0, 99.9) if p > pct]
    for candidate in higher:
        assert sum(1 for v in values if v > percentile(values, candidate)) < 10


def test_tail_factor_pools_kinds_relative_to_their_medians():
    samples = Samples()
    for index in range(100):
        samples.add("fast", 0.001 * (1 + index / 100))
        samples.add("slow", 1.0 * (1 + index / 100))
    pct, factor = samples.tail_factor(cap=99.9)
    assert pct == 95.0
    assert factor == pytest.approx(1.95 / 1.5, rel=0.02)
    assert samples.op_tail_ms(99.9) == pytest.approx(samples.op_p50_ms() * factor)


# ----------------------------------------------------------------------
# Plan determinism
# ----------------------------------------------------------------------
def test_plan_is_a_pure_function_of_the_seed():
    assert plan.client_plan(7, 0, 1, 300) == plan.client_plan(7, 0, 1, 300)
    assert plan.base_facts(7, 2) == plan.base_facts(7, 2)
    assert plan.client_plan(7, 0, 1, 300) != plan.client_plan(8, 0, 1, 300)
    assert plan.client_plan(7, 0, 0, 300) != plan.client_plan(7, 0, 1, 300)


def test_plan_retracts_only_the_clients_own_live_appends():
    for client in range(2):
        live = set()
        ops = plan.client_plan(3, 1, client, 2000)
        for op in ops:
            if op[0] == "append":
                assert op[1][1].startswith(f"u1_{client}_")
                live.add(op[1])
            elif op[0] == "retract":
                assert op[1] in live
                live.remove(op[1])
        kinds = [op[0] for op in ops]
        assert 0.70 < kinds.count("query") / len(ops) < 0.82
        assert 0.01 < kinds.count("retract") / len(ops) < 0.07


def test_plan_retracts_leave_some_students_a_second_enrolment():
    """Some retracts remove an enrolment of a student who keeps another, so
    DRed over-deletes ``Student``/``Person`` and has to re-derive them."""
    appended, live, with_support = [], set(), 0
    for op in plan.client_plan(3, 0, 0, 2000):
        if op[0] == "append":
            appended.append(op[1])
            live.add(op[1])
        elif op[0] == "retract":
            live.remove(op[1])
            with_support += any(fact[1] == op[1][1] for fact in live)
    assert len(appended) == len(set(appended))
    assert len({fact[1] for fact in appended}) < len(appended)
    assert with_support > 0


def test_final_facts_ignore_interleaving():
    base = plan.base_facts(5, 0)
    plans = [plan.client_plan(5, 0, client, 500) for client in range(2)]
    final = plan.final_facts(base, plans)
    assert final == plan.final_facts(base, list(reversed(plans)))
    appended = {op[1] for p in plans for op in p if op[0] == "append"}
    retracted = {op[1] for p in plans for op in p if op[0] == "retract"}
    assert final == (set(base) | appended) - retracted


# ----------------------------------------------------------------------
# Failed-ratio accounting
# ----------------------------------------------------------------------
class _Flaky(Workload):
    name = "flaky"

    def ops(self):
        for index in range(10):
            if index % 5 == 4:
                yield Op("op", _boom)
            else:
                yield Op("op", lambda: index)


def _boom():
    raise RuntimeError("refused")


def test_failed_operations_are_counted_not_timed_and_fail_the_run():
    workload = _Flaky(seed=0)
    samples, busy, windows = run_ops(workload, count=10)
    assert (samples.attempted, samples.failed, samples.count()) == (10, 2, 8)
    assert len(windows) == 8 and busy >= 0
    assert failed_ratio(samples.attempted, samples.failed) == 0.2
    assert len(workload.failures) == 2 and not workload.errors
    assert [ops for ops, _ in samples.passes] == [1, 1, 1, 1, 0, 1, 1, 1, 1, 0]
    assert samples.throughput() > 0
    metrics = end_to_end(samples, [0.1], 10.0, cap=99.9)
    assert set(metrics) == {"setup_s", "op_p50_ms", "op_tail_ms", "throughput_ops", "peak_rss_mb"}
    # Failed operations are left out of the timing, so the run is invalid.
    outcome = _result(workload, samples, metrics, [])
    assert outcome["correct"] is False
    assert outcome["failed"] == 2
    assert any(line.startswith("failed op: op: RuntimeError") for line in outcome["lines"])


def test_a_run_without_failures_or_wrong_answers_is_correct():
    workload = _Flaky(seed=0)
    samples = Samples()
    samples.attempted = 1
    samples.add("op", 0.01)
    assert _result(workload, samples, {}, [])["correct"] is True
    workload.errors.append("digest mismatch")
    assert _result(workload, samples, {}, [])["correct"] is False


class _Episode:
    def __init__(self, errors=(), failures=()):
        self.errors = list(errors)
        self.failures = list(failures)


def test_service_run_with_a_failed_request_is_not_correct():
    samples = Samples()
    samples.attempted, samples.failed = 5, 1
    for _ in range(4):
        samples.add("append", 0.01)
    outcome = _outcome([_Episode(failures=["client 0: HTTP 500"])], samples, {}, [])
    assert outcome["correct"] is False
    samples.failed = 0
    assert _outcome([_Episode()], samples, {}, [])["correct"] is True
    assert _outcome([_Episode(errors=["digest"])], samples, {}, [])["correct"] is False


def test_failed_ratio_bounds():
    assert failed_ratio(4, 0) == 0.0
    with pytest.raises(ValueError):
        failed_ratio(0, 0)
    with pytest.raises(ValueError):
        failed_ratio(3, 4)
    with pytest.raises(ValueError):
        result_line(True, 0, 0, {})


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_children_and_coverage_uses_roots():
    spans = [
        {"id": 0, "name": "a", "start": 0.0, "end": 10.0, "parent": None, "rid": 1},
        {"id": 1, "name": "b", "start": 1.0, "end": 4.0, "parent": 0, "rid": 1},
        {"id": 2, "name": "b", "start": 3.0, "end": 6.0, "parent": 0, "rid": 1},
        {"id": 3, "name": "c", "start": 12.0, "end": 14.0, "parent": None, "rid": 2},
    ]
    own = self_times(spans)
    assert own == {0: 5.0, 1: 3.0, 2: 3.0, 3: 2.0}
    assert coverage(spans, [(0.0, 20.0)]) == pytest.approx(12.0 / 20.0)


def test_tracer_records_nesting():
    tracer = Tracer()

    def inner():
        return 1

    def outer():
        return traced_inner() + 1

    traced_inner = tracer.wrap(inner, "inner")
    assert tracer.wrap(outer, "outer")() == 2
    spans = tracer.finished()
    by_name = {span["name"]: span for span in spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["parent"] is None
