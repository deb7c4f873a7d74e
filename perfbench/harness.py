"""The run skeleton the in-process workloads share.

A workload supplies set-up, a deterministic stream of operations, a
correctness gate and the counters its operations produced; this module
times set-up several times, runs operations for the requested seconds,
and either reports the end-to-end metrics (untraced) or replays the same
operations under the tracer and reports the per-layer metrics.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from pathlib import Path

from . import layers
from .stats import Samples
from .tracer import Tracer, coverage

# Set-up is repeated until both limits are reached and the median is
# reported: a cheap set-up (tens of ms) gets dozens of samples, an
# expensive one at least three.
MIN_SETUPS = 3
SETUP_SECONDS = 1.0
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def peak_rss_mb() -> float:
    """This process's peak resident set so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def add_counters(total: "dict[str, int]", counters) -> None:
    for name, value in counters.items():
        total[name] = total.get(name, 0) + value


class Op:
    """One timed operation: ``fn`` is timed, ``after(result)`` is not."""

    __slots__ = ("kind", "fn", "after")

    def __init__(self, kind: str, fn, after=None) -> None:
        self.kind = kind
        self.fn = fn
        self.after = after


class Workload:
    """Interface of an in-process workload (materialize, rewrite_compile,
    answer_warm; service_mixed drives a server and has its own loop)."""

    name = ""
    tail_cap = 99.9
    # Operations per pass; a timed run stops only at a pass boundary, so
    # every kind of a pass gets the same number of samples.
    pass_size = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.counters: "dict[str, int]" = {}
        self.errors: "list[str]" = []
        self.failures: "list[str]" = []

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self):
        """A fresh, deterministic iterator of :class:`Op`."""
        raise NotImplementedError

    def check(self) -> None:
        """Untimed correctness gate; append to ``self.errors``."""
        raise NotImplementedError

    def extras(self) -> "dict[str, float]":
        return {}

    def counter_snapshot(self) -> "dict[str, int]":
        """The program's counters so far (the traced phase reports deltas)."""
        return dict(self.counters)

    def cache_info(self):
        return None

    def report_lines(self, samples: Samples) -> "list[str]":
        return []


def run_ops(workload: Workload, seconds: float = 0.0, count: int = 0):
    """Run operations until ``seconds`` pass (or exactly ``count`` ran).

    Returns ``(samples, busy_seconds, windows)``; ``windows`` are the
    ``(start, end)`` perf-counter intervals of the timed calls.
    """
    samples = Samples()
    windows = []
    deadline = time.perf_counter() + seconds
    pass_ops, pass_busy = 0, 0.0
    for op in workload.ops():
        if samples.attempted and samples.attempted % workload.pass_size == 0:
            samples.passes.append((pass_ops, pass_busy))
            pass_ops, pass_busy = 0, 0.0
            if not count and time.perf_counter() >= deadline:
                break
        if count and samples.attempted >= count:
            break
        samples.attempted += 1
        started = time.perf_counter()
        try:
            result = op.fn()
        except Exception as exc:  # noqa: BLE001 — an operation failure is counted
            samples.failed += 1
            workload.failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            continue
        ended = time.perf_counter()
        samples.add(op.kind, ended - started)
        windows.append((started, ended))
        pass_ops += 1
        pass_busy += ended - started
        if op.after is not None:
            op.after(result)
    else:
        if samples.attempted % workload.pass_size == 0:
            samples.passes.append((pass_ops, pass_busy))
    busy = sum(end - start for start, end in windows)
    return samples, busy, windows


def end_to_end(
    samples: Samples, setup_times: "list[float]", rss_mb: float, cap: float
) -> "dict[str, tuple[float, str]]":
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_ms": (samples.op_p50_ms(), "ms"),
        "op_tail_ms": (samples.op_tail_ms(cap), "ms"),
        "throughput_ops": (samples.throughput(), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def run_workload(workload: Workload, seconds: float, trace: bool) -> dict:
    setup_times = []
    while len(setup_times) < MIN_SETUPS or sum(setup_times) < SETUP_SECONDS:
        # Free the previous set-up's cyclic garbage outside the timing, so
        # neither set-up time nor peak RSS depends on when GC last ran.
        gc.collect()
        started = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - started)
    gc.collect()
    lines = [
        f"setup_s {statistics.median(setup_times):.4f} s "
        f"(median of {len(setup_times)} set-ups)"
    ]
    if not trace:
        samples, _, _ = run_ops(workload, seconds=seconds)
        rss = peak_rss_mb()
        workload.check()
        lines += samples.describe(workload.tail_cap)
        lines += workload.report_lines(samples)
        metrics = end_to_end(samples, setup_times, rss, workload.tail_cap)
        return _result(workload, samples, metrics, lines)

    # Traced: run untraced for half the time, then replay exactly the same
    # operations with every layer wrapped.
    plain, plain_busy, _ = run_ops(workload, seconds=seconds / 2)
    counters_before = workload.counter_snapshot()
    caches_before = workload.cache_info()
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced, traced_busy, windows = run_ops(workload, count=plain.attempted)
    finally:
        tracer.uninstall()
    counters = _delta(workload.counter_snapshot(), counters_before)
    caches = workload.cache_info()
    if caches is not None:
        caches = {
            name: {
                "hits": entry["hits"] - caches_before[name]["hits"],
                "misses": entry["misses"] - caches_before[name]["misses"],
                "entries": entry["entries"],
            }
            for name, entry in caches.items()
        }
    spans = tracer.finished()
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.dump(OUT / f"spans-{workload.name}-{workload.seed}.jsonl")
    workload.check()
    extras = dict(workload.extras())
    extras["trace_overhead"] = traced_busy / plain_busy if plain_busy else 0.0
    extras["span_coverage"] = coverage(spans, windows)
    metrics = layers.per_layer(spans, counters, traced.count(), extras, caches)
    lines.append(f"spans {len(spans)} written to perfbench/out")
    return _result(workload, traced, metrics, lines)


def _delta(after: "dict[str, int]", before: "dict[str, int]") -> "dict[str, int]":
    return {name: value - before.get(name, 0) for name, value in after.items()}


def _result(workload: Workload, samples: Samples, metrics, lines) -> dict:
    # A failed operation is not timed, so a run with failures would report
    # the latency of the operations that survived: it is not a valid run.
    return {
        "correct": not workload.errors and samples.failed == 0,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": metrics,
        "lines": lines
        + [f"failed op: {failure}" for failure in workload.failures[:10]]
        + [f"wrong answer: {error}" for error in workload.errors[:10]],
    }
