"""Pure helpers shared by every workload: sample summaries, the tail rule,
metric-name checks and the result line the benchmark prints last.

Nothing here imports the program under test, so the helpers are tested
without it (``perfbench/tests``).
"""

from __future__ import annotations

import json
import math
import re
import statistics

# A metric or kind name: starts with a letter or digit, at most 64 of
# letters, digits, ``_``, ``.`` and ``-``.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_NAME = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Candidate tail percentiles, lowest first.
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def check_metric_name(name: str) -> str:
    if not isinstance(name, str) or not METRIC_NAME.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def check_unit(unit: str) -> str:
    if not isinstance(unit, str) or not UNIT_NAME.fullmatch(unit):
        raise ValueError(f"bad unit {unit!r}")
    return unit


def samples_beyond(n: int, percentile: float) -> int:
    """How many of ``n`` samples lie above the ``percentile``-th one."""
    # Integer arithmetic in tenths of a percent: 99.9 stays exact.
    return (n * (1000 - round(percentile * 10))) // 1000


def tail_percentile(n: int, cap: float = TAIL_GRID[-1]) -> "float | None":
    """The highest grid percentile (at most ``cap``) with at least
    :data:`MIN_BEYOND` samples beyond it, or ``None`` when even the
    median has fewer."""
    best = None
    for percentile in TAIL_GRID:
        if percentile > cap:
            break
        if samples_beyond(n, percentile) >= MIN_BEYOND:
            best = percentile
    return best


def percentile(samples: "list[float]", pct: float) -> float:
    """Nearest-rank percentile (the value that ``pct`` % of samples reach)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: "list[float]") -> float:
    if not values or any(value <= 0 for value in values):
        raise ValueError(f"geometric mean needs positive values, got {values}")
    return math.exp(sum(math.log(value) for value in values) / len(values))


def failed_ratio(attempted: int, failed: int) -> float:
    """Failed ÷ attempted; a refused or errored operation counts as failed."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..{attempted}")
    return failed / attempted


class Samples:
    """Latency samples (seconds) grouped by operation kind."""

    def __init__(self) -> None:
        self.by_kind: "dict[str, list[float]]" = {}
        self.attempted = 0
        self.failed = 0
        # (operations completed, seconds inside them) per pass.
        self.passes: "list[tuple[int, float]]" = []

    def add(self, kind: str, seconds: float) -> None:
        self.by_kind.setdefault(check_metric_name(kind), []).append(seconds)

    def count(self) -> int:
        return sum(len(values) for values in self.by_kind.values())

    def kind_p50_ms(self, kind: str) -> float:
        return statistics.median(self.by_kind[kind]) * 1000.0

    def op_p50_ms(self) -> float:
        """Geometric mean over kinds of each kind's median latency."""
        return geomean([self.kind_p50_ms(kind) for kind in self.by_kind])

    def throughput(self) -> float:
        """Median over passes of operations completed per second inside them.

        A pass holds every operation kind in its fixed proportion, so the
        median pass is robust to the few slowest inputs a seed happens to
        draw, which a whole-run mean is not.
        """
        return statistics.median(ops / busy for ops, busy in self.passes if busy > 0)

    def tail_factor(self, cap: float) -> "tuple[float, float]":
        """``(percentile, factor)``: the tail of every sample divided by
        its kind's median, pooled over kinds.

        The percentile is the highest (at most ``cap``) with at least
        :data:`MIN_BEYOND` pooled samples beyond it; below 20 samples the
        median is all the data supports.
        """
        ratios = []
        for values in self.by_kind.values():
            middle = statistics.median(values)
            ratios.extend(value / middle for value in values)
        pct = tail_percentile(len(ratios), cap) or 50.0
        return pct, percentile(ratios, pct)

    def op_tail_ms(self, cap: float) -> float:
        """:meth:`op_p50_ms` scaled by the pooled :meth:`tail_factor`."""
        return self.op_p50_ms() * self.tail_factor(cap)[1]

    def describe(self, cap: float) -> "list[str]":
        pct, factor = self.tail_factor(cap)
        lines = [
            f"kind {kind}: n={len(values)} p50={statistics.median(values) * 1000:.3f} ms"
            for kind, values in sorted(self.by_kind.items())
        ]
        lines.append(
            f"op_tail_ms is p{pct:g} of {self.count()} samples "
            f"(x{factor:.3f} of each kind's median)"
        )
        return lines


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: "dict[str, tuple[float, str]]",
) -> str:
    """The benchmark's last stdout line: one JSON object."""
    failed_ratio(attempted, failed)
    document = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            check_metric_name(name): {"value": float(value), "unit": check_unit(unit)}
            for name, (value, unit) in metrics.items()
        },
    }
    for name, entry in document["metrics"].items():
        if not math.isfinite(entry["value"]):
            raise ValueError(f"metric {name} is not finite: {entry['value']}")
    return json.dumps(document, sort_keys=True)
