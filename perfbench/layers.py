"""Which program functions the traced run wraps, and how spans and the
program's own counters become the per-layer metrics.

Every workload reports every per-layer metric; a layer the workload does
not exercise reads 0.  ``*_ms`` metrics are mean milliseconds per span
(self time: the span's duration minus its traced children), unless the
table in ``NOTES.md`` says otherwise.
"""

from __future__ import annotations

import statistics

from .tracer import REQUEST_ID, ContextExecutor, Tracer, self_times

# (dotted target, span name).  Methods are wrapped on their class.
TARGETS = [
    ("repro.chase.engine.chase", "chase.run"),
    ("repro.storage.chasestore.chase_into_store", "storage.chase_into_store"),
    ("repro.chase.columnar_kernel.ColumnarRoundExecutor.run_round", "chase.round"),
    ("repro.chase.engine.SequentialRoundExecutor.run_round", "chase.round"),
    ("repro.storage.sqlite.SQLiteStore.insert_rows", "storage.write"),
    ("repro.storage.sqlite.SQLiteStore.add_many", "storage.write"),
    ("repro.storage.sqlite.SQLiteStore.flush", "storage.write"),
    ("repro.storage.sqlcompile.compile_ucq", "storage.compile_ucq"),
    ("repro.storage.sqlcompile.execute_compiled", "storage.execute_compiled"),
    ("repro.storage.sqlcompile.evaluate_ucq_sql", "storage.evaluate_ucq_sql"),
    ("repro.rewriting.engine.rewrite", "rewriting.rewrite"),
    ("repro.rewriting.engine.unify_frontier_cq", "rewriting.unify"),
    ("repro.rewriting.canonical.canonical_key", "rewriting.canonical"),
    ("repro.logic.containment.is_contained_in", "rewriting.containment"),
    ("repro.frontier.process.run_process", "frontier.process"),
    ("repro.rewriting.session.OMQASession.prepare", "session.prepare"),
    ("repro.rewriting.session.OMQASession.materialize", "session.materialize"),
    ("repro.rewriting.session.OMQASession.compile_sql", "session.compile_sql"),
    ("repro.rewriting.session.OMQASession.add_facts", "session.add_facts"),
    ("repro.rewriting.session.OMQASession.retract_facts", "session.retract_facts"),
    ("repro.rewriting.session.OMQASession.answer", "session.answer"),
    ("repro.rewriting.answering.answer_by_rewriting", "answering.rewriting_eval"),
    ("repro.chase.columnar_kernel.evaluate_ucq_columnar", "answering.columnar_eval"),
    ("repro.storage.chasestore.update_store_chase", "incremental.store_update"),
    ("repro.incremental.incremental_update", "incremental.session_update"),
    ("repro.service.app.ServiceApp.dispatch", "service.dispatch"),
    ("repro.service.registry.TheoryEntry.apply_update", "service.apply_update"),
    ("repro.service.registry.TheoryEntry.answer", "service.answer"),
    ("repro.service.http.encode_response", "service.serialize"),
]


def install(tracer: Tracer) -> None:
    """Wrap every target, plus the service's request reader and executor."""
    import repro.service.server as server_module

    tracer.install(TARGETS)
    original_read = server_module.read_request

    async def read_request(reader):
        # Keep-alive idle time is the client's, not parsing: start the
        # span once the next request's first bytes are buffered.
        wait = getattr(reader, "_wait_for_data", None)
        if wait is not None and not reader._buffer and not reader.at_eof():
            await wait("read_request")
        REQUEST_ID.set(tracer.next_request_id())
        record, token = tracer.open("service.parse")
        try:
            return await original_read(reader)
        finally:
            tracer.close(record, token)

    tracer._patch(server_module, "read_request", read_request)
    service_class = server_module.OMQAService
    original_init = service_class.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.app.executor = ContextExecutor(
            self.executor, tracer, "service.queue_wait", "service.work"
        )

    tracer._patch(service_class, "__init__", init)


# (metric, unit) in report order.
PER_LAYER = [
    ("chase.round_ms", "ms"),
    ("chase.outside_rounds_ms", "ms"),
    ("chase.rounds", "count"),
    ("chase.matches", "count"),
    ("chase.new_per_match", "ratio"),
    ("chase.fallback_rules", "count"),
    ("storage.write_ms", "ms"),
    ("storage.store_chase_ms", "ms"),
    ("storage.rows_written", "count"),
    ("storage.terms_interned", "count"),
    ("storage.bytes_per_atom", "B/atom"),
    ("storage.rows_scanned_per_answer", "ratio"),
    ("storage.meta_bytes", "B"),
    ("storage.lock_retries", "count"),
    ("rewriting.unify_ms", "ms"),
    ("rewriting.canonical_ms", "ms"),
    ("rewriting.containment_ms", "ms"),
    ("rewriting.kept_per_produced", "ratio"),
    ("rewriting.dedup_hits", "count"),
    ("rewriting.subsumption_checks", "count"),
    ("rewriting.subsumption_skipped", "count"),
    ("rewriting.rules_skipped", "count"),
    ("frontier.process_ms", "ms"),
    ("frontier.survivors", "count"),
    ("session.rewrite_hit_ratio", "ratio"),
    ("session.chase_hit_ratio", "ratio"),
    ("session.sql_hit_ratio", "ratio"),
    ("session.columnar_hit_ratio", "ratio"),
    ("session.cache_entries", "count"),
    ("answering.rewriting_eval_ms", "ms"),
    ("answering.columnar_eval_ms", "ms"),
    ("answering.sql_eval_ms", "ms"),
    ("answering.store_load_ms", "ms"),
    ("incremental.store_update_ms", "ms"),
    ("incremental.session_update_ms", "ms"),
    ("incremental.delta_rounds", "count"),
    ("incremental.rederived_per_overdeleted", "ratio"),
    ("incremental.growth", "ratio"),
    ("service.parse_ms", "ms"),
    ("service.serialize_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.work_ms", "ms"),
    ("service.errors", "count"),
    ("bench.trace_overhead", "ratio"),
    ("bench.span_coverage", "ratio"),
]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _hit_ratio(info: dict, cache: str) -> float:
    entry = info.get(cache, {})
    return _ratio(entry.get("hits", 0), entry.get("hits", 0) + entry.get("misses", 0))


def growth(durations: "list[float]") -> float:
    """Last-quarter ÷ first-quarter median of a time-ordered series."""
    quarter = len(durations) // 4
    if quarter < 1:
        return 0.0
    return _ratio(
        statistics.median(durations[-quarter:]), statistics.median(durations[:quarter])
    )


def per_layer(
    spans: "list[dict]",
    counters: "dict[str, int]",
    ops: int,
    extras: "dict[str, float]",
    cache_info: "dict[str, dict[str, int]] | None" = None,
) -> "dict[str, tuple[float, str]]":
    """Every per-layer metric from one traced phase.

    ``counters`` are the program's Telemetry counters summed over the
    phase, ``ops`` the workload operations it ran, ``extras`` values the
    workload measured itself (file sizes, survivors, overhead, coverage).
    """
    own = self_times(spans)
    spans_by_name: "dict[str, list[dict]]" = {}
    for span in spans:
        spans_by_name.setdefault(span["name"], []).append(span)

    def total_self_ms(*names: str) -> "tuple[float, int]":
        chosen = [span for name in names for span in spans_by_name.get(name, [])]
        return sum(own[span["id"]] for span in chosen) * 1000.0, len(chosen)

    def self_ms(*names: str) -> float:
        return _ratio(*total_self_ms(*names))

    def duration_ms(name: str) -> float:
        chosen = spans_by_name.get(name, [])
        return _ratio(
            sum(span["end"] - span["start"] for span in chosen) * 1000.0, len(chosen)
        )

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    c = counters.get
    info = cache_info or {}
    store_updates = sorted(
        spans_by_name.get("incremental.store_update", []), key=lambda s: s["start"]
    )
    values = {
        "chase.round_ms": self_ms("chase.round"),
        "chase.outside_rounds_ms": self_ms("chase.run"),
        "chase.rounds": per_op(len(spans_by_name.get("chase.round", []))),
        "chase.matches": per_op(c("chase.matches", 0)),
        "chase.new_per_match": _ratio(c("chase.atoms_produced", 0), c("chase.matches", 0)),
        "chase.fallback_rules": per_op(c("columnar.fallback_rules", 0)),
        "storage.write_ms": per_op(total_self_ms("storage.write")[0]),
        "storage.store_chase_ms": self_ms("storage.chase_into_store"),
        "storage.rows_written": per_op(c("store.writes", 0)),
        "storage.terms_interned": per_op(c("store.terms_interned", 0)),
        "storage.bytes_per_atom": extras.get("bytes_per_atom", 0.0),
        "storage.rows_scanned_per_answer": _ratio(
            c("store.rows_scanned", 0), extras.get("answers", 0)
        ),
        "storage.meta_bytes": extras.get("meta_bytes", 0.0),
        "storage.lock_retries": c("store.lock_retries", 0),
        "rewriting.unify_ms": self_ms("rewriting.unify"),
        "rewriting.canonical_ms": self_ms("rewriting.canonical"),
        "rewriting.containment_ms": self_ms("rewriting.containment"),
        "rewriting.kept_per_produced": _ratio(c("rewrite.kept", 0), c("rewrite.produced", 0)),
        "rewriting.dedup_hits": per_op(c("rewrite.dedup_hits", 0)),
        "rewriting.subsumption_checks": per_op(c("rewrite.subsumption_checks", 0)),
        "rewriting.subsumption_skipped": per_op(c("rewrite.subsumption_skipped", 0)),
        "rewriting.rules_skipped": per_op(c("rewrite.rules_skipped", 0)),
        "frontier.process_ms": self_ms("frontier.process"),
        "frontier.survivors": extras.get("survivors", 0.0),
        "session.rewrite_hit_ratio": _hit_ratio(info, "rewriting"),
        "session.chase_hit_ratio": _hit_ratio(info, "chase"),
        "session.sql_hit_ratio": _hit_ratio(info, "sql"),
        "session.columnar_hit_ratio": _hit_ratio(info, "columnar"),
        "session.cache_entries": sum(entry.get("entries", 0) for entry in info.values()),
        "answering.rewriting_eval_ms": self_ms("answering.rewriting_eval"),
        "answering.columnar_eval_ms": self_ms("answering.columnar_eval"),
        "answering.sql_eval_ms": self_ms(
            "storage.execute_compiled", "storage.evaluate_ucq_sql"
        ),
        "answering.store_load_ms": self_ms("session.answer"),
        "incremental.store_update_ms": duration_ms("incremental.store_update"),
        "incremental.session_update_ms": duration_ms("incremental.session_update"),
        "incremental.delta_rounds": _ratio(c("delta.rounds", 0), c("delta.updates", 0)),
        "incremental.rederived_per_overdeleted": _ratio(
            c("delta.rederived", 0), c("delta.overdeleted", 0)
        ),
        "incremental.growth": extras.get(
            "growth",
            growth([span["end"] - span["start"] for span in store_updates]),
        ),
        "service.parse_ms": duration_ms("service.parse"),
        "service.serialize_ms": duration_ms("service.serialize"),
        "service.queue_wait_ms": duration_ms("service.queue_wait"),
        "service.work_ms": duration_ms("service.work"),
        "service.errors": c("service.responses_4xx", 0) + c("service.responses_5xx", 0),
        "bench.trace_overhead": extras.get("trace_overhead", 0.0),
        "bench.span_coverage": extras.get("span_coverage", 0.0),
    }
    return {name: (float(values[name]), unit) for name, unit in PER_LAYER}
