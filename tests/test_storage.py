"""Unit tests for the storage subsystem (repro.storage).

Covers the :class:`FactStore` contract on both backends, content
digests, the id-native bulk-insert path, SQL compilation of UCQ
rewritings, and the store-backed chase: its error surface, its parity
with the in-memory engine (the paper's ``T_d`` family included) and
budget-stop/resume exactness.  End-to-end equivalence properties live
in ``test_storage_equivalence.py``.
"""

from __future__ import annotations

import random
import time

import pytest

import repro.chase.engine as engine_module
from repro.chase import ChaseBudget, chase
from repro.logic import Instance, parse_instance, parse_query, parse_theory
from repro.logic.atoms import atom
from repro.logic.query import UnionOfCQs
from repro.logic.containment import evaluate_ucq
from repro.logic.homomorphism import evaluate
from repro.storage import (
    ColumnarStore,
    MemoryStore,
    SQLiteStore,
    StoreChaseError,
    chase_into_store,
    compile_ucq,
    content_digest,
    evaluate_ucq_sql,
    execute_compiled,
    open_store,
    resume_store_chase,
)
from repro.workloads import (
    edge_cycle,
    edge_path,
    example42_tc,
    green_path,
    level_path,
    t_d,
    t_d_k,
    t_d_without_loop,
    university_database,
    university_ontology,
)

DENSE_TC = parse_theory("E(x, y), E(y, z) -> E(x, z)", name="dense-tc")
MATERIALIZE_BUDGET = ChaseBudget(max_rounds=200, max_atoms=2_000_000)


def dense_tc_instance(seed: int) -> Instance:
    """A seeded strongly connected graph: a random Hamiltonian cycle
    through 40 constants plus 120 random extra edges, so its transitive
    closure is all 1,600 pairs."""
    rng = random.Random(f"tc-{seed}")
    names = [f"n{index}" for index in range(40)]
    rng.shuffle(names)
    edges = {(names[i], names[(i + 1) % 40]) for i in range(40)}
    while len(edges) < 160:
        edges.add((rng.choice(names), rng.choice(names)))
    return Instance([atom("E", source, target) for source, target in sorted(edges)])


BACKENDS = [MemoryStore, ColumnarStore, lambda: SQLiteStore(":memory:")]
BACKEND_IDS = ["memory", "columnar", "sqlite"]


@pytest.fixture(params=BACKENDS, ids=BACKEND_IDS)
def store(request):
    with request.param() as handle:
        yield handle


class TestFactStoreContract:
    def test_add_and_contains(self, store):
        facts = parse_instance("E(a, b). E(b, c). P(a)")
        assert store.add_many(facts) == 3
        assert len(store) == 3
        for atom in facts:
            assert atom in store
        assert parse_instance("E(c, a)").atoms().__iter__().__next__() not in store

    def test_add_is_idempotent(self, store):
        atom = parse_instance("E(a, b)").atoms().__iter__().__next__()
        assert store.add(atom) is True
        assert store.add(atom) is False
        assert len(store) == 1

    def test_round_tags(self, store):
        base = parse_instance("E(a, b)")
        derived = parse_instance("R(a, b)")
        store.add_many(base, round_=0)
        store.add_many(derived, round_=1)
        assert store.max_round() == 1
        assert store.atoms_in_round(0) == base.atoms()
        assert store.atoms_in_round(1) == derived.atoms()
        assert store.count_in_round(1) == 1

    def test_iteration_and_facts(self, store):
        facts = parse_instance("E(a, b). E(b, c). P(a)")
        store.add_many(facts)
        assert set(store) == facts.atoms()
        edges = {atom for atom in store.facts(next(iter(facts)).predicate.name)}
        assert all(atom.predicate.name == next(iter(facts)).predicate.name for atom in edges)

    def test_to_instance_round_trip(self, store):
        facts = edge_path(4)
        store.add_many(facts)
        assert store.to_instance() == facts

    def test_digest_matches_instance_digest(self, store):
        facts = edge_cycle(5)
        store.add_many(facts)
        assert store.digest() == content_digest(facts)

    def test_digest_is_order_independent(self):
        facts = list(parse_instance("E(a, b). E(b, c). P(a)"))
        with SQLiteStore(":memory:") as forward, SQLiteStore(":memory:") as backward:
            forward.add_many(facts)
            backward.add_many(reversed(facts))
            assert forward.digest() == backward.digest()

    def test_meta_round_trip(self, store):
        assert store.get_meta("missing") is None
        store.set_meta("k", "v")
        assert store.get_meta("k") == "v"


class TestOpenStore:
    def test_no_path_means_memory(self):
        with open_store() as handle:
            assert isinstance(handle, MemoryStore)
            assert handle.backend == "memory"

    def test_path_means_sqlite(self, tmp_path):
        path = tmp_path / "facts.db"
        with open_store(str(path)) as handle:
            assert handle.backend == "sqlite"
            handle.add_many(edge_path(3))
        assert path.exists()
        with open_store(str(path)) as handle:
            assert len(handle) == 3


class TestSQLiteStore:
    def test_persistence_across_connections(self, tmp_path):
        path = str(tmp_path / "facts.db")
        facts = edge_cycle(6)
        with SQLiteStore(path) as writer:
            writer.add_many(facts)
            digest = writer.digest()
        with SQLiteStore(path) as reader:
            assert reader.to_instance() == facts
            assert reader.digest() == digest

    def test_buffered_writes_flush(self):
        with SQLiteStore(":memory:", batch_size=4) as handle:
            for atom in edge_path(10):
                handle.buffer(atom)
            handle.flush()
            assert len(handle) == 10
            assert handle.stats.counters["store.batches"] >= 2

    def test_insert_rows_counts_new_only(self):
        from repro.logic.signature import Predicate
        from repro.logic.terms import Constant

        edge = Predicate("E", 2)
        with SQLiteStore(":memory:") as handle:
            ids = [handle.intern_term(Constant(name)) for name in ("a", "b", "c")]
            rows = [(ids[0], ids[1]), (ids[1], ids[2])]
            assert handle.insert_rows(edge, rows, round_=1) == 2
            assert handle.insert_rows(edge, rows, round_=2) == 0
            assert len(handle) == 2
            assert handle.max_round() == 1

    def test_clear_facts_keeps_terms(self):
        with SQLiteStore(":memory:") as handle:
            handle.add_many(edge_path(3))
            before = handle.stats.counters["store.terms_interned"]
            handle.clear_facts()
            assert len(handle) == 0
            handle.add_many(edge_path(3))
            assert handle.stats.counters["store.terms_interned"] == before

    def test_arity_zero_predicate(self):
        with SQLiteStore(":memory:") as handle:
            fact = parse_instance("Started()").atoms().__iter__().__next__()
            assert handle.add(fact) is True
            assert handle.add(fact) is False
            assert fact in handle
            assert set(handle) == {fact}

    def test_telemetry_counters_move(self):
        with SQLiteStore(":memory:") as handle:
            handle.add_many(edge_path(5))
            list(handle)
            counters = handle.stats.counters
            assert counters["store.writes"] == 5
            assert counters["store.terms_interned"] == 6
            assert counters["store.rows_scanned"] >= 5
            assert counters["store.sql_queries"] >= 1

    def test_wal_and_rollback_journal_digests_identical(self, tmp_path):
        facts = edge_cycle(6)
        with SQLiteStore(str(tmp_path / "wal.db"), wal=True) as wal_store:
            wal_store.add_many(facts)
            wal_digest = wal_store.digest()
            assert wal_store.journal_mode == "wal"
            assert wal_store.stats.counters["store.wal_opens"] == 1
        with SQLiteStore(str(tmp_path / "rollback.db"), wal=False) as plain:
            plain.add_many(facts)
            assert plain.digest() == wal_digest == content_digest(facts)
            assert plain.journal_mode == "delete"
            assert plain.stats.counters["store.rollback_opens"] == 1

    def test_memory_database_reports_granted_mode(self):
        # SQLite refuses WAL for :memory: databases; the attribute must
        # report what was granted, never what was asked for.
        with SQLiteStore(":memory:", wal=True) as handle:
            assert handle.journal_mode == "memory"
            assert handle.stats.counters["store.rollback_opens"] == 1

    def test_reload_catalog_sees_writer_tables(self, tmp_path):
        path = str(tmp_path / "shared.db")
        with SQLiteStore(path) as writer, SQLiteStore(path) as reader:
            writer.add_many(parse_instance("E(a, b)"))
            assert len(reader.predicates()) == 0  # stale catalog cache
            reader.reload_catalog()
            assert {p.name for p in reader.predicates()} == {"E"}
            assert reader.digest() == writer.digest()


class TestSqlCompile:
    def test_compiled_cq_matches_memory(self):
        query = parse_query("q(x, y) := exists z. E(x, z), E(z, y)")
        facts = edge_path(5)
        with SQLiteStore(":memory:") as handle:
            handle.add_many(facts)
            assert evaluate_ucq_sql(query, handle) == evaluate(query, facts)

    def test_constants_and_repeated_variables(self):
        query = parse_query("q(y) := E('a0', y), E(y, y)")
        facts = parse_instance("E(a0, a0). E(a0, b). E(b, c)")
        with SQLiteStore(":memory:") as handle:
            handle.add_many(facts)
            assert evaluate_ucq_sql(query, handle) == evaluate(query, facts)

    def test_ucq_union_deduplicates(self):
        disjuncts = UnionOfCQs(
            [
                parse_query("q(x) := P(x)"),
                parse_query("q(x) := exists y. E(x, y)"),
            ]
        )
        facts = parse_instance("P(a). E(a, b). E(b, c)")
        with SQLiteStore(":memory:") as handle:
            handle.add_many(facts)
            compiled = compile_ucq(disjuncts, handle)
            answers = execute_compiled(compiled, handle)
            assert answers == evaluate_ucq(disjuncts, facts)

    def test_unknown_predicate_prunes_disjunct(self):
        disjuncts = UnionOfCQs(
            [
                parse_query("q(x) := Missing(x)"),
                parse_query("q(x) := P(x)"),
            ]
        )
        facts = parse_instance("P(a)")
        with SQLiteStore(":memory:") as handle:
            handle.add_many(facts)
            compiled = compile_ucq(disjuncts, handle)
            assert execute_compiled(compiled, handle) == evaluate_ucq(disjuncts, facts)

    def test_boolean_query_short_circuits(self):
        query = parse_query("q() := exists x, y. E(x, y)")
        with SQLiteStore(":memory:") as handle:
            handle.add_many(parse_instance("E(a, b)"))
            assert evaluate_ucq_sql(query, handle) == {()}
        with SQLiteStore(":memory:") as handle:
            handle.add_many(parse_instance("P(a)"))
            assert evaluate_ucq_sql(query, handle) == set()


class TestStoreChase:
    def test_rejects_dirty_store_without_state(self):
        with SQLiteStore(":memory:") as handle:
            handle.add_many(edge_path(2))
            with pytest.raises(StoreChaseError):
                chase_into_store(example42_tc(), edge_path(2), handle)

    def test_rejects_theory_mismatch_on_resume(self):
        theory = example42_tc()
        other = parse_theory("E(x, y) -> R(x, y)", name="other")
        with SQLiteStore(":memory:") as handle:
            chase_into_store(
                theory, edge_cycle(3), handle, budget=ChaseBudget(max_rounds=1)
            )
            with pytest.raises(StoreChaseError):
                chase_into_store(other, None, handle)

    def test_rejects_base_on_resume(self):
        theory = example42_tc()
        with SQLiteStore(":memory:") as handle:
            chase_into_store(
                theory, edge_cycle(3), handle, budget=ChaseBudget(max_rounds=1)
            )
            with pytest.raises(StoreChaseError):
                chase_into_store(theory, edge_cycle(3), handle)

    def test_max_atoms_raise(self):
        theory = example42_tc()
        budget = ChaseBudget(max_rounds=50, max_atoms=10, on_exceeded="raise")
        with SQLiteStore(":memory:") as handle:
            with pytest.raises(Exception):
                chase_into_store(theory, edge_cycle(6), handle, budget=budget)

    def test_matches_in_memory_chase(self):
        theory = example42_tc()
        cycle = edge_cycle(5)
        budget = ChaseBudget(max_rounds=4, max_atoms=100_000)
        reference = chase(theory, cycle, budget=budget)
        with SQLiteStore(":memory:") as handle:
            outcome = chase_into_store(theory, cycle, handle, budget=budget)
            assert outcome.digest() == content_digest(reference.instance)
            for round_ in range(outcome.rounds_run + 1):
                assert handle.atoms_in_round(round_) == reference.round_added[round_]


class TestStoreChaseCounters:
    """The set-at-a-time rounds reproduce the row-at-a-time counters."""

    @pytest.mark.parametrize(
        "name, counts",
        [
            ("tc", (64_000, 1_440, 62_560, 40)),
            ("university", (9_483, 8_858, 625, 4_350)),
        ],
    )
    def test_counters_pinned(self, name, counts):
        if name == "tc":
            theory, base = DENSE_TC, dense_tc_instance(1)
        else:
            theory = university_ontology()
            base = university_database(1000, 100, 50, seed=1)
        reference = chase(theory, base, budget=MATERIALIZE_BUDGET, backend="memory")
        with SQLiteStore(":memory:") as handle:
            outcome = chase_into_store(theory, base, handle, budget=MATERIALIZE_BUDGET)
            assert outcome.terminated
            assert outcome.digest() == content_digest(reference.instance)
            counters = handle.stats.counters
            matches, produced, dedup, interned = counts
            # No universal head variable, so no domain relation.
            assert not _has_domain_table(handle)
            assert counters["chase.matches"] == matches
            assert counters["chase.atoms_produced"] == produced
            assert counters["chase.dedup_hits"] == dedup
            assert counters["store.terms_interned"] == interned

    def test_mixed_rule_shapes_match_in_memory_chase(self):
        # Bodyless, nullary, constant-carrying, multi-head and
        # two-existential rules all take the one set-at-a-time path.
        theory = parse_theory(
            "true -> exists z. Seed('c', z)\n"
            "Seed(x, z) -> Flag()\n"
            "Flag(), E(x, y) -> exists u, v. P(x, u), Q(u, v, 'k'), P(y, u)\n"
            "P(x, u), Q(u, v, w) -> R(w, x)\n"
            "R('k', x) -> Loop(x, x)\n"
            "Loop(x, x), Flag() -> Done()",
            name="mixed-shapes",
        )
        base = parse_instance("E(a, b). E(b, c). R(k, a). Loop(a, a).")
        budget = ChaseBudget(max_rounds=50)
        reference = chase(theory, base, budget=budget)
        with SQLiteStore(":memory:") as handle:
            outcome = chase_into_store(theory, base, handle, budget=budget)
            assert outcome.terminated
            assert outcome.digest() == content_digest(reference.instance)
            produced = handle.stats.counters["chase.atoms_produced"]
            assert produced == len(reference.instance) - len(base)
            # One derivation per new fact: its body atoms, deduplicated
            # (the bodyless rule's Seed fact has no parents).
            children = {
                row[0]
                for row in handle.connection.execute(
                    "SELECT child FROM repro_supports"
                )
            }
            assert len(children) == produced - 1


def _has_domain_table(handle) -> bool:
    return (
        handle.connection.execute(
            "SELECT 1 FROM sqlite_master WHERE name = 'repro_domain'"
        ).fetchone()
        is not None
    )


# name: (theory, base, rounds, the store's chase.matches).  The store
# counts each trigger once per plan that finds it; the engine counts a
# body match once per delta atom in it, so its figure is higher
# whenever two body atoms can both be in one round's delta (T_d's grid
# rule, the quadratic TC: 70 and 112 there, against 59 and 92 here).
PARITY_CASES = {
    "T_d": (t_d(), green_path(3), 3, 59),
    "T_d-without-loop": (t_d_without_loop(), green_path(3), 3, 45),
    "T_d^2": (t_d_k(2), level_path(3, 2), 3, 81),
    "body-and-universal": (
        parse_theory("P(x) -> Q(x, y)\nQ(x, y), E(y, z) -> S(x)"),
        parse_instance("P(a). P(b). E(a, c)."),
        5,
        8,
    ),
    "two-universal": (
        parse_theory("E(x, y) -> exists z. F(u, v, z)"),
        parse_instance("E(a, b)."),
        2,
        36,
    ),
    "quadratic-tc": (
        parse_theory("E(x, y) -> T(x, y)\nT(x, y), T(y, z) -> T(x, z)"),
        edge_path(8),
        50,
        92,
    ),
}


class TestStoreChaseParity:
    """One SQLite path for every theory: atom-for-atom with the engine."""

    @pytest.mark.parametrize("name", sorted(PARITY_CASES))
    def test_matches_memory_engine_and_resumes_exactly(self, name, tmp_path):
        theory, base, rounds, matches = PARITY_CASES[name]
        budget = ChaseBudget(max_rounds=rounds, max_atoms=100_000)
        reference = chase(theory, base, budget=budget, backend="memory")
        want = reference.stats.counters
        with SQLiteStore(":memory:") as handle:
            one_shot = chase_into_store(theory, base, handle, budget=budget)
            digest = one_shot.digest()
            assert digest == content_digest(reference.instance)
            assert len(handle) == len(reference.instance)
            assert one_shot.rounds_run == reference.rounds_run
            assert one_shot.terminated == reference.terminated
            for round_ in range(reference.rounds_run + 1):
                assert handle.atoms_in_round(round_) == reference.round_added[round_]
            counters = dict(handle.stats.counters)
            for counter in ("chase.rounds", "chase.atoms_produced"):
                assert counters[counter] == want[counter], counter
            assert counters["chase.matches"] == matches
            assert _has_domain_table(handle) == (name != "quadratic-tc")
        # Budget stop after one round, resume in a fresh connection.
        path = str(tmp_path / "resume.db")
        with SQLiteStore(path) as handle:
            chase_into_store(
                theory, base, handle, budget=ChaseBudget(max_rounds=1)
            )
        with SQLiteStore(path) as handle:
            resumed = resume_store_chase(
                handle,
                budget=ChaseBudget(max_rounds=rounds - 1, max_atoms=100_000),
            )
            assert resumed.digest() == digest
            assert resumed.rounds_run == reference.rounds_run
            for round_ in range(reference.rounds_run + 1):
                assert handle.atoms_in_round(round_) == reference.round_added[round_]
            for counter in ("chase.rounds", "chase.matches", "chase.atoms_produced"):
                assert handle.stats.counters[counter] == counters[counter], counter

    def test_three_backends_answer_alike(self):
        from repro import answer

        theory = parse_theory(
            "E(x, y) -> T(x, y)\n"
            "T(x, y), E(y, z) -> T(x, z)\n"
            "P(x) -> Q(x, y)\n"
            "Q(x, y), T(y, x) -> S(x)",
            name="universal-join",
        )
        query = parse_query("q(u) := S(u)")
        facts = parse_instance("P(a). E(a, b). E(b, a). E(b, c).")
        for backend in ("memory", "columnar", "sqlite"):
            answers = answer(theory, query, facts, backend=backend)
            assert {tuple(map(repr, row)) for row in answers} == {("a",)}, backend


class TestStoreChaseResume:
    def test_budget_stop_then_resume_matches_one_shot(self, tmp_path):
        theory = example42_tc()
        cycle = edge_cycle(5)
        one_shot = chase(theory, cycle, budget=ChaseBudget(max_rounds=6, max_atoms=500_000))
        path = str(tmp_path / "chase.db")
        with SQLiteStore(path) as store:
            chase_into_store(
                theory, cycle, store, budget=ChaseBudget(max_rounds=2, max_atoms=500_000)
            )
        # Resume in a fresh connection, theory re-parsed from the store.
        with SQLiteStore(path) as store:
            outcome = resume_store_chase(
                store, budget=ChaseBudget(max_rounds=4, max_atoms=500_000)
            )
            assert outcome.rounds_run == one_shot.rounds_run
            assert outcome.digest() == content_digest(one_shot.instance)
            for round_ in range(one_shot.rounds_run + 1):
                assert store.atoms_in_round(round_) == one_shot.round_added[round_]
            counters = outcome.stats.counters
            reference = one_shot.stats.counters
            for name in ("chase.rounds", "chase.matches", "chase.atoms_produced"):
                assert counters[name] == reference[name], name

    def test_resume_terminated_store_is_idempotent(self, tmp_path):
        theory = parse_theory("E(x, y) -> R(x, y)", name="one-step")
        base = parse_instance("E(a, b). E(b, c)")
        path = str(tmp_path / "chase.db")
        with SQLiteStore(path) as store:
            first = chase_into_store(theory, base, store)
            assert first.terminated
            digest = first.digest()
        with SQLiteStore(path) as store:
            again = resume_store_chase(store)
            assert again.terminated
            assert again.digest() == digest

    def test_resume_requires_state(self):
        with SQLiteStore(":memory:") as store:
            store.add_many(parse_instance("E(a, b)"))
            with pytest.raises(StoreChaseError):
                resume_store_chase(store)


class _ShiftedClock:
    """``time`` stand-in whose ``monotonic`` can be pushed forward."""

    def __init__(self) -> None:
        self.offset = 0.0

    def monotonic(self) -> float:
        return time.monotonic() + self.offset

    def __getattr__(self, name):
        return getattr(time, name)


class TestStoreChaseInterruption:
    def test_deadline_stops_a_round_mid_statement(self, monkeypatch):
        base = dense_tc_instance(1)
        with SQLiteStore(":memory:") as reference:
            chase_into_store(DENSE_TC, base, reference, budget=MATERIALIZE_BUDGET)
            want_digest = reference.digest()
            want = dict(reference.stats.counters)
        clock = _ShiftedClock()
        monkeypatch.setattr(engine_module, "time", clock)
        original = SQLiteStore._select
        sigma_fills = []

        def select(self, sql, params=()):
            if not sql.startswith("INSERT INTO temp.repro_sigma"):
                return original(self, sql, params)
            sigma_fills.append("started")
            if len(sigma_fills) == 2:
                # Round 2's first plan: the deadline passes while its
                # single INSERT … SELECT is running.
                clock.offset = 3600.0
            cursor = original(self, sql, params)
            sigma_fills[-1] = "finished"
            return cursor

        monkeypatch.setattr(SQLiteStore, "_select", select)
        budget = ChaseBudget(max_rounds=200, max_atoms=2_000_000, deadline_s=60.0)
        with SQLiteStore(":memory:") as handle:
            cut = chase_into_store(DENSE_TC, base, handle, budget=budget)
            assert sigma_fills == ["finished", "started"]
            assert not cut.terminated and cut.rounds_run == 1
            assert handle.stats.counters["chase.deadline_hit"] == 1
            assert handle.get_meta("storechase.rounds") == "1"
            assert handle.count_in_round(2) == 0
            monkeypatch.undo()
            resumed = resume_store_chase(handle, budget=MATERIALIZE_BUDGET)
            assert resumed.terminated
            assert resumed.digest() == want_digest
            for name in (
                "chase.rounds",
                "chase.matches",
                "chase.atoms_produced",
                "chase.dedup_hits",
            ):
                assert handle.stats.counters[name] == want[name], name
