"""Tests for repro.incremental (delta adds, DRed deletes) and the
store-backed counterpart ``update_store_chase``."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import incremental_update
from repro.chase import ChaseBudget, chase
from repro.logic import Instance, parse_instance, parse_theory
from repro.logic.atoms import Atom
from repro.logic.signature import Predicate
from repro.logic.terms import Constant
from repro.storage import (
    SQLiteStore,
    StoreChaseError,
    chase_into_store,
    content_digest,
    resume_store_chase,
    update_store_chase,
)
from repro.storage.sqlite import fact_key

TC = parse_theory(
    "E(x, y), E(y, z) -> E(x, z)\n"
    "E(x, y) -> exists m. M(x, m)\n"
    "M(x, m) -> H(x)",
    name="tc-exists",
)
PLAIN_TC = parse_theory("E(x, y), E(y, z) -> E(x, z)", name="tc")
BUDGET = ChaseBudget(max_rounds=40, max_atoms=200_000)


def fact(text: str) -> Atom:
    return next(iter(parse_instance(text)))


def scratch_digest(theory, base) -> str:
    run = chase(theory, Instance(sorted(base, key=repr)), budget=BUDGET)
    assert run.terminated
    return content_digest(run.instance)


# ----------------------------------------------------------------------
# In-memory engine
# ----------------------------------------------------------------------
class TestInMemoryUpdates:
    @pytest.mark.parametrize("backend", ["memory", "columnar"])
    def test_addition_matches_scratch(self, backend):
        base = parse_instance("E(a, b). E(b, c).")
        run = chase(TC, base, budget=BUDGET, backend=backend)
        outcome = incremental_update(
            run, add=[fact("E(c, d).")], budget=BUDGET, backend=backend
        )
        assert outcome.changed and outcome.result.terminated
        assert content_digest(outcome.result.instance) == scratch_digest(
            TC, set(base) | {fact("E(c, d).")}
        )

    @pytest.mark.parametrize("backend", ["memory", "columnar"])
    def test_retraction_matches_scratch(self, backend):
        base = parse_instance("E(a, b). E(b, c). E(c, d).")
        run = chase(TC, base, budget=BUDGET, backend=backend)
        outcome = incremental_update(
            run, retract=[fact("E(b, c).")], budget=BUDGET, backend=backend
        )
        assert outcome.result.terminated
        assert content_digest(outcome.result.instance) == scratch_digest(
            TC, set(base) - {fact("E(b, c).")}
        )

    def test_combined_add_retract(self):
        base = parse_instance("E(a, b). E(b, c).")
        run = chase(TC, base, budget=BUDGET)
        outcome = incremental_update(
            run,
            add=[fact("E(c, d)."), fact("E(d, a).")],
            retract=[fact("E(a, b).")],
            budget=BUDGET,
        )
        expected = (set(base) - {fact("E(a, b).")}) | {
            fact("E(c, d)."),
            fact("E(d, a)."),
        }
        assert content_digest(outcome.result.instance) == scratch_digest(TC, expected)

    def test_multi_derivation_fact_survives(self):
        # Q(a) is derivable from both P(a) and R(a); retracting P(a) must
        # over-delete it (single recorded derivation) then bring it back.
        theory = parse_theory("P(x) -> Q(x)\nR(x) -> Q(x)", name="two-roads")
        base = parse_instance("P(a). R(a).")
        run = chase(theory, base, budget=BUDGET)
        outcome = incremental_update(run, retract=[fact("P(a).")], budget=BUDGET)
        assert fact("Q(a).") in outcome.result.instance
        assert content_digest(outcome.result.instance) == scratch_digest(
            theory, {fact("R(a).")}
        )

    def test_cascade_delete(self):
        theory = parse_theory("A(x) -> B(x)\nB(x) -> C(x)", name="chain")
        run = chase(theory, parse_instance("A(a)."), budget=BUDGET)
        outcome = incremental_update(run, retract=[fact("A(a).")], budget=BUDGET)
        assert len(outcome.result.instance) == 0
        assert outcome.overdeleted == 2  # B(a), C(a) beyond the retraction

    def test_base_fact_also_derivable_is_retractable(self):
        # E(a, c) is both base and derivable via transitivity: retracting
        # it must succeed, and the fact reappears as a derived atom.
        base = parse_instance("E(a, b). E(b, c). E(a, c).")
        run = chase(TC, base, budget=BUDGET)
        outcome = incremental_update(run, retract=[fact("E(a, c).")], budget=BUDGET)
        assert fact("E(a, c).") in outcome.result.instance  # re-derived
        assert content_digest(outcome.result.instance) == scratch_digest(
            TC, set(base) - {fact("E(a, c).")}
        )

    def test_noop_keeps_instance_and_counts(self):
        base = parse_instance("E(a, b). E(b, c).")
        run = chase(TC, base, budget=BUDGET)
        outcome = incremental_update(
            run,
            add=[fact("E(a, b).")],  # already base
            retract=[fact("E(x1, x2).")],  # absent
            budget=BUDGET,
        )
        assert not outcome.changed
        assert outcome.result.instance is run.instance
        assert outcome.stats.counters["delta.noops"] == 1

    def test_rejects_unterminated_input(self):
        run = chase(TC, parse_instance("E(a, b). E(b, c)."), budget=ChaseBudget(max_rounds=1))
        assert not run.terminated
        with pytest.raises(ValueError):
            incremental_update(run, add=[fact("E(c, d).")])

    def test_rejects_add_retract_overlap(self):
        run = chase(TC, parse_instance("E(a, b)."), budget=BUDGET)
        with pytest.raises(ValueError):
            incremental_update(
                run, add=[fact("E(c, d).")], retract=[fact("E(c, d).")]
            )

    def test_rejects_derived_retract(self):
        base = parse_instance("E(a, b). E(b, c).")
        run = chase(TC, base, budget=BUDGET)
        with pytest.raises(ValueError, match="derived"):
            incremental_update(run, retract=[fact("E(a, c).")])  # derived only

    def test_universal_heads_refuse_retraction_allow_addition(self):
        theory = parse_theory("P(x) -> Q(x, y)", name="universal-head")
        run = chase(theory, parse_instance("P(a)."), budget=BUDGET)
        with pytest.raises(ValueError, match="universal head"):
            incremental_update(run, retract=[fact("P(a).")])
        outcome = incremental_update(run, add=[fact("P(b).")], budget=BUDGET)
        assert content_digest(outcome.result.instance) == scratch_digest(
            theory, {fact("P(a)."), fact("P(b).")}
        )

    def test_telemetry_counters(self):
        base = parse_instance("E(a, b). E(b, c). E(c, d).")
        run = chase(TC, base, budget=BUDGET)
        outcome = incremental_update(
            run, add=[fact("E(d, e).")], retract=[fact("E(a, b).")], budget=BUDGET
        )
        counters = outcome.stats.counters
        assert counters["delta.updates"] == 1
        assert counters["delta.added_base"] == 1
        assert counters["delta.retracted_base"] == 1
        assert counters["delta.rounds"] >= 1
        assert "delta" in outcome.stats.phases


# ----------------------------------------------------------------------
# Property-based equivalence: maintained == from-scratch, every step
# ----------------------------------------------------------------------
E = Predicate("E", 2)
consts = st.integers(min_value=0, max_value=6).map(lambda i: Constant(f"c{i}"))
edges = st.tuples(consts, consts).map(lambda pair: Atom(E, pair))
bases = st.lists(edges, min_size=2, max_size=8).map(
    lambda facts: sorted(set(facts), key=repr)
)
scripts = st.lists(
    st.tuples(st.sampled_from(["add", "retract"]), st.lists(edges, min_size=1, max_size=3)),
    min_size=1,
    max_size=4,
)


def _step(op, facts, current):
    """Normalize one script step against the current base."""
    if op == "add":
        return list(facts), []
    hits = [item for item in facts if item in current]
    if not hits and current:
        hits = sorted(current, key=repr)[:1]
    return [], hits


class TestPropertyEquivalence:
    @pytest.mark.parametrize("backend", ["memory", "columnar"])
    @settings(max_examples=15, deadline=None)
    @given(base=bases, script=scripts)
    def test_engine_updates_match_scratch(self, backend, base, script):
        result = chase(TC, Instance(base), budget=BUDGET, backend=backend)
        current = set(base)
        for op, facts in script:
            add, retract = _step(op, facts, current)
            outcome = incremental_update(
                result, add=add, retract=retract, budget=BUDGET, backend=backend
            )
            result = outcome.result
            current = (current - set(retract)) | set(add)
            assert result.terminated
            assert content_digest(result.instance) == scratch_digest(TC, current)

    @settings(max_examples=10, deadline=None)
    @given(base=bases, script=scripts)
    def test_store_updates_match_scratch(self, base, script):
        with SQLiteStore(":memory:") as store:
            chase_into_store(TC, Instance(base), store, budget=BUDGET)
            current = set(base)
            for op, facts in script:
                add, retract = _step(op, facts, current)
                update_store_chase(store, TC, add=add, retract=retract, budget=BUDGET)
                current = (current - set(retract)) | set(add)
                assert store.digest() == scratch_digest(TC, current)


# ----------------------------------------------------------------------
# Store-backed updates
# ----------------------------------------------------------------------
class TestStoreUpdates:
    def test_round_trip_add_retract(self):
        base = parse_instance("E(a, b). E(b, c).")
        with SQLiteStore(":memory:") as store:
            chase_into_store(TC, base, store, budget=BUDGET)
            update_store_chase(store, TC, add=[fact("E(c, d).")], budget=BUDGET)
            assert store.digest() == scratch_digest(
                TC, set(base) | {fact("E(c, d).")}
            )
            update_store_chase(store, TC, retract=[fact("E(b, c).")], budget=BUDGET)
            assert store.digest() == scratch_digest(
                TC, (set(base) | {fact("E(c, d).")}) - {fact("E(b, c).")}
            )

    def test_rejects_derived_retract(self):
        with SQLiteStore(":memory:") as store:
            chase_into_store(TC, parse_instance("E(a, b). E(b, c)."), store, budget=BUDGET)
            with pytest.raises(ValueError, match="derived"):
                update_store_chase(store, TC, retract=[fact("E(a, c).")])

    def test_base_facts_never_gain_supports(self):
        # E(a, c) is base AND re-derivable: the support recorder must
        # keep it support-free so the DRed cascade cannot delete it.
        base = parse_instance("E(a, b). E(b, c). E(a, c). E(c, d).")
        with SQLiteStore(":memory:") as store:
            chase_into_store(TC, base, store, budget=BUDGET)
            update_store_chase(store, TC, retract=[fact("E(a, b).")], budget=BUDGET)
            assert fact("E(a, c).") in store
            assert store.digest() == scratch_digest(
                TC, set(base) - {fact("E(a, b).")}
            )

    def test_promoted_fact_survives_parent_retraction(self):
        # Adding an already-derived fact promotes it to base: it must
        # survive the retraction of the facts that once derived it.
        base = parse_instance("E(a, b). E(b, c).")
        with SQLiteStore(":memory:") as store:
            chase_into_store(TC, base, store, budget=BUDGET)
            update_store_chase(store, TC, add=[fact("E(a, c).")], budget=BUDGET)
            update_store_chase(store, TC, retract=[fact("E(a, b).")], budget=BUDGET)
            assert fact("E(a, c).") in store
            assert store.digest() == scratch_digest(
                TC, {fact("E(b, c)."), fact("E(a, c).")}
            )

    def test_universal_heads_refuse_retraction_allow_addition(self):
        theory = parse_theory(
            "P(x) -> Q(x, y)\nQ(x, y), E(y, z) -> S(x)", name="universal-head"
        )
        base = {fact("P(a)."), fact("E(a, b).")}
        with SQLiteStore(":memory:") as store:
            chase_into_store(theory, Instance(sorted(base, key=repr)), store, budget=BUDGET)
            epoch = int(store.get_meta("storechase.rounds")) + 1
            added = {fact("P(c)."), fact("E(c, d).")}
            update_store_chase(store, theory, add=sorted(added, key=repr), budget=BUDGET)
            assert store.digest() == scratch_digest(theory, base | added)
            # The added facts' new terms entered the domain at the epoch.
            rounds = {
                store.display_of(term_id): round_
                for term_id, round_ in store.connection.execute(
                    "SELECT id, round FROM repro_domain"
                )
            }
            assert rounds == {"a": 0, "b": 0, "c": epoch, "d": epoch}
            digest = store.digest()
            meta = store.get_meta("storechase.rounds")
            with pytest.raises(ValueError, match="universal head"):
                update_store_chase(
                    store, theory, add=[fact("P(e).")], retract=[fact("P(a).")]
                )
            assert store.digest() == digest
            assert store.get_meta("storechase.rounds") == meta
            assert fact("P(e).") not in store

    def test_refuses_pre_supports_databases(self):
        with SQLiteStore(":memory:") as store:
            chase_into_store(TC, parse_instance("E(a, b)."), store, budget=BUDGET)
            store.set_meta("storechase.supports", "0")
            with pytest.raises(StoreChaseError, match="support"):
                update_store_chase(store, TC, retract=[fact("E(a, b).")])

    def test_pending_repair_blocks_resume_and_is_finished_by_update(self):
        # A crash between the deletion transaction and the re-derive
        # rounds leaves storechase.repair set; resume must refuse and a
        # plain update call must finish the repair.
        base = parse_instance("E(a, b). E(b, c).")
        with SQLiteStore(":memory:") as store:
            chase_into_store(TC, base, store, budget=BUDGET)
            digest = store.digest()
            store.set_meta("storechase.repair", "1")
            with pytest.raises(StoreChaseError, match="interrupted incremental"):
                resume_store_chase(store, TC, budget=BUDGET)
            result = update_store_chase(store, TC, budget=BUDGET)
            assert result.terminated
            assert store.get_meta("storechase.repair") == "0"
            assert store.digest() == digest

    def test_noop_update(self):
        with SQLiteStore(":memory:") as store:
            chase_into_store(TC, parse_instance("E(a, b)."), store, budget=BUDGET)
            digest = store.digest()
            result = update_store_chase(
                store, TC, add=[fact("E(a, b).")], retract=[fact("E(x1, x2).")]
            )
            assert store.digest() == digest
            assert store.stats.counters["delta.noops"] >= 1
            assert result.terminated

    def test_counters_and_supports_accounting(self):
        base = parse_instance("E(a, b). E(b, c). E(c, d).")
        with SQLiteStore(":memory:") as store:
            chase_into_store(TC, base, store, budget=BUDGET)
            assert store.support_count() > 0
            update_store_chase(store, TC, retract=[fact("E(a, b).")], budget=BUDGET)
            counters = store.stats.counters
            assert counters["delta.updates"] == 1
            assert counters["delta.retracted_base"] == 1
            assert counters["delta.overdeleted"] >= 1
            assert counters["delta.rounds"] >= 1


class TestStoreSupportEdges:
    """``repro_supports`` holds one derivation per genuinely new fact."""

    @staticmethod
    def _graph(nodes: int = 24, chords: int = 48) -> Instance:
        rng = random.Random("supports")
        names = [f"n{index}" for index in range(nodes)]
        rng.shuffle(names)
        pairs = {(names[i], names[(i + 1) % nodes]) for i in range(nodes)}
        while len(pairs) < nodes + chords:
            pairs.add((rng.choice(names), rng.choice(names)))
        return Instance([Atom(E, (Constant(a), Constant(b))) for a, b in sorted(pairs)])

    def test_support_edges_ignore_batch_size(self):
        base = self._graph()
        counts = []
        for batch_size in (4, 4096):
            with SQLiteStore(":memory:", batch_size=batch_size) as store:
                chase_into_store(PLAIN_TC, base, store, budget=BUDGET)
                produced = store.stats.counters["chase.atoms_produced"]
                counts.append(store.support_count())
                # TC: each new fact records its two body atoms.
                assert store.support_count() == 2 * produced
                retracted = sorted(base, key=repr)[0]
                update_store_chase(store, PLAIN_TC, retract=[retracted], budget=BUDGET)
                assert store.digest() == scratch_digest(
                    PLAIN_TC, set(base) - {retracted}
                )
        assert counts[0] == counts[1]

    def test_rederived_counts_cone_members_that_came_back(self):
        # x -> w -> y gives E(x, y) a second derivation, so retracting
        # the base edge E(x, y) over-deletes E(x, z) and both return.
        base = parse_instance("E(x, y). E(y, z). E(x, w). E(w, y).")
        with SQLiteStore(":memory:") as store:
            chase_into_store(PLAIN_TC, base, store, budget=BUDGET)
            retracted = fact("E(x, y).")
            cone = {fact_key(E, tuple(store.term_id(t) for t in retracted.args))}
            frontier = set(cone)
            while frontier:
                frontier = store.support_children(frontier) - cone
                cone |= frontier
            update_store_chase(store, PLAIN_TC, retract=[retracted], budget=BUDGET)
            present = {
                fact_key(item.predicate, tuple(store.term_id(t) for t in item.args))
                for item in store
            }
            counters = store.stats.counters
            assert counters["delta.overdeleted"] == len(cone) - 1
            assert counters["delta.rederived"] == len(cone & present) > 0
