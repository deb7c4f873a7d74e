"""The store-backed chase: semi-naive rounds evaluated *inside* SQLite.

:func:`repro.chase.engine.chase` materializes every round in RAM, which
caps the reachable instance size at available memory.  This module runs
the same semi-oblivious Skolem chase (Definition 6) with the facts living
only in a :class:`~repro.storage.sqlite.SQLiteStore`:

* each rule body is compiled (per round) into SELECT-joins by
  :func:`~repro.storage.sqlcompile.build_select`, with per-alias *round
  bounds* implementing semi-naive evaluation — one plan per pivot atom,
  the pivot pinned to the delta round ``r-1``, atoms before it to
  strictly older rounds, atoms after it to ``<= r-1`` (so each
  delta-touching sigma is enumerated exactly once, and facts inserted
  mid-round — tagged ``r`` — are invisible to the round's own joins,
  preserving Definition 6's round semantics);
* each plan runs **set-at-a-time**: one ``INSERT … SELECT`` fills a
  temp sigma table with the plan's triggers (term-id rows), one
  ``INSERT … SELECT`` per head atom records the support edges of the
  genuinely new facts (one derivation each: the first sigma row), and
  one ``INSERT OR IGNORE … SELECT`` per head atom writes the facts.
  Sigma rows never enter Python; only a Skolem head's distinct argument
  tuples do, once per plan, to be interned from child ids
  (:meth:`~repro.storage.sqlite.SQLiteStore.intern_function`) into a
  temp map the head insert joins.  No ``Term`` or ``Atom`` objects exist
  for the facts themselves; the working set is one plan's sigma table
  in SQLite's (in-memory) temp store, not the instance;
* the chase state (theory, completed rounds, termination) is persisted
  in the store's meta table after every round, so a budget-stopped run
  is resumable from disk — by Observation 8 and Skolem-naming
  determinism the continuation is exact, not approximate;
* each round commits **atomically**: the round's fact rows and the
  updated ``storechase.*`` state land in one SQLite transaction, so a
  process killed at *any* instant (even ``SIGKILL`` mid-insert) leaves
  the database at the last complete round and
  :func:`resume_store_chase` continues exactly — see
  ``docs/robustness.md``.  Deadlines (``ChaseBudget.deadline_s``) and
  :class:`~repro.chase.engine.CancellationToken` are honoured at rule
  boundaries and, through a SQLite progress handler, inside a single
  long statement; an interrupted round is rolled back, never
  half-applied.

Rules with *universal head variables* (the ``T_d`` style ``true ->
exists z. R(x, z)`` rules, whose head ranges over the active domain)
join the ``repro_domain`` relation, one alias per universal variable.
When some rule needs it, each round first adds the term ids of the
previous round's facts to it, tagged with the round they first
appeared in, so a domain alias takes round bounds like a body atom.
"""

from __future__ import annotations

import json
import os
import signal
import sqlite3
import time
from dataclasses import dataclass

from .. import faults
from ..chase.engine import (
    CancellationToken,
    ChaseBudget,
    ChaseBudgetExceeded,
    _RoundInterrupt,
    _RunControl,
    note_interruption,
)
from ..chase.skolem import skolemize
from ..incremental import _check_retraction_supported
from ..logic.instance import Instance
from ..logic.terms import Constant, FunctionTerm, Variable
from ..logic.tgd import Theory
from ..telemetry import Telemetry
from .sqlcompile import DOMAIN_TABLE, DomainAtom, build_select
from .sqlite import SQLiteStore, fact_key, parse_fact_key

STORE_CHASE_SCHEMA = "repro-storechase/1"


class StoreChaseError(RuntimeError):
    """The store chase cannot run: inconsistent or foreign store state."""


@dataclass
class StoreChaseResult:
    """Outcome of a store-backed chase (facts stay in the store).

    Mirrors :class:`~repro.chase.engine.ChaseResult` where it can:
    ``rounds_run`` counts completed productive rounds, ``terminated``
    reports the fixpoint, ``stats`` carries the telemetry (``chase.*``
    round counters plus the store's ``store.*`` counters — the store
    chase shares the store's collector).  The instance itself is *not*
    materialized; call :meth:`to_instance` (or query via
    :mod:`repro.storage.sqlcompile`) when you really want the atoms.
    """

    store: SQLiteStore
    rounds_run: int
    terminated: bool
    atom_count: int
    stats: Telemetry

    def to_instance(self) -> Instance:
        return self.store.to_instance()

    def digest(self) -> str:
        return self.store.digest()


# How many SQLite VM instructions pass between deadline/cancellation
# polls while a single round statement runs.
_PROGRESS_STEPS = 10_000


# Scratch tables in SQLite's temp schema, named by their widths: a rule
# plan's sigma rows (body variables in ``var_order``, one row per
# trigger) and the Skolem-term ids interned for them (one row per
# distinct frontier tuple, one id column per functor).  Each use clears
# them first, so rows left by an earlier plan never leak into the next.
def _sigma_table(width: int) -> str:
    return f"temp.repro_sigma_{width}"


def _fmap_table(rule: "_StoreRule") -> str:
    return f"temp.repro_skolem_{len(rule.frontier)}_{len(rule.functors)}"


def _key_sql(predicate, pieces: "list[str]") -> "tuple[str, str]":
    """A :func:`fact_key` built in SQL from id expressions: ``(sql, prefix)``.

    The SQL reads ``? || a || ',' || b``; its one parameter is the
    ``name/arity:`` prefix.
    """
    sql = "?" if not pieces else "? || " + " || ',' || ".join(pieces)
    return sql, f"{predicate.name}/{predicate.arity}:"


class _StoreRule:
    """A rule compiled for set-at-a-time application against a store.

    A sigma row holds the body variables, then the ``universal`` head
    variables (each ranging over the domain relation), in ``var_order``
    (at least one column: a variable-free body yields the constant
    ``1``).  Each head atom keeps one SQL expression per argument: a
    sigma column ``s.v<i>``, a Skolem-map column ``f.id<j>`` (the j-th of
    ``functors``, applied to the ``frontier`` columns) or a constant's
    term id.
    """

    def __init__(self, rule, store: SQLiteStore) -> None:
        skolemized = skolemize(rule)
        self.body = tuple(rule.body)
        self.universal = tuple(
            sorted(rule.universal_head_variables(), key=lambda var: var.name)
        )
        var_order: list[Variable] = []
        for item in self.body:
            for term in item.args:
                if isinstance(term, Variable) and term not in var_order:
                    var_order.append(term)
        self.var_order = tuple(var_order) + self.universal
        # The SQL body: the rule body plus one ``dom(u)`` per universal u.
        self.sql_body = self.body + tuple(DomainAtom(var) for var in self.universal)
        self.width = max(1, len(self.var_order))
        index_of = {var: i for i, var in enumerate(self.var_order)}
        # Every Skolem term of a rule ranges over the same frontier.
        self.frontier = tuple(index_of[var] for var in skolemized.frontier_order)
        self.functors: "list[str]" = []
        self.head_specs: list[tuple] = []
        for item in skolemized.head:
            slots: list[str] = []
            for term in item.args:
                if isinstance(term, Variable):
                    slots.append(f"s.v{index_of[term]}")
                elif isinstance(term, FunctionTerm):
                    if term.functor not in self.functors:
                        self.functors.append(term.functor)
                    slots.append(f"f.id{self.functors.index(term.functor)}")
                elif isinstance(term, Constant):
                    slots.append(str(store.intern_term(term)))
                else:  # pragma: no cover - the parser admits nothing else
                    raise StoreChaseError(f"unsupported head term {term!r}")
            self.head_specs.append((item.predicate, slots))
        # The body image of a sigma row as fact-key SQL, one per body
        # atom: the parents of the (child, parent) support edges that
        # ``update_store_chase`` walks to over-delete a retraction's cone.
        # Domain aliases are no facts, so they record no edge.
        self.parent_key_sql = [
            _key_sql(
                item.predicate,
                [
                    f"s.v{index_of[term]}"
                    if isinstance(term, Variable)
                    else str(store.intern_term(term))
                    for term in item.args
                ],
            )
            for item in self.body
        ]

    def round_plans(self, round_number: int, full_pass: bool) -> "list[list]":
        """The per-alias round bounds to evaluate this round's matches.

        A full pass is one plan over every fact of earlier rounds (round
        1 reads the base, everything at round 0).  Other rounds get one
        semi-naive plan per body pivot, its domain aliases over the whole
        domain, then one per domain pivot over the whole body: the
        engine's split between body-delta matches and matches that grab
        a term new to the domain.
        """
        last = round_number - 1
        width, count = len(self.body), len(self.universal)
        if full_pass:
            return [[("le", last)] * (width + count)]

        def pivots(size: int) -> "list[list]":
            return [
                [("lt", last)] * pivot
                + [("eq", last)]
                + [("le", last)] * (size - pivot - 1)
                for pivot in range(size)
            ]

        return [plan + [("le", last)] * count for plan in pivots(width)] + [
            [("le", last)] * width + plan for plan in pivots(count)
        ]

    def fill_sigma(self, store: SQLiteStore, bounds) -> int:
        """Replace the sigma table with one plan's triggers; returns their count.

        ``bounds`` is ``None`` for a rule with neither body nor universal
        variables, whose one trigger is the empty substitution.
        """
        sigma = _sigma_table(self.width)
        store._select(f"DELETE FROM {sigma}")
        if bounds is None:
            sql, params = "SELECT 1", ()
        else:
            compiled = build_select(
                self.sql_body, self.var_order, store, round_bounds=bounds, distinct=False
            )
            if compiled is None:
                return 0  # a body predicate has no fact table yet
            sql, params = compiled.sql, compiled.params
        return store._guarded(
            lambda: store._select(f"INSERT INTO {sigma} {sql}", params)
        ).rowcount

    def intern_skolems(self, store: SQLiteStore) -> None:
        """Intern the Skolem terms of the sigma rows into the temp map.

        The distinct frontier tuples are read once and each functor is
        applied with :meth:`~repro.storage.sqlite.SQLiteStore.intern_function`,
        so the terms (and ``store.terms_interned``) are exactly those a
        row-at-a-time pass would intern.
        """
        fmap = _fmap_table(self)
        store._select(f"DELETE FROM {fmap}")
        if self.frontier:
            columns = ", ".join(f"v{i}" for i in self.frontier)
            args = store._select(
                f"SELECT DISTINCT {columns} FROM {_sigma_table(self.width)}"
            ).fetchall()
        else:
            args = [()]
        rows = [
            ids + tuple(store.intern_function(f, ids) for f in self.functors)
            for ids in args
        ]
        marks = ", ".join("?" for _ in range(len(self.frontier) + len(self.functors)))
        store.connection.executemany(f"INSERT INTO {fmap} VALUES ({marks})", rows)

    def apply_head(
        self, store: SQLiteStore, predicate, columns: "list[str]", round_number: int
    ) -> int:
        """Record supports for, then insert, one head atom's images.

        The support edges go in first: each head image absent from the
        fact table gets the body image of its first sigma row as parents,
        so every genuinely new fact has exactly one recorded derivation
        and facts that already exist gain none — a base fact with edges
        would look derived, and a retraction's cascade could delete it.
        Returns how many facts were new.
        """
        table = store.table_for(predicate, create=True)
        # The head images: sigma rows ``s`` joined to the Skolem map ``f``.
        source = f"{_sigma_table(self.width)} AS s"
        if self.functors:
            on = " AND ".join(f"f.k{k} = s.v{i}" for k, i in enumerate(self.frontier))
            source += f" JOIN {_fmap_table(self)} AS f" + (f" ON {on}" if on else "")
        if self.body:
            names = [f"c{i}" for i in range(len(columns))]
            child, child_prefix = _key_sql(predicate, [f"h.{n}" for n in names])
            image = "".join(f", {c} AS {n}" for c, n in zip(columns, names))
            grouped = f" GROUP BY {', '.join(names)}" if names else ""
            absent = "".join(
                f"{' AND' if i else ' WHERE'} a{i} = g.{n}"
                for i, n in enumerate(names)
            )
            branches = " UNION ALL ".join(
                f"SELECT {child}, {parent} FROM h "
                f"JOIN {_sigma_table(self.width)} AS s ON s.rowid = h.first"
                for parent, _ in self.parent_key_sql
            )
            params = []
            for _, parent_prefix in self.parent_key_sql:
                params += [child_prefix, parent_prefix]
            store._guarded(
                lambda: store._select(
                    "INSERT OR IGNORE INTO repro_supports (child, parent) "
                    "WITH h AS (SELECT * FROM (SELECT MIN(s.rowid) AS first"
                    f"{image} FROM {source}{grouped}) AS g "
                    f"WHERE NOT EXISTS (SELECT 1 FROM {table}{absent})) {branches}",
                    tuple(params),
                )
            )
        if predicate.arity:
            target = ", ".join(f"a{i}" for i in range(predicate.arity))
            values = ", ".join(columns)
        else:
            target, values = "present", "1"
        return store._guarded(
            lambda: store._select(
                f"INSERT OR IGNORE INTO {table} ({target}, round) "
                f"SELECT {values}, ? FROM {source}",
                (round_number,),
            )
        ).rowcount


def _create_scratch(store: SQLiteStore, prepared: "list[_StoreRule]") -> None:
    """Create the tables the rules need: temp sigma and Skolem-map
    tables, and the persistent domain relation for universal variables.

    Called once per run, before its first round: a rolled-back round
    (which may drop them again) always ends the run.
    """
    if any(rule.universal for rule in prepared):
        store._select(
            f"CREATE TABLE IF NOT EXISTS {DOMAIN_TABLE} "
            "(id INTEGER PRIMARY KEY, round INTEGER NOT NULL)"
        )
        store._select(
            f"CREATE INDEX IF NOT EXISTS ix_{DOMAIN_TABLE}_round "
            f"ON {DOMAIN_TABLE} (round)"
        )
    for width in {rule.width for rule in prepared}:
        columns = ", ".join(f"v{i} INTEGER" for i in range(width))
        store._select(f"CREATE TABLE IF NOT EXISTS {_sigma_table(width)} ({columns})")
    for rule in {_fmap_table(r): r for r in prepared if r.functors}.values():
        keys = [f"k{k}" for k in range(len(rule.frontier))]
        ids = [f"id{j}" for j in range(len(rule.functors))]
        columns = ", ".join(f"{name} INTEGER" for name in keys + ids)
        primary = f", PRIMARY KEY ({', '.join(keys)})" if keys else ""
        store._select(
            f"CREATE TABLE IF NOT EXISTS {_fmap_table(rule)} ({columns}{primary})"
        )


def _theory_text(theory: Theory) -> str:
    """Canonical rule text for state matching: reprs only, no name header.

    ``repr(rule)`` carries no labels, so a theory reparsed from this text
    (labels regenerated) serializes back to the same string — resume
    matching survives the round-trip.
    """
    return "\n".join(repr(rule) for rule in theory) + "\n"


def _persist_state(
    store: SQLiteStore,
    rounds: int,
    terminated: bool,
    stats: Telemetry,
    commit: bool = True,
) -> None:
    store.set_meta("storechase.rounds", str(rounds), commit=False)
    store.set_meta("storechase.terminated", "1" if terminated else "0", commit=False)
    store.set_meta("storechase.stats", json.dumps(stats.as_dict()), commit=False)
    if commit:
        store.commit()


def _maybe_kill(name: str, round_: int) -> None:
    """Fault hook: die without ceremony, as a crashed process would.

    ``storechase.kill`` fires just before the round commit,
    ``storechase.kill_midround`` during row inserts — both must leave a
    database that resumes to the exact fixpoint (the chaos suite checks
    digests and counters across the kill).
    """
    if faults.active() and faults.fire(name, round_):
        os.kill(os.getpid(), signal.SIGKILL)


def _extend_domain(store: SQLiteStore, round_: int) -> None:
    """Add the term ids of the facts tagged ``round_`` to the domain.

    ``INSERT OR IGNORE`` keeps a term's first round, so the relation's
    ``round`` column is the round the term entered the active domain.
    """
    for predicate, table in store._tables.items():
        for position in range(predicate.arity):
            store._select(
                f"INSERT OR IGNORE INTO {DOMAIN_TABLE} (id, round) "
                f"SELECT a{position}, round FROM {table} WHERE round = ?",
                (round_,),
            )


def _execute_round(
    store: SQLiteStore,
    prepared: "list[_StoreRule]",
    round_number: int,
    control: "_RunControl | None",
    full_pass: bool,
) -> "tuple[int, int, int]":
    """One store round, evaluated set-at-a-time inside SQLite.

    Returns ``(matches, produced_rows, inserted)``.  When a rule has
    universal variables, the previous round's terms first join the
    domain relation.  Each rule plan fills
    the temp sigma table with one ``INSERT … SELECT``; when it is
    non-empty, its Skolem terms are interned and each head atom records
    its support edges and inserts its facts (tagged ``round_number``)
    with one statement apiece — the sigma rows never enter Python.  The
    supports are the provenance :func:`update_store_chase` walks for
    DRed over-deletion; every statement rides the round's transaction.

    ``full_pass`` replaces the semi-naive pivots by one full-width plan
    per rule and fires the rules with neither body nor universal
    variables (round 1, and the re-derive round after a retraction).
    Raises
    :class:`~repro.chase.engine._RoundInterrupt` on deadline or
    cancellation, leaving the partial round uncommitted.
    """
    counters = store.stats.counters
    matches = 0
    produced_rows = 0
    inserted = 0
    connection = store.connection
    if control is not None:
        # Lets a deadline or cancellation stop a single long statement.
        connection.set_progress_handler(
            lambda: control.interruption() is not None, _PROGRESS_STEPS
        )
    try:
        if any(rule.universal for rule in prepared):
            _extend_domain(store, round_number - 1)
        for rule in prepared:
            if control is not None:
                reason = control.interruption()
                if reason is not None:
                    raise _RoundInterrupt(reason)
            if rule.sql_body:
                plans = rule.round_plans(round_number, full_pass)
            elif full_pass:
                # Rules with no SQL body at all (the head is ground after
                # skolemization) fire exactly once.
                plans = [None]
            else:
                continue
            for bounds in plans:
                found = rule.fill_sigma(store, bounds)
                if not found:
                    continue
                matches += found
                if rule.functors:
                    rule.intern_skolems(store)
                for predicate, columns in rule.head_specs:
                    produced_rows += found
                    counters["store.writes"] += found
                    inserted += rule.apply_head(store, predicate, columns, round_number)
                _maybe_kill("storechase.kill_midround", round_number)
    except sqlite3.OperationalError as error:
        # Deadlines and cancellations stay fired, so polling again
        # recovers the reason the progress handler stopped for.
        reason = control.interruption() if control is not None else None
        if reason is None or "interrupted" not in str(error):
            raise
        raise _RoundInterrupt(reason) from None
    finally:
        if control is not None:
            connection.set_progress_handler(None, 0)
    return matches, produced_rows, inserted


def _run_rounds(
    store: SQLiteStore,
    prepared: "list[_StoreRule]",
    rounds_run: int,
    total: int,
    budget: ChaseBudget,
    cancel: "CancellationToken | None",
    repair: bool = False,
    delta: bool = False,
) -> "tuple[int, bool, int]":
    """Chase rounds after ``rounds_run`` until a fixpoint or a budget stop.

    Round 1 — and with ``repair`` the first round of this call, which
    then clears the ``storechase.repair`` marker — is one full-width
    pass; later rounds use the semi-naive pivots.  ``delta`` also counts
    each completed round under ``delta.rounds``.  Each round's facts and
    the updated ``storechase.*`` state commit as one transaction; an
    interrupted round is rolled back.  Returns ``(rounds_run,
    terminated, total)``.
    """
    stats = store.stats
    counters = stats.counters
    control = _RunControl.start(budget, cancel)
    interrupted: "str | None" = None
    terminated = False
    _create_scratch(store, prepared)
    for _ in range(budget.max_rounds):
        if control is not None:
            reason = control.interruption()
            if reason is not None:
                interrupted = reason
                break
        round_number = rounds_run + 1
        round_started = time.perf_counter()
        terms_before = counters["store.terms_interned"]
        try:
            matches, produced_rows, inserted = _execute_round(
                store, prepared, round_number, control, round_number == 1 or repair
            )
        except _RoundInterrupt as stop:
            # Abandon the round wholesale: rows inserted so far are
            # rolled back, so disk holds exactly the last complete
            # round (Observation 8 makes the re-run exact).
            store.rollback()
            stats.record_round(
                round=round_number,
                aborted=True,
                total_atoms=total,
                seconds=round(time.perf_counter() - round_started, 6),
            )
            interrupted = stop.reason
            break
        total += inserted
        dedup_hits = produced_rows - inserted
        counters["chase.rounds"] += 1
        counters["chase.matches"] += matches
        counters["chase.atoms_produced"] += inserted
        counters["chase.dedup_hits"] += dedup_hits
        if delta:
            counters["delta.rounds"] += 1
        if inserted:
            rounds_run = round_number
        else:
            terminated = True
        stats.record_round(
            round=round_number,
            matches=matches,
            atoms_produced=inserted,
            dedup_hits=dedup_hits,
            new_terms=counters["store.terms_interned"] - terms_before,
            total_atoms=total,
            seconds=round(time.perf_counter() - round_started, 6),
        )
        if repair:
            # The closure is whole again from here on; a crash in a
            # later round resumes like any suspended chase.
            store.set_meta("storechase.repair", "0", commit=False)
            repair = False
        # The round's facts and the updated chase state commit as ONE
        # transaction — the SIGKILL-atomicity the chaos suite pins.
        _persist_state(store, rounds_run, terminated, stats, commit=False)
        _maybe_kill("storechase.kill", round_number)
        store.commit()
        if terminated:
            break
        if total > budget.max_atoms:
            if budget.on_exceeded == "raise":
                raise ChaseBudgetExceeded(
                    f"store chase exceeded {budget.max_atoms} atoms after "
                    f"{rounds_run} rounds"
                )
            break
    if interrupted is not None:
        note_interruption(stats, interrupted, budget, rounds_run)
    return rounds_run, terminated, total


def chase_into_store(
    theory: Theory,
    base: "Instance | None",
    store: SQLiteStore,
    budget: "ChaseBudget | None" = None,
    cancel: "CancellationToken | None" = None,
) -> StoreChaseResult:
    """Run (or continue) the Skolem chase with facts living in ``store``.

    A fresh store gets ``base`` loaded as round 0 and chased from there;
    a store already carrying store-chase state *resumes* where it
    stopped (``base`` must then be ``None`` — the persisted round 0 is
    the base) for up to ``budget.max_rounds`` *further* rounds.  The
    persisted theory must match ``theory`` rule-for-rule; state is
    written after every round, so even a killed process resumes
    round-exactly.

    Raises :class:`StoreChaseError` for mismatched resume state or a
    non-empty store with no chase state.  Budget overruns — including
    ``budget.deadline_s`` and a fired ``cancel`` token — follow
    ``budget.on_exceeded``; either way the store holds the last
    *complete* round and can be resumed.
    """
    budget = budget if budget is not None else ChaseBudget()
    stats = store.stats
    counters = stats.counters
    theory_text = _theory_text(theory)

    schema = store.get_meta("storechase.schema")
    if schema is not None:
        if schema != STORE_CHASE_SCHEMA:
            raise StoreChaseError(f"unsupported store-chase schema {schema!r}")
        persisted = store.get_meta("storechase.theory", "")
        if persisted != theory_text:
            raise StoreChaseError(
                "store was chased under a different theory; refusing to mix"
            )
        if base is not None:
            raise StoreChaseError(
                "resuming a store chase: base is already persisted, pass None"
            )
        if store.get_meta("storechase.repair") == "1":
            raise StoreChaseError(
                "store holds an interrupted incremental update (the "
                "deletion cone is applied but not yet re-derived); finish "
                "it with repro.incremental.update_store_chase"
            )
        rounds_run = int(store.get_meta("storechase.rounds", "0"))
        terminated = store.get_meta("storechase.terminated") == "1"
        # Remove debris from a crashed round: the per-round transaction
        # makes this a no-op in practice, but resume stays idempotent
        # even against databases written by older layouts.
        store.delete_rounds_above(rounds_run)
        total = len(store)
        # A fresh connection starts with an empty collector; fold the
        # persisted snapshot back in so a suspended-and-resumed chase
        # reports the same counters and per-round records as one
        # uninterrupted run.  A same-connection resume already holds them
        # live (chase.rounds > 0) and must not double-count.
        if counters["chase.rounds"] == 0:
            persisted_stats = store.get_meta("storechase.stats")
            if persisted_stats:
                stats.merge(Telemetry.from_dict(json.loads(persisted_stats)))
        if terminated:
            return StoreChaseResult(store, rounds_run, True, total, stats)
    else:
        if len(store):
            raise StoreChaseError(
                "store holds facts but no store-chase state; start from an "
                "empty store (or resume one this module wrote)"
            )
        # Base facts and the initial state markers land in ONE
        # transaction: a crash during setup leaves either a fully
        # initialised store or an untouched one, never facts without
        # ``storechase.*`` state.
        if base is not None:
            for item in base:
                store.buffer(item, round_=0)
            store._flush_pending()
        store.set_meta("storechase.schema", STORE_CHASE_SCHEMA, commit=False)
        store.set_meta("storechase.theory", theory_text, commit=False)
        # Marks that every derived fact in this store carries support
        # edges — the precondition for retractions in
        # ``update_store_chase`` (databases written before the supports
        # table existed resume fine but cannot be retracted from).
        store.set_meta("storechase.supports", "1", commit=False)
        rounds_run = 0
        terminated = False
        _persist_state(store, rounds_run, terminated, stats, commit=False)
        store.commit()
        total = len(store)

    prepared = [_StoreRule(rule, store) for rule in theory]
    with stats.timer("chase"):
        rounds_run, terminated, total = _run_rounds(
            store, prepared, rounds_run, total, budget, cancel
        )

    return StoreChaseResult(
        store=store,
        rounds_run=rounds_run,
        terminated=terminated,
        atom_count=total,
        stats=stats,
    )


def resume_store_chase(
    store: SQLiteStore,
    theory: "Theory | None" = None,
    budget: "ChaseBudget | None" = None,
    cancel: "CancellationToken | None" = None,
) -> StoreChaseResult:
    """Continue a persisted store chase (``theory`` defaults to the stored one)."""
    if store.get_meta("storechase.schema") is None:
        raise StoreChaseError(f"{store!r} holds no store-chase state")
    if theory is None:
        from ..logic.parser import parse_theory

        theory = parse_theory(
            store.get_meta("storechase.theory", ""), name="storechase"
        )
    return chase_into_store(theory, None, store, budget=budget, cancel=cancel)


def _encode_existing(store: SQLiteStore, item) -> "tuple[int, ...] | None":
    """Term-id row for an atom, or ``None`` if any term is unknown."""
    ids = []
    for term in item.args:
        term_id = store.term_id(term)
        if term_id is None:
            return None
        ids.append(term_id)
    return tuple(ids)


def _count_present(store: SQLiteStore, keys: "set[str]") -> int:
    """How many of the given fact keys name rows in the store.

    One set query per predicate: the keys' ids go into a temp table that
    is joined against the fact table.
    """
    by_predicate: "dict" = {}
    for key in keys:
        predicate, ids = parse_fact_key(key)
        by_predicate.setdefault(predicate, []).append(ids)
    present = 0
    for predicate, rows in by_predicate.items():
        table = store._tables.get(predicate)
        if table is None:
            continue
        if not predicate.arity:
            present += store._select(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            continue
        scratch = f"temp.repro_keys_{predicate.arity}"
        columns = ", ".join(f"a{i}" for i in range(predicate.arity))
        store._select(f"CREATE TABLE IF NOT EXISTS {scratch} ({columns})")
        store._select(f"DELETE FROM {scratch}")
        marks = ", ".join("?" for _ in range(predicate.arity))
        store.connection.executemany(f"INSERT INTO {scratch} VALUES ({marks})", rows)
        on = " AND ".join(f"t.a{i} = d.a{i}" for i in range(predicate.arity))
        present += store._select(
            f"SELECT COUNT(*) FROM {scratch} AS d JOIN {table} AS t ON {on}"
        ).fetchone()[0]
    # Only temp rows changed; end the transaction they opened.
    store.commit()
    return present


def update_store_chase(
    store: SQLiteStore,
    theory: "Theory | None" = None,
    add=(),
    retract=(),
    budget: "ChaseBudget | None" = None,
    cancel: "CancellationToken | None" = None,
) -> StoreChaseResult:
    """Maintain a terminated store chase under base adds and retractions.

    The DRed/delta counterpart of :func:`repro.incremental.incremental_update`
    with the facts living only in SQLite:

    * **retractions** delete the retracted rows plus their transitive
      support cone (walked over ``repro_supports``; facts without
      support edges — round-0 facts, update-added facts, promoted facts
      — are never cascaded into), then re-derive survivors with one
      full-width round before returning to standard semi-naive pivots;
    * **additions** insert the new facts at a fresh round tag (the
      epoch) and run plain semi-naive rounds from there — by
      Observation 8 and Skolem determinism this derives exactly the
      missing consequences, including those of rules with universal
      head variables over the terms that enter the domain at the epoch.
      An added fact the chase had already derived is *promoted* to base
      (its support edges are dropped so retractions elsewhere can no
      longer cascade through it).

    The deletion phase, base inserts and updated ``storechase.*`` state
    commit as one transaction; after a retraction a ``storechase.repair``
    marker stays set until the full-width re-derive round lands, so a
    crash mid-update is detected — :func:`resume_store_chase` refuses the
    database and this function (with or without further changes)
    finishes the repair.  The final content digest equals clearing the
    store and re-chasing the updated base from scratch.

    Raises :class:`StoreChaseError` for missing/unterminated/foreign
    chase state and pre-supports databases on retraction; ``ValueError``
    for retracting a derived fact, adding and retracting the same fact,
    and retracting from a theory with universal head variables — as in
    :func:`repro.incremental.incremental_update`: DRed cannot shrink the
    domain relation, and a fact derived through a domain alias has no
    support edge to the fact that brought its term in.  Every refusal
    comes before the first write.
    """
    budget = budget if budget is not None else ChaseBudget()
    stats = store.stats
    counters = stats.counters

    schema = store.get_meta("storechase.schema")
    if schema is None:
        raise StoreChaseError(f"{store!r} holds no store-chase state to update")
    if schema != STORE_CHASE_SCHEMA:
        raise StoreChaseError(f"unsupported store-chase schema {schema!r}")
    if theory is None:
        from ..logic.parser import parse_theory

        theory = parse_theory(
            store.get_meta("storechase.theory", ""), name="storechase"
        )
    elif store.get_meta("storechase.theory", "") != _theory_text(theory):
        raise StoreChaseError(
            "store was chased under a different theory; refusing to mix"
        )
    repair_pending = store.get_meta("storechase.repair") == "1"
    if store.get_meta("storechase.terminated") != "1" and not repair_pending:
        raise StoreChaseError(
            "store chase is not at a fixpoint; resume_store_chase first"
        )
    prepared = [_StoreRule(rule, store) for rule in theory]

    add = list(add)
    retract = list(retract)
    overlap = {item for item in add if item in retract}
    if overlap:
        raise ValueError(
            f"facts both added and retracted: {sorted(map(str, overlap))}"
        )
    if retract and store.get_meta("storechase.supports") != "1":
        raise StoreChaseError(
            "store predates support tracking; retraction needs a re-chase "
            "(re-run chase_into_store on a fresh store)"
        )

    rounds_run = int(store.get_meta("storechase.rounds", "0"))
    epoch = rounds_run + 1

    with stats.timer("delta"):
        # ---- resolve the update against the stored facts -------------
        removed_keys: "list[str]" = []
        for item in retract:
            ids = _encode_existing(store, item)
            if ids is None or item not in store:
                continue
            key = fact_key(item.predicate, ids)
            if store.has_support(key):
                raise ValueError(
                    f"cannot retract derived fact {item} (retract its base "
                    "ancestors instead)"
                )
            removed_keys.append(key)
        if removed_keys:
            _check_retraction_supported(theory)
        to_insert = [item for item in add if item not in store]
        promoted_keys = []
        for item in add:
            ids = _encode_existing(store, item)
            if ids is not None and item in store:
                key = fact_key(item.predicate, ids)
                if store.has_support(key):
                    promoted_keys.append(key)

        if not removed_keys and not to_insert and not promoted_keys:
            if not repair_pending:
                counters["delta.noops"] += 1
                return StoreChaseResult(
                    store, rounds_run, True, len(store), stats
                )
        else:
            counters["delta.updates"] += 1
            counters["delta.added_base"] += len(to_insert) + len(promoted_keys)
            counters["delta.retracted_base"] += len(removed_keys)

        # ---- over-delete the retraction cone -------------------------
        deleted: "set[str]" = set()
        if removed_keys:
            deleted = set(removed_keys)
            frontier = list(deleted)
            while frontier:
                children = store.support_children(frontier)
                frontier = [key for key in children if key not in deleted]
                deleted.update(frontier)
            store.delete_fact_rows(deleted)
            store.delete_supports_of(deleted)
            counters["delta.overdeleted"] += len(deleted) - len(removed_keys)

        # ---- apply base changes + state in ONE transaction -----------
        if promoted_keys:
            store.delete_supports_of(promoted_keys)
        for item in to_insert:
            store.buffer(item, round_=epoch)
        store._flush_pending()
        needs_repair = bool(removed_keys) or repair_pending
        store.set_meta(
            "storechase.repair", "1" if needs_repair else "0", commit=False
        )
        terminated = not needs_repair and not to_insert
        _persist_state(store, epoch, terminated, stats, commit=False)
        store.commit()
        rounds_run = epoch
        total = len(store)
        if terminated:
            # Promotions / no-op repairs change no derived facts.
            return StoreChaseResult(store, rounds_run, True, total, stats)

        # ---- re-derive to a fresh fixpoint ---------------------------
        # A retraction broke the closure: the first round is one
        # full-width pass over the survivors (including facts the update
        # just added), then standard semi-naive pivots take over.
        rounds_run, terminated, total = _run_rounds(
            store,
            prepared,
            rounds_run,
            total,
            budget,
            cancel,
            repair=needs_repair,
            delta=True,
        )
        if deleted and terminated:
            # How much of the over-deleted cone came back: cone members
            # with an alternative derivation untouched by the retraction.
            counters["delta.rederived"] += _count_present(store, deleted)

    return StoreChaseResult(
        store=store,
        rounds_run=rounds_run,
        terminated=terminated,
        atom_count=total,
        stats=stats,
    )
