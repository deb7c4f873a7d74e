"""Incremental maintenance of a chased fixpoint (delta adds, DRed deletes).

A terminated :class:`~repro.chase.engine.ChaseResult` is a fixpoint
``Ch(T, D)`` of the semi-oblivious Skolem chase.  This module maintains
that fixpoint under base-instance updates without re-chasing:

* **Additions** are a resumed semi-naive round.  By Observation 8 the
  materialized instance is an exact chase prefix, and Skolem naming is
  deterministic, so seeding the existing round loop
  (:func:`repro.chase.engine._run_rounds`) with the newly added facts as
  the delta derives exactly the atoms of ``Ch(T, D + A)`` that are
  missing — every already-present consequence is re-found by dedup, not
  re-invented.
* **Deletions** follow DRed (delete-and-rederive) over the recorded
  rule provenance: the retracted base facts and every atom whose
  recorded derivation (transitively) consumed one of them — the
  *deletion cone* — are over-deleted, then the survivors are chased to
  a fresh fixpoint.  Atoms with an alternative derivation untouched by
  the retraction are re-derived; the result is ``Ch(T, D - R)``
  atom-for-atom, though the per-round structure (``round_added``) of
  the maintained result generally differs from a from-scratch chase's.

Soundness of the survivor set: recorded parents are strictly shallower
than their children, so by induction on derivation depth every survivor
is derivable from the surviving base — over-deletion only errs towards
deleting too much, which the re-derive rounds repair.  Because the
survivors contain the new base and are contained in ``Ch(T, D')``,
chasing them to a fixpoint yields exactly ``Ch(T, D')``.

Retraction is refused (``ValueError``) for theories with universal head
variables (the ``true -> exists z. R(x, z)`` rules of ``T_d``): such
rules derive atoms with *empty* recorded bodies, so the provenance cone
cannot see that a derived atom depended on a retracted term's presence
in the domain.  Additions remain fully supported for those theories —
the delta-terms machinery of the round loop handles new domain elements
exactly.

The store-backed analogue is :func:`update_store_chase`, which walks
the ``repro_supports`` table persisted by
:func:`repro.storage.chase_into_store` instead of in-memory
derivations.

Counters (``delta.*``, see ``docs/incremental.md``): ``delta.updates``,
``delta.noops``, ``delta.added_base``, ``delta.retracted_base``,
``delta.overdeleted``, ``delta.rederived``, ``delta.rounds``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, TYPE_CHECKING

from .chase.engine import (
    CancellationToken,
    ChaseBudget,
    ChaseResult,
    SequentialRoundExecutor,
    _prepare_rules,
    _resolve_chase_backend,
    _RunControl,
    _run_rounds,
)
from .chase.provenance import deletion_cone, dependents_index
from .logic.atoms import Atom
from .logic.instance import Instance
from .telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .storage.chasestore import StoreChaseResult
    from .storage.sqlite import SQLiteStore

__all__ = [
    "UpdateOutcome",
    "incremental_update",
    "update_store_chase",
    "deletion_cone",
    "dependents_index",
]


@dataclass(frozen=True)
class UpdateOutcome:
    """What one :func:`incremental_update` call did.

    ``result`` is the maintained fixpoint (a fresh :class:`ChaseResult`
    whose ``stats`` continue the input run's, as :func:`resume` does);
    ``stats`` is the *maintenance-only* telemetry — the work of this
    update alone — which sessions merge into their aggregate without
    double-counting the original chase.
    """

    result: ChaseResult
    added: frozenset[Atom]
    retracted: frozenset[Atom]
    overdeleted: int
    rederived: int
    rounds_run: int
    stats: Telemetry

    @property
    def changed(self) -> bool:
        return bool(self.added or self.retracted)


def _check_retraction_supported(theory) -> None:
    """Refuse retraction for theories with universal head variables.

    Shared with :func:`repro.storage.chasestore.update_store_chase`.
    """
    offenders = [rule for rule in theory if rule.universal_head_variables()]
    if offenders:
        raise ValueError(
            "retract is not supported for theories with universal head "
            "variables (empty-body derivations hide the dependency of "
            f"{len(offenders)} rule(s) on the active domain); re-chase "
            "from scratch instead"
        )


def incremental_update(
    result: ChaseResult,
    add: Iterable[Atom] = (),
    retract: Iterable[Atom] = (),
    budget: ChaseBudget | None = None,
    backend: str | None = None,
    cancel: CancellationToken | None = None,
    telemetry: Telemetry | None = None,
) -> UpdateOutcome:
    """Maintain a terminated chase under base additions and retractions.

    Returns an :class:`UpdateOutcome` whose ``result`` equals (as an atom
    set) a from-scratch ``chase(theory, new_base)`` — the delta-guard
    scenario and the property tests assert digest equality on every
    backend.  ``result.stats`` continues the input run's telemetry;
    ``outcome.stats`` isolates the maintenance work.

    Raises ``ValueError`` when the input run is not terminated (the
    prefix of a truncated run is not a fixpoint to maintain), when a
    fact is both added and retracted, when a retracted fact is a
    *derived* atom rather than a base fact, and when retraction meets a
    theory with universal head variables (see the module docstring).
    Retracting an absent fact or adding a present one is a no-op.
    """
    if not result.terminated:
        raise ValueError(
            "incremental_update requires a terminated chase result; "
            "run the chase to fixpoint (or resume it) first"
        )
    add = frozenset(add)
    retract = frozenset(retract)
    both = add & retract
    if both:
        raise ValueError(f"facts both added and retracted: {sorted(map(str, both))}")
    derived_retracts = [
        item for item in retract if item not in result.base and item in result.instance
    ]
    if derived_retracts:
        raise ValueError(
            "cannot retract derived atoms (retract their base ancestors "
            f"instead): {sorted(map(str, derived_retracts))}"
        )
    if retract and any(item in result.base for item in retract):
        _check_retraction_supported(result.theory)

    budget = budget if budget is not None else ChaseBudget()
    backend_name = _resolve_chase_backend(backend)
    work = telemetry if telemetry is not None else Telemetry()
    counters = work.counters

    new_base = result.base.copy()
    removed = frozenset(item for item in retract if new_base.discard(item))
    added = frozenset(item for item in add if new_base.add(item))
    if not removed and not added:
        counters["delta.noops"] += 1
        combined = result.stats.fork()
        combined.merge(work)
        same = ChaseResult(
            theory=result.theory,
            base=result.base,
            instance=result.instance,
            round_added=result.round_added,
            terminated=True,
            derivations=result.derivations,
            stats=combined,
        )
        return UpdateOutcome(
            result=same,
            added=frozenset(),
            retracted=frozenset(),
            overdeleted=0,
            rederived=0,
            rounds_run=0,
            stats=work,
        )

    counters["delta.updates"] += 1
    counters["delta.added_base"] += len(added)
    counters["delta.retracted_base"] += len(removed)

    with work.timer("delta"):
        current = result.instance.copy()
        old_domain = current.domain()
        derivations = dict(result.derivations)

        deleted: set[Atom] = set()
        if removed:
            dependents = dependents_index(derivations)
            deleted = deletion_cone(removed, dependents, new_base)
            for item in deleted:
                current.discard(item)
                derivations.pop(item, None)
            counters["delta.overdeleted"] += len(deleted) - len(removed)

        # Atoms genuinely new to the instance seed the semi-naive delta;
        # added facts the chase had already derived are *promoted* to
        # base (their consequences are all present, nothing to derive).
        new_to_instance = [item for item in added if current.add(item)]
        for item in added:
            derivations.pop(item, None)

        # Rebuild the round partition: round 0 is the new base, later
        # rounds keep their surviving members (their true depths), with
        # deleted and promoted atoms stripped out.
        strip = deleted | set(added)
        round_added: list[frozenset[Atom]] = [frozenset(new_base)]
        for previous in result.round_added[1:]:
            round_added.append(previous - strip)

        prepared = _prepare_rules(result.theory)
        if removed:
            # The closure broke: run a full first round over the
            # survivors, after which the loop hands itself semi-naive
            # deltas as usual.
            delta = None
            delta_terms = None
            needs_rounds = True
        else:
            delta = Instance(new_to_instance) if new_to_instance else None
            delta_terms = current.domain() - old_domain
            needs_rounds = bool(new_to_instance)

        terminated = True
        rounds_before = len(round_added)
        executed_before = counters["chase.rounds"]
        if needs_rounds:
            executor: SequentialRoundExecutor | None = None
            if backend_name == "columnar":
                from .chase.columnar_kernel import make_columnar_executor

                executor = make_columnar_executor(prepared, current, work)
            try:
                terminated = _run_rounds(
                    prepared,
                    current,
                    round_added,
                    derivations,
                    rounds=budget.max_rounds,
                    budget=budget,
                    track_provenance=True,
                    semi_naive=True,
                    delta=delta,
                    delta_terms=delta_terms,
                    telemetry=work,
                    executor=executor,
                    control=_RunControl.start(budget, cancel),
                )
            finally:
                if executor is not None:
                    executor.close()
        rounds_run = len(round_added) - rounds_before
        counters["delta.rounds"] += counters["chase.rounds"] - executed_before

        rederived = sum(1 for item in deleted if item in current)
        counters["delta.rederived"] += rederived

    combined = result.stats.fork()
    combined.merge(work)
    maintained = ChaseResult(
        theory=result.theory,
        base=new_base,
        instance=current,
        round_added=round_added,
        terminated=terminated,
        derivations=derivations,
        stats=combined,
    )
    return UpdateOutcome(
        result=maintained,
        added=added,
        retracted=removed,
        overdeleted=len(deleted) - len(removed),
        rederived=rederived,
        rounds_run=rounds_run,
        stats=work,
    )


def update_store_chase(
    store: "SQLiteStore",
    theory,
    add: Iterable[Atom] = (),
    retract: Iterable[Atom] = (),
    budget: ChaseBudget | None = None,
    cancel: CancellationToken | None = None,
) -> "StoreChaseResult":
    """Maintain a SQLite store-backed chase fixpoint in place.

    The store must hold a terminated :func:`repro.storage.chase_into_store`
    run of ``theory`` (matching theory text, current schema).  Additions
    are inserted at a fresh round tag and chased semi-naively with the
    store-chase's standard pivot plans; retractions walk the persisted
    ``repro_supports`` edges to over-delete the cone, then re-derive
    survivors with one full-width round before going semi-naive.  Same
    digest as clearing the store and re-chasing the updated base.

    Implemented in :mod:`repro.storage.chasestore` (the storage layer
    owns the SQL); this is the stable import point next to
    :func:`incremental_update`.
    """
    from .storage.chasestore import update_store_chase as _impl

    return _impl(
        store, theory, add=add, retract=retract, budget=budget, cancel=cancel
    )
