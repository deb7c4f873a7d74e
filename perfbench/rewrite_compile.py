"""``rewrite_compile``: cold UCQ rewriting of distinct seeded CQs, plus
the paper's T_d marked-query process.

The theory merges the Medical, Geography, Stock and University
ontologies.  Each operation rewrites one CQ of 3–5 atoms that no earlier
operation used (distinct query shapes), through ``rewrite()`` with no
session, so nothing is cached between queries.  Every
``TD_EVERY`` operations one ``run_process(phi_r_n(TD_DEPTH))`` runs
(Theorem 5's five-operation process).

Gate: for every ``CHECK_EVERY``-th CQ, the canonical-key checksum of the
rewriting equals the naive reference (``RewritingBudget(use_indexes=
False)``); the T_d survivors' checksum equals the committed value.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random

from .harness import Op, Workload, add_counters

# A CQ is kept only if the product, over its atoms, of the predicate's
# single-atom rewriting size is at most this: cross-ontology conjunctions
# on one variable otherwise blow up to thousands of disjuncts, and a
# handful of them would decide the run's total time.
MAX_ESTIMATED_DISJUNCTS = 16
TD_DEPTH = 4
TD_EVERY = 150
CHECK_EVERY = 8
# sha256 (16 hex) of the sorted canonical keys of the T_d depth-4
# survivors' CQ disjuncts; the process is deterministic.
TD_CHECKSUM = "ec76eb9286815e0a"
TD_SURVIVORS = 106


def merged_theory():
    from repro.logic.tgd import Theory
    from repro.workloads.ontologies import all_ontology_workloads
    from repro.workloads.theories import university_ontology

    rules = []
    for workload in all_ontology_workloads():
        rules.extend(workload.theory)
    rules.extend(university_ontology())
    return Theory(rules, name="merged-ontologies")


def random_cq(rng: random.Random, deck: list, predicates, index: int):
    """The ``index``-th CQ of a stream: connected, ``3 + index % 3`` atoms,
    ``(index // 3) % 3`` answer variables (fewer if the query has fewer).

    Predicates come off ``deck``, a shuffled copy of ``predicates``
    refilled when empty, so every run draws each predicate equally often
    and seeds differ only in how the draws combine.
    """
    from repro.logic.atoms import Atom
    from repro.logic.query import ConjunctiveQuery
    from repro.logic.terms import Variable

    size = 3 + index % 3
    pool = [Variable(f"v{position}") for position in range(size + 1)]
    used = [pool[0]]
    atoms = []
    for _ in range(size):
        if not deck:
            deck.extend(predicates)
            rng.shuffle(deck)
        predicate = deck.pop()
        args = []
        for position in range(predicate.arity):
            if position == 0:
                var = rng.choice(used)
            else:
                var = rng.choice(pool[: len(used) + 1])
                if var not in used:
                    used.append(var)
            args.append(var)
        atoms.append(Atom(predicate, tuple(args)))
    answers = tuple(used[: (index // 3) % 3])
    return ConjunctiveQuery(answers, tuple(atoms))


def ucq_checksum(ucq) -> str:
    from repro.rewriting.canonical import canonical_key

    hasher = hashlib.sha256()
    for key in sorted(repr(canonical_key(disjunct)) for disjunct in ucq):
        hasher.update(key.encode("utf8"))
        hasher.update(b"\n")
    return hasher.hexdigest()[:16]


class RewriteCompile(Workload):
    name = "rewrite_compile"
    tail_cap = 90.0
    pass_size = TD_EVERY + 1

    def setup(self) -> None:
        self.theory = merged_theory()
        self.predicates = sorted(
            {item.predicate for rule in self.theory for item in (*rule.body, *rule.head)},
            key=lambda predicate: (predicate.name, predicate.arity),
        )
        # Single-atom rewriting sizes; this also warms the theory-level
        # rule index every query shares.
        from repro.logic.atoms import Atom
        from repro.logic.query import ConjunctiveQuery
        from repro.logic.terms import Variable
        from repro.rewriting.engine import rewrite

        self.fan_out = {}
        for predicate in self.predicates:
            args = tuple(Variable(f"x{i}") for i in range(predicate.arity))
            atomic = ConjunctiveQuery(args, (Atom(predicate, args),))
            self.fan_out[predicate] = len(rewrite(self.theory, atomic).ucq)
        self.checked: "list[tuple]" = []
        self.td_results: "list" = []

    def queries(self):
        """Distinct query shapes, a pure function of the seed."""
        from repro.rewriting.session import query_shape

        rng = random.Random(f"cq-{self.seed}")
        deck: list = []
        seen = set()
        for index in itertools.count():
            query = random_cq(rng, deck, self.predicates, index)
            estimate = math.prod(self.fan_out[item.predicate] for item in query.atoms)
            if estimate > MAX_ESTIMATED_DISJUNCTS:
                continue
            # Keep a digest, not the shape: memory must not grow with the
            # number of queries a run gets through.
            key = hashlib.sha256(repr(query_shape(query)).encode("utf8")).digest()[:12]
            if key in seen:
                continue
            seen.add(key)
            yield query

    def ops(self):
        from repro.frontier.process import run_process
        from repro.frontier.td import phi_r_n
        from repro.rewriting.engine import rewrite

        for index, query in enumerate(self.queries()):
            if index % TD_EVERY == 0:  # a pass: one T_d process, TD_EVERY CQs
                yield Op(
                    "td_process",
                    lambda: run_process(phi_r_n(TD_DEPTH)),
                    self._after_td,
                )
            yield Op(
                "cold_rewrite",
                lambda query=query: rewrite(self.theory, query),
                self._after(index, query),
            )

    def _after_td(self, result) -> None:
        self.td_results.append((len(result.survivors), ucq_checksum(result.disjuncts())))

    def _after(self, index, query):
        def after(result) -> None:
            add_counters(self.counters, result.stats.counters)
            if index % CHECK_EVERY == 0:
                self.checked.append((query, result.complete, ucq_checksum(result.ucq)))

        return after

    def check(self) -> None:
        from repro.rewriting.engine import RewritingBudget, rewrite

        naive = RewritingBudget(use_indexes=False)
        for query, complete, checksum in self.checked:
            reference = rewrite(self.theory, query, naive)
            want = (reference.complete, ucq_checksum(reference.ucq))
            if (complete, checksum) != want:
                self.errors.append(f"{query}: {(complete, checksum)} != naive {want}")
        for got in self.td_results:
            if got != (TD_SURVIVORS, TD_CHECKSUM):
                self.errors.append(
                    f"T_d depth {TD_DEPTH}: {got} != committed "
                    f"{(TD_SURVIVORS, TD_CHECKSUM)}"
                )

    def extras(self) -> "dict[str, float]":
        return {"survivors": max((survivors for survivors, _ in self.td_results), default=0)}

    def report_lines(self, samples) -> "list[str]":
        lines = []
        if "cold_rewrite" in samples.by_kind:
            lines.append(f"rewrite_p50_ms {samples.kind_p50_ms('cold_rewrite'):.4f} ms")
        if "td_process" in samples.by_kind:
            lines.append(f"td_process_s {samples.kind_p50_ms('td_process') / 1000:.4f} s")
        lines.append(f"checked {len(self.checked)} CQs against the naive rewriter")
        return lines
