"""``materialize``: batch chase to a fixpoint, one caller, two inputs.

* **Dense TC** — ``E(x,y),E(y,z) -> E(x,z)`` over a seeded strongly
  connected graph: a random Hamiltonian cycle through ``TC_NODES``
  constants plus ``TC_CHORDS`` random chords.  The closure is always all
  ``TC_NODES**2`` pairs and the round count barely moves between seeds,
  so every seed does the same amount of join work.
* **Skolem-heavy** — ``university_ontology()`` over a seeded
  ``university_database`` (existential rules: term encoding and
  interning dominate).

Each input is chased on the default backend (``chase()``, columnar) and
into a fresh SQLite file (``chase_into_store``): four operation kinds,
run in passes.  The gate compares each result with the object engine
(``backend="memory"``).
"""

from __future__ import annotations

import os
import random

from .harness import OUT, Op, Workload, add_counters

TC_NODES = 40
TC_CHORDS = 120
STUDENTS = 1000


def tc_instance(seed: int):
    from repro.logic.atoms import atom
    from repro.logic.instance import Instance

    rng = random.Random(f"tc-{seed}")
    names = [f"n{index}" for index in range(TC_NODES)]
    rng.shuffle(names)
    edges = {(names[i], names[(i + 1) % TC_NODES]) for i in range(TC_NODES)}
    while len(edges) < TC_NODES + TC_CHORDS:
        edges.add((rng.choice(names), rng.choice(names)))
    return Instance([atom("E", source, target) for source, target in sorted(edges)])


class Materialize(Workload):
    name = "materialize"
    pass_size = 4
    # A run holds a few dozen chases: too few for any tail above the
    # median to be the same percentile from run to run.
    tail_cap = 50.0

    def setup(self) -> None:
        from repro import ChaseBudget, parse_theory
        from repro.workloads.generators import university_database
        from repro.workloads.theories import university_ontology

        self.budget = ChaseBudget(max_rounds=200, max_atoms=2_000_000)
        self.inputs = {
            "tc": (parse_theory("E(x, y), E(y, z) -> E(x, z)"), tc_instance(self.seed)),
            "skolem": (
                university_ontology(),
                university_database(
                    STUDENTS, STUDENTS // 10, STUDENTS // 20, seed=self.seed
                ),
            ),
        }
        self.digests: "dict[str, str]" = {}
        self.atoms: "dict[str, int]" = {}
        self.db_bytes = 0
        self.db_atoms = 0
        OUT.mkdir(parents=True, exist_ok=True)
        self._db_counter = 0

    # ------------------------------------------------------------------
    def ops(self):
        while True:
            for name in ("tc", "skolem"):
                yield Op(f"chase_{name}", self._chase_fn(name), self._chase_after(name))
            for name in ("tc", "skolem"):
                path = self._fresh_db()
                yield Op(
                    f"store_chase_{name}",
                    self._store_fn(name, path),
                    self._store_after(name, path),
                )

    def _chase_fn(self, name):
        from repro import run_chase

        theory, base = self.inputs[name]
        return lambda: run_chase(theory, base, budget=self.budget)

    def _chase_after(self, name):
        from repro.storage.base import instance_digest

        def after(result) -> None:
            add_counters(self.counters, result.stats.counters)
            if not result.terminated:
                self.errors.append(f"chase_{name} did not reach a fixpoint")
            self.digests[f"chase_{name}"] = instance_digest(result.instance)
            self.atoms[f"chase_{name}"] = len(result.instance)

        return after

    def _fresh_db(self) -> str:
        self._db_counter += 1
        path = OUT / f"materialize-{os.getpid()}-{self._db_counter}.db"
        _remove(path)
        return str(path)

    def _store_fn(self, name, path):
        from repro.storage.chasestore import chase_into_store
        from repro.storage.sqlite import SQLiteStore

        theory, base = self.inputs[name]

        def run():
            store = SQLiteStore(path)
            try:
                return store, chase_into_store(theory, base, store, budget=self.budget)
            except BaseException:
                store.close()
                raise

        return run

    def _store_after(self, name, path):
        def after(outcome) -> None:
            store, result = outcome
            try:
                add_counters(self.counters, store.stats.counters)
                if not result.terminated:
                    self.errors.append(f"store_chase_{name} did not reach a fixpoint")
                self.digests[f"store_chase_{name}"] = store.digest()
                self.atoms[f"store_chase_{name}"] = len(store)
                store.connection.commit()
            finally:
                store.close()
            self.db_bytes += os.path.getsize(path)
            self.db_atoms += self.atoms[f"store_chase_{name}"]
            _remove(path)

        return after

    # ------------------------------------------------------------------
    def check(self) -> None:
        from repro import run_chase
        from repro.storage.base import instance_digest

        for name, (theory, base) in self.inputs.items():
            reference = run_chase(theory, base, budget=self.budget, backend="memory")
            want = (len(reference.instance), instance_digest(reference.instance))
            for kind in (f"chase_{name}", f"store_chase_{name}"):
                got = (self.atoms.get(kind), self.digests.get(kind))
                if got != want:
                    self.errors.append(f"{kind}: (atoms, digest) {got} != object engine {want}")

    def extras(self) -> "dict[str, float]":
        return {
            "bytes_per_atom": self.db_bytes / self.db_atoms if self.db_atoms else 0.0
        }

    def report_lines(self, samples) -> "list[str]":
        lines = []
        for kind in ("chase_tc", "chase_skolem", "store_chase_tc", "store_chase_skolem"):
            if kind in samples.by_kind:
                lines.append(f"{kind}_s {samples.kind_p50_ms(kind) / 1000:.4f} s")
        lines.append(f"atoms {self.atoms}")
        return lines


def _remove(path) -> None:
    for suffix in ("", "-wal", "-shm", "-journal"):
        try:
            os.remove(f"{path}{suffix}")
        except FileNotFoundError:
            pass
