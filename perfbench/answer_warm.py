"""``answer_warm``: repeated certain-answer queries, every cache warm.

One ``OMQASession`` over the University ontology and a seeded
``university_database`` answers six fixed query shapes with
``strategy`` ``auto`` (in-memory rewriting), ``columnar`` and ``sql``,
in passes of 18 operations, with no writes.  Set-up is a fresh session
plus one full pass, which compiles the rewritings and loads the columnar
and SQLite stores.

Gate: per shape, every answer of every strategy has the same digest, and
it equals the materialization route (``strategy="materialize"``).
"""

from __future__ import annotations

from .harness import Op, Workload

STUDENTS = 8000
STRATEGIES = {"memory": "auto", "columnar": "columnar", "sqlite": "sql"}
SHAPES = {
    "persons": "q(x) := Person(x)",
    "students": "q(x) := Student(x)",
    "enrolled": "q(x, c) := EnrolledIn(x, c)",
    "in_course": "q(x) := exists c. EnrolledIn(x, c), Course(c)",
    "taught": "q(x) := exists c, p. EnrolledIn(x, c), TaughtBy(c, p)",
    "members": "q(p) := exists d. MemberOf(p, d), Department(d)",
}


class AnswerWarm(Workload):
    name = "answer_warm"
    tail_cap = 90.0
    pass_size = len(SHAPES) * len(STRATEGIES)

    def setup(self) -> None:
        from repro import OMQASession, parse_query
        from repro.workloads.generators import university_database
        from repro.workloads.theories import university_ontology

        if getattr(self, "session", None) is not None:
            self.session.close()
        self.instance = university_database(
            STUDENTS, STUDENTS // 10, STUDENTS // 20, seed=self.seed
        )
        self.queries = {name: parse_query(text) for name, text in SHAPES.items()}
        self.session = OMQASession(university_ontology())
        self.digests: "dict[str, set[str]]" = {name: set() for name in SHAPES}
        self.answers = 0
        for op in self._pass():
            op.after(op.fn())

    def _pass(self):
        for shape, query in self.queries.items():
            for backend, strategy in STRATEGIES.items():
                yield Op(
                    f"{backend}.{shape}",
                    lambda query=query, strategy=strategy: self.session.answer(
                        query, self.instance, strategy=strategy
                    ),
                    self._after(shape),
                )

    def ops(self):
        while True:
            yield from self._pass()

    def _after(self, shape):
        from repro.service.registry import answers_digest

        def after(answers) -> None:
            self.answers += len(answers)
            self.digests[shape].add(answers_digest(answers))

        return after

    def check(self) -> None:
        from repro.service.registry import answers_digest

        for shape, query in self.queries.items():
            want = answers_digest(
                self.session.answer(query, self.instance, strategy="materialize")
            )
            if self.digests[shape] != {want}:
                self.errors.append(
                    f"{shape}: digests {sorted(self.digests[shape])} != "
                    f"materialization {want}"
                )

    def extras(self) -> "dict[str, float]":
        return {"answers": self.answers}

    def counter_snapshot(self) -> "dict[str, int]":
        return dict(self.session.stats.counters)

    def cache_info(self):
        return self.session.cache_info()

    def report_lines(self, samples) -> "list[str]":
        import statistics

        lines = []
        for backend in STRATEGIES:
            pooled = [
                value
                for kind, values in samples.by_kind.items()
                if kind.startswith(backend + ".")
                for value in values
            ]
            if pooled:
                lines.append(
                    f"answer_{backend}_p50_ms {statistics.median(pooled) * 1000:.4f} ms"
                )
        lines.append(f"facts {len(self.instance)}")
        return lines
