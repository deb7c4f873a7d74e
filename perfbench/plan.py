"""The ``service_mixed`` traffic plan: a pure function of the seed.

Each client of each episode gets a fixed list of operations: about 76 %
queries (rotating through the three loadgen query shapes on the three
backends), 20 % appends of one enrolment, and 4 % retracts of one of the
client's own earlier appends that is still present.  Half the appends
enrol a new student; the other half enrol one of the client's students
that is still enrolled in a further course, so retracting that student's
first enrolment leaves ``Student``/``Person`` a second support and DRed
has something to re-derive.  Every appended fact names a student of the
client's own namespace, so the final instance does not depend on how the
two clients interleave.
"""

from __future__ import annotations

import random

QUERY_SHARE = 0.76
RETRACT_SHARE = 0.04
# Share of appends that enrol an existing student in another course.
SECOND_COURSE_SHARE = 0.5
BASE_ENROLMENTS = 200
COURSES = 20
PROFESSORS = 5
SHAPES = ("students", "persons", "enrolments")
BACKENDS = ("memory", "columnar", "sqlite")


def base_facts(seed: int, episode: int) -> "list[tuple[str, str, str]]":
    """``(predicate, arg, arg)`` triples of the base instance."""
    rng = random.Random(f"base-{seed}-{episode}")
    facts = [
        ("EnrolledIn", f"s{index}", f"c{rng.randrange(COURSES)}")
        for index in range(BASE_ENROLMENTS)
    ]
    facts += [("TaughtBy", f"c{course}", f"p{course % PROFESSORS}") for course in range(COURSES)]
    return facts


def client_plan(seed: int, episode: int, client: int, ops: int) -> "list[tuple]":
    """The operations of one client: ``("query", shape, backend)``,
    ``("append", fact)`` or ``("retract", fact)``."""
    rng = random.Random(f"plan-{seed}-{episode}-{client}")
    plan = []
    live: "list[tuple[str, str, str]]" = []
    courses: "dict[str, set[str]]" = {}  # student -> courses ever appended
    queries = 0
    for index in range(ops):
        draw = rng.random()
        if draw < RETRACT_SHARE and live:
            fact = live.pop(rng.randrange(len(live)))
            plan.append(("retract", fact))
        elif draw < 1.0 - QUERY_SHARE:
            enrolled = sorted({fact[1] for fact in live})
            student = None
            if enrolled and rng.random() < SECOND_COURSE_SHARE:
                student = enrolled[rng.randrange(len(enrolled))]
                if len(courses[student]) == COURSES:
                    student = None
            if student is None:
                student = f"u{episode}_{client}_{index}"
                courses[student] = set()
            course = rng.choice(
                [f"c{n}" for n in range(COURSES) if f"c{n}" not in courses[student]]
            )
            courses[student].add(course)
            fact = ("EnrolledIn", student, course)
            live.append(fact)
            plan.append(("append", fact))
        else:
            shape = SHAPES[queries % len(SHAPES)]
            backend = BACKENDS[(queries // len(SHAPES)) % len(BACKENDS)]
            queries += 1
            plan.append(("query", shape, backend))
    return plan


def final_facts(base, plans) -> "set[tuple[str, str, str]]":
    """The instance after every plan ran, whatever the interleaving."""
    facts = set(base)
    for plan in plans:
        for op in plan:
            if op[0] == "append":
                facts.add(op[1])
            elif op[0] == "retract":
                facts.discard(op[1])
    return facts
