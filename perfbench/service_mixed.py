"""``service_mixed``: ``repro serve`` in its own process under a closed
loop of two keep-alive clients.

A run is a sequence of episodes.  Each episode starts a fresh server
(``python -m repro serve --workers 2 --json``), registers the loadgen
theory and uploads a seeded base of 200 enrolments (that is its set-up),
then two clients each run a fixed plan from :mod:`perfbench.plan` —
every client sends its next request only after the previous answer.  A
fixed plan per episode keeps the history length the same in every run.

Gate: after the clients finish, every query shape is answered on every
backend and each digest must equal a fresh ``OMQASession`` over the
locally replayed final instance.

Traced runs start the server through ``perfbench/traced_server.py``,
which wraps the service layers in the server process and writes its
spans when the server exits.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import sqlite3
import statistics
import subprocess
import sys
import time

from . import layers, plan
from .harness import MIN_SETUPS, OUT, ROOT, SETUP_SECONDS
from .stats import Samples
from .tracer import coverage

CLIENTS = 2
OPS_PER_CLIENT = 400
WORKERS = 2
ANNOUNCE_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
TAIL_CAP = 95.0


class Server:
    """One ``repro serve`` child process."""

    def __init__(self, tag: str, traced: bool) -> None:
        self.db_dir = OUT / f"service-{os.getpid()}-{tag}"
        shutil.rmtree(self.db_dir, ignore_errors=True)
        self.db_dir.mkdir(parents=True)
        self.spans_path = self.db_dir / "spans.json" if traced else None
        serve = [
            "serve", "--workers", str(WORKERS), "--json",
            "--port", "0", "--db-dir", str(self.db_dir),
        ]
        if traced:
            command = [sys.executable, str(ROOT / "perfbench" / "traced_server.py"),
                       str(self.spans_path), *serve]
        else:
            command = [sys.executable, "-m", "repro", *serve]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._stderr = open(self.db_dir / "stderr.txt", "wb")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr, stdin=subprocess.DEVNULL,
        )
        self.announce = self._read_announce()
        self.port = int(self.announce["port"])

    def _read_announce(self) -> dict:
        """``serve --json`` prints an indented, multi-line JSON document."""
        deadline = time.monotonic() + ANNOUNCE_TIMEOUT_S
        text = ""
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            text += line.decode("utf8")
            try:
                return json.loads(text)
            except json.JSONDecodeError:
                continue
        self.stop()
        raise RuntimeError(f"server announced no address; stdout was {text!r}")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="utf8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._stderr.close()

    def db_stats(self) -> "tuple[int, int, int]":
        """``(storechase.* meta bytes, file bytes, atoms)`` over every
        theory database, read after the server checkpointed and exited."""
        from repro.storage.sqlite import SQLiteStore

        meta = size = atoms = 0
        for path in sorted(self.db_dir.glob("*.db")):
            connection = sqlite3.connect(str(path))
            try:
                row = connection.execute(
                    "SELECT COALESCE(SUM(LENGTH(key) + LENGTH(value)), 0) "
                    "FROM repro_meta WHERE key LIKE 'storechase.%'"
                ).fetchone()
                meta += int(row[0])
            finally:
                connection.close()
            size += path.stat().st_size
            store = SQLiteStore(str(path))
            try:
                atoms += len(store)
            finally:
                store.close()
        return meta, size, atoms

    def cleanup(self) -> None:
        shutil.rmtree(self.db_dir, ignore_errors=True)


def _instance(facts):
    from repro.logic.atoms import atom
    from repro.logic.instance import Instance

    return Instance([atom(*fact) for fact in sorted(facts)])


class Episode:
    """One server lifetime: set-up, the two client plans, the gate."""

    def __init__(self, seed: int, index: int, traced: bool, setup_only: bool = False) -> None:
        self.seed = seed
        self.index = index
        self.traced = traced
        self.setup_only = setup_only
        self.base = plan.base_facts(seed, index)
        self.plans = [
            plan.client_plan(seed, index, client, OPS_PER_CLIENT)
            for client in range(CLIENTS)
        ]
        self.samples = Samples()
        self.errors: "list[str]" = []
        self.failures: "list[str]" = []
        self.counters: "dict[str, int]" = {}

    def run(self) -> None:
        from repro.bench.loadgen import LOADGEN_THEORY_TEXT, QUERIES
        from repro.logic.parser import parse_query, parse_theory

        self.queries = {name: parse_query(text) for name, text in QUERIES}
        theory = parse_theory(LOADGEN_THEORY_TEXT, name="loadgen")
        started = time.perf_counter()
        tag = "s" if self.setup_only else "t" if self.traced else "u"
        server = Server(f"{tag}{self.index}", self.traced)
        try:
            asyncio.run(self._drive(server, theory, started))
            self.peak_rss_mb = server.peak_rss_mb()
        finally:
            server.stop()
        if self.setup_only:
            server.cleanup()
            return
        try:
            self.meta_bytes, self.db_bytes, self.db_atoms = server.db_stats()
            if self.traced:
                with open(server.spans_path, encoding="utf8") as handle:
                    dumped = json.load(handle)
                self.spans = dumped["spans"]
                self.caches = dumped["caches"]
        finally:
            server.cleanup()

    async def _drive(self, server: Server, theory, started: float) -> None:
        from repro.service.client import ServiceClient

        self.port = server.port
        admin = ServiceClient("127.0.0.1", self.port)
        try:
            registered = await admin.register_theory(theory)
            self.theory_id = registered["id"]
            await admin.upload_facts(self.theory_id, _instance(self.base))
            self.setup_s = time.perf_counter() - started
            if self.setup_only:
                return
            before = (await admin.metrics())["process"]

            self.window_start = time.perf_counter()
            await asyncio.gather(
                *(self._client(client, ops) for client, ops in enumerate(self.plans))
            )
            self.window_end = time.perf_counter()

            after = (await admin.metrics())["process"]
            self.counters = {
                name: value - before.get(name, 0) for name, value in after.items()
            }
            await self._gate(admin)
        finally:
            await admin.close()

    async def _client(self, client: int, ops) -> None:
        from repro.logic.atoms import atom
        from repro.service.client import ServiceClient

        connection = ServiceClient("127.0.0.1", self.port)
        try:
            for op in ops:
                self.samples.attempted += 1
                started = time.perf_counter()
                try:
                    if op[0] == "query":
                        _, shape, backend = op
                        await connection.query(
                            self.theory_id, self.queries[shape], backend=backend
                        )
                        kind = f"query_{backend}"
                    elif op[0] == "append":
                        await connection.append_facts(self.theory_id, [atom(*op[1])])
                        kind = "append"
                    else:
                        await connection.retract_facts(self.theory_id, [atom(*op[1])])
                        kind = "retract"
                except Exception as exc:  # noqa: BLE001 — a failed request is counted
                    self.samples.failed += 1
                    self.failures.append(f"client {client} {op}: {exc}")
                    continue
                self.samples.add(kind, time.perf_counter() - started)
        finally:
            await connection.close()

    async def _gate(self, admin) -> None:
        from repro.bench.loadgen import expected_digests

        want = expected_digests(_instance(plan.final_facts(self.base, self.plans)))
        for backend in plan.BACKENDS:
            for name, query in self.queries.items():
                document = await admin.query(self.theory_id, query, backend=backend)
                if document["digest"] != want[name]:
                    self.errors.append(
                        f"episode {self.index} {backend}/{name}: digest "
                        f"{document['digest']} != fresh session {want[name]}"
                    )


def _episodes(seed: int, seconds: float, traced: bool, count: int = 0) -> "list[Episode]":
    """Episodes until ``seconds`` pass (at least one), or exactly ``count``."""
    episodes = []
    deadline = time.perf_counter() + seconds
    while (len(episodes) < count) if count else (
        not episodes or time.perf_counter() < deadline
    ):
        episode = Episode(seed, len(episodes), traced)
        episode.run()
        episodes.append(episode)
    return episodes


def _setup_times(seed: int) -> "list[float]":
    """Set-up alone (spawn, announce, register, upload, stop), repeated
    until at least :data:`MIN_SETUPS` set-ups took :data:`SETUP_SECONDS`:
    one set-up per timed episode is too few for a steady median."""
    times: "list[float]" = []
    while len(times) < MIN_SETUPS or sum(times) < SETUP_SECONDS:
        episode = Episode(seed, len(times), traced=False, setup_only=True)
        episode.run()
        times.append(episode.setup_s)
    return times


def _merged(episodes) -> Samples:
    samples = Samples()
    for episode in episodes:
        samples.attempted += episode.samples.attempted
        samples.failed += episode.samples.failed
        samples.passes.append(
            (episode.samples.count(), episode.window_end - episode.window_start)
        )
        for kind, values in episode.samples.by_kind.items():
            for value in values:
                samples.add(kind, value)
    return samples


def _busy(episodes) -> float:
    return sum(episode.window_end - episode.window_start for episode in episodes)


def run_service(seed: int, seconds: float, trace: bool) -> dict:
    if not trace:
        setups = _setup_times(seed)
        episodes = _episodes(seed, seconds, traced=False)
        samples = _merged(episodes)
        setup = statistics.median(setups + [episode.setup_s for episode in episodes])
        metrics = {
            "setup_s": (setup, "s"),
            "op_p50_ms": (samples.op_p50_ms(), "ms"),
            "op_tail_ms": (samples.op_tail_ms(TAIL_CAP), "ms"),
            "throughput_ops": (samples.throughput(), "1/s"),
            "peak_rss_mb": (
                statistics.median(episode.peak_rss_mb for episode in episodes), "MB"
            ),
        }
        lines = [
            f"episodes {len(episodes)} x {CLIENTS} clients x {OPS_PER_CLIENT} ops; "
            f"setup_s is the median of {len(setups) + len(episodes)} set-ups"
        ]
        lines += samples.describe(TAIL_CAP)
        lines += _kind_lines(samples, episodes)
        return _outcome(episodes, samples, metrics, lines)

    plain = _episodes(seed, seconds / 2, traced=False)
    episodes = _episodes(seed, 0.0, traced=True, count=len(plain))
    samples = _merged(episodes)
    spans, counters, caches, growths = [], {}, {}, []
    for episode in episodes:
        offset = len(spans)
        for span in episode.spans:
            span = dict(span)
            span["id"] += offset
            if span["parent"] is not None:
                span["parent"] += offset
            spans.append(span)
        for name, value in episode.counters.items():
            counters[name] = counters.get(name, 0) + value
        for info in episode.caches.values():
            for cache, entry in info.items():
                total = caches.setdefault(cache, {"hits": 0, "misses": 0, "entries": 0})
                for field in total:
                    total[field] += entry[field]
        updates = sorted(
            (s for s in episode.spans if s["name"] == "incremental.store_update"),
            key=lambda s: s["start"],
        )
        growths.append(layers.growth([s["end"] - s["start"] for s in updates]))
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"spans-service_mixed-{seed}.jsonl", "w", encoding="utf8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
    db_atoms = sum(episode.db_atoms for episode in episodes)
    extras = {
        "bytes_per_atom": sum(e.db_bytes for e in episodes) / db_atoms if db_atoms else 0.0,
        "meta_bytes": statistics.median(episode.meta_bytes for episode in episodes),
        "growth": statistics.median(growths),
        "trace_overhead": _busy(episodes) / _busy(plain),
        "span_coverage": coverage(
            spans, [(episode.window_start, episode.window_end) for episode in episodes]
        ),
    }
    metrics = layers.per_layer(spans, counters, samples.count(), extras, caches)
    lines = [f"traced episodes {len(episodes)}; spans {len(spans)} written to perfbench/out"]
    return _outcome(plain + episodes, samples, metrics, lines)


def _kind_lines(samples: Samples, episodes) -> "list[str]":
    lines = []
    for kind in ("query_memory", "query_columnar", "query_sqlite", "append", "retract"):
        if kind in samples.by_kind:
            name = kind.replace("query_", "answer_")
            lines.append(f"{name}_p50_ms {samples.kind_p50_ms(kind):.4f} ms")
    lines.append(f"throughput_rps {samples.throughput():.3f} 1/s")
    return lines


def _outcome(episodes, samples: Samples, metrics, lines) -> dict:
    errors = [error for episode in episodes for error in episode.errors]
    failures = [failure for episode in episodes for failure in episode.failures]
    return {
        "correct": not errors and samples.failed == 0,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": metrics,
        "lines": lines
        + [f"failed op: {failure}" for failure in failures[:10]]
        + [f"wrong answer: {error}" for error in errors[:10]],
    }
