"""serve_write_refresh: writes beside reads on a hot set that fits every cache.

``serve <kb> --package --materialize --data-dir <dir> --fsync-interval 0``
(every acknowledged write is fsynced).  One writer connection and one
background reader connection share an 8-query hot set.  An op is one write
cycle: ``add_facts`` of a 4-edge batch under a hot node, then ``query`` of
that node's closure, which must contain exactly the rows written so far
(write-to-fresh-answer).  The same ``service``/``session`` layers as the
read workload, used as writes beside reads — write lock, log append, delta
refresh, answer re-render — so a read gain that costs writes, or a
durability shortcut, shows.

Every write re-renders all eight hot answers, and they grow by four rows
per write, so a server gets slower as it is written to (200 cycles/s fresh,
80 after 1,000 cycles).  Each round of the window therefore runs on a
server of its own, booted over an empty data dir: all rounds follow the
same trajectory, the boots are the run's set-ups, and every round ends in a
SIGKILL and a restart from the data dir that must bring back every
acknowledged write.
"""

from __future__ import annotations

import itertools
import os
import shutil
import threading
import time
from dataclasses import dataclass

from repro.core.parser import parse_program
from repro.relational.database import Database
from repro.service import AnswerCache, DurableStore

from .. import inputs, procs
from ..common import (
    Config,
    Result,
    Section,
    closed_loop,
    record_setups,
    record_window,
    stat_delta,
)
from ..stats import Measured, percentile
from ..tracing import Tracer
from .serve_read_zipf import boot, write_kb

NAME = "serve_write_refresh"
BATCH = 4  # edges per add_facts
CYCLES_PER_S = 170  # nominal write cycles per second on a fresh server
NEW_IDS = 10_000_000  # fresh node ids start above every generated id


def data_dir(tag: str) -> str:
    """A fresh directory under bench/out/ (removed first if it exists)."""
    path = os.path.join(procs.OUT_DIR, f"data-{tag}")
    shutil.rmtree(path, ignore_errors=True)
    return path


SERVE_FLAGS = ("--materialize", "--fsync-interval", "0", "--data-dir")


class HotSet:
    """The hot nodes, what each one's closure must contain, and the writes."""

    def __init__(self, data: inputs.ServeInputs) -> None:
        baseline = inputs.descendants_by_node(data.edges)
        self.nodes = list(data.hot)
        self.expected = {n: set(baseline[n]) for n in self.nodes}  # acked rows
        self.issued = {n: set(baseline[n]) for n in self.nodes}  # acked or in flight
        self.acked = {n: len(baseline[n]) for n in self.nodes}
        self._ids = itertools.count(NEW_IDS)
        self._turn = itertools.cycle(self.nodes)

    def next_write(self):
        """(node, new ids, facts text) for the next batch, round-robin."""
        node = next(self._turn)
        new = [next(self._ids) for _ in range(BATCH)]
        self.issued[node].update((n,) for n in new)
        return node, new, " ".join(f"e({node},{n})." for n in new)

    def ack(self, node, new) -> None:
        self.expected[node].update((n,) for n in new)
        self.acked[node] = len(self.expected[node])

    def query(self, node) -> str:
        return f"t({node},Z)"


def _writer_step(client, hot: HotSet, acks: list, tracer: Tracer):
    def step() -> list:
        node, new, text = hot.next_write()
        start = time.perf_counter()
        try:
            with tracer.span("service.ServiceClient.add_facts"):
                client.add_facts(text)
            acks.append(time.perf_counter() - start)
            hot.ack(node, new)
            with tracer.span("service.ServiceClient.query"):
                reply = client.query(hot.query(node))
            ok = reply.answers == hot.expected[node]  # fresh, nothing stale
        except Exception:
            ok = False
        return [(time.perf_counter() - start, ok)]

    return step


def _background_reader(port: int, hot: HotSet, stop: threading.Event, out: Result, latencies: list):
    """Closed-loop reads of the hot set while writes land (monotone check)."""
    from repro.service import ServiceClient

    client = ServiceClient(port=port, retries=0)
    try:
        for node in itertools.cycle(hot.nodes):
            if stop.is_set():
                return
            acked_before = hot.acked[node]
            start = time.perf_counter()
            try:
                answers = client.query(hot.query(node)).answers
                latencies.append(time.perf_counter() - start)
                # At least everything acknowledged before the request went
                # out, at most everything issued by the time it came back.
                ok = len(answers) >= acked_before and answers <= hot.issued[node]
            except Exception:
                ok = False
            out.count(ok, f"background read of {node} stale or wrong")
    finally:
        client.close()


def _boot_warm(kb_path: str, directory: str, hot: HotSet, result: Result):
    """Boot over ``directory`` and touch every hot query; (server, client, seconds).

    The touch materializes the hot networks and, after a restart, proves
    that every acknowledged write survived.
    """
    server, client, _ = boot(kb_path, *SERVE_FLAGS, directory, tag=NAME)
    for node in hot.nodes:
        try:
            ok = client.query(hot.query(node)).answers == hot.expected[node]
        except Exception:
            ok = False
        result.count(ok, f"hot answer for {node} wrong after boot (lost write?)")
    return server, client, time.perf_counter() - server.started


def _restart(server, kb_path: str, directory: str, hot: HotSet, result: Result):
    """SIGKILL -> serve --data-dir -> every hot answer complete; (seconds, server)."""
    start = time.perf_counter()
    server.kill()
    server, client, _ = _boot_warm(kb_path, directory, hot, result)
    client.close()
    return time.perf_counter() - start, server


@dataclass
class Window:
    """One round on one server: the writer's samples and what ran beside it."""

    samples: list  # (write-cycle seconds, ok)
    wall: float
    acks: list  # add_facts acknowledgement latencies (seconds)
    reads: list  # background-reader latencies (seconds)
    reader: Result  # the background reader's own failure accounting

    @property
    def rate(self) -> float:
        return sum(ok for _, ok in self.samples) / self.wall


def _run_window(server, hot: HotSet, cycles: int, limit_s: float, tracer: Tracer, writer) -> Window:
    """``cycles`` write cycles (``limit_s`` at most) with the background reader beside them."""
    window = Window([], 0.0, [], [], Result())
    stop = threading.Event()
    reader = threading.Thread(
        target=_background_reader, args=(server.port, hot, stop, window.reader, window.reads)
    )
    reader.start()
    try:
        rounds, walls = closed_loop(
            [_writer_step(writer, hot, window.acks, tracer)], 1, cycles, limit_s
        )
    finally:
        stop.set()
        reader.join()
    window.samples, window.wall = rounds[0], walls[0]
    return window


def run_e2e(cfg: Config) -> Result:
    data = inputs.serve_inputs(cfg.seed, cfg.scale)
    kb_path = write_kb(data.entry.text, NAME)
    result = Result()
    windows, setup_times, restart_times, rss = [], [], [], 0.0
    for index in range(cfg.rounds):
        hot = HotSet(data)
        directory = data_dir(f"e2e-{index}")
        server, writer, seconds = _boot_warm(kb_path, directory, hot, result)
        setup_times.append(seconds)
        try:
            windows.append(
                _run_window(
                    server, hot, cfg.steps_per_round(CYCLES_PER_S), cfg.round_limit_s,
                    Tracer(False), writer,
                )
            )
        finally:
            writer.close()
        seconds, restarted = _restart(server, kb_path, directory, hot, result)
        restart_times.append(seconds)
        restarted.kill()
        rss = max(rss, server.peak_rss_mb, restarted.peak_rss_mb)
    record_setups(result, setup_times)
    record_window(result, [w.samples for w in windows], [w.wall for w in windows])
    result.absorb(*(w.reader for w in windows))
    result.metrics["write_ack_p50_ms"] = Measured.of_rounds(
        (percentile(w.acks, 0.5) * 1e3 for w in windows), sum(len(w.acks) for w in windows)
    )
    result.metrics["bg_read_p50_ms"] = Measured.of_rounds(
        (percentile(w.reads, 0.5) * 1e3 for w in windows), sum(len(w.reads) for w in windows)
    )
    result.metrics["restart_s"] = Measured.of_rounds(restart_times, len(restart_times))
    result.metrics["peak_rss_mb"] = Measured.single(rss)
    return result


# ----------------------------------------------------------------------
def run_layers(cfg: Config, tracer: Tracer, budget_s: float) -> Section:
    """Write-path numbers: client spans, stats deltas, restarts, in-process replay."""
    data = inputs.serve_inputs(cfg.seed, cfg.scale)
    kb_path = write_kb(data.entry.text, NAME)
    result = Result()
    cycles = max(1, round(budget_s * 0.4 * CYCLES_PER_S))

    def one_server(tag: str, window_tracer: Tracer):
        """A fresh server, one window on it; stats-op snapshots around the window."""
        hot = HotSet(data)
        directory = data_dir(tag)
        server, writer, _ = _boot_warm(kb_path, directory, hot, result)
        try:
            before = writer.stats()
            window = _run_window(server, hot, cycles, budget_s * 0.8, window_tracer, writer)
            after = writer.stats()
        finally:
            writer.close()
        for _, ok in window.samples:
            result.count(ok, "write cycle stale or failed")
        result.absorb(window.reader)
        return server, hot, directory, window, before, after

    # Untraced and traced windows each on a server of their own: the same
    # trajectory of growing answers, so the ratio of their rates is the
    # tracing overhead alone.
    server, _, _, plain, _, _ = one_server("layers-plain", Tracer(False))
    server.kill()
    server, hot, directory, traced, before, after = one_server("layers-traced", tracer)
    restarts = []
    for _ in range(3 if cfg.scale == "full" else 1):
        seconds, server = _restart(server, kb_path, directory, hot, result)
        restarts.append(seconds)
    server.kill()
    plain_p90 = percentile([latency for latency, _ in plain.samples], 0.9) * 1e3

    # The write cycle replayed in-process, layer by layer in the order
    # SharedSession.add_facts runs it: Session.add_facts -> DurableStore
    # append -> refresh of every warm network -> answer re-store.
    replay_hot = HotSet(data)
    store = DurableStore(data_dir("replay"), fsync_interval=0.0)
    with tracer.span("service.DurableStore.restore", phase="bootstrap"):
        session, _ = store.restore(data.entry.text, package_requests=True)
    scratch_db = Database.from_facts(session.facts)
    cache = AnswerCache(256)
    mats = {}
    for node in replay_hot.nodes:
        with tracer.span("session.Session.materialize"):
            mats[node] = session.materialize(replay_hot.query(node))
    replayed = 200 if cfg.scale == "full" else 20
    for index in range(replayed):
        node, new, text = replay_hot.next_write()
        atoms = parse_program(text, validate=False).facts
        with tracer.span("relational.Database.add_facts"):
            scratch_db.add_facts(atoms)
        with tracer.span("replay.write_cycle", op=f"{NAME}:{index}"):
            with tracer.span("session.Session.add_facts"):
                session.add_facts(text)
            with tracer.span("service.DurableStore.record"):
                store.record("add_facts", text)
            for mat in mats.values():
                with tracer.span("session.MaterializedQuery.refresh"):
                    refreshed = mat.refresh()
                with tracer.span("service.AnswerCache.put"):
                    cache.put(mat.key, session.db_version, frozenset(refreshed.answers))
        replay_hot.ack(node, new)
        result.count(mats[node].answers == replay_hot.expected[node], "replay refresh wrong")
    log_bytes = os.path.getsize(store.log_path)
    store.close()
    reopened = DurableStore(store.data_dir, fsync_interval=0.0)
    with tracer.span("service.DurableStore.restore", phase="replay"):
        restored, report = reopened.restore(package_requests=True)
    reopened.close()
    result.count(len(restored.facts) == len(session.facts), "in-process replay lost facts")

    cycle_s = tracer.total("replay.write_cycle") / replayed
    values = {
        "serve_write_refresh.op_p90_ms": plain_p90,
        "serve_write_refresh.write_ack_p50_ms": percentile(plain.acks, 0.5) * 1e3,
        "serve_write_refresh.bg_read_p50_ms": percentile(plain.reads, 0.5) * 1e3,
        "serve_write_refresh.restart_s": percentile(restarts, 0.5),
        "relational.extend_ms": tracer.median("relational.Database.add_facts") * 1e3,
        "session.materialize_ms": tracer.median("session.Session.materialize") * 1e3,
        "session.add_facts_ms": tracer.median("session.Session.add_facts") * 1e3,
        "session.refresh_ms": tracer.median("session.MaterializedQuery.refresh") * 1e3,
        "service.refresh_ms_per_write": tracer.total("session.MaterializedQuery.refresh")
        / replayed * 1e3,
        "service.lock.writes_acquired": stat_delta(
            after, before, "session", "lock", "writes_acquired"
        ),
        "service.persistence.append_ms": tracer.median("service.DurableStore.record") * 1e3,
        "service.persistence.fsyncs": stat_delta(after, before, "session", "persistence", "fsyncs"),
        "service.persistence.log_bytes_per_fact": log_bytes / (replayed * BATCH),
        "service.persistence.replay_s": tracer.median("service.DurableStore.restore", phase="replay"),
        "service.persistence.replayed_records": report.records_replayed,
        "service.materialized.delta_refreshes": stat_delta(
            after, before, "session", "materialized", "delta_refreshes"
        ),
        "service.materialized.answer_refreshes": stat_delta(
            after, before, "session", "materialized", "answer_refreshes"
        ),
    }
    return Section(
        values, result, coverage=cycle_s * plain.rate, overhead=traced.rate / plain.rate
    )
