"""Replicated serving: N replica servers behind one failover front door.

One :class:`~repro.service.server.QueryServer` scales reads to its
``max_concurrent`` executor threads and no further; a second server
over the same ``--data-dir`` is forbidden outright (the
:class:`~repro.service.persistence.DurableStore` single-writer lock).
:class:`ReplicaSet` is the read-scaling shape the roadmap calls for:

* **N replica processes**, each a full serving stack — its own
  :class:`~repro.service.shared_session.SharedSession` (answer cache,
  coalescing, optional warm materializations) behind its own
  :class:`QueryServer` — restored from the *shared* durable log in
  ``read_only`` mode.  Replicas never touch the files; the front door
  is the log's single writer.

* **A front door** speaking the exact NDJSON protocol of
  :mod:`~repro.service.protocol`, so every existing client works
  unchanged.  Reads (``query``/``ask``) route to the healthy replica
  with the fewest in-flight requests and *fail over*: a transport
  error or per-attempt timeout at one replica retries the request on a
  different one, invisibly to the client.  Writes commit on the front
  door's own session (validate-then-commit — a rejected mutation never
  reaches the log), append to the durable log, then fan out to every
  healthy replica before the client is acknowledged (log order = apply
  order at every replica).

* **Health with a circuit breaker** per replica:
  ``starting → resyncing → healthy`` at boot; ``failure_threshold``
  consecutive read failures (or any write-forward failure) trip the
  breaker to ``open``; after ``probe_interval`` a half-open ping probe
  decides between readmission and re-opening.  A dead process (the
  SIGKILL chaos case) or a stalled heartbeat (the wedged case) is
  restarted outright.  Readmission always passes through **log-replay
  resync**: the records the replica missed — tracked per replica as
  ``applied_seq`` against the log's monotone ``seq`` — are replayed
  from an in-memory tail (or, when the tail cannot bridge the gap, by
  a full restart that re-restores snapshot + log from disk).  Resync
  is sound for the same reason every retry in this repo is sound:
  evaluation is monotone set-semantics Datalog and every node
  deduplicates, so at-least-once delivery of a mutation collapses to
  the same least fixpoint.

* **Graceful degradation** when *no* replica is healthy: reads are
  served from the front door's own bounded cache of recent answers,
  marked ``"stale": true``; a read with no cached answer gets the
  typed ``degraded`` error instead of hanging.

Chaos coverage drives all of this deterministically: a
:class:`~repro.runtime.faults.ServiceFaultPlan` (``REPRO_SERVICE_FAULTS``)
makes a *named* replica kill itself, wedge its event loop, drop
connections, or answer slowly after an exact number of served
requests, and ``tests/service/test_replication.py`` asserts the client
never sees any of it.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing as mp
import os
import shutil
import tempfile
from collections import deque
from dataclasses import dataclass
from multiprocessing.sharedctypes import RawArray
from typing import Optional

from ..cache import BoundedCache
from ..core.program import ProgramError
from ..options import EvalOptions, RuntimeOptions, session_keywords
from ..runtime.faults import ServiceFaultInjector, ServiceFaultPlan, wedge_forever
from .metrics import MetricsRegistry
from .persistence import DurableStore
from .protocol import MAX_REQUEST_BYTES, encode, error_payload
from .server import NDJSONServer, QueryServer, ServerConfig, ServerThread
from .shared_session import SharedSession

__all__ = [
    "ReplicaConfig",
    "ReplicaSetConfig",
    "ReplicaSet",
    "ReplicaSetThread",
]

# Circuit-breaker / lifecycle states, as they appear in stats payloads.
STARTING = "starting"  # process spawned, waiting for its bound port
RESYNCING = "resyncing"  # replaying missed log records before admission
HEALTHY = "healthy"  # in the read rotation and the write fan-out
OPEN = "open"  # breaker tripped; no traffic until a probe passes
HALF_OPEN = "half_open"  # one ping probe in flight
STOPPED = "stopped"  # the set is shutting down


@dataclass(frozen=True)
class ReplicaConfig:
    """Per-replica serving tunables (one replica = one QueryServer)."""

    max_concurrent: int = 4  # evaluation slots per replica
    max_queue: int = 16
    default_deadline: float = 30.0
    answer_cache_size: int = 256
    materialize: bool = False
    materialize_pool: int = 32


@dataclass(frozen=True)
class ReplicaSetConfig:
    """Tunables for the front door and its health machinery."""

    replicas: int = 3
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port lands on set.port
    read_timeout: float = 5.0  # per-attempt ceiling at one replica
    write_timeout: float = 15.0  # per-replica ceiling for a fanned write
    probe_timeout: float = 2.0  # half-open ping budget
    failure_threshold: int = 3  # consecutive read failures that trip the breaker
    probe_interval: float = 0.5  # open → half-open cadence
    heartbeat_interval: float = 0.25  # replica-side beat cadence
    stall_timeout: float = 1.5  # beat frozen this long = wedged, restart
    health_interval: float = 0.1  # health-loop tick
    resync_tail: int = 1024  # in-memory log records kept for resync
    boot_timeout: float = 30.0  # spawn → bound-port budget per replica
    front_cache_size: int = 256  # stale-answer entries for degraded reads
    # Readmission warm-up: before a resynced replica flips HEALTHY, the
    # front door replays up to this many of its most recent distinct
    # reads against it, so the replica's graph/answer caches (and any
    # warm materializations) are hot before real traffic lands on it.
    # 0 disables — a restarted replica then serves its first reads cold.
    warmup_queries: int = 8
    max_request_bytes: int = MAX_REQUEST_BYTES
    drain_timeout: float = 5.0

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError(f"need at least one replica, got {self.replicas}")
        for name in ("front_cache_size", "warmup_queries"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


# ----------------------------------------------------------------------
# The replica process
# ----------------------------------------------------------------------
class _ReplicaQueryServer(QueryServer):
    """A QueryServer that obeys a :class:`ServiceFaultPlan` for chaos tests.

    The injector is consulted once per dispatched request, *before* the
    real dispatch: ``kill`` hard-exits (no drain, no flush — the
    SIGKILL-equivalent the supervisor must mask), ``wedge`` blocks the
    event loop (heartbeats freeze, the stall detector must fire),
    ``drop`` severs the connection without a response, and a float is
    seconds of injected latency (the slow replica the front door's
    per-attempt timeout must route around).
    """

    def __init__(
        self,
        shared: SharedSession,
        config: ServerConfig,
        injector: Optional[ServiceFaultInjector] = None,
    ) -> None:
        super().__init__(shared, config)
        self._injector = injector

    async def _dispatch(self, request: dict):
        if self._injector is not None:
            action = self._injector.on_request(request["op"])
            if action == "kill":
                os._exit(1)
            if action == "wedge":
                wedge_forever()  # pragma: no cover - never returns
            if action == "drop":
                raise ConnectionError("injected connection drop")
            if isinstance(action, float):
                await asyncio.sleep(action)
        return await super()._dispatch(request)


def _replica_main(
    name: str,
    data_dir: str,
    conn,
    heartbeats,
    slot: int,
    heartbeat_interval: float,
    replica_config: ReplicaConfig,
    host: str,
    options: EvalOptions,
    runtime: RuntimeOptions,
    graph_cache_size: int,
) -> None:
    """One replica process: restore read-only, serve, beat, never write.

    Module-level so the fork/spawn contexts can target it.  The boot
    handshake reports ``{"port", "seq", "db_version"}`` through the
    pipe (or ``{"error"}``), after which the parent resyncs any log
    records this replica's restore predates.
    """
    try:
        store = DurableStore(data_dir, read_only=True)
        session, _report = store.restore(
            None, graph_cache_size=graph_cache_size, **session_keywords(options, runtime)
        )
        shared = SharedSession(
            session=session,
            store=None,  # replicas never append; the front door logs
            answer_cache_size=replica_config.answer_cache_size,
            materialize=replica_config.materialize,
            materialize_pool=replica_config.materialize_pool,
        )
        plan = ServiceFaultPlan.from_env()
        injector = plan.injector(name) if plan is not None else None
        server = _ReplicaQueryServer(
            shared,
            ServerConfig(
                host=host,
                port=0,
                max_concurrent=replica_config.max_concurrent,
                max_queue=replica_config.max_queue,
                default_deadline=replica_config.default_deadline,
            ),
            injector=injector,
        )

        async def _main() -> None:
            await server.start()
            conn.send(
                {"port": server.port, "seq": store.seq, "db_version": session.db_version}
            )
            conn.close()

            async def _beat() -> None:
                while True:
                    heartbeats[slot] += 1
                    await asyncio.sleep(heartbeat_interval)

            beat_task = asyncio.get_running_loop().create_task(_beat())
            try:
                await server.serve_forever()
            finally:
                beat_task.cancel()

        asyncio.run(_main())
    except Exception as exc:  # pragma: no cover - boot failures are rare
        try:
            conn.send({"error": f"{type(exc).__name__}: {exc}"})
            conn.close()
        except OSError:
            pass
        os._exit(1)
    os._exit(0)


# ----------------------------------------------------------------------
# Front-door plumbing
# ----------------------------------------------------------------------
class _ReplicaLink:
    """A small pool of NDJSON connections to one replica server.

    Each replica connection serves one request at a time (the server
    dispatches per-connection sequentially), so concurrency comes from
    pooling: a request pops a free connection or dials a fresh one, and
    returns it on success.  Any failure — including the cancellation a
    per-attempt timeout injects — closes the connection instead of
    returning a stream with a half-read response on it.
    """

    def __init__(self, host: str, port: int, max_request_bytes: int) -> None:
        self.host = host
        self.port = port
        self._limit = max_request_bytes + 2
        self._free: list = []
        self._next_id = 0
        self.closed = False

    async def request(self, payload: dict) -> dict:
        if self._free:
            reader, writer = self._free.pop()
        else:
            reader, writer = await asyncio.open_connection(
                self.host, self.port, limit=self._limit
            )
        try:
            self._next_id += 1
            writer.write(encode({**payload, "id": self._next_id}))
            await writer.drain()
            line = await reader.readline()
            if not line:
                raise ConnectionError("replica closed the connection")
            response = json.loads(line)
            if not isinstance(response, dict):
                raise ConnectionError("replica sent a non-object response")
        except BaseException:
            writer.close()
            raise
        if self.closed:
            writer.close()
        else:
            self._free.append((reader, writer))
        return response

    def close(self) -> None:
        self.closed = True
        for _reader, writer in self._free:
            writer.close()
        self._free.clear()


class _Replica:
    """The front door's book-keeping for one replica process."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.name = f"replica-{index}"
        self.state = STARTING
        self.generation = 0  # bumped per spawn; stale tasks check it
        self.process = None
        self.conn = None  # boot-handshake pipe (parent end)
        self.link: Optional[_ReplicaLink] = None
        self.port: Optional[int] = None
        self.applied_seq = 0  # last log record this replica has applied
        self.inflight = 0
        self.consecutive_failures = 0
        self.last_beat = -1
        self.last_beat_change = 0.0
        self.boot_deadline = 0.0
        self.next_probe = 0.0
        self.probe_task = None
        self.resync_task = None
        # Cumulative per-replica accounting, surfaced through stats.
        self.failures = 0
        self.restarts = 0
        self.resyncs = 0
        self.warmups = 0  # readmission warm-up passes completed
        self.warmed_queries = 0  # recent reads replayed across those passes

    def snapshot(self) -> dict:
        proc = self.process
        return {
            "state": self.state,
            "port": self.port,
            "pid": None if proc is None else proc.pid,
            "applied_seq": self.applied_seq,
            "inflight": self.inflight,
            "consecutive_failures": self.consecutive_failures,
            "failures": self.failures,
            "restarts": self.restarts,
            "resyncs": self.resyncs,
            "warmups": self.warmups,
            "warmed_queries": self.warmed_queries,
        }


_TRANSPORT_ERRORS = (
    asyncio.TimeoutError,
    ConnectionError,
    OSError,
    EOFError,
    ValueError,  # unparseable reply: the stream is not trustworthy
)


class ReplicaSet(NDJSONServer):
    """N replica query servers behind one failover front door.

    The front door owns the durable log (single writer, locked at
    boot), commits and validates every mutation on its own session,
    and serves no query itself — reads belong to the replicas, each a
    full :class:`SharedSession` stack restored read-only from the same
    log.  See the module docstring for the health/failover model.

    The transport — lifecycle, connection loop, drain within
    ``drain_timeout``, signal handlers, ``run()`` — is the
    :class:`~repro.service.server.NDJSONServer` that :class:`QueryServer`
    also runs; this class adds routing, failover and write fan-out, its
    ``stats``, and spawning/stopping the replicas.
    :class:`ReplicaSetThread` is the test harness.  Each forked replica
    builds its session from ``options``, ``runtime`` and ``graph_cache_size``.
    """

    requests_counter = ("front_requests_total", "requests at the front door")
    draining_message = "replica set is draining"

    def __init__(
        self,
        source: Optional[str] = None,
        *,
        data_dir=None,
        config: Optional[ReplicaSetConfig] = None,
        replica_config: Optional[ReplicaConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        fsync_interval: float = 0.0,
        snapshot_every: int = 1000,
        options: EvalOptions = EvalOptions(),
        runtime: RuntimeOptions = RuntimeOptions(),
        graph_cache_size: int = 64,
    ) -> None:
        super().__init__(
            config or ReplicaSetConfig(),
            metrics if metrics is not None else MetricsRegistry(),
        )
        self.replica_config = replica_config or ReplicaConfig()
        self._owns_data_dir = data_dir is None
        self.data_dir = (
            tempfile.mkdtemp(prefix="repro-replicaset-")
            if data_dir is None
            else os.fspath(data_dir)
        )
        # What each replica's session is built with, refused here rather
        # than in every replica when a Session cannot take it.
        session_keywords(options, runtime)
        self._session_values = (options, runtime, graph_cache_size)
        self.store = DurableStore(
            self.data_dir,
            fsync_interval=fsync_interval,
            snapshot_every=snapshot_every,
        )
        # Fail a doubly-served --data-dir at construction, not first write.
        self.store.acquire_lock()
        try:
            # The front door's own session is the write oracle: mutations
            # validate-then-commit here first, so nothing unparseable can
            # ever reach the log and poison every replica's replay.  It
            # also provides the base snapshots compaction needs.
            self._session, self.replay_report = self.store.restore(source)
        except BaseException:
            self.store.close()
            raise
        self._tail: deque = deque(maxlen=self.config.resync_tail)
        self._mp = mp.get_context("fork")
        self._heartbeats = RawArray("q", self.config.replicas)
        self._replicas = [_Replica(i) for i in range(self.config.replicas)]
        # The last good answer per (op, text), served stale to degraded reads.
        self._front_cache = BoundedCache(self.config.front_cache_size)
        # The bounded recent-query log readmission warm-up replays: the
        # most recent *successful* distinct read texts, in recency order
        # (query and ask of the same text dedup — they prime the same
        # caches).  Values are ready-to-send ``warm`` request payloads.
        self._recent_reads = BoundedCache(self.config.warmup_queries)
        m = self.metrics
        self._failovers = m.counter(
            "failovers_total", "read attempts retried on a different replica"
        )
        self._read_errors = m.counter(
            "replica_read_failures_total", "transport/timeout failures during reads"
        )
        self._writes = m.counter("front_writes_total", "mutations committed and logged")
        self._fanout_failures = m.counter(
            "write_fanout_failures_total", "replicas that missed a fanned write"
        )
        self._restarts = m.counter("replica_restarts_total", "replica processes respawned")
        self._resyncs = m.counter(
            "replica_resyncs_total", "log-replay resyncs completed before (re)admission"
        )
        self._warmups = m.counter(
            "replica_warmups_total", "readmission warm-up passes completed"
        )
        self._warmup_replays = m.counter(
            "warmup_queries_replayed_total",
            "recent reads replayed against resyncing replicas",
        )
        self._trips = m.counter("breaker_trips_total", "circuit breakers opened")
        self._stale_served = m.counter(
            "stale_reads_served_total", "degraded reads answered from the front cache"
        )
        self._degraded_errors = m.counter(
            "degraded_errors_total", "degraded reads with no cached answer"
        )
        self._write_lock: Optional[asyncio.Lock] = None
        self._health_task = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, wait_healthy: bool = True) -> None:
        """Spawn the replicas and bind the front door.

        With ``wait_healthy`` (the default), blocks until every replica
        has booted, resynced, and joined the rotation — or raises if
        none makes it within ``boot_timeout``.
        """
        self._write_lock = asyncio.Lock()
        for rep in self._replicas:
            self._spawn(rep)
        await super().start()
        self._health_task = asyncio.get_running_loop().create_task(self._health_loop())
        if wait_healthy:
            await self._wait_healthy()

    async def _wait_healthy(self) -> None:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.boot_timeout
        while loop.time() < deadline:
            if all(rep.state == HEALTHY for rep in self._replicas):
                return
            await asyncio.sleep(0.02)
        if not any(rep.state == HEALTHY for rep in self._replicas):
            await self.shutdown()
            raise RuntimeError(
                f"no replica became healthy within {self.config.boot_timeout}s"
            )

    async def _stop_backend(self) -> None:
        """Stop the health loop and every replica; release the log."""
        if self._health_task is not None:
            self._health_task.cancel()
        for rep in self._replicas:
            for task in (rep.probe_task, rep.resync_task):
                if task is not None:
                    task.cancel()
            rep.state = STOPPED
            if rep.link is not None:
                rep.link.close()
            proc = rep.process
            if proc is not None and proc.is_alive():
                proc.terminate()
        loop = asyncio.get_running_loop()
        for rep in self._replicas:
            proc = rep.process
            if proc is None:
                continue
            await loop.run_in_executor(None, proc.join, 5)
            if proc.is_alive():  # pragma: no cover - terminate sufficed so far
                proc.kill()
                await loop.run_in_executor(None, proc.join, 5)
        self.store.close()
        if self._owns_data_dir:
            shutil.rmtree(self.data_dir, ignore_errors=True)

    def _abort_backend(self) -> None:  # pragma: no cover - no loop signal handlers
        for rep in self._replicas:
            proc = rep.process
            if proc is not None and proc.is_alive():
                proc.kill()
        self.store.close()

    # ------------------------------------------------------------------
    # Replica processes
    # ------------------------------------------------------------------
    def _spawn(self, rep: _Replica) -> None:
        rep.generation += 1
        rep.state = STARTING
        rep.port = None
        rep.consecutive_failures = 0
        if rep.link is not None:
            rep.link.close()
            rep.link = None
        parent_conn, child_conn = self._mp.Pipe(duplex=False)
        rep.conn = parent_conn
        rep.process = self._mp.Process(
            target=_replica_main,
            args=(
                rep.name,
                self.data_dir,
                child_conn,
                self._heartbeats,
                rep.index,
                self.config.heartbeat_interval,
                self.replica_config,
                self.config.host,
                *self._session_values,
            ),
            name=rep.name,
            daemon=True,
        )
        rep.process.start()
        child_conn.close()
        now = self._now()
        rep.boot_deadline = now + self.config.boot_timeout
        rep.last_beat = self._heartbeats[rep.index]
        rep.last_beat_change = now
        rep.probe_task = None
        rep.resync_task = None

    def _restart(self, rep: _Replica, reason: str) -> None:
        """Kill (if needed) and respawn one replica; stale tasks see the bump."""
        self._restarts.inc()
        rep.restarts += 1
        for task in (rep.probe_task, rep.resync_task):
            if task is not None:
                task.cancel()
        proc = rep.process
        if proc is not None and proc.is_alive():
            proc.kill()
        if proc is not None:
            # Reap off-loop; SIGKILL cannot be refused, so join terminates.
            try:
                asyncio.get_running_loop().run_in_executor(None, proc.join, 10)
            except RuntimeError:  # pragma: no cover - no loop (teardown)
                proc.join(0.1)
        self._spawn(rep)

    @staticmethod
    def _now() -> float:
        try:
            return asyncio.get_running_loop().time()
        except RuntimeError:  # pragma: no cover - called before start()
            return 0.0

    # ------------------------------------------------------------------
    # Health: liveness, heartbeats, breaker probes
    # ------------------------------------------------------------------
    async def _health_loop(self) -> None:
        while not self._draining:
            self._health_tick()
            await asyncio.sleep(self.config.health_interval)

    def _health_tick(self) -> None:
        now = self._now()
        for rep in self._replicas:
            if rep.state == STOPPED:
                continue
            proc = rep.process
            if proc is None or proc.exitcode is not None:
                # Death (SIGKILL chaos, injected kill, crash): respawn.
                self._restart(rep, "process exited")
                continue
            beat = self._heartbeats[rep.index]
            if beat != rep.last_beat:
                rep.last_beat = beat
                rep.last_beat_change = now
            elif (
                rep.state != STARTING
                and now - rep.last_beat_change > self.config.stall_timeout
            ):
                # Alive but frozen: the wedged-event-loop fault.
                self._restart(rep, "heartbeat stalled")
                continue
            if rep.state == STARTING:
                self._poll_boot(rep, now)
            elif rep.state == OPEN and now >= rep.next_probe and rep.probe_task is None:
                rep.state = HALF_OPEN
                rep.probe_task = asyncio.get_running_loop().create_task(
                    self._probe(rep, rep.generation)
                )

    def _poll_boot(self, rep: _Replica, now: float) -> None:
        conn = rep.conn
        try:
            ready = conn is not None and conn.poll()
        except (OSError, EOFError):
            ready = False
        if ready:
            try:
                msg = conn.recv()
            except (OSError, EOFError):
                self._restart(rep, "boot handshake lost")
                return
            if "error" in msg:
                self._restart(rep, f"boot failed: {msg['error']}")
                return
            rep.port = int(msg["port"])
            rep.applied_seq = int(msg["seq"])
            rep.link = _ReplicaLink(
                self.config.host, rep.port, self.config.max_request_bytes
            )
            rep.state = RESYNCING
            rep.resync_task = asyncio.get_running_loop().create_task(
                self._resync_and_admit(rep, rep.generation)
            )
        elif now > rep.boot_deadline:
            self._restart(rep, "boot timeout")

    async def _probe(self, rep: _Replica, generation: int) -> None:
        """One half-open ping; success leads into resync + readmission."""
        ok = False
        try:
            response = await asyncio.wait_for(
                rep.link.request({"op": "ping"}), self.config.probe_timeout
            )
            ok = bool(response.get("ok"))
        except asyncio.CancelledError:
            raise
        except _TRANSPORT_ERRORS:
            ok = False
        if rep.generation != generation or rep.state != HALF_OPEN:
            return  # restarted or torn down while we probed
        rep.probe_task = None
        if not ok:
            rep.state = OPEN
            rep.next_probe = self._now() + self.config.probe_interval
            return
        rep.state = RESYNCING
        await self._resync_and_admit(rep, generation)

    # ------------------------------------------------------------------
    # Resync: replay the log records a replica missed, then admit it
    # ------------------------------------------------------------------
    async def _resync_and_admit(self, rep: _Replica, generation: int) -> None:
        warmed = False
        while True:
            if rep.generation != generation or rep.state != RESYNCING:
                return
            if rep.applied_seq >= self.store.seq:
                if not warmed:
                    # Warm-up happens once per admission, caught-up but
                    # *before* the HEALTHY flip and outside the write
                    # lock: replaying reads must not block writers, and
                    # a write landing mid-warm-up simply sends the loop
                    # back through tail replay (fan-out skips RESYNCING
                    # replicas, so applied_seq lags again and the gap is
                    # bridged above before admission is re-checked).
                    warmed = True
                    if not await self._warm_replica(rep, generation):
                        return
                    continue
                # Admission happens under the write lock: a write either
                # committed before (its record is in applied_seq) or
                # will fan out to this now-healthy replica — no record
                # can fall between the check and the admission.
                async with self._write_lock:
                    if rep.generation != generation or rep.state != RESYNCING:
                        return
                    if rep.applied_seq >= self.store.seq:
                        rep.state = HEALTHY
                        rep.consecutive_failures = 0
                        rep.resyncs += 1
                        self._resyncs.inc()
                        return
                continue
            records = [r for r in self._tail if r["seq"] > rep.applied_seq]
            if not records or records[0]["seq"] != rep.applied_seq + 1:
                # The bounded tail cannot bridge the gap; a restart
                # re-restores snapshot + full log from disk instead.
                self._restart(rep, "resync gap exceeds the in-memory tail")
                return
            for record in records:
                if rep.generation != generation:
                    return
                try:
                    response = await asyncio.wait_for(
                        rep.link.request(_record_request(record)),
                        self.config.write_timeout,
                    )
                except asyncio.CancelledError:
                    raise
                except _TRANSPORT_ERRORS:
                    self._trip(rep, generation)
                    return
                if not response.get("ok"):
                    self._trip(rep, generation)
                    return
                rep.applied_seq = record["seq"]

    async def _warm_replica(self, rep: _Replica, generation: int) -> bool:
        """Replay the recent-read log against ``rep`` before readmission.

        Most-recent first, bounded by ``warmup_queries``.  Returns False
        when admission must be abandoned (the replica died or a transport
        failure tripped its breaker); typed errors from individual
        replays — a query whose rules changed since it was logged — are
        skipped, not fatal: warm-up is an optimization, the replica is
        still consistent.
        """
        payloads = [payload for _, payload in reversed(self._recent_reads.items())]
        replayed = 0
        for payload in payloads:
            if rep.generation != generation or rep.state != RESYNCING:
                return False
            try:
                await asyncio.wait_for(
                    rep.link.request(dict(payload)), self.config.read_timeout
                )
            except asyncio.CancelledError:
                raise
            except _TRANSPORT_ERRORS:
                self._trip(rep, generation)
                return False
            replayed += 1
        if rep.generation != generation or rep.state != RESYNCING:
            return False
        rep.warmups += 1
        rep.warmed_queries += replayed
        self._warmups.inc()
        self._warmup_replays.inc(replayed)
        return True

    def _trip(self, rep: _Replica, generation: Optional[int] = None) -> None:
        """Open the breaker: out of rotation until a probe + resync pass."""
        if generation is not None and rep.generation != generation:
            return
        if rep.state in (STOPPED, STARTING):
            return
        if rep.state != OPEN:
            self._trips.inc()
        rep.state = OPEN
        rep.probe_task = None
        rep.next_probe = self._now() + self.config.probe_interval
        if rep.link is not None:
            rep.link.close()
            rep.link = _ReplicaLink(
                self.config.host, rep.port, self.config.max_request_bytes
            )

    # ------------------------------------------------------------------
    # Dispatch: the shared prologue, then route reads and writes
    # ------------------------------------------------------------------
    async def _dispatch(self, request: dict) -> tuple[dict, bool]:
        op = request["op"]
        rid = request.get("id")
        control = self._control(op, rid)
        if control is not None:
            return control
        if op in ("query", "ask", "warm"):
            text = request.get("query")
            if not isinstance(text, str) or not text.strip():
                return error_payload("bad_request", f"{op} needs a 'query' string", rid), False
            return await self._read(request, rid, op, text)
        field = "facts" if op == "add_facts" else "rules"
        text = request.get(field)
        if not isinstance(text, str):
            return error_payload("bad_request", f"{op} needs a '{field}' string", rid), False
        return await self._write(rid, op, field, text)

    # ------------------------------------------------------------------
    # Reads: least-inflight routing, failover, stale fallback
    # ------------------------------------------------------------------
    def _pick_replica(self, exclude: set) -> Optional[_Replica]:
        candidates = [
            rep
            for rep in self._replicas
            if rep.state == HEALTHY and rep.name not in exclude and rep.link is not None
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda rep: rep.inflight)

    async def _read(
        self, request: dict, rid, op: str, text: str
    ) -> tuple[dict, bool]:
        payload = {"op": op, "query": text}
        if request.get("timeout") is not None:
            payload["timeout"] = request["timeout"]
        attempt_timeout = min(
            float(request.get("timeout") or self.config.read_timeout),
            self.config.read_timeout,
        )
        tried: set = set()
        attempts = 0
        while True:
            rep = self._pick_replica(tried)
            if rep is None:
                break
            tried.add(rep.name)
            attempts += 1
            if attempts > 1:
                self._failovers.inc()
            generation = rep.generation
            rep.inflight += 1
            try:
                response = await asyncio.wait_for(
                    rep.link.request(payload), attempt_timeout
                )
            except asyncio.CancelledError:
                raise
            except _TRANSPORT_ERRORS:
                self._read_errors.inc()
                self._note_failure(rep, generation)
                continue
            finally:
                rep.inflight -= 1
            # The replica answered — typed errors included, it is alive.
            if rep.generation == generation:
                rep.consecutive_failures = 0
            response["id"] = rid
            response["replica"] = rep.name
            if response.get("ok") and op != "warm":
                self._cache_answer(op, text, response)
                self._record_recent(text)
            return response, False
        return self._degraded_read(op, text, rid), False

    def _note_failure(self, rep: _Replica, generation: int) -> None:
        if rep.generation != generation or rep.state != HEALTHY:
            return
        rep.failures += 1
        rep.consecutive_failures += 1
        if rep.consecutive_failures >= self.config.failure_threshold:
            self._trip(rep, generation)

    def _cache_answer(self, op: str, text: str, response: dict) -> None:
        entry = {
            k: v for k, v in response.items() if k not in ("id", "replica")
        }
        self._front_cache.put((op, text), entry)

    def _record_recent(self, text: str) -> None:
        """Note one successful read in the bounded warm-up replay log.

        Stored as ``warm`` requests: the replica evaluates them exactly
        like queries (same graph/answer-cache effects) but ships no rows
        back, and the distinct op keeps client-scoped chaos plans
        (``only_ops: ["query"]``) from firing on internal replays.
        """
        self._recent_reads.put(text, {"op": "warm", "query": text})

    def _degraded_read(self, op: str, text: str, rid) -> dict:
        cached = self._front_cache.peek((op, text))
        if cached is not None:
            self._stale_served.inc()
            return {**cached, "id": rid, "stale": True}
        self._degraded_errors.inc()
        return error_payload(
            "degraded",
            "no healthy replica and no cached answer for this query; retry shortly",
            rid,
        )

    # ------------------------------------------------------------------
    # Writes: validate on the oracle, log, fan out, ack
    # ------------------------------------------------------------------
    def _commit_write(self, op: str, text: str) -> Optional[int]:
        """Commit on the oracle session and append to the log (executor thread).

        Returns the record's seq, or None for a no-op commit (nothing
        to replay, nothing to fan out).  Raises the session's own
        validation errors — nothing invalid is ever logged.
        """
        before = self._session.db_version
        if op == "add_facts":
            self._session.add_facts(text)
        else:
            self._session.add_rules(text)
        if self._session.db_version == before:
            return None
        seq = self.store.record(op, text)
        if self.store.should_compact():
            self.store.compact(self._session)
        return seq

    async def _write(self, rid, op: str, field: str, text: str) -> tuple[dict, bool]:
        loop = asyncio.get_running_loop()
        async with self._write_lock:  # type: ignore[union-attr]
            try:
                seq = await loop.run_in_executor(None, self._commit_write, op, text)
            except (ProgramError, ValueError, SyntaxError) as exc:
                return error_payload("bad_request", str(exc), rid), False
            except Exception as exc:  # pragma: no cover - defensive
                return error_payload("internal", f"{type(exc).__name__}: {exc}", rid), False
            self._writes.inc()
            applied = len(self._replicas)
            if seq is not None:
                record = {"seq": seq, "op": op, field: text}
                self._tail.append(record)
                targets = [rep for rep in self._replicas if rep.state == HEALTHY]
                results = await asyncio.gather(
                    *(self._forward_write(rep, record) for rep in targets)
                )
                applied = sum(1 for ok in results if ok)
        response = {"id": rid, "ok": True, "op": op, "replicas_applied": applied}
        if seq is not None:
            response["seq"] = seq
        return response, False

    async def _forward_write(self, rep: _Replica, record: dict) -> bool:
        """Apply one logged record at one replica; failure trips its breaker.

        The client's ack never depends on this succeeding — the record
        is already durable in the log, and a replica that missed it is
        simply out of rotation until resync replays it.
        """
        generation = rep.generation
        try:
            response = await asyncio.wait_for(
                rep.link.request(_record_request(record)), self.config.write_timeout
            )
        except asyncio.CancelledError:
            raise
        except _TRANSPORT_ERRORS:
            self._fanout_failures.inc()
            self._trip(rep, generation)
            return False
        if not response.get("ok"):
            self._fanout_failures.inc()
            self._trip(rep, generation)
            return False
        if rep.generation == generation:
            rep.applied_seq = record["seq"]
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def seq(self) -> int:
        return self.store.seq

    def healthy_count(self) -> int:
        return sum(1 for rep in self._replicas if rep.state == HEALTHY)

    def stats(self) -> dict:
        """The stats-op payload: per-replica health plus set-wide counters."""
        return {
            "replication": {
                "replicas": {rep.name: rep.snapshot() for rep in self._replicas},
                "healthy": self.healthy_count(),
                "seq": self.store.seq,
                "db_version": self._session.db_version,
                "failovers": self._failovers.value,
                "read_failures": self._read_errors.value,
                "breaker_trips": self._trips.value,
                "restarts": self._restarts.value,
                "resyncs": self._resyncs.value,
                "warmups": self._warmups.value,
                "warmup_queries_replayed": self._warmup_replays.value,
                "recent_reads_logged": len(self._recent_reads),
                "writes": self._writes.value,
                "fanout_failures": self._fanout_failures.value,
                "stale_served": self._stale_served.value,
                "degraded_errors": self._degraded_errors.value,
                "front_cache_entries": len(self._front_cache),
            },
            "persistence": self.store.stats(),
            "metrics": self.metrics.snapshot(),
        }


def _record_request(record: dict) -> dict:
    """One tail/log record as the wire request that applies it."""
    if record["op"] == "add_facts":
        return {"op": "add_facts", "facts": record["facts"]}
    return {"op": "add_rules", "rules": record["rules"]}


# ----------------------------------------------------------------------
class ReplicaSetThread(ServerThread):
    """A :class:`ReplicaSet` on a background thread (tests and benchmarks).

    The :class:`~repro.service.server.ServerThread` harness with a
    replica set behind it: ``start()`` blocks until the front door is
    bound *and* every replica is healthy, returning the port; ``stop()``
    drains from any thread.

        with ReplicaSetThread(PROGRAM, data_dir=d) as port:
            ServiceClient(port=port).query("anc(ann, Z)")
    """

    _thread_name = "repro-replicaset"
    _what = "replica set"
    start_timeout = stop_timeout = 60.0

    def __init__(self, *args, **kwargs) -> None:
        self._harness(lambda: ReplicaSet(*args, **kwargs))

    @property
    def replica_set(self) -> Optional[ReplicaSet]:
        return self.server  # type: ignore[return-value]
