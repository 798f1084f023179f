"""The cluster manager: registration, shard dispatch, relay, supervision.

One asyncio TCP server plays the role the parent process plays in the
pooled runtime (``runtime/pool_engine.py``), translated onto sockets:

* **Registration.**  Workers connect, send a HELLO carrying the protocol
  version byte, and are welcomed into the registry (or rejected with a
  typed reason on a version mismatch).  A worker that reconnects under the
  same name keeps its identity and bumps a ``reconnects`` counter.

* **Dispatch.**  A client submits a JOB naming its two spec parts — the
  *plan* and the *edb* — by digest (:mod:`repro.cluster.spec`), carrying
  the pickled bytes of only the parts this manager has not seen.  The
  manager keeps a bounded blob store by digest and remembers which
  digests each worker link has acknowledged; it assigns one shard per
  registered worker and sends each a JOB header naming its ``shard_id``
  plus only the parts *that worker* lacks.  A warm repeat therefore moves
  a few hundred bytes per hop.  Misses heal in band: a digest the manager
  lacks answers the client ``spec_miss`` (it resends), a digest a worker
  lacks comes back as a SPEC_MISS frame (the manager resends from the
  job's own blobs).  Every worker builds the *same* engine from the same
  parts and computes the same deterministic ``assign_shards`` map, exactly
  as the pool's forked workers inherit one engine, so the manager itself
  never needs to parse a Datalog program — or unpickle anything.

* **Relay.**  Cross-shard :class:`~repro.network.messages.MessageBatch`
  envelopes travel worker → manager → worker as BATCH frames.  Per-origin
  frame order is preserved end to end (one reader coroutine per worker,
  one serialized writer per destination), which is the per-channel FIFO
  the Section 3.2 seq/upto accounting relies on.  The relay is also where
  transport faults (``FaultPlan.drop_link``/``delay_link``/
  ``duplicate_link``/``partition_worker``) are injected — the one place
  every cross-shard byte passes.

* **Supervision.**  The RawArray heartbeat slots of the pool runtime
  become HEARTBEAT frames: each worker's job loop beats over the wire, a
  silent worker raises the same stall verdict within ``2 × interval``,
  and a dropped connection is a crash.  Either way the running job fails
  with a typed, retryable error payload; the *client* owns the retry
  policy (``runtime/supervision.run_with_retry``), and a retried job is
  simply dispatched again over the workers still registered — a cluster
  that lost a worker re-runs the whole query on ``n - 1`` shards, which
  monotone set-semantics evaluation makes safe.

Jobs are serialized: one evaluation owns the whole worker set at a time
(queued submissions wait on an asyncio lock).  That is the same policy as
the pool runtime, which builds a fresh fork pool per query; lifting it —
multiplexing jobs over one worker set — is noted in docs/architecture.md
as future work.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
import time
from typing import Optional

from ..cache import BoundedCache
from ..runtime.faults import FaultPlan, LinkFaultInjector
from .client import ClusterError
from .framing import (
    HEADER_SIZE,
    MAX_FRAME_SIZE,
    PROTOCOL_VERSION,
    Frame,
    FrameType,
    _HEADER,
    decode_job,
    encode_frame,
    encode_job,
    encode_json_frame,
)
from .spec import (
    EDB,
    PLAN,
    STORE_ENTRIES,
    Part,
    pack_parts,
    unpack_parts,
)

__all__ = ["ClusterManager", "ManagerThread"]

#: Byte bound of the manager's blob store (its entry bound is shared with
#: the clients: :data:`~repro.cluster.spec.STORE_ENTRIES`).
_STORE_BYTES = 512 << 20

#: How long the manager waits for per-shard STATS frames after a job
#: concludes before answering the client with whatever it has.
_STATS_GRACE = 5.0

#: Slack added to the client's evaluation timeout for the manager-side job
#: deadline: the client raises first, the manager merely cleans up.
_DEADLINE_SLACK = 10.0


class _JobFailure(Exception):
    """Internal: a job's terminal failure, shipped to the client as RESULT."""

    def __init__(
        self,
        kind: str,
        where: str = "",
        traceback_text: Optional[str] = None,
        exitcode: Optional[int] = None,
        stalled_for: float = 0.0,
    ) -> None:
        super().__init__(f"{kind}: {where}")
        self.kind = kind
        self.where = where
        self.traceback_text = traceback_text
        self.exitcode = exitcode
        self.stalled_for = stalled_for


class _WorkerLink:
    """One registered worker connection plus its transport counters."""

    def __init__(self, name: str, reader, writer) -> None:
        self.name = name
        self.reader = reader
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.alive = True
        self.bytes_in = 0
        self.bytes_out = 0
        self.batches_in = 0  # BATCH frames this worker sent us
        self.batches_out = 0  # BATCH frames we forwarded to it
        self.reconnects = 0
        self.rtt_ms: Optional[float] = None
        self.pings = 0
        self._ping_sent_at: dict[int, float] = {}
        # Spec parts this connection's worker acknowledged holding (its
        # resident set as of its last STATS frame) and the cache counters.
        # Both die with the link: a reconnected worker starts from nothing.
        self.has: set[str] = set()
        self.spec = {
            "plan_hits": 0,
            "plan_misses": 0,
            "edb_hits": 0,
            "edb_misses": 0,
            "resends": 0,
            "plan_bytes": 0,
            "edb_bytes": 0,
            "resident_entries": 0,
            "resident_bytes": 0,
            "held_end_requests": 0,
        }

    async def send(self, data: bytes) -> None:
        async with self.write_lock:
            self.writer.write(data)
            await self.writer.drain()
        self.bytes_out += len(data)

    def snapshot(self) -> dict:
        return {
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "batches_in": self.batches_in,
            "batches_out": self.batches_out,
            "reconnects": self.reconnects,
            "heartbeat_rtt_ms": self.rtt_ms,
            "pings": self.pings,
            "spec": dict(self.spec),
        }


class _Job:
    """One in-flight evaluation: shard → worker map plus supervision state."""

    def __init__(
        self,
        job_id: int,
        client_writer,
        workers: list[_WorkerLink],
        parts: list[Part],
    ) -> None:
        self.id = job_id
        self.client_writer = client_writer
        self.workers = workers  # index == shard id
        # The job's own references to its blobs: a resend after a worker
        # SPEC_MISS must not depend on what the store has since evicted.
        self.parts = parts
        self.worker_header: dict = {}
        self.n_shards = len(workers)
        self.future: asyncio.Future = asyncio.get_running_loop().create_future()
        self.last_beat = {shard: time.monotonic() for shard in range(self.n_shards)}
        self.stats: dict[int, dict] = {}
        self.stats_done = asyncio.Event()
        self.injector: Optional[LinkFaultInjector] = None
        self.shard_of_worker = {link.name: shard for shard, link in enumerate(workers)}

    def fail(self, failure: _JobFailure) -> None:
        if not self.future.done():
            self.future.set_exception(failure)

    def finish(self, payload: dict) -> None:
        if not self.future.done():
            self.future.set_result(payload)


class ClusterManager:
    """The asyncio hub: run :meth:`serve` (or use :class:`ManagerThread`)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        ping_interval: float = 0.5,
    ) -> None:
        self.host = host
        self.port = port
        self.ping_interval = ping_interval
        self.workers: dict[str, _WorkerLink] = {}
        self._reconnects: dict[str, int] = {}
        self._names = itertools.count()
        self._job_ids = itertools.count(1)
        self._ping_ids = itertools.count(1)
        self._job_lock = asyncio.Lock()
        self._jobs: dict[int, _Job] = {}
        self._job_of_client: dict = {}
        self._client_writers: set = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._ping_task: Optional[asyncio.Task] = None
        self.jobs_dispatched = 0
        self.jobs_failed = 0
        self._store = BoundedCache(STORE_ENTRIES, _STORE_BYTES)
        self.spec_misses = 0  # client submissions answered ``spec_miss``

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start serving; resolves :attr:`port` when it was 0."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._ping_task = asyncio.ensure_future(self._ping_loop())

    async def stop(self) -> None:
        if self._ping_task is not None:
            self._ping_task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Close every peer, clients included: a handler parked on a read
        # only returns once its connection reports EOF.
        writers = [link.writer for link in self.workers.values()]
        for writer in writers + list(self._client_writers):
            try:
                writer.close()
            except Exception:
                pass

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def transport_snapshot(self) -> dict:
        """Per-worker transport counters for the stats op / STATS_REQ."""
        return {
            "workers": {
                name: link.snapshot() for name, link in self.workers.items()
            },
            "registered": len(self.workers),
            "jobs_dispatched": self.jobs_dispatched,
            "jobs_failed": self.jobs_failed,
            "spec_store": {
                "entries": len(self._store),
                "bytes": self._store.bytes,
                "client_misses": self.spec_misses,
            },
        }

    # ------------------------------------------------------------------
    async def _read_frame(self, reader, link: Optional[_WorkerLink] = None) -> Frame:
        header = await reader.readexactly(HEADER_SIZE)
        version, ftype, size = _HEADER.unpack(header)
        if size > MAX_FRAME_SIZE:
            raise asyncio.IncompleteReadError(b"", None)
        payload = await reader.readexactly(size)
        if link is not None:
            link.bytes_in += HEADER_SIZE + size
        return Frame(version, ftype, payload)

    async def _handle_connection(self, reader, writer) -> None:
        try:
            hello = await self._read_frame(reader)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            writer.close()
            return
        if hello.version != PROTOCOL_VERSION or hello.ftype != FrameType.HELLO:
            # A peer from another protocol revision (or a stray client
            # speaking something else entirely): refuse with a typed reason
            # before it can desync the stream.
            reason = (
                f"protocol version mismatch: manager speaks "
                f"{PROTOCOL_VERSION}, peer sent {hello.version}"
                if hello.version != PROTOCOL_VERSION
                else f"expected HELLO, got frame type {hello.ftype}"
            )
            try:
                writer.write(
                    encode_json_frame(FrameType.REJECT, {"reason": reason})
                )
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        info = hello.json()
        role = info.get("role")
        if role == "worker":
            await self._serve_worker(info, reader, writer)
        elif role == "client":
            await self._serve_client(info, reader, writer)
        else:
            writer.write(
                encode_json_frame(
                    FrameType.REJECT, {"reason": f"unknown role {role!r}"}
                )
            )
            await writer.drain()
            writer.close()

    # ------------------------------------------------------------------
    # Worker side.
    # ------------------------------------------------------------------
    async def _serve_worker(self, info: dict, reader, writer) -> None:
        name = info.get("name") or f"worker-{next(self._names)}"
        link = _WorkerLink(name, reader, writer)
        link.reconnects = self._reconnects.get(name, -1) + 1
        self._reconnects[name] = link.reconnects
        self.workers[name] = link
        await link.send(
            encode_json_frame(
                FrameType.WELCOME, {"name": name, "workers": len(self.workers)}
            )
        )
        await self._ping_one(link)
        try:
            while True:
                frame = await self._read_frame(reader, link)
                await self._on_worker_frame(link, frame)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        finally:
            link.alive = False
            if self.workers.get(name) is link:
                del self.workers[name]
            writer.close()
            # A worker that vanishes mid-job is a crash: fail the job with
            # the same verdict the pool's Supervisor reaches from a dead
            # Process handle.
            for job in list(self._jobs.values()):
                shard = job.shard_of_worker.get(name)
                if shard is not None:
                    job.fail(
                        _JobFailure("crash", where=f"{name} (shard {shard})")
                    )
                    job.stats_done.set()

    async def _on_worker_frame(self, link: _WorkerLink, frame: Frame) -> None:
        ftype = frame.ftype
        if ftype == FrameType.BATCH:
            link.batches_in += 1
            await self._relay_batch(link, frame)
        elif ftype == FrameType.HEARTBEAT:
            beat = frame.json()
            job = self._jobs.get(beat.get("j"))
            if job is not None:
                job.last_beat[beat.get("sh", 0)] = time.monotonic()
        elif ftype == FrameType.PONG:
            pong = frame.json()
            sent_at = link._ping_sent_at.pop(pong.get("i"), None)
            if sent_at is not None:
                link.rtt_ms = (time.monotonic() - sent_at) * 1000.0
        elif ftype == FrameType.DONE:
            done = frame.json()
            job = self._jobs.get(done.get("j"))
            if job is not None:
                job.finish(done)
        elif ftype == FrameType.ERROR:
            err = frame.json()
            job = self._jobs.get(err.get("j"))
            if job is not None:
                job.fail(
                    _JobFailure(
                        "crash",
                        where=err.get("where", link.name),
                        traceback_text=err.get("traceback"),
                    )
                )
        elif ftype == FrameType.STATS:
            stats = frame.json()
            job = self._jobs.get(stats.get("j"))
            if job is not None:
                counters = stats.get("c", {})
                resident = counters.pop("resident", None)
                if resident is not None:
                    link.has = set(resident["digests"])
                    link.spec["resident_entries"] = len(link.has)
                    link.spec["resident_bytes"] = resident["bytes"]
                link.spec["held_end_requests"] += counters.get(
                    "held_end_requests", 0
                )
                job.stats[stats.get("sh", 0)] = counters
                if len(job.stats) >= job.n_shards:
                    job.stats_done.set()
        elif ftype == FrameType.SPEC_MISS:
            miss = frame.json()
            job = self._jobs.get(miss.get("j"))
            if job is not None:
                # The link's acknowledged set was stale (a failed job never
                # reported its evictions): resend from the job's own blobs.
                missing = set(miss.get("missing", ()))
                link.has -= missing
                link.spec["resends"] += len(missing)
                await self._send_job(
                    job, link, [p for p in job.parts if p.digest in missing]
                )

    async def _relay_batch(self, origin_link: _WorkerLink, frame: Frame) -> None:
        """Forward one cross-shard batch, applying any armed link faults."""
        head = json.loads(frame.payload.decode("utf-8"))
        job = self._jobs.get(head.get("j"))
        if job is None:
            return  # late traffic from a concluded/aborted job
        origin, dest = head.get("o", 0), head.get("d", 0)
        data = encode_frame(FrameType.BATCH, frame.payload)
        if job.injector is not None:
            action = job.injector.on_batch(origin, dest)
            if action == "blackhole":
                return
            if action == "drop_connection":
                origin_link.writer.close()  # reader EOF turns this into a crash
                return
            if isinstance(action, float):
                await asyncio.sleep(action)
            if action == "duplicate":
                dup_messages = [m for m in head.get("m", ()) if m[0] in ("tm", "ts")]
                await self._forward(job, dest, data)
                if dup_messages:
                    dup = dict(head)
                    dup["m"] = dup_messages
                    await self._forward(
                        job,
                        dest,
                        encode_json_frame(FrameType.BATCH, dup),
                    )
                return
        await self._forward(job, dest, data)

    async def _forward(self, job: _Job, dest: int, data: bytes) -> None:
        if not 0 <= dest < job.n_shards:
            return
        link = job.workers[dest]
        if not link.alive:
            return  # the crash path is already failing the job
        try:
            await link.send(data)
            link.batches_out += 1
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------
    # Client side.
    # ------------------------------------------------------------------
    async def _serve_client(self, info: dict, reader, writer) -> None:
        writer.write(
            encode_json_frame(
                FrameType.WELCOME, {"workers": sorted(self.workers)}
            )
        )
        await writer.drain()
        # Jobs run as tasks so this reader stays responsive: a client that
        # times out sends ABORT (or just disconnects), and the job must be
        # torn down *now* — not when the manager's own deadline fires —
        # or a queued retry would wait out the job lock and time out too.
        job_task: Optional[asyncio.Task] = None
        self._client_writers.add(writer)
        try:
            while True:
                frame = await self._read_frame(reader)
                if frame.ftype == FrameType.JOB:
                    job_task = asyncio.ensure_future(
                        self._run_job(frame, writer)
                    )
                elif frame.ftype == FrameType.ABORT:
                    job = self._job_of_client.get(writer)
                    if job is not None:
                        job.fail(_JobFailure("aborted", where="client abort"))
                    elif job_task is not None and not job_task.done():
                        job_task.cancel()  # still queued on the job lock
                elif frame.ftype == FrameType.STATS_REQ:
                    writer.write(
                        encode_json_frame(
                            FrameType.STATS_REP, self.transport_snapshot()
                        )
                    )
                    await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        finally:
            job = self._job_of_client.pop(writer, None)
            if job is not None:
                job.fail(_JobFailure("aborted", where="client disconnected"))
            elif job_task is not None and not job_task.done():
                job_task.cancel()
            self._client_writers.discard(writer)
            writer.close()

    async def _run_job(self, frame: Frame, client_writer) -> None:
        header, blob = decode_job(frame.payload)
        # Store what the frame carries, then resolve the job's digests to
        # blobs *now*: the references ride with the job, so nothing a
        # queued job needs can be evicted while it waits on the lock.
        try:
            for part in unpack_parts(header.get("parts", ()), blob):
                self._store.put(part.digest, part, len(part.blob))
            wanted = [header[PLAN]] + ([header[EDB]] if header.get(EDB) else [])
        except (KeyError, ValueError) as exc:
            await self._reply(
                client_writer,
                {"ok": False, "kind": "bad_spec", "where": f"malformed JOB: {exc}"},
            )
            return
        parts = [self._store.get(digest) for digest in wanted]
        missing = [d for d, part in zip(wanted, parts) if part is None]
        if missing:
            self.spec_misses += 1
            await self._reply(
                client_writer, {"ok": False, "kind": "spec_miss", "missing": missing}
            )
            return
        # One evaluation owns the worker set at a time; queued jobs wait here.
        async with self._job_lock:
            await self._run_job_locked(header, parts, client_writer)

    async def _send_job(self, job: _Job, link: _WorkerLink, ship: list[Part]) -> None:
        """One JOB frame to one worker: the job header + the parts in ``ship``."""
        entries, blob = pack_parts(ship)
        header = dict(
            job.worker_header, sh=job.shard_of_worker[link.name], parts=entries
        )
        for part in ship:
            link.spec[f"{part.kind}_bytes"] += len(part.blob)
        await link.send(encode_frame(FrameType.JOB, encode_job(header, blob)))

    async def _run_job_locked(
        self, header: dict, parts: list[Part], client_writer
    ) -> None:
        participants = [link for link in self.workers.values() if link.alive]
        desired = header.get("workers")
        if desired:
            participants = participants[: max(1, int(desired))]
        if not participants:
            await self._reply(
                client_writer, {"ok": False, "kind": "no_workers", "where": ""}
            )
            return
        job = _Job(next(self._job_ids), client_writer, participants, parts)
        fault_plan = header.get("fault_plan")
        if fault_plan:
            armed = FaultPlan(**fault_plan)
            if armed.has_link_faults():
                job.injector = LinkFaultInjector(armed)
        self._jobs[job.id] = job
        self._job_of_client[client_writer] = job
        self.jobs_dispatched += 1
        heartbeat_interval = header.get("heartbeat_interval")
        timeout = float(header.get("timeout", 120.0))
        watchdog = asyncio.ensure_future(
            self._watch_job(job, timeout + _DEADLINE_SLACK, heartbeat_interval)
        )
        try:
            job.worker_header = {
                "j": job.id,
                "n": job.n_shards,
                "hb": heartbeat_interval,
                "batch_size": header.get("batch_size", 64),
                "fault_plan": fault_plan,
                "bindings": header.get("bindings"),
                **{part.kind: part.digest for part in parts},
            }
            for link in participants:
                ship = []
                for part in parts:
                    if part.digest in link.has:
                        link.spec[f"{part.kind}_hits"] += 1
                    else:
                        link.spec[f"{part.kind}_misses"] += 1
                        ship.append(part)
                await self._send_job(job, link, ship)
            try:
                done = await job.future
            except _JobFailure as failure:
                self.jobs_failed += 1
                await self._abort_workers(job)
                await self._reply(
                    client_writer,
                    {
                        "ok": False,
                        "kind": failure.kind,
                        "where": failure.where,
                        "traceback": failure.traceback_text,
                        "exitcode": failure.exitcode,
                        "stalled_for": failure.stalled_for,
                        "heartbeat_interval": heartbeat_interval,
                    },
                )
                return
            # Success: stop the loops, gather per-shard counters, answer.
            for link in participants:
                if link.alive:
                    try:
                        await link.send(
                            encode_json_frame(FrameType.STOP, {"j": job.id})
                        )
                    except (ConnectionError, OSError):
                        pass
            try:
                await asyncio.wait_for(job.stats_done.wait(), _STATS_GRACE)
            except asyncio.TimeoutError:
                pass
            await self._reply(
                client_writer,
                {
                    "ok": True,
                    "answers": done.get("answers", []),
                    "seq": done.get("seq", 0),
                    "upto": done.get("upto", 0),
                    "workers": job.n_shards,
                    "shards": {str(k): v for k, v in sorted(job.stats.items())},
                    "transport": {
                        link.name: link.snapshot() for link in participants
                    },
                },
            )
        except asyncio.CancelledError:
            # The client vanished while this job was queued or running:
            # release the workers before propagating the cancellation.
            self.jobs_failed += 1
            await self._abort_workers(job)
            raise
        finally:
            watchdog.cancel()
            self._jobs.pop(job.id, None)
            self._job_of_client.pop(client_writer, None)

    async def _watch_job(
        self, job: _Job, deadline: float, heartbeat_interval: Optional[float]
    ) -> None:
        """The Supervisor's vital-signs poll, translated to the wire.

        Connection loss is handled by the per-worker reader (EOF == crash);
        this task covers the two silent failure modes — a wedged worker
        whose heartbeats stop, and a job that outlives the client's
        deadline (e.g. both sides of a partition blackhole).
        """
        start = time.monotonic()
        poll = (
            max(0.01, heartbeat_interval / 4.0) if heartbeat_interval else 0.25
        )
        while True:
            await asyncio.sleep(poll)
            now = time.monotonic()
            if now - start > deadline:
                job.fail(_JobFailure("timeout", where="manager deadline"))
                return
            if heartbeat_interval:
                stall_after = 2.0 * heartbeat_interval
                for shard, beat in job.last_beat.items():
                    if now - beat > stall_after:
                        link = job.workers[shard]
                        job.fail(
                            _JobFailure(
                                "stall",
                                where=f"{link.name} (shard {shard})",
                                stalled_for=now - beat,
                            )
                        )
                        return

    async def _abort_workers(self, job: _Job) -> None:
        for link in job.workers:
            if link.alive:
                try:
                    await link.send(
                        encode_json_frame(FrameType.ABORT, {"j": job.id})
                    )
                except (ConnectionError, OSError):
                    pass

    async def _reply(self, client_writer, payload: dict) -> None:
        try:
            client_writer.write(encode_json_frame(FrameType.RESULT, payload))
            await client_writer.drain()
        except (ConnectionError, OSError):
            pass  # client gone (timed out); nothing left to tell it

    # ------------------------------------------------------------------
    async def _ping_loop(self) -> None:
        """Periodic RTT probes — the transport-health side channel."""
        while True:
            await asyncio.sleep(self.ping_interval)
            for link in list(self.workers.values()):
                await self._ping_one(link)

    async def _ping_one(self, link: _WorkerLink) -> None:
        ping_id = next(self._ping_ids)
        link._ping_sent_at[ping_id] = time.monotonic()
        link.pings += 1
        try:
            await link.send(encode_json_frame(FrameType.PING, {"i": ping_id}))
        except (ConnectionError, OSError):
            pass


class ManagerThread:
    """A :class:`ClusterManager` on a daemon thread with its own event loop.

    The localhost harness and ``Session(runtime="cluster")`` embed the
    manager in the caller's process this way; ``repro serve`` does the
    same so one process can front both the query service and the cluster.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, **kwargs) -> None:
        self.manager = ClusterManager(host, port, **kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    def start(self, timeout: float = 10.0) -> "ManagerThread":
        self._thread = threading.Thread(
            target=self._run, name="cluster-manager", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("cluster manager failed to start")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        loop.run_until_complete(self.manager.start())
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.manager.stop())
            # Connection handlers for still-attached workers (an announced
            # manager does not own its workers' lifetimes) would otherwise
            # warn "Task was destroyed but it is pending" at loop close.
            # stop() closed their writers, so one more spin of the loop
            # lets each handler observe EOF and return; only a handler
            # wedged past the grace period gets cancelled.
            pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
            if pending:
                loop.run_until_complete(asyncio.wait(pending, timeout=1.0))
            for task in pending:
                if not task.done():
                    task.cancel()
            loop.close()

    @property
    def address(self) -> str:
        return self.manager.address

    def transport_snapshot(self) -> dict:
        return self.manager.transport_snapshot()

    def worker_count(self) -> int:
        return len(self.manager.workers)

    def wait_for_workers(self, count: int, timeout: float = 60.0) -> int:
        """Block until ``count`` workers are registered; returns the count.

        The announce path (``Session(cluster_listen=...)``, ``repro run/serve
        --cluster-listen``) uses this so the first query does not race the
        remote ``repro worker --connect`` processes dialing in.
        """
        deadline = time.monotonic() + timeout
        while self.worker_count() < count:
            if time.monotonic() > deadline:
                raise ClusterError(
                    f"only {self.worker_count()}/{count} workers registered "
                    f"with the manager at {self.address} within {timeout:.0f}s; "
                    f"start workers with: repro worker --connect {self.address}"
                )
            time.sleep(0.05)
        return self.worker_count()

    def stop(self, timeout: float = 5.0) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout)
