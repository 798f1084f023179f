"""The remote shard worker: one host's slice of the node network.

``repro worker --connect HOST:PORT`` runs this loop: connect to the
manager, register (HELLO/WELCOME handshake, protocol version checked),
then serve jobs.  A JOB frame names the job's *plan* and *edb* parts by
digest and carries the pickled bytes of only those the manager believes
this worker lacks (:mod:`repro.cluster.spec`).  The worker keeps a bounded
digest → *unpickled* part cache (:class:`ResidentSpecs`) for the life of
the process, so a repeat query unpickles nothing and the resident
``Database`` keeps its lazily built hash indexes — and the plan its
``assign_shards`` map — across jobs; a digest the worker no longer holds
is requested back with a SPEC_MISS frame, never guessed.  Only *inputs*
are resident: every job builds a fresh engine (0.2 ms over a prebuilt
graph), so per-query node state starts empty and the logical accounting
matches the simulator exactly.  Every worker deterministically computes
the *same* node ids and the same ``assign_shards`` map, so "which nodes
are mine" needs no extra coordination, exactly as the pool runtime's
forked workers all inherit one engine — and runs the router and delivery
loop it shares with the pool (``runtime/shard_loop.py``, including the
held-end-request rule) with the queue fabric swapped for TCP frames:

* a flushed buffer ships as one BATCH frame (the
  :class:`~repro.network.messages.MessageBatch` envelope, JSON-coded);
* the pool's RawArray ``sent`` counters become a cumulative logical-sent
  total piggybacked on every BATCH frame, so the receiver's
  ``pending_for`` stays a conservative in-transit bound (see
  docs/architecture.md — cross-component completion rests on the exact
  per-stream seq/upto accounting, which serializes losslessly);
* the pool's RawArray heartbeat slots become HEARTBEAT frames, throttled
  to the supervision interval: a worker wedged inside a handler goes
  silent on the wire exactly as it went still in shared memory.

Threading: the connection's reader runs on the main thread (BATCH frames
must keep flowing while a job computes), the job loop runs on a runner
thread fed through a queue, and all frame *writes* are serialized by
:class:`~repro.cluster.framing.FrameSocket`.  A lost connection aborts
the running job and triggers reconnect-with-backoff; the manager counts
the re-registration.
"""

from __future__ import annotations

import os
import pickle
import queue as queue_module
import socket
import threading
import time
import traceback
from typing import Optional

from ..cache import BoundedCache
from ..network.engine import MessagePassingEngine, assign_shards
from ..network.messages import Message, MessageBatch
from ..runtime.faults import FaultPlan
from ..runtime.shard_loop import STOP as _STOP, Router, run_shard_loop
from .framing import (
    FrameError,
    FrameSocket,
    FrameType,
    PROTOCOL_VERSION,
    decode_job,
    decode_messages,
    encode_messages,
    rows_from_wire,
    rows_to_wire,
)
from .spec import EDB, PLAN, unpack_parts

__all__ = ["worker_main", "ClusterRouter", "ResidentSpecs"]

#: Bounds of a worker's resident spec parts.  Plans are small and vary per
#: query shape; databases are large and change only on a write, after
#: which the old version is garbage — a handful covers several sessions
#: sharing one cluster.
_RESIDENT_PLANS = 16
_RESIDENT_EDBS = 4
_RESIDENT_BYTES = 256 << 20  # per kind, by pickled size


class _JobAborted(Exception):
    """Internal: the manager aborted this job (retry underway elsewhere)."""


class ClusterRouter(Router):
    """The :class:`~repro.runtime.shard_loop.Router` over TCP frames.

    A flushed buffer ships as one BATCH frame carrying the encoded member
    messages plus this link's cumulative logical-sent total (``s``); the
    receiving router treats ``max`` of those totals minus its own received
    total as in-transit work, so a queued batch holds ``empty_queues()``
    false across the wire exactly as the pool's shared counters do across
    forks.  Per-link frame order is preserved end to end, so the
    per-channel FIFO the seq/upto end accounting needs survives the relay.
    """

    def __init__(
        self,
        fs: FrameSocket,
        job_id: int,
        shard_id: int,
        shard_of: dict[int, int],
        n_shards: int,
        batch_size: int,
    ) -> None:
        super().__init__(shard_id, shard_of, n_shards, batch_size)
        self.fs = fs
        self.job_id = job_id
        self.known_sent: dict[int, int] = {}

    def _ship(self, dest: int, messages: list[Message]) -> None:
        self.fs.send_json(
            FrameType.BATCH,
            {
                "j": self.job_id,
                "o": self.shard_id,
                "d": dest,
                "s": self.sent_total[dest],
                "m": encode_messages(messages),
            },
        )

    def ingest(self, item: tuple[MessageBatch, int]) -> None:
        """Unpack one arrived BATCH: ``(batch, sender's cumulative total)``."""
        batch, sent_total = item
        self.known_sent[batch.origin] = max(
            self.known_sent.get(batch.origin, 0), sent_total
        )
        super().ingest(batch)

    def pending_for(self, node_id: int) -> int:
        pending = self.local_pending.get(node_id, 0)
        for origin, known in self.known_sent.items():
            pending += max(0, known - self.received_total[origin])
        return pending


class _ResidentPlan:
    """An unpickled plan part plus what derives from it alone."""

    def __init__(self, spec: dict) -> None:
        self.spec = spec
        #: ``(n_shards, edb replicas)`` → the ``assign_shards`` placement.
        self.shard_maps: dict[tuple[int, int], dict[int, int]] = {}


class ResidentSpecs:
    """A worker's digest → unpickled spec part caches, one per process.

    They outlive connections: a worker that reconnects still holds its
    parts, and simply reports them in its next STATS frame.  Jobs keep
    their own references to the parts they run on, so an eviction never
    pulls a database out from under a running query.
    """

    def __init__(self) -> None:
        self.plans = BoundedCache(_RESIDENT_PLANS, _RESIDENT_BYTES)
        self.edbs = BoundedCache(_RESIDENT_EDBS, _RESIDENT_BYTES)

    def load(self, part) -> None:
        """Unpickle one shipped part and keep it resident."""
        value = pickle.loads(part.blob)
        if part.kind == PLAN:
            self.plans.put(part.digest, _ResidentPlan(value), len(part.blob))
        else:
            self.edbs.put(part.digest, value, len(part.blob))

    def report(self) -> dict:
        """What this worker holds now — the manager's acknowledged set."""
        return {
            "digests": [*self.plans.keys(), *self.edbs.keys()],
            "bytes": self.plans.bytes + self.edbs.bytes,
        }


class _JobContext:
    """One job's moving parts, shared between reader and runner threads."""

    def __init__(self, head: dict, resident: ResidentSpecs) -> None:
        self.job_id: int = head["j"]
        self.shard_id: int = head["sh"]
        self.n_shards: int = head["n"]
        self.heartbeat_interval = head.get("hb")
        self.batch_size: int = head.get("batch_size", 64)
        fault_plan = head.get("fault_plan")
        self.fault_plan = FaultPlan(**fault_plan) if fault_plan else None
        bindings = head.get("bindings")
        self.bindings: tuple = rows_from_wire([bindings])[0] if bindings else ()
        self.plan_digest: str = head[PLAN]
        self.edb_digest: Optional[str] = head.get(EDB)
        # A hit means the part was resident before this job's frames
        # arrived; a part the job had to be sent is a miss.  ``edb_hit`` is
        # None for a job that has no edb part (facts ride in the program).
        self.spec_report = {
            "plan_hit": self.plan_digest in resident.plans,
            "edb_hit": (
                self.edb_digest in resident.edbs
                if self.edb_digest is not None
                else None
            ),
        }
        self.plan: Optional[_ResidentPlan] = None
        self.database = None
        self.inbox: queue_module.Queue = queue_module.Queue()
        self.abort = threading.Event()
        self.runner: Optional[threading.Thread] = None

    def resolve(self, resident: ResidentSpecs) -> list[str]:
        """Bind the job to its resident parts; returns the digests missing."""
        missing = []
        self.plan = resident.plans.get(self.plan_digest)
        if self.plan is None:
            missing.append(self.plan_digest)
        if self.edb_digest is not None:
            self.database = resident.edbs.get(self.edb_digest)
            if self.database is None:
                missing.append(self.edb_digest)
        return missing


def _run_job(fs: FrameSocket, ctx: _JobContext, resident: ResidentSpecs) -> None:
    """Build this shard's engine and run the delivery loop (runner thread)."""
    try:
        _job_loop(fs, ctx, resident)
    except _JobAborted:
        pass
    except FrameError:
        pass  # connection died mid-job; the main loop is already reconnecting
    except BaseException:
        _report_error(fs, ctx.job_id, ctx.shard_id)


def _report_error(fs: FrameSocket, job_id: int, shard_id: int) -> None:
    """Ship the current exception to the manager as a structured ERROR."""
    try:
        fs.send_json(
            FrameType.ERROR,
            {
                "j": job_id,
                "where": f"shard {shard_id}",
                "traceback": traceback.format_exc(),
            },
        )
    except Exception:
        pass


def _job_loop(fs: FrameSocket, ctx: _JobContext, resident: ResidentSpecs) -> None:
    spec = ctx.plan.spec
    # Hash-partitioned EDB replicas default to one per shard, exactly as
    # the pool runtime defaults ``edb_shards`` to its worker count.
    replicas = spec["edb_shards"] or ctx.n_shards
    # Fresh per-query node state over resident inputs: the graph and the
    # database (with whatever indexes earlier jobs built) are reused, the
    # engine — relations, streams, protocol counters — never is.
    engine = MessagePassingEngine(
        spec["program"],
        validate_protocol=False,  # the oracle belongs to the simulator
        edb_shards=replicas,
        database=ctx.database,
        graph=spec["graph"],
        bindings=ctx.bindings,
        **vars(spec["options"]),
    )
    shard_of = ctx.plan.shard_maps.get((ctx.n_shards, replicas))
    if shard_of is None:
        shard_of = assign_shards(engine, ctx.n_shards)
        ctx.plan.shard_maps[(ctx.n_shards, replicas)] = shard_of
    router = ClusterRouter(
        fs, ctx.job_id, ctx.shard_id, shard_of, ctx.n_shards, ctx.batch_size
    )

    def on_done(answers, seq: int, upto: int) -> None:
        # Flush trailing cross-shard traffic first: conclusion-time
        # ends/component-dones must not sit in a buffer while the manager
        # stops the job.
        router.flush()
        fs.send_json(
            FrameType.DONE,
            {
                "j": ctx.job_id,
                "answers": rows_to_wire(answers),
                "seq": seq,
                "upto": upto,
            },
        )

    hb = ctx.heartbeat_interval
    poll_interval = max(0.01, hb / 4.0) if hb else 0.05
    beat_every = min(0.05, hb / 2.0) if hb else None
    last_beat = 0.0

    def tick() -> None:
        nonlocal last_beat
        if ctx.abort.is_set():
            raise _JobAborted
        if beat_every is None:
            return
        now = time.monotonic()
        if now - last_beat >= beat_every:
            last_beat = now
            fs.send_json(
                FrameType.HEARTBEAT, {"j": ctx.job_id, "sh": ctx.shard_id}
            )

    def take(timeout: Optional[float]):
        try:
            if timeout is None:
                return ctx.inbox.get_nowait()
            return ctx.inbox.get(timeout=timeout)
        except queue_module.Empty:
            return None

    run_shard_loop(engine, router, take, tick, poll_interval, ctx.fault_plan, on_done)
    # Job concluded: report this shard's counters (plus per-node tuple
    # footprints, so the client can rebuild the node table remotely), how
    # the spec cache served the job, and what is resident now.
    counters = router.counters()
    counters["tuples_by_node"] = {
        str(node_id): process.tuples_stored
        for node_id, process in engine.processes.items()
        if shard_of[node_id] == ctx.shard_id and getattr(process, "tuples_stored", 0)
    }
    counters["spec"] = ctx.spec_report
    counters["resident"] = resident.report()
    fs.send_json(
        FrameType.STATS, {"j": ctx.job_id, "sh": ctx.shard_id, "c": counters}
    )


# ----------------------------------------------------------------------
def _on_job_frame(
    fs: FrameSocket,
    head: dict,
    blob: bytes,
    current: Optional[_JobContext],
    resident: ResidentSpecs,
) -> _JobContext:
    """Absorb one JOB frame; start the job once all its parts are resident.

    A first frame creates the job's context — and with it the inbox, so
    BATCH frames from shards that started earlier are buffered, not
    dropped, while this worker asks for a missing part.  The manager's
    answer to SPEC_MISS is a second JOB frame for the same job carrying
    the bytes.
    """
    if current is None or current.job_id != head["j"]:
        current = _JobContext(head, resident)
    for part in unpack_parts(head.get("parts", ()), blob):
        resident.load(part)
    missing = current.resolve(resident)
    if missing:
        fs.send_json(
            FrameType.SPEC_MISS,
            {"j": current.job_id, "sh": current.shard_id, "missing": missing},
        )
    elif current.runner is None:
        current.runner = threading.Thread(
            target=_run_job,
            args=(fs, current, resident),
            name=f"job-{current.job_id}-shard-{current.shard_id}",
            daemon=True,
        )
        current.runner.start()
    return current


def _serve_connection(fs: FrameSocket, resident: ResidentSpecs) -> None:
    """Dispatch frames from the manager until the connection dies."""
    current: Optional[_JobContext] = None
    try:
        while True:
            frame = fs.recv_frame()
            if frame.ftype == FrameType.JOB:
                head, blob = decode_job(frame.payload)
                try:
                    current = _on_job_frame(fs, head, blob, current, resident)
                except Exception:
                    # An unreadable spec part fails this job, not the worker.
                    _report_error(fs, head["j"], head["sh"])
            elif frame.ftype == FrameType.BATCH:
                body = frame.json()
                if current is not None and body.get("j") == current.job_id:
                    current.inbox.put(
                        (
                            MessageBatch(
                                body.get("o", 0),
                                tuple(decode_messages(body.get("m", []))),
                            ),
                            body.get("s", 0),
                        )
                    )
            elif frame.ftype == FrameType.STOP:
                if current is not None and frame.json().get("j") == current.job_id:
                    current.inbox.put(_STOP)
                    if current.runner is not None:
                        current.runner.join(timeout=10.0)
                    current = None
            elif frame.ftype == FrameType.ABORT:
                if current is not None and frame.json().get("j") == current.job_id:
                    current.abort.set()
                    current.inbox.put(_STOP)  # unblock a waiting get
                    current = None
            elif frame.ftype == FrameType.PING:
                fs.send_json(FrameType.PONG, frame.json())
    finally:
        if current is not None:
            current.abort.set()
            current.inbox.put(_STOP)


def worker_main(
    connect: str,
    name: Optional[str] = None,
    reconnect_attempts: int = 60,
    reconnect_backoff: float = 0.25,
    quiet: bool = True,
) -> None:
    """Run a shard worker against ``connect`` (``"host:port"``) until killed.

    Lost connections reconnect with linear backoff under the same name, so
    the manager's per-worker ``reconnects`` counter records every flap; a
    handshake REJECT (protocol version mismatch) is fatal, not retried.
    """
    host, _, port_text = connect.rpartition(":")
    address = (host or "127.0.0.1", int(port_text))
    failures = 0
    resident = ResidentSpecs()  # outlives reconnects
    while True:
        try:
            sock = socket.create_connection(address, timeout=10.0)
        except OSError:
            failures += 1
            if failures > reconnect_attempts:
                raise
            time.sleep(reconnect_backoff)
            continue
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        fs = FrameSocket(sock)
        try:
            fs.send_json(
                FrameType.HELLO,
                {"role": "worker", "name": name, "pid": os.getpid()},
            )
            welcome = fs.recv_frame(timeout=10.0)
            if welcome.ftype == FrameType.REJECT:
                raise RuntimeError(
                    f"manager rejected this worker: "
                    f"{welcome.json().get('reason', 'unknown reason')}"
                )
            if welcome.ftype != FrameType.WELCOME:
                raise FrameError(
                    f"expected WELCOME, got frame type {welcome.ftype}"
                )
            name = welcome.json().get("name", name)
            if not quiet:
                print(
                    f"[{name}] registered with {connect} "
                    f"(protocol v{PROTOCOL_VERSION})",
                    flush=True,
                )
            failures = 0
            fs.sock.settimeout(None)
            _serve_connection(fs, resident)
        except (FrameError, ConnectionError, OSError, socket.timeout):
            failures += 1
            if failures > reconnect_attempts:
                raise
            if not quiet:
                print(f"[{name}] connection lost; reconnecting", flush=True)
            time.sleep(reconnect_backoff)
        finally:
            fs.close()
