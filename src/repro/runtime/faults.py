"""Deterministic fault injection for the pool and cluster runtimes.

The chaos suite's contract with the runtimes: a :class:`FaultPlan` describes
*one* misbehavior — kill a worker after its n-th delivery, wedge it in a
busy-wait that stops its heartbeat, raise inside a node's message handler,
drop a STOP sentinel during teardown, or delay a worker's channel ingest —
and the runtimes apply it at well-defined points of their worker loops.
Because evaluation is monotone set-semantics Datalog (every node
deduplicates), any fault that is survived by retry or re-delivery must leave
the answer set byte-identical to the in-process runtime; the tests in
``tests/runtime/test_fault_tolerance.py`` assert exactly that.

Plans are deterministic on purpose: "kill worker 0 after 3 deliveries" is
reproducible, unlike probabilistic chaos, so a failing matrix entry is a
debuggable bug report.

Worker indices are shard ids, in the pool and on the cluster's workers
alike.  ``only_attempt`` restricts a plan to one attempt of a retried
query (the recover-via-retry tests arm attempt 1 only); ``None`` applies
it to every attempt (the graceful-degradation tests).

Plans can also come from the environment (``REPRO_FAULTS`` as a JSON object
of constructor fields), so the CLI and CI can inject faults without code:

    REPRO_FAULTS='{"kill_worker": 0, "kill_after": 3}' \
        repro-datalog run q.dl --runtime pool --retries 2
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, fields
from typing import Optional

from ..network.shard_loop import node_label

__all__ = [
    "FaultInjectedError",
    "FaultPlan",
    "FaultInjector",
    "LinkFaultInjector",
    "ServiceFaultPlan",
    "ServiceFaultInjector",
]

#: Environment variable consulted by :meth:`FaultPlan.from_env`.
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: Environment variable consulted by :meth:`ServiceFaultPlan.from_env`.
SERVICE_FAULTS_ENV_VAR = "REPRO_SERVICE_FAULTS"


class FaultInjectedError(RuntimeError):
    """Raised inside a worker when a plan injects an in-node exception."""


@dataclass(frozen=True)
class FaultPlan:
    """A single deterministic fault, applied by the runtime worker loops.

    Parameters
    ----------
    kill_worker / kill_after:
        Hard-kill (``os._exit(1)`` — no cleanup, no payload) the given
        worker after it has delivered ``kill_after`` messages.
    wedge_worker / wedge_after:
        Wedge the worker in an endless sleep loop after ``wedge_after``
        deliveries.  The worker stays alive but stops bumping its
        heartbeat, which is exactly what the stall detector looks for.
    raise_in_node / raise_after:
        Raise :class:`FaultInjectedError` when a node whose label contains
        ``raise_in_node`` receives its ``raise_after + 1``-th delivery —
        exercises the worker-exception capture path (structured
        ``("error", where, traceback)`` payloads).
    drop_stop_for:
        During teardown, skip the STOP sentinel for this worker: it must be
        reaped by the terminate→kill escalation, never hang the caller.
    delay_worker / delay_seconds:
        Sleep before every channel ingest at the given worker (a slow
        channel; answers must not change).
    only_attempt:
        Arm the plan only on this (1-based) attempt of a retried query;
        ``None`` arms it on every attempt.

    Transport-level faults (cluster runtime only — applied by the manager's
    relay, where every cross-shard batch passes; links are named
    ``"<origin>-><dest>"`` in shard ids):

    drop_link / drop_link_after:
        Sever the *origin worker's connection* when the named link carries
        its ``drop_link_after + 1``-th batch — a mid-transfer network cut.
        The manager sees a worker vanish mid-job, so the supervised retry
        path must mask it exactly like a crash.
    delay_link / delay_link_seconds:
        Hold each batch on the named link for ``delay_link_seconds`` before
        forwarding — a slow WAN hop; answers must not change.
    duplicate_link / duplicate_count:
        Re-forward the row-carrying members (tuple messages / tuple sets) of
        the first ``duplicate_count`` batches on the named link — at-least-
        once delivery.  Only rows are duplicated: row delivery is idempotent
        under monotone set semantics, whereas replaying a termination-wave
        probe could falsify the Section 3.2 conclusion, so the injector
        never duplicates protocol traffic (real transports get the same
        guarantee from per-channel FIFO + the seq/upto accounting).
    partition_worker / partition_after:
        After ``partition_after`` batches touching the worker have been
        relayed, drop every further BATCH frame to *and* from that shard
        while control frames (heartbeats, pings) still flow — the classic
        partial partition.  Evaluation can no longer finish, the client's
        deadline raises ``EvaluationTimeout``, and retry (with the plan
        disarmed via ``only_attempt``) must recover.
    """

    kill_worker: Optional[int] = None
    kill_after: int = 0
    wedge_worker: Optional[int] = None
    wedge_after: int = 0
    raise_in_node: Optional[str] = None
    raise_after: int = 0
    drop_stop_for: Optional[int] = None
    delay_worker: Optional[int] = None
    delay_seconds: float = 0.0
    only_attempt: Optional[int] = None
    drop_link: Optional[str] = None
    drop_link_after: int = 0
    delay_link: Optional[str] = None
    delay_link_seconds: float = 0.0
    duplicate_link: Optional[str] = None
    duplicate_count: int = 1
    partition_worker: Optional[int] = None
    partition_after: int = 0

    def has_link_faults(self) -> bool:
        """Whether the manager relay needs a :class:`LinkFaultInjector`."""
        return (
            self.drop_link is not None
            or self.delay_link is not None
            or self.duplicate_link is not None
            or self.partition_worker is not None
        )

    def for_attempt(self, attempt: int) -> Optional["FaultPlan"]:
        """The plan as armed for one attempt (``None`` when inactive)."""
        if self.only_attempt is None or self.only_attempt == attempt:
            return self
        return None

    def injector(self, worker_index: int, engine=None) -> "FaultInjector":
        """Per-worker runtime state (delivery counters) for this plan;
        ``raise_in_node`` matches the labels of ``engine``'s nodes."""
        return FaultInjector(self, worker_index, engine)

    @classmethod
    def from_env(cls, environ=os.environ) -> Optional["FaultPlan"]:
        """Parse ``REPRO_FAULTS`` (a JSON object of plan fields), if set."""
        raw = environ.get(FAULTS_ENV_VAR, "").strip()
        if not raw or raw.lower() == "none":
            return None
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{FAULTS_ENV_VAR} must be a JSON object of FaultPlan fields: {exc}"
            ) from exc
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if not isinstance(data, dict) or unknown:
            raise ValueError(
                f"{FAULTS_ENV_VAR}: unknown FaultPlan fields {sorted(unknown)}"
            )
        return cls(**data)


class FaultInjector:
    """Per-worker counters that decide *when* a plan's fault fires.

    The delivery loop (``network/shard_loop.py``) calls :meth:`on_delivery`
    once per delivered message (before handing it to the node) and
    :meth:`delay` once per channel ingest.  A firing fault acts at once:
    the worker hard-exits (kill), blocks forever (wedge) or raises
    :class:`FaultInjectedError` (the in-node exception fault).
    """

    def __init__(self, plan: FaultPlan, worker_index: int, engine=None) -> None:
        self.plan = plan
        self.worker_index = worker_index
        self.engine = engine
        self.delivered = 0
        self.raise_hits = 0

    def on_delivery(self, node_id: int) -> None:
        """Account one delivery to ``node_id``; fire the plan's fault if due."""
        plan = self.plan
        self.delivered += 1
        if plan.raise_in_node is not None and self.engine is not None:
            label = node_label(self.engine.graph, node_id, self.engine.bindings)
            if plan.raise_in_node in label:
                self.raise_hits += 1
                if self.raise_hits > plan.raise_after:
                    raise FaultInjectedError(
                        f"injected failure handling a message at node {label!r} "
                        f"(delivery {self.raise_hits})"
                    )
        if plan.kill_worker == self.worker_index and self.delivered > plan.kill_after:
            os._exit(1)  # pragma: no cover - the worker dies
        if plan.wedge_worker == self.worker_index and self.delivered > plan.wedge_after:
            wedge_forever()  # pragma: no cover - reaped by teardown

    def delay(self) -> None:
        """Sleep if this worker's channel is the one being delayed."""
        plan = self.plan
        if plan.delay_worker == self.worker_index and plan.delay_seconds > 0:
            time.sleep(plan.delay_seconds)


def _parse_link(name: str) -> tuple[int, int]:
    """``"0->1"`` as ``(origin shard, destination shard)``."""
    origin, _, dest = name.partition("->")
    try:
        return int(origin), int(dest)
    except ValueError:
        raise ValueError(
            f"link fault names are '<origin>-><dest>' in shard ids, got {name!r}"
        ) from None


class LinkFaultInjector:
    """Relay-side counters deciding when a transport fault fires.

    The cluster manager calls :meth:`on_batch` once per relayed cross-shard
    batch, before forwarding.  The return value tells the relay what to do:
    ``None`` (forward normally), ``"drop_connection"`` (sever the origin
    worker's socket), ``"duplicate"`` (forward, then forward the
    row-carrying members again), ``"blackhole"`` (silently swallow the
    batch — the partition fault), or a float (seconds to hold the batch
    before forwarding).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._link_counts: dict[tuple[int, int], int] = {}
        self._partition_seen = 0
        self._duplicated = 0
        self.drop_link = _parse_link(plan.drop_link) if plan.drop_link else None
        self.delay_link = _parse_link(plan.delay_link) if plan.delay_link else None
        self.duplicate_link = (
            _parse_link(plan.duplicate_link) if plan.duplicate_link else None
        )

    def on_batch(self, origin: int, dest: int):
        plan = self.plan
        link = (origin, dest)
        count = self._link_counts.get(link, 0) + 1
        self._link_counts[link] = count
        if plan.partition_worker is not None and plan.partition_worker in link:
            self._partition_seen += 1
            if self._partition_seen > plan.partition_after:
                return "blackhole"
        if self.drop_link == link and count > plan.drop_link_after:
            return "drop_connection"
        if (
            self.duplicate_link == link
            and self._duplicated < plan.duplicate_count
        ):
            self._duplicated += 1
            return "duplicate"
        if self.delay_link == link and plan.delay_link_seconds > 0:
            return plan.delay_link_seconds
        return None


def wedge_forever() -> None:  # pragma: no cover - runs in a sacrificed worker
    """Busy-block without ever bumping a heartbeat (the 'wedged' fault)."""
    while True:
        time.sleep(60)


# ----------------------------------------------------------------------
# Service-tier faults: misbehaving *replicas* instead of worker shards.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServiceFaultPlan:
    """One deterministic service-tier fault, applied by a named replica.

    Where :class:`FaultPlan` sabotages shard workers inside one
    evaluation, this plan sabotages a whole replica ``QueryServer``
    process behind the replication front door.  Replicas are addressed
    by *name* (``"replica-0"``, ``"replica-1"``, …) and the counters
    count *served requests* at that replica, so "kill replica-1 after
    its 3rd request" is exactly reproducible.

    Parameters
    ----------
    kill_replica / kill_after:
        Hard-exit (``os._exit(1)`` — no drain, no flush) the named
        replica once it has served ``kill_after`` requests.
    wedge_replica / wedge_after:
        Block the replica's event loop in an endless sleep after
        ``wedge_after`` requests: the process stays alive but stops
        answering *and* stops bumping its heartbeat — the front door's
        stall detector must catch it.
    drop_replica / drop_after / drop_count:
        Sever the connection without a response on the next
        ``drop_count`` requests (default 1) once ``drop_after`` have
        been served, then behave normally — a transient network flap
        the failover/retry path must mask.
    delay_replica / delay_seconds / delay_after:
        Sleep ``delay_seconds`` before answering every request after the
        first ``delay_after`` — a slow replica the front door's
        per-attempt timeout must route around.
    only_ops:
        Restrict the fault to these wire ops (e.g. ``["query"]``) so
        health-probe pings can still get through; ``None`` applies it
        to every op including pings.
    """

    kill_replica: Optional[str] = None
    kill_after: int = 0
    wedge_replica: Optional[str] = None
    wedge_after: int = 0
    drop_replica: Optional[str] = None
    drop_after: int = 0
    drop_count: int = 1
    delay_replica: Optional[str] = None
    delay_seconds: float = 0.0
    delay_after: int = 0
    only_ops: Optional[tuple] = None

    def injector(self, replica_name: str) -> "ServiceFaultInjector":
        """Per-replica runtime state (request counters) for this plan."""
        return ServiceFaultInjector(self, replica_name)

    @classmethod
    def from_env(cls, environ=os.environ) -> Optional["ServiceFaultPlan"]:
        """Parse ``REPRO_SERVICE_FAULTS`` (a JSON object of fields), if set."""
        raw = environ.get(SERVICE_FAULTS_ENV_VAR, "").strip()
        if not raw or raw.lower() == "none":
            return None
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{SERVICE_FAULTS_ENV_VAR} must be a JSON object of "
                f"ServiceFaultPlan fields: {exc}"
            ) from exc
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known if isinstance(data, dict) else set()
        if not isinstance(data, dict) or unknown:
            raise ValueError(
                f"{SERVICE_FAULTS_ENV_VAR}: unknown ServiceFaultPlan fields "
                f"{sorted(unknown)}"
            )
        if isinstance(data.get("only_ops"), list):
            data["only_ops"] = tuple(data["only_ops"])
        return cls(**data)


class ServiceFaultInjector:
    """Per-replica request counters deciding *when* a service fault fires.

    The replica server calls :meth:`on_request` once per dispatched
    request.  The returned action is one of ``None`` (behave), ``"kill"``
    (``os._exit`` now), ``"wedge"`` (block the event loop forever),
    ``"drop"`` (sever this connection without responding), or a float —
    seconds to sleep before answering (the slow-replica fault).
    """

    def __init__(self, plan: ServiceFaultPlan, replica_name: str) -> None:
        self.plan = plan
        self.replica_name = replica_name
        self.served = 0
        self.dropped = 0

    def on_request(self, op: str):
        plan = self.plan
        if plan.only_ops is not None and op not in plan.only_ops:
            return None
        self.served += 1
        name = self.replica_name
        if plan.kill_replica == name and self.served > plan.kill_after:
            return "kill"
        if plan.wedge_replica == name and self.served > plan.wedge_after:
            return "wedge"
        if (
            plan.drop_replica == name
            and self.served > plan.drop_after
            and self.dropped < plan.drop_count
        ):
            self.dropped += 1
            return "drop"
        if (
            plan.delay_replica == name
            and plan.delay_seconds > 0
            and self.served > plan.delay_after
        ):
            return plan.delay_seconds
        return None
