"""``evaluate_cluster``: the multi-host runtime behind ``runtime="cluster"``.

It shares the sharded front
(:func:`~repro.runtime.sharded.evaluate_sharded`) with
``runtime/pool_engine.evaluate_pool`` — same knobs, same retry/fallback
semantics, same :class:`~repro.runtime.sharded.ShardedQueryResult` — and
supplies only the TCP transport: the worker pool replaced by whatever
workers are registered at a cluster manager.  Point it at a running
manager with ``address=...`` (or a shared
:class:`~repro.cluster.client.ClusterClient`), or give it neither and it
spins up a private localhost :class:`~repro.cluster.harness
.ClusterHarness` for the duration of the call — the CI path.

A job is two content-addressed parts (:mod:`repro.cluster.spec`) — the
*plan* (rules-only program + prebuilt rule/goal graph + options) and the
*edb* (the database) — plus a small per-attempt header, which also
carries the values of a shape graph's parameters: a session's queries
that differ only in a constant share one plan part.  Each part is
pickled once per live graph / database object and shipped once per
manager and worker; a repeat query submits two digests and an empty blob,
and the workers evaluate it over their resident copies (fresh per-query
node state, resident inputs).  Whole-query retry on worker loss
re-dispatches over the workers still registered, so losing a worker
degrades capacity, not correctness — monotone set semantics makes the
re-execution reach the identical least fixpoint.
"""

from __future__ import annotations

import dataclasses
import threading
from contextlib import contextmanager
from functools import partial
from typing import Optional, Union

from ..core.adornment import AdornedAtom
from ..core.program import Program
from ..core.rulegoal import RuleGoalGraph, SipFactory
from ..core.sips import greedy_sip
from ..options import EvalOptions, RetryPolicy, RuntimeOptions
from ..relational.database import Database
from ..runtime.faults import FaultPlan
from ..runtime.sharded import ShardedQueryResult, evaluate_sharded
from .client import ClusterClient, SpecMissError
from .framing import rows_from_wire, rows_to_wire

__all__ = ["ClusterLink", "cluster_transport", "evaluate_cluster"]


class ClusterLink:
    """A cluster client plus whatever had to be started to reach one.

    Read from ``runtime`` (:class:`~repro.options.RuntimeOptions`): with
    ``cluster_address`` it dials a running manager; with
    ``cluster_listen`` it announces a manager there (port ``0`` binds an
    ephemeral port) and waits for ``workers`` (default 1) remote
    registrations, bounded by ``timeout``; with neither it starts a
    private localhost :class:`~repro.cluster.harness.ClusterHarness` of
    ``workers`` (default 2).  Opened lazily by :meth:`client` and kept
    until :meth:`close`, after which the next :meth:`client` opens it
    again.
    """

    def __init__(self, runtime: RuntimeOptions) -> None:
        self.runtime = runtime
        self._lock = threading.Lock()
        self._client: Optional[ClusterClient] = None
        self._harness = None
        self._manager = None

    def manager(self):
        """The announced manager (``cluster_listen`` only), started once."""
        with self._lock:
            if self._manager is None:
                from .manager import ManagerThread

                host, _, port_text = self.runtime.cluster_listen.rpartition(":")
                self._manager = ManagerThread(
                    host or "127.0.0.1", int(port_text or 0)
                ).start()
            return self._manager

    def client(self) -> ClusterClient:
        """The link's client, opening whatever it needs on first use."""
        runtime = self.runtime
        if runtime.cluster_listen is not None:
            # Outside the lock: waiting can take the whole timeout and must
            # not hold up close().
            self.manager().wait_for_workers(runtime.workers or 1, timeout=runtime.timeout)
        with self._lock:
            if self._client is None:
                if runtime.cluster_address is not None:
                    self._client = ClusterClient(runtime.cluster_address)
                elif self._manager is not None:
                    self._client = ClusterClient(self._manager.address)
                else:
                    from .harness import ClusterHarness

                    self._harness = ClusterHarness(workers=runtime.workers or 2).start()
                    self._client = self._harness.client()
            return self._client

    def stats(self) -> Optional[dict]:
        """The manager's transport snapshot, or None before the first query."""
        with self._lock:
            client = self._client
        if client is None:
            return None
        try:
            return client.stats()
        except Exception as exc:  # manager down ≠ stats op failure
            return {"error": f"{type(exc).__name__}: {exc}"}

    def close(self) -> None:
        """Release what the link opened (idempotent)."""
        with self._lock:
            client, self._client = self._client, None
            harness, self._harness = self._harness, None
            manager, self._manager = self._manager, None
        if client is not None and harness is None:
            client.close()
        if harness is not None:
            harness.stop()  # also closes the client it handed out
        if manager is not None:
            manager.stop()  # remote workers fall into their reconnect loop


@contextmanager
def cluster_transport(
    program: Program,
    options: EvalOptions,
    runtime: RuntimeOptions,
    database: Optional[Database],
    client: Optional[ClusterClient] = None,
):
    """The TCP transport for :func:`~repro.runtime.sharded.evaluate_sharded`.

    Attempts go through ``client`` when one is given; otherwise a
    :class:`ClusterLink` over ``runtime`` is opened for the call and
    closed after it.  The yielded ``spec`` counts the job-spec bytes the
    attempts shipped.
    """
    shipped = {"plan_bytes": 0, "edb_bytes": 0, "resends": 0}

    def attempt(
        cluster: ClusterClient,
        graph: RuleGoalGraph,
        bindings: tuple,
        armed: Optional[FaultPlan],
    ) -> ShardedQueryResult:
        # Everything that shapes the node network rides in the plan part,
        # memoised on the client against the live graph / database: only
        # the first attempt over a given pair pickles anything.  What
        # varies per attempt (fault plan, deadlines, batch size) rides in
        # the header.
        parts = [
            cluster.specs.plan(
                program, graph, options, database is not None, runtime.edb_shards
            )
        ]
        if database is not None:
            parts.append(cluster.specs.edb(database))
        header = {
            "workers": runtime.workers,
            "timeout": runtime.timeout,
            "heartbeat_interval": runtime.heartbeat_interval,
            "batch_size": runtime.batch_size,
        }
        if bindings:
            # Tagged value cells, like every row on the wire: lossless for
            # any constant the in-process runtimes accept.
            header["bindings"] = rows_to_wire([bindings])[0]
        if armed is not None:
            header["fault_plan"] = dataclasses.asdict(armed)
        for resend in (False, True):
            job_header, blob = cluster.frame_job(header, parts)
            for kind, _, size in job_header["parts"]:
                shipped[f"{kind}_bytes"] += size
            try:
                reply = cluster.submit(job_header, blob, runtime.timeout)
                break
            except SpecMissError:
                # The manager restarted or evicted a part: submit has
                # already forgotten it, so the next frame carries the bytes.
                if resend:
                    raise
                shipped["resends"] += 1
        return ShardedQueryResult(
            answers={tuple(row) for row in rows_from_wire(reply.get("answers", []))},
            completed=True,
            workers=reply.get("workers", 0),
            driver_last_seq_sent=reply.get("seq", 0),
            driver_last_upto_ended=reply.get("upto", 0),
            shards={int(k): v for k, v in reply.get("shards", {}).items()},
            transport=reply.get("transport", {}),
        )

    if client is not None:
        yield partial(attempt, client), shipped
        return
    link = ClusterLink(runtime)
    try:
        yield partial(attempt, link.client()), shipped
    finally:
        link.close()


def evaluate_cluster(
    program: Program,
    sip_factory: SipFactory = greedy_sip,
    query_goal: Optional[AdornedAtom] = None,
    workers: Optional[int] = None,
    batch_size: int = 64,
    timeout: float = 120.0,
    coalesce: bool = False,
    package_requests: bool = False,
    edb_shards: Optional[int] = None,
    planner: str = "static",
    retry: Union[RetryPolicy, int, None] = None,
    fallback: str = "none",
    heartbeat_interval: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    graph: Optional[RuleGoalGraph] = None,
    database: Optional[Database] = None,
    bindings: tuple = (),
    address: Optional[str] = None,
    listen: Optional[str] = None,
    client: Optional[ClusterClient] = None,
) -> ShardedQueryResult:
    """Evaluate the query on a cluster of remote shard workers.

    Targets, in precedence order: an existing ``client``, a manager
    ``address`` (``"host:port"``), a ``listen`` address to *announce* a
    manager at for the call's duration (remote ``repro worker --connect``
    processes dial in; blocks until ``workers`` or 1 register, bounded by
    ``timeout``), or — when none is given — a private two-worker
    localhost :class:`ClusterHarness` torn down after the call.
    All other knobs match :func:`~repro.runtime.pool_engine.evaluate_pool`;
    ``edb_shards`` defaults to the number of shards the manager actually
    dispatches (it sends one shard per registered worker).
    """
    return evaluate_sharded(
        program,
        EvalOptions(sip_factory, coalesce, package_requests, planner),
        RuntimeOptions(
            "cluster",
            workers,
            batch_size,
            edb_shards,
            cluster_address=address,
            cluster_listen=listen,
            retry=RetryPolicy.of(retry),
            fallback=fallback,
            heartbeat_interval=heartbeat_interval,
            timeout=timeout,
        ),
        client=client,
        query_goal=query_goal,
        fault_plan=fault_plan,
        graph=graph,
        database=database,
        bindings=bindings,
    )
