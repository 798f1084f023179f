"""The cluster client: a connection-pooled blocking front to the manager.

``evaluate_cluster`` (and through it ``Session(runtime="cluster")`` and the
service) submits jobs here.  The pool exists because the service's worker
threads share one client: each submission checks a connection out, holds it
for the round trip (JOB → RESULT), and returns it — the manager serializes
evaluations anyway, so pool_size bounds connection churn, not parallelism.

The client is also where a job's spec parts are remembered
(:mod:`repro.cluster.spec`): the pickled bytes of each live graph and
database, and which digests this manager has already been sent — so a
repeat query submits two digests and an empty blob.  A manager that no
longer holds a digest (restarted, evicted) answers ``spec_miss``; the
client forgets it and :class:`SpecMissError` tells the caller to resend.

Failures map onto the *same* typed vocabulary as the local runtimes
(``runtime/supervision.py``): a worker that died mid-job raises
:class:`WorkerCrashError`, a silent one :class:`WorkerStallError`, a
deadline :class:`EvaluationTimeout` — so ``run_with_retry`` and every
caller built for the pool runtime works against the cluster unchanged.
"""

from __future__ import annotations

import socket
import threading
from typing import Optional

from ..cache import BoundedCache
from ..runtime.supervision import (
    EvaluationTimeout,
    RuntimeFailure,
    WorkerCrashError,
    WorkerStallError,
)
from .framing import FrameError, FrameSocket, FrameType, encode_job
from .spec import (
    EDB,
    PLAN,
    STORE_ENTRIES,
    JobSpecMemo,
    Part,
    pack_parts,
)

__all__ = ["ClusterClient", "ClusterError", "NoWorkersError", "SpecMissError"]


class ClusterError(RuntimeFailure):
    """A cluster-transport failure (manager unreachable, handshake refused)."""


class NoWorkersError(ClusterError):
    """The manager has no registered workers to dispatch onto.

    Retryable on purpose: a worker that crashed or flapped may re-register
    within a retry policy's backoff window.
    """


class SpecMissError(ClusterError):
    """The manager lacks spec parts the client believed it held.

    Raised by :meth:`ClusterClient.submit` after the client has forgotten
    the missing digests, so framing the same job again ships their bytes.
    """

    def __init__(self, missing: list[str]) -> None:
        super().__init__(f"manager lacks job-spec parts {missing}")
        self.missing = missing


def _parse_address(address: str) -> tuple[str, int]:
    host, _, port_text = address.rpartition(":")
    return host or "127.0.0.1", int(port_text)


class ClusterClient:
    """Submit evaluations to a :class:`~repro.cluster.manager.ClusterManager`."""

    def __init__(self, address: str, pool_size: int = 2) -> None:
        self.address = address
        self.pool_size = max(1, pool_size)
        self._idle: list[FrameSocket] = []
        self._lock = threading.Lock()
        self.closed = False
        #: Pickled spec parts per live graph / database (shared by every
        #: evaluation through this client).
        self.specs = JobSpecMemo()
        # Which digests the manager is believed to hold: no more than its
        # store keeps, so a stale belief costs one ``spec_miss`` round trip.
        self._manager_has = BoundedCache(STORE_ENTRIES)

    # ------------------------------------------------------------------
    def _connect(self) -> FrameSocket:
        host, port = _parse_address(self.address)
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
        except OSError as exc:
            raise ClusterError(f"cannot reach cluster manager at {self.address}: {exc}")
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        fs = FrameSocket(sock)
        fs.send_json(FrameType.HELLO, {"role": "client"})
        try:
            welcome = fs.recv_frame(timeout=10.0)
        except (FrameError, OSError) as exc:
            fs.close()
            raise ClusterError(f"handshake with {self.address} failed: {exc}")
        if welcome.ftype == FrameType.REJECT:
            fs.close()
            raise ClusterError(
                f"manager rejected the connection: "
                f"{welcome.json().get('reason', 'unknown reason')}"
            )
        if welcome.ftype != FrameType.WELCOME:
            fs.close()
            raise ClusterError(f"expected WELCOME, got frame type {welcome.ftype}")
        return fs

    def _acquire(self) -> FrameSocket:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        return self._connect()

    def _release(self, fs: FrameSocket) -> None:
        with self._lock:
            if not self.closed and len(self._idle) < self.pool_size:
                self._idle.append(fs)
                return
        fs.close()

    # ------------------------------------------------------------------
    def frame_job(self, header: dict, parts: list[Part]) -> tuple[dict, bytes]:
        """The ``(header, blob)`` to :meth:`submit` for a job made of ``parts``.

        The header always names every part by digest; the blob carries the
        bytes of only those this manager is not known to hold.
        """
        with self._lock:
            ship = [p for p in parts if p.digest not in self._manager_has]
        entries, blob = pack_parts(ship)
        framed = dict(header, parts=entries)
        for part in parts:
            framed[part.kind] = part.digest
        return framed, blob

    def submit(self, header: dict, blob: bytes, timeout: float) -> dict:
        """One evaluation round trip; returns the RESULT payload on success.

        ``blob`` is exactly the bytes that ship after the JSON header.
        Raises the typed supervision error the RESULT describes, so the
        caller's retry policy treats remote failures exactly like local
        ones.
        """
        fs = self._acquire()
        try:
            try:
                fs.send_frame(FrameType.JOB, encode_job(header, blob))
                frame = fs.recv_frame(timeout=timeout)
                while frame.ftype != FrameType.RESULT:
                    frame = fs.recv_frame(timeout=timeout)
            except socket.timeout:
                # Tell the manager to tear the job down, then surface
                # the same timeout the local supervisor would raise.
                try:
                    fs.send_json(FrameType.ABORT, {})
                except Exception:
                    pass
                raise EvaluationTimeout(
                    f"cluster evaluation did not complete within {timeout}s"
                )
            except (FrameError, OSError) as exc:
                raise ClusterError(f"lost the cluster manager mid-job: {exc}")
        except BaseException:
            fs.close()  # mid-exchange: never back into the pool
            raise
        self._release(fs)
        result = frame.json()
        digests = [header[kind] for kind in (PLAN, EDB) if header.get(kind)]
        if result.get("kind") == "spec_miss":
            missing = list(result.get("missing", digests))
            with self._lock:
                for digest in missing:
                    self._manager_has.pop(digest)
            raise SpecMissError(missing)
        # Any other RESULT means the manager parsed the JOB frame, and it
        # stores the parts a frame carries before doing anything else.
        with self._lock:
            for digest in digests:
                self._manager_has.put(digest, True)
        if result.get("ok"):
            return result
        self._raise_failure(result, timeout)

    def _raise_failure(self, result: dict, timeout: float) -> None:
        kind = result.get("kind")
        where = result.get("where", "")
        if kind == "crash":
            raise WorkerCrashError(
                where or "remote worker",
                exitcode=result.get("exitcode"),
                remote_traceback=result.get("traceback"),
            )
        if kind == "stall":
            raise WorkerStallError(
                where or "remote worker",
                result.get("stalled_for", 0.0),
                result.get("heartbeat_interval") or 0.0,
            )
        if kind == "timeout":
            raise EvaluationTimeout(
                f"cluster evaluation did not complete within {timeout}s "
                f"({where})"
            )
        if kind == "no_workers":
            raise NoWorkersError(
                f"cluster manager at {self.address} has no registered workers"
            )
        raise ClusterError(f"cluster job failed: {kind} ({where})")

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The manager's per-worker transport counters (service stats op)."""
        fs = self._acquire()
        try:
            fs.send_json(FrameType.STATS_REQ, {})
            while True:
                frame = fs.recv_frame(timeout=10.0)
                if frame.ftype == FrameType.STATS_REP:
                    return frame.json()
        except (FrameError, OSError, socket.timeout) as exc:
            fs.close()
            raise ClusterError(f"stats request failed: {exc}")
        finally:
            if fs.sock.fileno() != -1:
                self._release(fs)

    def close(self) -> None:
        with self._lock:
            self.closed = True
            idle, self._idle = self._idle, []
        for fs in idle:
            fs.close()
