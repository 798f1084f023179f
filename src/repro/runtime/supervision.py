"""Supervision for the multiprocess runtimes: crash detection, retry, fallback.

The paper's Section 3.1 computation model assumes perfectly reliable
processes and channels; the Section 3.2 ``empty_queues()`` termination
argument silently breaks the moment a worker dies holding undelivered
messages — before this layer, a crashed worker simply hung the caller for
the full global deadline.  This module supplies the missing failure model:

* a :class:`Supervisor` that waits for the result while polling worker
  liveness (``Process.is_alive()`` / ``exitcode``) and per-worker heartbeat
  counters (single-writer shared slots, bumped by each worker loop), so a
  crashed worker surfaces in ~a poll interval and a wedged one within
  ``2 × heartbeat_interval`` — as a *typed* error, never a bare hang;
* structured ``("error", where, traceback)`` result payloads, shipped by
  the worker loops when node code raises, re-raised driver-side as
  :class:`WorkerCrashError` with the remote traceback attached;
* a :func:`run_with_retry` driver over the deterministic
  :class:`~repro.options.RetryPolicy`.
  Whole-query re-execution is *semantically safe* here because evaluation
  is monotone set-semantics Datalog: every node deduplicates, so
  at-least-once effects (a retry re-deriving tuples the dead attempt
  already produced) collapse to the same least fixpoint — the property
  distributed recursive-query systems classically exploit for fault
  tolerance;
* graceful degradation: after retries are exhausted, an optional fallback
  to the in-process :class:`~repro.network.scheduler.Scheduler` runtime,
  recorded as ``degraded`` on the result so callers can see what happened;
* :func:`shutdown_workers`, the audited teardown: non-blocking STOP
  delivery (a full or abandoned inbox must never block the caller),
  bounded joins, and a terminate → kill escalation so a timed-out query
  cannot leak zombie processes.

Heartbeats deliberately live *outside* the Section 3.2 message accounting:
they are plain liveness counters read only by the parent, never consulted
by ``empty_queues()``/``pending_for`` — see ``docs/protocol.md`` for why
this cannot perturb the termination argument.
"""

from __future__ import annotations

import queue as queue_module
import time
from typing import Callable, Optional, Sequence

from ..options import RetryPolicy

__all__ = [
    "RuntimeFailure",
    "WorkerCrashError",
    "WorkerStallError",
    "EvaluationTimeout",
    "RetryPolicy",
    "Supervisor",
    "shutdown_workers",
    "run_with_retry",
]


class RuntimeFailure(RuntimeError):
    """Base of all typed multiprocess-runtime failures (retryable)."""


class WorkerCrashError(RuntimeFailure):
    """A worker process died, or node code inside it raised.

    ``remote_traceback`` carries the worker-side traceback when the failure
    was an exception the worker could still report; a hard kill (signal,
    ``os._exit``) leaves only the exit code.
    """

    def __init__(
        self,
        where: str,
        exitcode: Optional[int] = None,
        remote_traceback: Optional[str] = None,
    ) -> None:
        self.where = where
        self.exitcode = exitcode
        self.remote_traceback = remote_traceback
        message = f"worker {where} crashed"
        if exitcode is not None:
            message += f" (exit code {exitcode})"
        if remote_traceback:
            message += "\n--- remote traceback ---\n" + remote_traceback.rstrip()
        super().__init__(message)


class WorkerStallError(RuntimeFailure):
    """A worker is alive but its heartbeat stopped (wedged/livelocked)."""

    def __init__(self, where: str, stalled_for: float, heartbeat_interval: float) -> None:
        self.where = where
        self.stalled_for = stalled_for
        self.heartbeat_interval = heartbeat_interval
        super().__init__(
            f"worker {where} heartbeat stalled for {stalled_for:.2f}s "
            f"(heartbeat interval {heartbeat_interval}s)"
        )


class EvaluationTimeout(RuntimeFailure, TimeoutError):
    """The global deadline passed with every worker apparently healthy.

    Subclasses :class:`TimeoutError` so pre-supervision callers that caught
    the bare timeout keep working.
    """


class Supervisor:
    """Waits on the result queue while watching the workers' vital signs.

    Parameters
    ----------
    workers:
        The attempt's worker :class:`multiprocessing.Process` objects.
    result_queue:
        Where a worker posts the terminal payload: ``("done", answers,
        accounting)`` on success or ``("error", where, traceback)`` when
        node code raised.
    heartbeats:
        A shared array with one single-writer slot per worker, bumped by
        each worker-loop iteration (including idle polls, so a blocked-on-
        input worker still beats).  ``None`` disables stall detection.
    heartbeat_interval:
        Expected worst-case gap between a healthy worker's beats.  A slot
        unchanged for ``2 × heartbeat_interval`` raises
        :class:`WorkerStallError`.  ``None`` disables stall detection
        (crash detection stays on).
    labels:
        Human-readable per-worker names for error messages (defaults to
        ``"worker <i>"``).
    what:
        Noun for the timeout message (e.g. ``"pooled evaluation"``).
    """

    def __init__(
        self,
        workers: Sequence,
        result_queue,
        heartbeats=None,
        heartbeat_interval: Optional[float] = None,
        labels: Optional[Sequence[str]] = None,
        what: str = "evaluation",
    ) -> None:
        self.workers = list(workers)
        self.result_queue = result_queue
        self.heartbeats = heartbeats
        self.heartbeat_interval = heartbeat_interval
        self.labels = (
            list(labels)
            if labels is not None
            else [f"worker {i}" for i in range(len(self.workers))]
        )
        self.what = what

    # ------------------------------------------------------------------
    def wait(self, timeout: float):
        """Block until a terminal payload, a crash, a stall, or the deadline.

        Returns the validated ``("done", ...)`` payload; raises the typed
        error otherwise.  Detection latency is one poll interval for a
        crash and at most ``2 × heartbeat_interval`` + one poll for a
        stall — never the full ``timeout``.
        """
        deadline = time.monotonic() + timeout
        poll = 0.05
        stall_after: Optional[float] = None
        if self.heartbeat_interval is not None and self.heartbeats is not None:
            stall_after = 2.0 * self.heartbeat_interval
            poll = min(poll, max(0.01, self.heartbeat_interval / 4.0))
        beats = list(self.heartbeats) if self.heartbeats is not None else []
        last_change = [time.monotonic()] * len(beats)

        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise EvaluationTimeout(
                    f"{self.what} did not complete within {timeout}s"
                )
            try:
                payload = self.result_queue.get(timeout=min(poll, remaining))
            except queue_module.Empty:
                pass
            else:
                return self._accept(payload)

            for index, worker in enumerate(self.workers):
                if not worker.is_alive():
                    # Prefer a structured error payload the dying worker may
                    # have flushed just before exiting over a bare exit code.
                    late = self._drain_one()
                    if late is not None:
                        return self._accept(late)
                    raise WorkerCrashError(
                        self.labels[index], exitcode=worker.exitcode
                    )

            if stall_after is not None:
                now = time.monotonic()
                for index in range(len(beats)):
                    current = self.heartbeats[index]
                    if current != beats[index]:
                        beats[index] = current
                        last_change[index] = now
                    elif now - last_change[index] > stall_after:
                        raise WorkerStallError(
                            self.labels[index],
                            now - last_change[index],
                            self.heartbeat_interval,  # type: ignore[arg-type]
                        )

    # ------------------------------------------------------------------
    def _accept(self, payload):
        """Validate a result payload; typed errors instead of bare asserts.

        The pre-supervision code asserted ``kind == "done"`` — stripped
        under ``python -O`` and silent about *why* a worker failed.
        """
        kind = payload[0]
        if kind == "error":
            _, where, remote_traceback = payload
            raise WorkerCrashError(str(where), remote_traceback=remote_traceback)
        if kind != "done":
            raise RuntimeFailure(f"unexpected result payload kind {kind!r}")
        return payload

    def _drain_one(self, grace: float = 0.25):
        """One last look at the result queue after noticing a dead worker."""
        try:
            return self.result_queue.get(timeout=grace)
        except queue_module.Empty:
            return None


# ----------------------------------------------------------------------
def shutdown_workers(
    workers: Sequence,
    send_stop: Callable[[], None],
    join_timeout: float = 2.0,
) -> None:
    """Tear an attempt's workers down without blocking and without zombies.

    Ordering audit (the pre-supervision cleanup could block or leak):

    1. STOP sentinels are sent through ``send_stop``, which must use
       non-blocking puts and swallow per-queue errors — an abandoned or
       broken inbox (dead worker, dead manager) must not block teardown;
    2. every worker gets a bounded ``join``;
    3. survivors are ``terminate()``d (SIGTERM) and re-joined;
    4. anything that survives *terminate* is ``kill()``ed (SIGKILL) — a
       worker wedged in uninterruptible state cannot be left as a zombie.
    """
    try:
        send_stop()
    except Exception:  # pragma: no cover - defensive: stop is best-effort
        pass
    for worker in workers:
        worker.join(timeout=join_timeout)
    stubborn = [worker for worker in workers if worker.is_alive()]
    for worker in stubborn:
        worker.terminate()
    for worker in stubborn:
        worker.join(timeout=join_timeout)
        if worker.is_alive():
            # SIGTERM ignored/blocked: escalate. kill() exists on 3.7+.
            worker.kill()
            worker.join(timeout=join_timeout)


# ----------------------------------------------------------------------
def run_with_retry(
    attempt_fn: Callable[[int], object],
    policy: RetryPolicy,
    fallback_fn: Optional[Callable[[], object]] = None,
):
    """Execute ``attempt_fn(attempt)`` under a deterministic retry policy.

    Returns ``(result, attempts, degraded, failure_log)``.  Only typed
    runtime failures (and timeouts) are retried; programming errors
    propagate immediately.  When every attempt fails and ``fallback_fn``
    is given, it runs once and the result is flagged degraded; otherwise
    the last failure is re-raised with the accumulated ``failure_log``
    attached to it.
    """
    failure_log: list[str] = []
    deadline = (
        time.monotonic() + policy.deadline if policy.deadline is not None else None
    )
    last_error: Optional[BaseException] = None
    attempts = 0
    for attempt in range(1, policy.max_attempts + 1):
        if attempt > 1 and deadline is not None and time.monotonic() >= deadline:
            failure_log.append(
                f"retry deadline ({policy.deadline}s) exhausted before attempt {attempt}"
            )
            break
        attempts = attempt
        try:
            return attempt_fn(attempt), attempts, False, failure_log
        except (RuntimeFailure, TimeoutError) as exc:
            last_error = exc
            summary = str(exc).splitlines()[0]
            failure_log.append(f"attempt {attempt}: {type(exc).__name__}: {summary}")
        if attempt < policy.max_attempts:
            delay = policy.delay_for(attempt + 1)
            if delay > 0:
                time.sleep(delay)
    if fallback_fn is not None:
        failure_log.append(
            "degraded: falling back to the in-process scheduler runtime"
        )
        return fallback_fn(), attempts, True, failure_log
    assert last_error is not None
    last_error.failure_log = failure_log  # type: ignore[attr-defined]
    raise last_error
