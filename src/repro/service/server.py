"""The concurrent query service: an asyncio TCP frontend over a SharedSession.

The paper evaluates one query per network of processes; the serving
layer multiplexes *many* queries over one permanent PIDB/EDB.  The
server speaks the newline-delimited JSON protocol of
:mod:`repro.service.protocol` and applies three serving disciplines the
single-query engine has no notion of:

**Admission control.**  At most ``max_concurrent`` evaluations run at
once (an asyncio semaphore; each evaluation occupies one thread of a
dedicated executor).  At most ``max_queue`` further requests may wait
for a slot; beyond that the server answers ``overloaded`` *immediately*
— a typed rejection in microseconds beats an unbounded queue melting
down under a spike.  Every request carries a deadline (its ``timeout``
field, else ``default_deadline``) spanning queue wait plus evaluation;
a miss answers ``deadline_exceeded`` (the orphaned evaluation finishes
on its thread, releases its slot, and — thanks to coalescing and the
graph cache — its work is not wasted for later identical queries).

**Evaluation offload.**  Evaluations run in a thread pool via
``run_in_executor``, keeping the event loop free for protocol work.
The SharedSession's ``runtime=`` option decides what each evaluation
thread actually does: simulate in-process, or drive the supervised
pool/cluster runtimes (in which case real parallelism comes from worker
processes, and ``EvaluationTimeout``/retry/degradation surface through
the same typed error path).

**Graceful drain.**  ``shutdown`` (the op, or :meth:`QueryServer.
shutdown`) stops accepting connections, lets in-flight evaluations
finish within ``drain_timeout``, then stops — no severed evaluations,
no zombie executor threads.

The transport itself — bind, the NDJSON connection loop, the
ping/stats/shutdown prologue, the drain and the signal handlers — is
:class:`NDJSONServer`, shared with the replicated front door
(:class:`~repro.service.replication.ReplicaSet`); :class:`QueryServer`
adds only how it answers the evaluated ops, its ``stats`` payload and
how it releases its executor.  :class:`ServerThread` runs either on a
background thread.

Metrics flow into the same :class:`~repro.service.metrics
.MetricsRegistry` the SharedSession reports into; the ``stats`` op
snapshots everything.
"""

from __future__ import annotations

import asyncio
import signal as signal_module
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..core.program import ProgramError
from ..runtime.supervision import EvaluationTimeout, RuntimeFailure
from .metrics import MetricsRegistry
from .protocol import (
    MAX_REQUEST_BYTES,
    ServiceError,
    decode_request,
    encode,
    error_payload,
    merge_wire,
    rows_to_wire,
)
from .shared_session import SharedSession

__all__ = ["ServerConfig", "QueryServer", "ServerThread"]


@dataclass(frozen=True)
class ServerConfig:
    """Tunables for one :class:`QueryServer`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port lands on server.port
    max_concurrent: int = 4  # evaluation slots (executor threads)
    max_queue: int = 16  # admitted-but-waiting ceiling before rejection
    default_deadline: float = 30.0  # seconds, queue wait + evaluation
    max_request_bytes: int = MAX_REQUEST_BYTES
    drain_timeout: float = 10.0  # grace for in-flight work at shutdown


class NDJSONServer:
    """The one NDJSON-over-TCP transport every server here speaks.

    Owns the listening socket, the per-connection line loop and its
    framing errors, the ops every server answers alike (``ping``,
    ``stats``, ``shutdown`` and the ``shutting_down`` refusal while
    draining), the drain-then-stop shutdown bounded by
    ``config.drain_timeout``, the signal handlers and :meth:`run`.  A
    backend subclass adds only what differs:

    * ``_dispatch(request)`` — call :meth:`_control` first, then answer
      the evaluated ops itself;
    * ``stats()`` — the ``stats`` op payload;
    * ``start`` (extend with ``super()``), ``_stop_backend`` (async,
      after the drain) and ``_abort_backend`` (sync, when an interrupt
      tore the loop down).

    ``config`` needs ``host``, ``port``, ``max_request_bytes`` and
    ``drain_timeout``.
    """

    #: (name, help) of the counter every received request bumps.
    requests_counter = ("server_requests_total", "requests received")
    draining_message = "server is draining"
    _errors = None  # counter of error responses, where a backend keeps one

    def __init__(self, config, metrics: MetricsRegistry) -> None:
        self.config = config
        self.metrics = metrics
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None
        self._drain_abort: Optional[asyncio.Event] = None
        self._shutdown_task: Optional[asyncio.Task] = None  # strong ref: no GC mid-drain
        self._pending: set = set()  # in-flight work futures the drain waits for
        self._writers: set = set()  # open connection writers (closed after the drain)
        self._active_dispatches = 0  # requests between decode and response write
        self._draining = False
        self._shutdown_started = False
        self._requests = metrics.counter(*self.requests_counter)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and begin accepting; ``self.port`` carries the bound port."""
        self._stopped = asyncio.Event()
        self._drain_abort = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=self.config.max_request_bytes + 2,
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]

    async def serve_forever(self) -> None:
        """Block until :meth:`shutdown` has fully completed."""
        assert self._stopped is not None, "call start() first"
        await self._stopped.wait()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, drain in-flight requests, close, stop the backend."""
        if self._shutdown_started:
            await self._stopped.wait()  # type: ignore[union-attr]
            return
        self._shutdown_started = True
        self._draining = True
        if self._server is not None:
            self._server.close()
        if drain:
            await self._drain()
        # Close the connections before wait_closed: since Python 3.12 it
        # waits for every connection to close, so a client idling on an
        # open connection would otherwise hold the stop forever.
        for writer in list(self._writers):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()
        await self._stop_backend()
        self._stopped.set()  # type: ignore[union-attr]

    async def _drain(self) -> None:
        """Wait, within ``drain_timeout``, until in-flight responses are sent.

        Draining means *responses delivered*, not just work finished: a
        request's answer is written by its dispatch coroutine after its
        work completes, so wait for the active-dispatch count too —
        closing writers on work completion alone would sever the final
        responses.  Waits in short slices so a second shutdown signal
        (the universal "stop NOW" convention) can abandon the drain.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_timeout
        abort = self._drain_abort
        while (self._pending or self._active_dispatches) and (
            abort is None or not abort.is_set()
        ):
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            if self._pending:
                await asyncio.wait(self._pending, timeout=min(0.05, remaining))
            else:
                await asyncio.sleep(min(0.05, remaining))

    async def _stop_backend(self) -> None:
        """Release the backend once the connections are closed."""

    def _abort_backend(self) -> None:
        """Release the backend without a loop (the interrupt path of run)."""

    def request_shutdown(self) -> None:
        """Begin a graceful drain; a repeat call abandons the drain.

        Sync and idempotent, so it is directly usable as a signal
        handler on the event loop's thread (``loop.add_signal_handler``).
        The created task is retained on the server — asyncio keeps only
        weak references to tasks, and a garbage-collected drain would
        stop half way.
        """
        if self._shutdown_task is None and not self._shutdown_started:
            self._shutdown_task = asyncio.get_running_loop().create_task(
                self.shutdown()
            )
        elif self._drain_abort is not None:
            self._drain_abort.set()

    def install_signal_handlers(
        self, signals: Iterable[int] = (signal_module.SIGINT, signal_module.SIGTERM)
    ) -> bool:
        """SIGINT/SIGTERM → graceful drain (twice → immediate stop).

        Must run on the event loop's (main) thread.  Returns False where
        loop signal handlers are unsupported (non-unix platforms or an
        embedded non-main thread); Ctrl-C then surfaces as
        KeyboardInterrupt and :meth:`run` falls back to
        ``_abort_backend``.
        """
        loop = asyncio.get_running_loop()
        installed = False
        for sig in signals:
            try:
                loop.add_signal_handler(sig, self.request_shutdown)
                installed = True
            except (NotImplementedError, RuntimeError, ValueError):
                pass
        return installed

    def run(self) -> None:
        """Blocking convenience: start and serve until shutdown or Ctrl-C.

        Installs the SIGINT/SIGTERM handlers, so an interrupt triggers
        the same graceful drain as the ``shutdown`` op instead of
        tearing down mid-request.
        """

        async def _main() -> None:
            await self.start()
            self.install_signal_handlers()
            try:
                await self.serve_forever()
            finally:
                await self.shutdown()

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:
            # Signal handlers were unavailable, so the interrupt tore the
            # loop down uncleanly; release the backend off-loop so
            # nothing leaks even on this path.
            self._abort_backend()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _send(self, writer: asyncio.StreamWriter, payload: dict) -> bool:
        if not payload.get("ok", False) and self._errors is not None:
            self._errors.inc()
        try:
            writer.write(encode(payload))
            await writer.drain()
            return True
        except (ConnectionError, RuntimeError):
            return False

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # The stream limit tripped: the line is longer than
                    # max_request_bytes and framing is unrecoverable.
                    await self._send(
                        writer,
                        error_payload(
                            "oversized",
                            f"request line exceeds {self.config.max_request_bytes} bytes",
                        ),
                    )
                    break
                if not line:
                    break  # EOF: client closed
                if not line.strip():
                    continue
                try:
                    request = decode_request(line, self.config.max_request_bytes)
                except ServiceError as exc:
                    rid = getattr(exc, "request_id", None)
                    if not await self._send(writer, exc.payload(rid)):
                        break
                    if exc.error_type == "oversized":
                        break
                    continue
                self._active_dispatches += 1
                try:
                    response, close = await self._dispatch(request)
                    sent = await self._send(writer, response)
                finally:
                    self._active_dispatches -= 1
                if not sent or close:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-conversation; its work finishes solo
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _control(self, op: str, rid) -> Optional[tuple[dict, bool]]:
        """Answer the ops every server answers alike; None = the backend's op.

        Returns (payload, close-conn).  Sync, so a backend's dispatch
        pays no extra await for it.
        """
        self._requests.inc()
        if op == "ping":
            return {"id": rid, "ok": True, "op": "ping"}, False
        if op == "stats":
            return {"id": rid, "ok": True, "op": "stats", "stats": self.stats()}, False
        if op == "shutdown":
            if self._shutdown_task is None:  # retained: tasks are weakly held
                self._shutdown_task = asyncio.get_running_loop().create_task(
                    self.shutdown()
                )
            return {"id": rid, "ok": True, "op": "shutdown", "draining": True}, True
        if self._draining:
            return error_payload("shutting_down", self.draining_message, rid), True
        return None


class QueryServer(NDJSONServer):
    """Serve one :class:`SharedSession` over TCP with admission control."""

    def __init__(
        self,
        shared: SharedSession,
        config: Optional[ServerConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(
            config or ServerConfig(),
            metrics if metrics is not None else shared.metrics,
        )
        self.shared = shared
        self._slots: Optional[asyncio.Semaphore] = None
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_concurrent,
            thread_name_prefix="repro-eval",
        )
        self._queue_depth = 0
        m = self.metrics
        self._rejections = m.counter(
            "server_rejections_total", "typed overload rejections"
        )
        self._deadline_misses = m.counter(
            "server_deadline_exceeded_total", "requests that outran their deadline"
        )
        self._errors = m.counter(
            "server_errors_total", "requests answered with any error payload"
        )
        self._queue_wait = m.histogram(
            "queue_wait_seconds", help="admission wait before an evaluation slot"
        )
        self._request_seconds = m.histogram(
            "request_seconds", help="full request wall time, admission included"
        )

    async def start(self) -> None:
        self._slots = asyncio.Semaphore(self.config.max_concurrent)
        await super().start()

    async def _stop_backend(self) -> None:
        # wait=True would block the loop if an orphan is still evaluating;
        # with no orphans it returns immediately and every thread is joined.
        self._abort_backend(wait=not self._pending)

    def _abort_backend(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait)
        if self.shared.store is not None:
            # Make any batched-but-unsynced log records durable before
            # the process goes away.
            self.shared.store.close()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, request: dict) -> tuple[dict, bool]:
        """One validated request to one response; (payload, close-conn)."""
        op = request["op"]
        rid = request.get("id")
        control = self._control(op, rid)
        if control is not None:
            return control
        try:
            fn = self._work_for(op, request)
        except ServiceError as exc:
            return exc.payload(rid), False
        start = asyncio.get_running_loop().time()
        deadline = float(request.get("timeout") or self.config.default_deadline)
        try:
            await self._admit(deadline)
        except ServiceError as exc:
            if exc.error_type == "overloaded":
                self._rejections.inc()
            return exc.payload(rid), False
        queue_wait = asyncio.get_running_loop().time() - start
        self._queue_wait.observe(queue_wait)
        try:
            value = await self._evaluate(fn, deadline - queue_wait)
        except asyncio.TimeoutError:
            self._deadline_misses.inc()
            return (
                error_payload(
                    "deadline_exceeded",
                    f"request missed its {deadline}s deadline "
                    f"({queue_wait:.3f}s of it queued)",
                    rid,
                ),
                False,
            )
        except Exception as exc:
            return self._failure(exc, rid), False
        elapsed = asyncio.get_running_loop().time() - start
        self._request_seconds.observe(elapsed)
        return self._success(op, rid, value, elapsed), False

    def _work_for(self, op: str, request: dict) -> Callable[[], object]:
        """The executor thunk for one evaluated op; validates its fields."""
        if op in ("query", "ask", "warm"):
            text = request.get("query")
            if not isinstance(text, str) or not text.strip():
                raise ServiceError("bad_request", f"{op} needs a 'query' string")
            return lambda: self.shared.query_detailed(text)
        if op == "add_facts":
            text = request.get("facts")
            if not isinstance(text, str):
                raise ServiceError("bad_request", "add_facts needs a 'facts' string")
            return lambda: self.shared.add_facts(text)
        if op == "add_rules":
            text = request.get("rules")
            if not isinstance(text, str):
                raise ServiceError("bad_request", "add_rules needs a 'rules' string")
            return lambda: self.shared.add_rules(text)
        raise ServiceError("unknown_op", f"unhandled op {op!r}")  # pragma: no cover

    async def _admit(self, deadline: float) -> None:
        """Take an evaluation slot, or reject typed — never queue unboundedly."""
        assert self._slots is not None
        if self._slots.locked() and self._queue_depth >= self.config.max_queue:
            raise ServiceError(
                "overloaded",
                f"{self.config.max_concurrent} evaluations active, "
                f"{self._queue_depth} queued (max_queue={self.config.max_queue}); "
                "retry with backoff",
            )
        self._queue_depth += 1
        try:
            try:
                await asyncio.wait_for(self._slots.acquire(), timeout=deadline)
            except asyncio.TimeoutError:
                raise ServiceError(
                    "deadline_exceeded",
                    f"deadline passed after {deadline:.3f}s waiting for a slot",
                ) from None
        finally:
            self._queue_depth -= 1

    async def _evaluate(self, fn: Callable[[], object], remaining: float):
        """Offload ``fn`` to the executor under the remaining deadline.

        The slot is released by the future's completion callback — on a
        deadline miss the evaluation is *orphaned*, keeps its slot until
        it actually finishes, and its result still lands in the caches.
        """
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(self._executor, fn)
        self._pending.add(future)
        future.add_done_callback(self._evaluation_finished)
        return await asyncio.wait_for(asyncio.shield(future), max(remaining, 0.001))

    def _evaluation_finished(self, future) -> None:
        self._pending.discard(future)
        if self._slots is not None:
            self._slots.release()
        if not future.cancelled():
            future.exception()  # retrieve, so orphans never warn at GC

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    def _success(self, op: str, rid, value, elapsed: float) -> dict:
        payload = {"id": rid, "ok": True, "op": op, "elapsed": round(elapsed, 6)}
        if op == "warm":
            # Cache priming: report what got warm, skip the answer rows.
            outcome = value
            payload.update(
                cache_hit=outcome.cache_hit,
                answer_cached=outcome.answer_cached,
                count=len(outcome.answers),
            )
            return payload
        if op in ("query", "ask"):
            outcome = value  # a QueryOutcome
            payload.update(
                coalesced=outcome.coalesced,
                shared=outcome.shared,
                cache_hit=outcome.cache_hit,
                answer_cached=outcome.answer_cached,
                attempts=outcome.attempts,
                degraded=outcome.degraded,
            )
            if outcome.db_version is not None:
                payload["db_version"] = outcome.db_version
            if op == "query":
                payload["answers"] = self._wire_answers(outcome)
                payload["count"] = len(outcome.answers)
            else:
                payload["result"] = bool(outcome.answers)
        return payload

    @staticmethod
    def _wire_answers(outcome) -> list:
        """Wire-encoded answer rows, memoised on the answer-cache entry.

        Every cache hit at a given version hands back the *same*
        :class:`CachedAnswer` object, so rendering a hot answer set once
        and hanging the rows off its ``renders`` memo turns repeat
        responses from O(rows) encoding work into a dict lookup.
        :meth:`CachedAnswer.render` owns the check-compute-store cycle —
        it is race-free for any number of serving threads and charges
        the rendered rows against the cache's byte budget.  The render
        outlives the version: an entry a write carried forward keeps
        it, and one a write extended merges in the encoding of just the
        new rows (:func:`merge_wire`).
        """
        entry = outcome.cache_entry
        if entry is None:
            return rows_to_wire(outcome.answers)
        return entry.render("wire", rows_to_wire, merge_wire)

    def _failure(self, exc: Exception, rid) -> dict:
        if isinstance(exc, ServiceError):
            return exc.payload(rid)
        if isinstance(exc, EvaluationTimeout):
            self._deadline_misses.inc()
            return error_payload("deadline_exceeded", str(exc), rid)
        if isinstance(exc, RuntimeFailure):
            return error_payload(
                "evaluation_error", str(exc).splitlines()[0], rid
            )
        if isinstance(exc, (ProgramError, ValueError, SyntaxError)):
            return error_payload("bad_request", str(exc), rid)
        return error_payload(
            "internal", f"{type(exc).__name__}: {exc}", rid
        )

    def stats(self) -> dict:
        return {
            "metrics": self.metrics.snapshot(),
            "session": self.shared.stats(),
            "server": {
                "active_evaluations": len(self._pending),
                "queued": self._queue_depth,
                "draining": self._draining,
                "max_concurrent": self.config.max_concurrent,
                "max_queue": self.config.max_queue,
            },
        }


# ----------------------------------------------------------------------
class ServerThread:
    """A server on a background thread (tests and benchmarks).

    ``start()`` blocks until the server is bound and returns the port;
    ``stop()`` triggers a graceful drain from any thread and joins.
    Usable as a context manager::

        with ServerThread(shared) as port:
            ServiceClient(port=port) ...

    The one harness for every :class:`NDJSONServer`: a subclass only
    hands :meth:`_harness` a different server factory (see
    :class:`~repro.service.replication.ReplicaSetThread`).
    """

    _thread_name = "repro-service"
    _what = "query server"
    start_timeout = 10.0
    stop_timeout = 30.0

    def __init__(
        self,
        shared: SharedSession,
        config: Optional[ServerConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._harness(lambda: QueryServer(shared, config, metrics))

    def _harness(self, make_server: Callable[[], NDJSONServer]) -> None:
        self._make_server = make_server  # called on the server thread, in its loop
        self.server: Optional[NDJSONServer] = None
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None

    def start(self, timeout: Optional[float] = None) -> int:
        self._thread = threading.Thread(
            target=self._main, name=self._thread_name, daemon=True
        )
        self._thread.start()
        if not self._ready.wait(self.start_timeout if timeout is None else timeout):
            raise RuntimeError(f"{self._what} did not start in time")
        if self._startup_error is not None:
            raise RuntimeError(f"{self._what} failed to start") from self._startup_error
        assert self.port is not None
        return self.port

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # pragma: no cover - defensive
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            self.server = self._make_server()
            await self.server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self.port = self.server.port
        self._ready.set()
        await self.server.serve_forever()

    def stop(self, timeout: Optional[float] = None) -> None:
        """Graceful drain from any thread; join the server thread."""
        loop, server, thread = self._loop, self.server, self._thread
        if thread is None:
            return
        if loop is not None and server is not None and thread.is_alive():
            try:
                # request_shutdown retains its task; a bare ensure_future
                # could be garbage-collected mid-drain (weak task refs).
                loop.call_soon_threadsafe(server.request_shutdown)
            except RuntimeError:
                pass  # loop already closed — thread is on its way out
        thread.join(self.stop_timeout if timeout is None else timeout)
        if thread.is_alive():
            raise RuntimeError(f"{self._what} thread did not stop")

    def __enter__(self) -> int:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
