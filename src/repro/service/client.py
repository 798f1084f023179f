"""A small blocking client for the query service.

Speaks the NDJSON protocol of :mod:`repro.service.protocol` over one
TCP connection.  Typed server failures surface as
:class:`ServiceClientError` carrying the wire ``error_type``, so
callers can branch on ``overloaded`` vs ``deadline_exceeded`` vs their
own ``bad_request`` without string matching.

>>> from repro.service import ServiceClient          # doctest: +SKIP
>>> with ServiceClient(port=7464) as client:         # doctest: +SKIP
...     client.query("anc(ann, Z)").answers
{('bob',), ('cal',)}

One request is in flight per connection at a time (an internal lock
serializes callers), matching the server's per-connection sequential
dispatch; use one client per thread for concurrent load.

Transport failures — a refused or severed connection, a read timeout —
are retried automatically with exponential backoff plus jitter, but
**only for idempotent operations** (:data:`IDEMPOTENT_OPS`:
query/ask/stats/ping).  A write whose connection died after the
request was sent may or may not have committed; replaying it blindly
is safe against *this* repo's monotone set semantics but not against
the protocol in general, so writes surface the transport error to the
caller unless ``retry_writes=True`` opts in.  Each retry reconnects
from scratch (the old socket is closed on first failure), which is
what lets a client ride through a server restart or a replication
front-door failover without its callers noticing.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from ..runtime.supervision import RetryPolicy
from .protocol import encode, wire_to_rows

__all__ = ["ServiceClient", "ServiceClientError", "QueryReply", "IDEMPOTENT_OPS"]

#: Operations safe to replay after an ambiguous transport failure.
IDEMPOTENT_OPS = ("query", "ask", "stats", "ping")


class ServiceClientError(Exception):
    """A typed failure response (or transport problem) from the service."""

    def __init__(self, error_type: str, message: str, payload: Optional[dict] = None):
        self.error_type = error_type
        self.payload = payload or {}
        super().__init__(f"{error_type}: {message}")


@dataclass(frozen=True)
class QueryReply:
    """A successful ``query``/``ask`` response, answers restored to tuples."""

    answers: frozenset
    coalesced: bool
    shared: int
    cache_hit: bool
    elapsed: float
    attempts: int = 1
    degraded: bool = False
    answer_cached: bool = False  # served from the answer cache, no evaluation
    raw: dict = field(default_factory=dict, compare=False, repr=False)


class ServiceClient:
    """A blocking NDJSON client; connects lazily on first call."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7464,
        timeout: float = 30.0,
        connect_timeout: float = 5.0,
        retries: int = 2,
        backoff: float = 0.05,
        backoff_factor: float = 2.0,
        jitter: float = 0.05,
        retry_writes: bool = False,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        #: ``retries`` extra attempts after the first, for idempotent ops
        #: (every attempt reconnects); delays follow the shared
        #: :class:`~repro.runtime.supervision.RetryPolicy` schedule.
        self.retry_policy = RetryPolicy(
            max_attempts=max(1, int(retries) + 1),
            backoff=backoff,
            backoff_factor=backoff_factor,
            jitter=jitter,
        )
        self.retry_writes = retry_writes
        self.transport_retries = 0  # attempts beyond the first, cumulative
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._lock = threading.Lock()
        self._next_id = 0
        self._closes = 0  # close() calls; a call in flight across one gives up

    # ------------------------------------------------------------------
    def connect(self) -> "ServiceClient":
        if self._sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
            sock.settimeout(self.timeout)
            self._sock = sock
            self._file = sock.makefile("rwb")
        return self

    def close(self) -> None:
        """Drop the connection; the next call reconnects.

        A call another thread has in flight fails with a ``transport``
        error instead of waiting for its reply, and is not retried.
        """
        self._closes += 1
        self._drop()

    def _drop(self) -> None:
        file, sock = self._file, self._sock
        self._file = self._sock = None
        if sock is not None:
            try:
                # Wakes a readline() another thread is blocked in, so the
                # file's close below need not wait for the reply.
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if file is not None:
            try:
                file.close()
            except OSError:
                pass
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def call(self, op: str, **fields) -> dict:
        """One request/response round trip with idempotent-retry on transport.

        A transport failure (connect refused, connection severed, read
        timeout) closes the socket and — for ops in
        :data:`IDEMPOTENT_OPS`, or any op when ``retry_writes`` is set —
        retries on a fresh connection up to the policy's attempt bound,
        backing off exponentially with jitter between attempts.  Typed
        server errors are never retried; they are answers.
        """
        policy = self.retry_policy
        attempts = (
            policy.max_attempts
            if (op in IDEMPOTENT_OPS or self.retry_writes)
            else 1
        )
        closes = self._closes
        for attempt in range(1, attempts + 1):
            if attempt > 1:
                self.transport_retries += 1
                delay = policy.delay_for(attempt)
                if delay > 0:
                    time.sleep(delay)
            try:
                return self._call_once(op, **fields)
            except ServiceClientError as exc:
                if (
                    exc.error_type != "transport"
                    or attempt >= attempts
                    or self._closes != closes
                ):
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def _call_once(self, op: str, **fields) -> dict:
        """One raw round trip on the current (or a fresh) connection."""
        with self._lock:
            try:
                self.connect()
            except OSError as exc:
                self._drop()
                raise ServiceClientError("transport", f"connect failed: {exc}") from exc
            file = self._file
            if file is None:  # close() ran in another thread just now
                raise ServiceClientError("transport", "client closed")
            self._next_id += 1
            request = {"id": self._next_id, "op": op, **fields}
            try:
                file.write(encode(request))
                file.flush()
                line = file.readline()
            except (OSError, ValueError) as exc:
                self._drop()
                raise ServiceClientError("transport", f"connection failed: {exc}") from exc
        if not line:
            self._drop()
            raise ServiceClientError("transport", "server closed the connection")
        try:
            response = json.loads(line)
        except ValueError as exc:
            self._drop()
            raise ServiceClientError("transport", f"unparseable response: {exc}") from exc
        if not response.get("ok", False):
            error = response.get("error") or {}
            raise ServiceClientError(
                error.get("type", "internal"),
                error.get("message", "unknown failure"),
                response,
            )
        return response

    # ------------------------------------------------------------------
    def query(self, query: str, timeout: Optional[float] = None) -> QueryReply:
        """Evaluate; the reply carries answers plus serving accounting."""
        fields = {"query": query}
        if timeout is not None:
            fields["timeout"] = timeout
        response = self.call("query", **fields)
        return QueryReply(
            answers=frozenset(wire_to_rows(response.get("answers"))),
            coalesced=bool(response.get("coalesced")),
            shared=int(response.get("shared", 1)),
            cache_hit=bool(response.get("cache_hit")),
            elapsed=float(response.get("elapsed", 0.0)),
            attempts=int(response.get("attempts", 1)),
            degraded=bool(response.get("degraded", False)),
            answer_cached=bool(response.get("answer_cached", False)),
            raw=response,
        )

    def ask(self, query: str, timeout: Optional[float] = None) -> bool:
        """Boolean query against the service."""
        fields = {"query": query}
        if timeout is not None:
            fields["timeout"] = timeout
        return bool(self.call("ask", **fields).get("result"))

    def add_facts(self, facts: str, timeout: Optional[float] = None) -> dict:
        fields = {"facts": facts}
        if timeout is not None:
            fields["timeout"] = timeout
        return self.call("add_facts", **fields)

    def add_rules(self, rules: str, timeout: Optional[float] = None) -> dict:
        fields = {"rules": rules}
        if timeout is not None:
            fields["timeout"] = timeout
        return self.call("add_rules", **fields)

    def stats(self) -> dict:
        """The server's metrics/session/server snapshot."""
        return self.call("stats")["stats"]

    def ping(self) -> bool:
        return bool(self.call("ping").get("ok"))

    def shutdown(self) -> dict:
        """Ask the server to drain and stop; closes this connection."""
        try:
            return self.call("shutdown")
        finally:
            self.close()
