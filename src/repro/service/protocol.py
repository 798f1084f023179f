"""The query service wire protocol: newline-delimited JSON, typed errors.

One request per line, one response per line, UTF-8 JSON.  Requests are
objects with an ``op`` plus op-specific fields and an optional ``id``
the response echoes::

    {"id": 1, "op": "query", "query": "anc(ann, Z)", "timeout": 5.0}
    {"id": 1, "ok": true, "answers": [["bob"], ["cal"]], "count": 2, ...}

Failures are *typed*, so clients can distinguish their own mistakes
from overload from deadline misses without parsing prose::

    {"id": 1, "ok": false,
     "error": {"type": "overloaded", "message": "admission queue full ..."}}

The error taxonomy (:data:`ERROR_TYPES`) is part of the protocol; the
server maps internal exceptions onto it and never leaks a traceback
across the wire (tracebacks go to the server log — the client gets the
type and the first line).

Answer rows travel as JSON arrays.  JSON has no tuples and no atoms, so
``rows_to_wire`` keeps ints/floats/bools/strings as-is and stringifies
anything richer; ``wire_to_rows`` restores the ``set[tuple]`` shape on
the client.  Round-tripping is exact for the numeric/string constants
every workload in this repo uses.
"""

from __future__ import annotations

import bisect
import json
from typing import Iterable, Optional

__all__ = [
    "MAX_REQUEST_BYTES",
    "OPS",
    "ERROR_TYPES",
    "ServiceError",
    "encode",
    "decode_request",
    "error_payload",
    "rows_to_wire",
    "merge_wire",
    "wire_to_rows",
]

#: Default per-line ceiling; a line longer than this is rejected as
#: ``oversized`` and the connection closed (framing can no longer be
#: trusted once a line has been truncated).
MAX_REQUEST_BYTES = 1_000_000

#: Every operation the server understands.  ``warm`` is the cache-priming
#: variant of ``query`` the replication front door replays its recent-read
#: log through before readmitting a resynced replica: same evaluation,
#: same cache effects, but no answer rows on the wire — and a distinct op
#: name, so chaos plans scoped to client traffic (``only_ops: ["query"]``)
#: do not fire on internal warm-up replays.
OPS = ("query", "ask", "warm", "add_facts", "add_rules", "stats", "ping", "shutdown")

#: The closed set of error types a response may carry.
ERROR_TYPES = (
    "bad_request",  # malformed JSON, missing fields, bad program text
    "unknown_op",  # op not in OPS
    "oversized",  # request line exceeded the byte ceiling
    "overloaded",  # admission queue full — retry later, ideally with backoff
    "deadline_exceeded",  # per-request deadline passed before the answer
    "shutting_down",  # server is draining; no new work accepted
    "evaluation_error",  # the runtime failed (crash/stall after retries)
    "degraded",  # no healthy replica behind the front door and no cached answer
    "internal",  # anything else; a server-side bug surfaced safely
)


class ServiceError(Exception):
    """A protocol-level failure with a wire ``type`` from :data:`ERROR_TYPES`."""

    def __init__(self, error_type: str, message: str) -> None:
        if error_type not in ERROR_TYPES:
            raise ValueError(f"unknown service error type {error_type!r}")
        self.error_type = error_type
        super().__init__(message)

    def payload(self, request_id=None) -> dict:
        return error_payload(self.error_type, str(self), request_id)


def error_payload(error_type: str, message: str, request_id=None) -> dict:
    """The standard failure response object."""
    payload = {
        "id": request_id,
        "ok": False,
        "error": {"type": error_type, "message": message},
    }
    return payload


def encode(payload: dict) -> bytes:
    """One response/request as a single framed line."""
    return json.dumps(payload, separators=(",", ":"), default=str).encode() + b"\n"


def decode_request(line: bytes, max_bytes: int = MAX_REQUEST_BYTES) -> dict:
    """Parse one request line; raises :class:`ServiceError` on bad input."""
    if len(line) > max_bytes:
        raise ServiceError(
            "oversized", f"request of {len(line)} bytes exceeds limit {max_bytes}"
        )
    try:
        request = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ServiceError("bad_request", f"malformed JSON: {exc}") from None
    if not isinstance(request, dict):
        raise ServiceError(
            "bad_request", f"request must be a JSON object, got {type(request).__name__}"
        )

    def reject(error_type: str, message: str) -> ServiceError:
        # Once the JSON parsed, errors can still echo the request id.
        exc = ServiceError(error_type, message)
        exc.request_id = request.get("id")
        return exc

    op = request.get("op")
    if not isinstance(op, str):
        raise reject("bad_request", "request is missing a string 'op'")
    if op not in OPS:
        raise reject("unknown_op", f"unknown op {op!r}; expected one of {OPS}")
    timeout = request.get("timeout")
    if timeout is not None and (
        not isinstance(timeout, (int, float)) or isinstance(timeout, bool) or timeout <= 0
    ):
        raise reject(
            "bad_request", f"timeout must be a positive number, got {timeout!r}"
        )
    return request


# ----------------------------------------------------------------------
_WIRE_SAFE = (str, int, float, bool, type(None))


def rows_to_wire(rows: Iterable[tuple]) -> list[list]:
    """Answer tuples as sorted JSON arrays (deterministic over the wire)."""
    wire = [
        [value if isinstance(value, _WIRE_SAFE) else str(value) for value in row]
        for row in rows
    ]
    wire.sort(key=repr)
    return wire


def merge_wire(wire: list[list], part: list[list]) -> list[list]:
    """Two :func:`rows_to_wire` lists merged into a new one, same order.

    ``merge_wire(rows_to_wire(a), rows_to_wire(b)) == rows_to_wire(a | b)``
    for disjoint ``a`` and ``b``, at the cost of one ``repr`` per probed
    row — O(|part| log |wire|) of them — plus slice copies, where
    re-sorting would ``repr`` every row.  Neither argument is modified:
    ``wire`` may be in the middle of being serialized by another thread.
    """
    merged: list[list] = []
    start = 0
    for row in part:
        at = bisect.bisect_right(wire, repr(row), lo=start, key=repr)
        merged += wire[start:at]
        merged.append(row)
        start = at
    merged += wire[start:]
    return merged


def wire_to_rows(wire: Optional[Iterable[Iterable]]) -> set[tuple]:
    """The client-side inverse: JSON arrays back to a ``set[tuple]``."""
    return {tuple(row) for row in wire or ()}
