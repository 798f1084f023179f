"""Wire format of the cluster runtime: length-prefixed, versioned frames.

The transport's job is to carry the *existing* message vocabulary —
:class:`~repro.network.messages.MessageBatch` envelopes full of tuple
requests, :class:`TupleSet` rows, and end messages — between hosts without
changing what any of them means.  One frame on the wire is::

    +---------+-----------+----------------+------------------+
    | version |  type     |  payload size  |  payload         |
    | 1 byte  |  1 byte   |  4 bytes (BE)  |  size bytes      |
    +---------+-----------+----------------+------------------+

The version byte leads every frame so a peer speaking a different protocol
revision is detected on the *first* byte of the handshake and rejected with
a typed error instead of a confusing parse failure mid-stream.

Payloads are JSON (the container has no msgpack; JSON is the stdlib
fallback the format was specified to allow) except for ``JOB`` frames:
their JSON header names the job's two spec parts by digest, and the
pickled bytes of whichever parts the receiver lacks follow it (none at
all on a warm repeat — see :mod:`repro.cluster.spec`).  Pickle is
acceptable there because workers only ever connect to a manager the
operator started — the cluster protocol is a trusted-peer protocol, like
the multiprocessing queues it replaces — and the hot path (BATCH frames)
never touches pickle.

Datalog constants are almost always strings and ints, which JSON carries
natively; any other (hashable) constant rides in a tagged
``["p", <base64 pickle>]`` cell so the round-trip is lossless for every
value the in-process runtimes accept.
"""

from __future__ import annotations

import base64
import json
import pickle
import struct
from collections import deque
from typing import Iterable, Optional, Sequence

from ..network.messages import (
    ComponentDone,
    EndConfirmed,
    EndMessage,
    EndNegative,
    EndNudge,
    EndRequest,
    Message,
    MessageBatch,
    PackagedTupleRequest,
    RelationRequest,
    TupleMessage,
    TupleRequest,
    TupleSet,
)

__all__ = [
    "PROTOCOL_VERSION",
    "Frame",
    "FrameError",
    "FrameReader",
    "FrameSocket",
    "encode_frame",
    "encode_job",
    "decode_job",
    "encode_messages",
    "decode_messages",
    "rows_to_wire",
    "rows_from_wire",
]

#: Bumped on any incompatible change to frames or payload schemas.  The
#: handshake (HELLO/WELCOME) rejects mismatched peers with a REJECT frame.
PROTOCOL_VERSION = 4

#: Frame header: version byte, type byte, unsigned big-endian payload size.
_HEADER = struct.Struct("!BBI")
HEADER_SIZE = _HEADER.size

#: Upper bound on a single frame payload — a corrupted length prefix must
#: not convince a reader to allocate gigabytes.
MAX_FRAME_SIZE = 1 << 30


# ----------------------------------------------------------------------
# Frame types.
# ----------------------------------------------------------------------
class FrameType:
    """The cluster protocol's frame vocabulary (one byte on the wire)."""

    HELLO = 1  # peer -> manager: register (role, name, protocol version)
    WELCOME = 2  # manager -> peer: registration accepted
    REJECT = 3  # manager -> peer: handshake refused (version mismatch, ...)
    JOB = 4  # client -> manager -> worker: an evaluation to run
    BATCH = 5  # worker <-> manager: one cross-shard MessageBatch
    DONE = 6  # driver worker -> manager: answers + root-stream accounting
    ERROR = 7  # worker -> manager: structured remote traceback
    ABORT = 8  # manager -> worker (or client -> manager): cancel a job
    STOP = 9  # manager -> worker: job concluded, report stats and idle
    HEARTBEAT = 10  # worker -> manager: per-loop liveness bump during a job
    PING = 11  # manager -> peer: RTT probe
    PONG = 12  # peer -> manager: RTT echo
    STATS = 13  # worker -> manager: per-shard counters after STOP
    RESULT = 14  # manager -> client: terminal job outcome
    STATS_REQ = 15  # client -> manager: cluster-wide transport counters
    STATS_REP = 16  # manager -> client: the counters
    SPEC_MISS = 17  # worker -> manager: resend these spec parts (by digest)


class FrameError(RuntimeError):
    """A malformed frame, an oversized payload, or a closed peer."""


class Frame:
    """One decoded frame: ``(version, ftype, payload bytes)``."""

    __slots__ = ("version", "ftype", "payload")

    def __init__(self, version: int, ftype: int, payload: bytes) -> None:
        self.version = version
        self.ftype = ftype
        self.payload = payload

    def json(self) -> dict:
        """Decode the payload as a JSON object."""
        return json.loads(self.payload.decode("utf-8"))


def encode_frame(
    ftype: int, payload: bytes = b"", version: int = PROTOCOL_VERSION
) -> bytes:
    """One wire frame: header + payload."""
    if len(payload) > MAX_FRAME_SIZE:
        raise FrameError(f"frame payload too large ({len(payload)} bytes)")
    return _HEADER.pack(version, ftype, len(payload)) + payload


def encode_json_frame(ftype: int, obj: dict, version: int = PROTOCOL_VERSION) -> bytes:
    """A frame whose payload is a compact JSON object."""
    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return encode_frame(ftype, payload, version)


def encode_job(header: dict, blob: bytes = b"") -> bytes:
    """A JOB payload: ``u32 header length + JSON header + spec-part bytes``."""
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return struct.pack("!I", len(head)) + head + blob


def decode_job(payload: bytes) -> tuple[dict, bytes]:
    """Inverse of :func:`encode_job`: ``(header, spec-part bytes)``."""
    (header_len,) = struct.unpack_from("!I", payload)
    header = json.loads(payload[4 : 4 + header_len].decode("utf-8"))
    return header, payload[4 + header_len :]


class FrameReader:
    """Incremental frame parser for a byte stream.

    Feed it whatever ``recv`` returned — a byte at a time, half a frame,
    three frames — and it yields complete frames as they materialize.  This
    is the partial-read recovery the tests exercise: TCP guarantees order,
    not message boundaries, so the reader must never assume a frame arrives
    whole.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[Frame]:
        """Absorb ``data``; return every frame completed by it."""
        self._buffer.extend(data)
        frames: list[Frame] = []
        while True:
            if len(self._buffer) < HEADER_SIZE:
                return frames
            version, ftype, size = _HEADER.unpack_from(self._buffer)
            if size > MAX_FRAME_SIZE:
                raise FrameError(f"frame payload too large ({size} bytes)")
            if len(self._buffer) < HEADER_SIZE + size:
                return frames
            payload = bytes(self._buffer[HEADER_SIZE : HEADER_SIZE + size])
            del self._buffer[: HEADER_SIZE + size]
            frames.append(Frame(version, ftype, payload))


class FrameSocket:
    """Blocking-socket framing: buffered reads, whole-frame writes.

    The worker side of the transport.  ``recv_frame`` loops on ``recv``
    until a full frame is in hand (partial reads are the norm on TCP);
    ``send_frame`` is safe to call from multiple threads — the job loop and
    the control loop share one connection — because the frame bytes are
    built first and shipped under a lock with ``sendall``.
    """

    def __init__(self, sock) -> None:
        import threading

        self.sock = sock
        self._reader = FrameReader()
        self._ready: deque[Frame] = deque()
        self._send_lock = threading.Lock()
        self.bytes_in = 0
        self.bytes_out = 0

    def send_frame(
        self, ftype: int, payload: bytes = b"", version: int = PROTOCOL_VERSION
    ) -> None:
        data = encode_frame(ftype, payload, version)
        with self._send_lock:
            self.sock.sendall(data)
            self.bytes_out += len(data)

    def send_json(self, ftype: int, obj: dict) -> None:
        self.send_frame(ftype, json.dumps(obj, separators=(",", ":")).encode("utf-8"))

    def recv_frame(self, timeout: Optional[float] = None) -> Frame:
        """Next frame, blocking; raises :class:`FrameError` on EOF."""
        if self._ready:
            return self._ready.popleft()
        self.sock.settimeout(timeout)
        while not self._ready:
            data = self.sock.recv(65536)
            if not data:
                raise FrameError("connection closed by peer")
            self.bytes_in += len(data)
            self._ready.extend(self._reader.feed(data))
        return self._ready.popleft()

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - defensive
            pass


# ----------------------------------------------------------------------
# Value / message codec.
# ----------------------------------------------------------------------
def _encode_value(value):
    """JSON-native scalars pass through; anything else is a tagged pickle."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return ["p", base64.b64encode(pickle.dumps(value)).decode("ascii")]


def _decode_value(cell):
    if isinstance(cell, list):
        return pickle.loads(base64.b64decode(cell[1]))
    return cell


def _encode_row(row: tuple) -> list:
    return [_encode_value(v) for v in row]


def _decode_row(cells: list) -> tuple:
    return tuple(_decode_value(c) for c in cells)


def rows_to_wire(rows: Iterable[tuple]) -> list:
    """Encode an iterable of rows deterministically (sorted for stability)."""
    return [_encode_row(row) for row in sorted(rows)]


def rows_from_wire(cells: list) -> list[tuple]:
    return [_decode_row(row) for row in cells]


#: Message class <-> wire tag.  The codec is exhaustive over the wire
#: vocabulary on purpose: an unknown message class is a programming error
#: we want loudly at encode time, not a silent drop.
def _enc_relation_request(m: RelationRequest) -> list:
    # Nested on purpose: the adornment is ONE argument cell.  Splatting it
    # into the argument list would make the decoder's ``a[0]`` truncate
    # every adornment of arity > 1.
    return [list(m.adornment)]


def _enc_tuple_request(m: TupleRequest) -> list:
    return [_encode_row(m.binding), m.seq]


def _enc_packaged(m: PackagedTupleRequest) -> list:
    return [[_encode_row(b) for b in m.bindings], m.seq]


def _enc_tuple_message(m: TupleMessage) -> list:
    return [_encode_row(m.row)]


def _enc_tuple_set(m: TupleSet) -> list:
    return [[_encode_row(r) for r in m.rows]]


def _enc_round(m) -> list:
    return [m.round_id]


_ENCODERS = {
    RelationRequest: ("rr", _enc_relation_request),
    TupleRequest: ("tr", _enc_tuple_request),
    PackagedTupleRequest: ("pr", _enc_packaged),
    TupleMessage: ("tm", _enc_tuple_message),
    TupleSet: ("ts", _enc_tuple_set),
    EndMessage: ("em", lambda m: [m.upto]),
    EndRequest: ("er", _enc_round),
    EndNegative: ("en", _enc_round),
    EndConfirmed: ("ec", _enc_round),
    ComponentDone: ("cd", _enc_round),
    EndNudge: ("nu", lambda m: []),
}

_DECODERS = {
    "rr": lambda s, r, a: RelationRequest(s, r, tuple(a[0])),
    "tr": lambda s, r, a: TupleRequest(s, r, _decode_row(a[0]), a[1]),
    "pr": lambda s, r, a: PackagedTupleRequest(
        s, r, tuple(_decode_row(b) for b in a[0]), a[1]
    ),
    "tm": lambda s, r, a: TupleMessage(s, r, _decode_row(a[0])),
    "ts": lambda s, r, a: TupleSet(s, r, frozenset(_decode_row(c) for c in a[0])),
    "em": lambda s, r, a: EndMessage(s, r, a[0]),
    "er": lambda s, r, a: EndRequest(s, r, a[0]),
    "en": lambda s, r, a: EndNegative(s, r, a[0]),
    "ec": lambda s, r, a: EndConfirmed(s, r, a[0]),
    "cd": lambda s, r, a: ComponentDone(s, r, a[0]),
    "nu": lambda s, r, a: EndNudge(s, r),
}


def encode_message(message: Message) -> list:
    """One message as a JSON-safe list: ``[tag, sender, receiver, *args]``."""
    try:
        tag, encoder = _ENCODERS[type(message)]
    except KeyError:
        raise FrameError(
            f"message class {type(message).__name__} has no wire encoding"
        ) from None
    return [tag, message.sender, message.receiver, *encoder(message)]


def decode_message(cells: list) -> Message:
    tag, sender, receiver = cells[0], cells[1], cells[2]
    try:
        decoder = _DECODERS[tag]
    except KeyError:
        raise FrameError(f"unknown message tag {tag!r} on the wire") from None
    return decoder(sender, receiver, cells[3:])


def encode_messages(messages: Sequence[Message]) -> list:
    return [encode_message(m) for m in messages]


def decode_messages(cells: list) -> list[Message]:
    return [decode_message(c) for c in cells]


def encode_batch(batch: MessageBatch) -> list:
    """A :class:`MessageBatch` as its wire form (origin + member list)."""
    return [batch.origin, encode_messages(batch.messages)]


def decode_batch(cells: list) -> MessageBatch:
    return MessageBatch(cells[0], tuple(decode_messages(cells[1])))
