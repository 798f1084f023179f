"""Unit tests for the cluster wire format (``repro.cluster.framing``).

Three layers, mirroring the module:

* the message codec — every class in the wire vocabulary must survive an
  encode → JSON → decode round trip losslessly, including constants JSON
  cannot carry natively (tuples, bytes, ``None`` inside rows), and the
  column blocks rows travel in must keep every value's exact type;
* the frame reader — TCP guarantees byte order, not message boundaries,
  so the parser must reassemble frames fed a byte at a time and reject a
  corrupted length prefix before allocating for it;
* the handshake — a peer speaking a different protocol revision (or not
  speaking the protocol at all) must be refused with a typed REJECT on
  its first frame, against a *live* manager;
* the relay — the manager reads a BATCH payload's routing head only and
  forwards the bytes it received, parsing the body only to duplicate a
  batch's rows under an armed ``duplicate_link`` fault.
"""

import asyncio
import json
import socket
import struct

import pytest

from repro.cluster.framing import (
    HEADER_SIZE,
    MAX_FRAME_SIZE,
    PROTOCOL_VERSION,
    Frame,
    FrameError,
    FrameReader,
    FrameSocket,
    FrameType,
    decode_batch,
    decode_headed,
    decode_message,
    decode_messages,
    encode_batch,
    encode_batch_payload,
    encode_frame,
    encode_json_frame,
    encode_message,
    encode_messages,
    rows_from_block,
    rows_to_block,
)
from repro.cluster.manager import ClusterManager, ManagerThread, _Job
from repro.network.messages import (
    ComponentDone,
    EndConfirmed,
    EndMessage,
    EndNegative,
    EndNudge,
    EndRequest,
    MessageBatch,
    PackagedTupleRequest,
    RelationRequest,
    TupleMessage,
    TupleRequest,
    TupleSet,
)
from repro.runtime.faults import FaultPlan, LinkFaultInjector

#: One instance of every message class the codec must carry — the codec is
#: exhaustive over the vocabulary, so this list must be too.
MESSAGES = [
    RelationRequest(1, 2, ("b", "f", "d")),
    TupleRequest(3, 4, ("ann", 7), 12),
    PackagedTupleRequest(3, 4, (("ann",), ("bob",), ("cal",)), 15),
    TupleMessage(5, 6, ("x", 42)),
    TupleSet(5, 6, (("c", 3), ("a", 1), ("b", 2))),
    EndMessage(5, 6, 15),
    EndRequest(0, 7, 3),
    EndNegative(7, 0, 3),
    EndConfirmed(7, 0, 4),
    ComponentDone(0, 7, 4),
    EndNudge(7, 0),
]


def wire_round_trip(message):
    """Encode, push through an actual JSON round trip, decode."""
    cells = json.loads(json.dumps(encode_message(message)))
    return decode_message(cells)


class TestMessageCodec:
    @pytest.mark.parametrize(
        "message", MESSAGES, ids=[type(m).__name__ for m in MESSAGES]
    )
    def test_every_message_class_round_trips(self, message):
        restored = wire_round_trip(message)
        assert restored == message
        assert type(restored) is type(message)

    def test_non_json_constants_survive(self):
        """Tuples, bytes, and None inside rows take the tagged-pickle cell."""
        odd_rows = [
            (("nested", 1), b"\x00\xff", None),
            (3.5, True, "plain"),
        ]
        for row in odd_rows:
            assert wire_round_trip(TupleMessage(1, 2, row)).row == row
        tuple_set = TupleSet(1, 2, tuple(odd_rows))
        assert wire_round_trip(tuple_set).rows == tuple_set.rows

    def test_batch_round_trips(self):
        batch = MessageBatch(3, tuple(MESSAGES))
        cells = json.loads(json.dumps(encode_batch(batch)))
        assert decode_batch(cells) == batch

    def test_batch_payload_leads_with_its_routing_head(self):
        batch = MessageBatch(1, tuple(MESSAGES))
        head = {"j": 7, "o": 1, "d": 0, "s": 12}
        got_head, body = decode_headed(encode_batch_payload(head, batch))
        assert got_head == head
        assert decode_batch(json.loads(body)) == batch

    def test_message_list_round_trips(self):
        cells = json.loads(json.dumps(encode_messages(MESSAGES)))
        assert decode_messages(cells) == MESSAGES

    def test_unknown_message_class_fails_at_encode_time(self):
        """An unencodable message is a loud error, not a silent drop."""
        with pytest.raises(FrameError, match="no wire encoding"):
            encode_message(MessageBatch(0, ()))

    def test_unknown_tag_fails_at_decode_time(self):
        with pytest.raises(FrameError, match="unknown message tag"):
            decode_message(["zz", 0, 1])

    def test_mixed_type_rows_round_trip_unsorted(self):
        """Rows are not sorted on the wire: an int/str column must not crash."""
        rows = {(2,), ("a",), (3,)}
        block = json.loads(json.dumps(rows_to_block(rows)))
        assert set(rows_from_block(block)) == rows


def block_round_trip(rows):
    """Encode a row collection as a block, through JSON, and back."""
    return list(rows_from_block(json.loads(json.dumps(rows_to_block(rows)))))


class TestColumnBlocks:
    def test_exact_types_stay_distinct(self):
        values = [1, 1.0, True, "1", None]
        restored = block_round_trip([(v,) for v in values])
        assert [row[0] for row in restored] == values
        assert [type(row[0]) for row in restored] == [type(v) for v in values]
        # Distinct across columns of one row as well.
        row = tuple(values)
        (back,) = block_round_trip([row])
        assert back == row and list(map(type, back)) == list(map(type, row))

    def test_ints_past_two_to_the_63(self):
        rows = [(2**63, -(2**63) - 1), (2**100, 7)]
        assert block_round_trip(rows) == rows

    def test_nullary_and_empty_sets_carry_their_row_count(self):
        assert rows_to_block(frozenset({()})) == [1, []]
        assert block_round_trip(frozenset({()})) == [()]
        assert rows_to_block(frozenset()) == [0, []]
        assert block_round_trip(frozenset()) == []
        for rows in (((),), ()):
            message = TupleSet(1, 2, rows)
            assert wire_round_trip(message) == message

    def test_arity_one(self):
        rows = [("a",), ("b",), ("c",)]
        assert rows_to_block(rows) == [3, [("a", "b", "c")]]
        assert block_round_trip(rows) == rows

    def test_plain_columns_are_json_lists(self):
        wire = json.loads(json.dumps(rows_to_block([("a", 1), ("b", 2)])))
        assert wire == [2, [["a", "b"], [1, 2]]]

    def test_only_a_non_json_column_falls_back_to_tagged_cells(self):
        rows = [("a", 1, ("t", 1)), ("b", 2, "plain"), ("c", 3, b"\x00")]
        count, columns = json.loads(json.dumps(rows_to_block(rows)))
        assert count == 3
        assert columns[0] == ["a", "b", "c"]
        assert columns[1] == [1, 2, 3]
        tagged = columns[2]["t"]
        assert tagged[1] == "plain"  # JSON-native cells stay as they are
        assert tagged[0][0] == "p" and tagged[2][0] == "p"
        assert block_round_trip(rows) == rows

    def test_packaged_bindings_keep_their_order(self):
        bindings = (("cal", 3), ("ann", 1), ("bob", 2), ("ann", 0))
        message = PackagedTupleRequest(3, 4, bindings, 9)
        assert wire_round_trip(message).bindings == bindings

    def test_rows_of_mixed_arity_are_refused(self):
        with pytest.raises(FrameError, match="mixed arity"):
            rows_to_block([(1, 2), (3,)])


class TestFrameReader:
    def frames(self):
        return [
            encode_frame(FrameType.BATCH, b"\x00\x01payload\xff"),
            encode_json_frame(FrameType.PING, {"i": 1}),
            encode_frame(FrameType.STOP),  # empty payload
        ]

    def assert_reassembled(self, frames):
        assert [f.ftype for f in frames] == [
            FrameType.BATCH,
            FrameType.PING,
            FrameType.STOP,
        ]
        assert frames[0].payload == b"\x00\x01payload\xff"
        assert frames[1].json() == {"i": 1}
        assert frames[2].payload == b""
        assert all(f.version == PROTOCOL_VERSION for f in frames)

    def test_one_feed_many_frames(self):
        reader = FrameReader()
        self.assert_reassembled(reader.feed(b"".join(self.frames())))

    def test_byte_at_a_time(self):
        """Partial-read recovery: no feed granularity may break framing."""
        stream = b"".join(self.frames())
        reader = FrameReader()
        collected = []
        for i in range(len(stream)):
            collected.extend(reader.feed(stream[i : i + 1]))
        self.assert_reassembled(collected)

    def test_chunks_straddling_frame_boundaries(self):
        stream = b"".join(self.frames())
        for chunk_size in (2, 3, 7, HEADER_SIZE, HEADER_SIZE + 1):
            reader = FrameReader()
            collected = []
            for start in range(0, len(stream), chunk_size):
                collected.extend(reader.feed(stream[start : start + chunk_size]))
            self.assert_reassembled(collected)

    def test_incomplete_frame_yields_nothing(self):
        frame = self.frames()[0]
        reader = FrameReader()
        assert reader.feed(frame[:-1]) == []
        assert len(reader.feed(frame[-1:])) == 1

    def test_corrupt_length_prefix_is_rejected(self):
        """A bogus size must raise before anyone allocates gigabytes."""
        header = struct.pack(
            "!BBI", PROTOCOL_VERSION, FrameType.BATCH, MAX_FRAME_SIZE + 1
        )
        with pytest.raises(FrameError, match="too large"):
            FrameReader().feed(header)


# ----------------------------------------------------------------------
# Handshake against a live manager.
# ----------------------------------------------------------------------
@pytest.fixture()
def manager():
    thread = ManagerThread().start()
    try:
        yield thread
    finally:
        thread.stop()


def dial(manager):
    host, _, port = manager.address.rpartition(":")
    sock = socket.create_connection((host, int(port)), timeout=10.0)
    return FrameSocket(sock)


class TestHandshake:
    def test_current_version_is_welcomed(self, manager):
        fs = dial(manager)
        try:
            fs.send_json(FrameType.HELLO, {"role": "client"})
            welcome = fs.recv_frame(timeout=10.0)
            assert welcome.ftype == FrameType.WELCOME
            assert welcome.json()["workers"] == []  # none registered
        finally:
            fs.close()

    def test_version_mismatch_is_rejected_with_reason(self, manager):
        # Newer and older peers alike.  An older worker matters most: its
        # BATCH rows would still be per-cell rows, not column blocks, so it
        # must be refused before it joins anything.
        for peer_version in (PROTOCOL_VERSION + 1, PROTOCOL_VERSION - 1):
            fs = dial(manager)
            try:
                payload = json.dumps({"role": "worker", "name": "w"}).encode()
                fs.send_frame(FrameType.HELLO, payload, version=peer_version)
                reject = fs.recv_frame(timeout=10.0)
                assert reject.ftype == FrameType.REJECT
                reason = reject.json()["reason"]
                assert "version mismatch" in reason
                assert str(PROTOCOL_VERSION) in reason
                assert str(peer_version) in reason
                # The manager hangs up after a REJECT: EOF, not a stall.
                with pytest.raises(FrameError, match="closed by peer"):
                    fs.recv_frame(timeout=10.0)
            finally:
                fs.close()

    def test_non_hello_first_frame_is_rejected(self, manager):
        fs = dial(manager)
        try:
            fs.send_json(FrameType.BATCH, {"j": 1})
            reject = fs.recv_frame(timeout=10.0)
            assert reject.ftype == FrameType.REJECT
            assert "expected HELLO" in reject.json()["reason"]
        finally:
            fs.close()

    def test_unknown_role_is_rejected(self, manager):
        fs = dial(manager)
        try:
            fs.send_json(FrameType.HELLO, {"role": "observer"})
            reject = fs.recv_frame(timeout=10.0)
            assert reject.ftype == FrameType.REJECT
            assert "unknown role" in reject.json()["reason"]
        finally:
            fs.close()


# ----------------------------------------------------------------------
# The manager's relay, driven directly.
# ----------------------------------------------------------------------
class FakeLink:
    """A worker link that records the frames the relay forwards to it."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.alive = True
        self.batches_out = 0
        self.sent: list[bytes] = []

    async def send(self, data: bytes) -> None:
        self.sent.append(data)


def relay(payload: bytes, plan=None) -> list[bytes]:
    """Relay one BATCH payload from shard 0 to shard 1; the frames shard 1 got."""

    async def run() -> list[bytes]:
        manager = ClusterManager()
        links = [FakeLink("w0"), FakeLink("w1")]
        job = _Job(7, None, links, [])
        if plan is not None:
            job.injector = LinkFaultInjector(plan)
        manager._jobs[job.id] = job
        frame = Frame(PROTOCOL_VERSION, FrameType.BATCH, payload)
        await manager._relay_batch(links[0], frame)
        assert links[0].sent == []
        return links[1].sent

    return asyncio.run(run())


class TestRelay:
    HEAD = {"j": 7, "o": 0, "d": 1, "s": 40}
    BATCH = MessageBatch(0, tuple(MESSAGES))

    def test_forwards_the_received_bytes(self):
        payload = encode_batch_payload(self.HEAD, self.BATCH)
        assert relay(payload) == [encode_frame(FrameType.BATCH, payload)]

    def test_late_traffic_of_an_unknown_job_is_dropped(self):
        payload = encode_batch_payload(dict(self.HEAD, j=8), self.BATCH)
        assert relay(payload) == []

    def test_duplicate_link_resends_only_the_rows(self):
        payload = encode_batch_payload(self.HEAD, self.BATCH)
        plan = FaultPlan(duplicate_link="0->1", duplicate_count=1)
        original, duplicate = relay(payload, plan)
        assert original == encode_frame(FrameType.BATCH, payload)
        head, body = decode_headed(duplicate[HEADER_SIZE:])
        assert head == self.HEAD
        rows = [m for m in MESSAGES if isinstance(m, (TupleMessage, TupleSet))]
        assert decode_batch(json.loads(body)) == MessageBatch(0, tuple(rows))
