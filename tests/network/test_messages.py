"""Unit tests for the message vocabulary."""

from repro.network.messages import (
    COMPUTATION_TYPES,
    PROTOCOL_TYPES,
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
    coalesce_batch,
    logical_size,
)


class TestMessageShape:
    def test_kind_tags(self):
        assert TupleMessage(0, 1, (1,)).kind() == "TupleMessage"
        assert EndRequest(0, 1, 3).kind() == "EndRequest"

    def test_messages_are_immutable_and_hashable(self):
        a = TupleRequest(0, 1, (5,), 2)
        b = TupleRequest(0, 1, (5,), 2)
        assert a == b and len({a, b}) == 1

    def test_relation_request_carries_adornment(self):
        # "identifies the classes of the arguments" (Section 3.1)
        msg = RelationRequest(0, 1, ("c", "d", "f"))
        assert msg.adornment == ("c", "d", "f")

    def test_tuple_request_binding_and_seq(self):
        msg = TupleRequest(3, 4, ("a", 7), 12)
        assert msg.binding == ("a", 7) and msg.seq == 12

    def test_end_carries_upto(self):
        assert EndMessage(0, 1, 5).upto == 5


class TestTypePartitions:
    def test_partition_is_disjoint_and_complete(self):
        assert not set(COMPUTATION_TYPES) & set(PROTOCOL_TYPES)
        from repro.network.messages import PackagedTupleRequest

        all_types = {
            RelationRequest,
            TupleRequest,
            PackagedTupleRequest,
            TupleMessage,
            TupleSet,
            EndMessage,
            EndRequest,
            EndNegative,
            EndConfirmed,
            ComponentDone,
            EndNudge,
        }
        assert set(COMPUTATION_TYPES) | set(PROTOCOL_TYPES) == all_types

    def test_protocol_round_ids(self):
        for cls in (EndRequest, EndNegative, EndConfirmed):
            assert cls(0, 1, 9).round_id == 9

    def test_batch_is_transport_only(self):
        # The envelope is invisible to node logic; it must never count as a
        # computation or protocol message.
        assert MessageBatch not in COMPUTATION_TYPES
        assert MessageBatch not in PROTOCOL_TYPES


class TestMessageBatch:
    def test_len_and_origin(self):
        batch = MessageBatch(2, (TupleMessage(0, 1, (1,)), EndMessage(0, 1, 3)))
        assert len(batch) == 2 and batch.origin == 2


class TestCoalesceTupleRequests:
    """The footnote-2 half of :func:`coalesce_batch`: request runs."""

    def test_adjacent_same_channel_requests_become_one_package(self):
        msgs = [
            TupleRequest(0, 1, ("a",), 1),
            TupleRequest(0, 1, ("b",), 2),
            TupleRequest(0, 1, ("c",), 3),
        ]
        out = coalesce_batch(msgs)
        assert out == [PackagedTupleRequest(0, 1, (("a",), ("b",), ("c",)), 3)]

    def test_package_seq_is_last_member_seq(self):
        # One end message covers the whole package (footnote 2), so the
        # package must carry the *last* member's sequence number.
        out = coalesce_batch(
            [TupleRequest(0, 1, ("a",), 5), TupleRequest(0, 1, ("b",), 9)]
        )
        assert out[0].seq == 9

    def test_singleton_run_stays_a_tuple_request(self):
        msgs = [TupleRequest(0, 1, ("a",), 1)]
        assert coalesce_batch(msgs) == msgs

    def test_channel_change_breaks_the_run(self):
        msgs = [
            TupleRequest(0, 1, ("a",), 1),
            TupleRequest(0, 2, ("b",), 1),
            TupleRequest(0, 1, ("c",), 2),
        ]
        out = coalesce_batch(msgs)
        # Different receivers — nothing merges, order untouched.
        assert out == msgs

    def test_interleaved_message_breaks_the_run(self):
        # FIFO per channel: a non-request between two requests of the same
        # channel pins their relative order, so they must not merge across it.
        msgs = [
            TupleRequest(0, 1, ("a",), 1),
            EndMessage(2, 1, 0),
            TupleRequest(0, 1, ("b",), 2),
        ]
        out = coalesce_batch(msgs)
        assert out == msgs

    def test_non_request_messages_pass_through_in_order(self):
        msgs = [
            RelationRequest(0, 1, ("d", "f")),
            TupleRequest(0, 1, ("a",), 1),
            TupleRequest(0, 1, ("b",), 2),
            EndRequest(3, 1, 1),
        ]
        out = coalesce_batch(msgs)
        assert out[0] == msgs[0]
        assert out[1] == PackagedTupleRequest(0, 1, (("a",), ("b",)), 2)
        assert out[2] == msgs[3]

    def test_empty_input(self):
        assert coalesce_batch([]) == []


class TestTupleSetShape:
    def test_rows_are_a_frozenset(self):
        ts = TupleSet(0, 1, frozenset({(1,), (2,)}))
        assert ts.rows == {(1,), (2,)}
        assert ts.kind() == "TupleSet"

    def test_logical_weight_is_row_count(self):
        assert TupleSet(0, 1, frozenset({(1,), (2,), (3,)})).logical() == 3
        assert logical_size(TupleSet(0, 1, frozenset({(1,)}))) == 1
        assert logical_size(TupleMessage(0, 1, (1,))) == 1
        assert logical_size(EndMessage(0, 1, 4)) == 1

    def test_batch_logical_size_sums_members(self):
        batch = MessageBatch(
            0,
            (
                TupleMessage(0, 1, (1,)),
                TupleSet(0, 1, frozenset({(2,), (3,)})),
                EndMessage(0, 1, 2),
            ),
        )
        assert logical_size(batch) == 4

    def test_tuple_set_is_hashable_and_value_equal(self):
        a = TupleSet(0, 1, frozenset({(1,), (2,)}))
        b = TupleSet(0, 1, frozenset({(2,), (1,)}))
        assert a == b and len({a, b}) == 1


class TestCoalesceBatch:
    """Edge cases of the generalized batch coalescer (requests AND answers)."""

    def test_empty_batch(self):
        assert coalesce_batch([]) == []

    def test_single_request_run_stays_a_tuple_request(self):
        msgs = [TupleRequest(0, 1, ("a",), 1)]
        assert coalesce_batch(msgs) == msgs

    def test_single_tuple_message_stays_per_row(self):
        msgs = [TupleMessage(0, 1, (1,))]
        assert coalesce_batch(msgs) == msgs

    def test_adjacent_tuple_messages_merge_into_a_set(self):
        msgs = [TupleMessage(0, 1, (1,)), TupleMessage(0, 1, (2,))]
        out = coalesce_batch(msgs)
        assert out == [TupleSet(0, 1, frozenset({(1,), (2,)}))]

    def test_tuple_set_runs_union(self):
        msgs = [
            TupleSet(0, 1, frozenset({(1,), (2,)})),
            TupleMessage(0, 1, (3,)),
            TupleSet(0, 1, frozenset({(3,), (4,)})),
        ]
        out = coalesce_batch(msgs)
        assert out == [TupleSet(0, 1, frozenset({(1,), (2,), (3,), (4,)}))]

    def test_interleaved_channels_do_not_merge(self):
        msgs = [
            TupleMessage(0, 1, (1,)),
            TupleMessage(0, 2, (2,)),
            TupleMessage(0, 1, (3,)),
        ]
        assert coalesce_batch(msgs) == msgs

    def test_interleaved_protocol_message_breaks_the_run(self):
        msgs = [
            TupleMessage(0, 1, (1,)),
            EndMessage(2, 1, 0),
            TupleMessage(0, 1, (2,)),
        ]
        assert coalesce_batch(msgs) == msgs

    def test_all_duplicate_bindings_dedup_to_one(self):
        # A package whose bindings all duplicate keeps one copy (first
        # occurrence) and still carries the last member's seq.
        msgs = [
            TupleRequest(0, 1, ("a",), 1),
            TupleRequest(0, 1, ("a",), 2),
            TupleRequest(0, 1, ("a",), 3),
        ]
        out = coalesce_batch(msgs)
        assert out == [PackagedTupleRequest(0, 1, (("a",),), 3)]

    def test_duplicate_rows_dedup_in_the_set(self):
        msgs = [
            TupleMessage(0, 1, (7,)),
            TupleMessage(0, 1, (7,)),
            TupleMessage(0, 1, (8,)),
        ]
        out = coalesce_batch(msgs)
        assert out == [TupleSet(0, 1, frozenset({(7,), (8,)}))]

    def test_mixed_requests_then_rows_on_one_channel(self):
        # A channel switch from requests to rows is a run break even though
        # sender/receiver match.
        msgs = [
            TupleRequest(0, 1, ("a",), 1),
            TupleRequest(0, 1, ("b",), 2),
            TupleMessage(0, 1, (1,)),
            TupleMessage(0, 1, (2,)),
        ]
        out = coalesce_batch(msgs)
        assert out == [
            PackagedTupleRequest(0, 1, (("a",), ("b",)), 2),
            TupleSet(0, 1, frozenset({(1,), (2,)})),
        ]
