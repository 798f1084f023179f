"""The NDJSON wire protocol: framing, validation, typed errors, rows."""

import json

import pytest

from repro.service.protocol import (
    ERROR_TYPES,
    OPS,
    ServiceError,
    decode_request,
    encode,
    error_payload,
    merge_wire,
    rows_to_wire,
    wire_to_rows,
)


class TestDecodeRequest:
    def test_valid_request_round_trips(self):
        line = encode({"id": 7, "op": "query", "query": "p(X)"})
        request = decode_request(line)
        assert request == {"id": 7, "op": "query", "query": "p(X)"}

    def test_malformed_json_is_bad_request(self):
        with pytest.raises(ServiceError) as excinfo:
            decode_request(b"{nope}")
        assert excinfo.value.error_type == "bad_request"

    def test_non_object_is_bad_request(self):
        with pytest.raises(ServiceError) as excinfo:
            decode_request(b"[1, 2, 3]")
        assert excinfo.value.error_type == "bad_request"

    def test_missing_op_is_bad_request(self):
        with pytest.raises(ServiceError) as excinfo:
            decode_request(b'{"id": 3}')
        assert excinfo.value.error_type == "bad_request"
        assert excinfo.value.request_id == 3  # id still echoed

    def test_unknown_op_is_typed(self):
        with pytest.raises(ServiceError) as excinfo:
            decode_request(b'{"op": "explode"}')
        assert excinfo.value.error_type == "unknown_op"

    def test_oversized_line_is_typed(self):
        line = encode({"op": "query", "query": "x" * 100})
        with pytest.raises(ServiceError) as excinfo:
            decode_request(line, max_bytes=50)
        assert excinfo.value.error_type == "oversized"

    @pytest.mark.parametrize("timeout", [0, -1, "fast", True])
    def test_bad_timeout_is_bad_request(self, timeout):
        line = encode({"op": "ping", "timeout": timeout})
        with pytest.raises(ServiceError) as excinfo:
            decode_request(line)
        assert excinfo.value.error_type == "bad_request"

    def test_every_op_is_accepted(self):
        for op in OPS:
            assert decode_request(encode({"op": op}))["op"] == op


class TestErrorTaxonomy:
    def test_service_error_requires_known_type(self):
        with pytest.raises(ValueError):
            ServiceError("nonsense", "boom")

    def test_payload_shape(self):
        payload = ServiceError("overloaded", "queue full").payload(request_id=4)
        assert payload == {
            "id": 4,
            "ok": False,
            "error": {"type": "overloaded", "message": "queue full"},
        }
        assert payload["error"]["type"] in ERROR_TYPES

    def test_error_payload_helper_matches(self):
        assert error_payload("internal", "x", 1)["error"]["type"] == "internal"


class TestRows:
    def test_round_trip_preserves_primitives(self):
        rows = {(1, "bob"), (2, "cal")}
        assert wire_to_rows(rows_to_wire(rows)) == rows

    def test_wire_rows_are_sorted_and_json_safe(self):
        wire = rows_to_wire({(3,), (1,), (2,)})
        assert wire == sorted(wire, key=repr)
        json.dumps(wire)

    def test_rich_values_stringify(self):
        class Odd:
            def __str__(self):
                return "odd"

        assert rows_to_wire([(Odd(),)]) == [["odd"]]

    def test_empty_and_none(self):
        assert wire_to_rows(None) == set()
        assert wire_to_rows([]) == set()
        assert rows_to_wire([]) == []

    def test_merge_wire_equals_encoding_the_union(self):
        import random

        rng = random.Random(3)
        values = [1, 2, 10, -1, 2.5, True, None, "a", "B", "10", "", "a b"]
        for _ in range(200):
            rows = {
                tuple(rng.choice(values) for _ in range(rng.randint(0, 3)))
                for _ in range(rng.randint(0, 40))
            }
            old = set(rng.sample(sorted(rows, key=repr), rng.randint(0, len(rows))))
            wire, part = rows_to_wire(old), rows_to_wire(rows - old)
            kept = list(wire), list(part)
            merged = merge_wire(wire, part)
            assert merged == rows_to_wire(rows)
            assert (wire, part) == kept and merged is not wire

    def test_merge_wire_keeps_rows_that_encode_alike(self):
        class Odd:
            def __str__(self):
                return "odd"

        # Distinct answer rows, one encoding: both stay, as in rows_to_wire.
        assert merge_wire(rows_to_wire([("odd",)]), rows_to_wire([(Odd(),)])) == [
            ["odd"],
            ["odd"],
        ]
