"""Ablation — footnote 2's packaged tuple requests, quantified.

"A further enhancement would be to 'package' a set of related tuple
requests, in case the node servicing the request can gain some efficiency
of volume ... If packaged, the retrieval can be done in one scan."

Every run packages its requests: a node buffers the bindings it asks one
producer for during a burst and sends them as one message.  Each row
below comes from that one run.  Its per-binding side is the number of
bindings the request messages carried (a :class:`TupleRequest` carries
one, a :class:`PackagedTupleRequest` ``len(bindings)``), which is how many
request messages the retired one-message-per-binding path sent.

Series: for a bursty fanout workload (one probe explodes into many bindings
toward the next subgoal), bindings carried against request messages sent,
and the EDB operations that served them; and, for a trickling recursive
workload where requests come one at a time, the same count, where
packaging has nothing to merge.
"""

import pytest

from repro.baselines import naive
from repro.core.parser import parse_program
from repro.network.engine import MessagePassingEngine, evaluate
from repro.network.messages import PackagedTupleRequest, TupleRequest
from repro.workloads import chain_edges, facts_from_tables

from _support import emit_table, ratio

FANOUT_TEXT = """
goal(Z) <- p(k, Z).
p(X, Z) <- src(X, Y), dst(Y, Z).
"""


def fanout_instance(width: int):
    src = [("k", f"y{i}") for i in range(width)]
    dst = [(f"y{i}", f"z{i}") for i in range(width)]
    return parse_program(FANOUT_TEXT).with_facts(
        facts_from_tables({"src": src, "dst": dst})
    )


def traced_run(program):
    """One run, plus (bindings carried, request messages) from its trace."""
    sent = []
    result = MessagePassingEngine(program, trace=sent.append).run()
    requests = [m for m in sent if isinstance(m, (TupleRequest, PackagedTupleRequest))]
    carried = sum(
        len(m.bindings) if isinstance(m, PackagedTupleRequest) else 1 for m in requests
    )
    return result, carried, len(requests)


def test_packaging_fanout_table():
    rows = []
    for width in (16, 64, 256):
        program = fanout_instance(width)
        result, carried, messages = traced_run(program)
        assert result.answers == naive.goal_answers(program)
        rows.append(
            (
                width,
                carried,
                messages,
                f"{ratio(carried, max(1, messages)):.0f}x",
                result.db_indexed_lookups,
                result.db_scans,
            )
        )
    emit_table(
        "footnote-2 packaging on a fanout join: request messages & EDB ops",
        ["fanout", "bindings carried", "request msgs", "reduction",
         "lookups", "scans"],
        rows,
    )
    # The whole fanout collapses to O(1) packaged requests and one scan.
    final = rows[-1]
    assert int(final[1]) >= 256
    assert int(final[2]) <= 8
    assert int(final[5]) >= 1  # the one-scan service path was taken


def trickling_row() -> tuple:
    """The trickling chain's row; ``tests/integration/test_protocol_tables.py``
    pins it."""
    program = parse_program(
        """
        goal(Z) <- t(0, Z).
        t(X, Y) <- e(X, Y).
        t(X, Y) <- e(X, U), t(U, Y).
        """
    ).with_facts(facts_from_tables({"e": chain_edges(14)}))
    result, carried, messages = traced_run(program)
    assert result.answers == naive.goal_answers(program)
    return (carried, messages, result.total_messages, result.computation_messages,
            result.protocol_messages)


def test_packaging_recursive_cost_side():
    # A trickling chain: requests arrive one at a time, so each request
    # message carries one binding and packaging merges nothing.
    row = trickling_row()
    emit_table(
        "footnote-2 packaging on a trickling chain (packaged)",
        ["bindings carried", "request msgs", "total msgs", "computation msgs",
         "protocol msgs"],
        [row],
    )
    # Nothing to merge: one binding per request message, and no blow-up
    # against the 466 messages the one-message-per-binding path sent.
    carried, messages, total = row[:3]
    assert carried == messages
    assert total <= 1.5 * 466


@pytest.mark.benchmark(group="claim-packaging")
def test_bench_packaging(benchmark):
    program = fanout_instance(128)
    result = benchmark(evaluate, program)
    assert result.completed
