"""Tests for packaged tuple requests (footnote 2 of Section 3.1).

Packaging is the one request path: every node buffers the bindings it
requests during a burst and sends one message per producer once its
inbox drains, a :class:`TupleRequest` for a lone binding and a
:class:`PackagedTupleRequest` for two or more.
"""

import pytest

from repro.baselines import naive
from repro.core.parser import parse_program
from repro.network.engine import MessagePassingEngine, evaluate
from repro.network.messages import PackagedTupleRequest, TupleRequest
from repro.workloads import (
    chain_edges,
    cycle_edges,
    facts_from_tables,
    nonlinear_tc_program,
    program_p1,
)

from tests.helpers import flushed, oracle_answers, with_tables


def bindings_carried(message) -> int:
    """How many tuple requests a request message stands for."""
    if isinstance(message, PackagedTupleRequest):
        return len(message.bindings)
    return 1


def fanout_program(width: int = 32):
    src = [("k", f"y{i}") for i in range(width)]
    dst = [(f"y{i}", f"z{i}") for i in range(width)]
    return parse_program(
        "goal(Z) <- p(k, Z). p(X, Z) <- src(X, Y), dst(Y, Z)."
    ).with_facts(facts_from_tables({"src": src, "dst": dst}))


class TestPackagingCorrectness:
    @pytest.mark.parametrize("seed", [None, 4, 19])
    def test_p1(self, p1_small, seed):
        result = evaluate(p1_small, seed=seed)
        assert result.answers == oracle_answers(p1_small)
        assert result.completed
        assert result.protocol_violations == []

    def test_recursive_cycles(self):
        program = with_tables(nonlinear_tc_program(0), {"e": cycle_edges(7)})
        result = evaluate(program)
        assert result.answers == oracle_answers(program)

    def test_combined_with_coalescing(self, p1_small):
        result = evaluate(p1_small)  # the coalesced graph
        assert result.answers == oracle_answers(p1_small)
        assert result.protocol_violations == []

    def test_fanout(self):
        program = fanout_program()
        assert evaluate(program).answers == oracle_answers(program)


class TestPackagingMechanics:
    def test_packages_actually_form(self):
        program = fanout_program(16)
        result = evaluate(program)
        assert result.stats.by_kind.get("PackagedTupleRequest", 0) >= 1

    def test_fanout_collapses_to_one_package(self):
        program = fanout_program(64)
        sent = []
        MessagePassingEngine(program, trace=sent.append).run()
        requests = [m for m in sent if isinstance(m, (TupleRequest, PackagedTupleRequest))]
        carried = sum(bindings_carried(m) for m in requests)
        assert carried >= 64
        assert sum(isinstance(m, PackagedTupleRequest) for m in requests) <= 3

    def test_large_package_served_by_one_scan(self):
        program = fanout_program(64)
        packed = evaluate(program)
        assert packed.db_scans >= 1
        assert packed.db_indexed_lookups <= 2

    def test_sequence_accounting_covers_packages(self):
        # Every feeder stream must still be caught up at the end.
        engine = MessagePassingEngine(fanout_program())
        engine.run()
        for process in engine.processes.values():
            for stream in process.feeders.values():
                if stream.is_feeder:
                    assert stream.caught_up

    def test_no_packages_when_disabled(self, p1_small):
        # There is no per-binding path to turn packaging off for.
        with pytest.raises(ValueError, match="footnote 2"):
            evaluate(p1_small, package_requests=False)

    def test_buffer_blocks_idleness(self):
        # A node holding buffered requests must not report empty queues.
        from repro.network.nodes import GoalNodeProcess
        from repro.core.adornment import AdornedAtom
        from repro.core.atoms import atom
        from repro.core.terms import Variable

        node = GoalNodeProcess(1, AdornedAtom(atom("p", Variable("X")), ("d",)))
        node._request_buffer[2] = [(1,)]

        class FakeNet:
            def pending_for(self, node_id):
                return 0

        assert not node.empty_queues(FakeNet())

    def test_lone_binding_leaves_as_a_tuple_request(self):
        assert flushed({(1,)}) == [TupleRequest(0, 1, (1,), 1)]
        [package] = flushed({(1,), (2,)}, {(3,)})
        assert isinstance(package, PackagedTupleRequest)
        assert sorted(package.bindings) == [(1,), (2,), (3,)]
        assert package.seq == 3  # one sequence number per binding


#: A same-generation and a nonlinear-closure query, both with lone and
#: several-binding request bursts.
DEFAULT_KB = """
sg(X, Y) <- par(X, P), par(Y, P).
sg(X, Y) <- par(X, U), sg(U, V), par(Y, V).
t(X, Y) <- e(X, Y).
t(X, Y) <- t(X, U), t(U, Y).
e(1, 2). e(2, 3). e(3, 1). e(3, 4). e(4, 5). e(2, 6).
""" + " ".join(f"par({2 * p + 1 + i}, {p})." for p in range(7) for i in range(2))

#: Counters of a default ``Session(DEFAULT_KB)``, which runs the coalesced
#: rule/goal graph: answers, then delivered, physical, computation and
#: protocol messages, tuple sets and their rows, tuples stored,
#: environments, probes, index inserts, kernel rows in/out and distinct
#: keys, protocol rounds and conclusions, and the EDB's scans, indexed
#: lookups and rows retrieved; last, the request messages.
PACKAGED = {
    "sg(7, Z)": (
        8, 145, 103, 140, 5, 24, 66, 99, 47, 42, 59, 38, 38, 33, 2, 1, 0, 17, 24, 21
    ),
    "t(1, Z)": (
        6, 164, 112, 148, 16, 36, 88, 230, 129, 81, 116, 76, 114, 66, 7, 2, 2, 3, 15, 20
    ),
}


@pytest.mark.parametrize("query", sorted(PACKAGED))
def test_default_session_runs_the_packaged_path(query):
    """A default ``Session`` runs packaged requests counter for counter as
    pinned; the request messages split into the two kinds, a lone binding
    travelling as a TupleRequest."""
    from repro.session import Session

    session = Session(DEFAULT_KB)
    session.query(query)
    r = session.last_result
    st = r.stats
    requests = st.by_kind.get("TupleRequest", 0) + st.by_kind.get("PackagedTupleRequest", 0)
    assert (
        len(r.answers), st.delivered_logical, st.delivered_physical,
        st.computation_messages, st.protocol_messages, st.tuple_sets,
        st.tuple_set_rows, r.tuples_stored, r.envs_materialized,
        r.probe_lookups, r.index_inserts, r.batch_rows_in, r.batch_rows_out,
        r.batch_distinct_keys, r.protocol_rounds, r.protocol_conclusions,
        r.db_scans, r.db_indexed_lookups, r.db_rows_retrieved, requests,
    ) == PACKAGED[query]
    assert st.by_kind.get("TupleRequest", 0) > 0
    assert st.by_kind.get("PackagedTupleRequest", 0) > 0
