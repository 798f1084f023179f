"""One way into a node process: the message table and the request path.

Every message type has one entry in ``nodes.HANDLERS``.  The three request
messages share one piece of stream bookkeeping, and a ``TupleRequest`` is
served as a package of one binding, so at every node kind a tuple request
and a one-binding ``PackagedTupleRequest`` with the same sequence number
must leave the same stream state, send the same messages and, at an EDB
leaf, move the database counters the same way.
"""

import pytest

from repro.core.parser import parse_program
from repro.core.rulegoal import build_rule_goal_graph
from repro.network import messages
from repro.network.engine import MessagePassingEngine
from repro.network.messages import (
    COMPUTATION_TYPES,
    PROTOCOL_TYPES,
    EndRequest,
    Message,
    MessageBatch,
    PackagedTupleRequest,
    RelationRequest,
    TupleRequest,
)
from repro.network.nodes import (
    HANDLERS,
    CyclicNodeProcess,
    EdbLeafProcess,
    GoalNodeProcess,
    RuleNodeProcess,
)

# anc(U, Y) with U bound reaches a goal node, a rule node, an EDB leaf and
# a cyclic node, each serving a consumer that sends "d" bindings.
PROGRAM = """
    anc(X, Y) <- par(X, Y).
    anc(X, Y) <- par(X, U), anc(U, Y).
    par(a, b). par(b, c). par(c, d). par(b, e). par(e, a).
    ?- anc(a, Y).
"""


def message_types(cls=Message):
    for sub in cls.__subclasses__():
        yield sub
        yield from message_types(sub)


class Recorder:
    """Stands in for the fabric: keeps every sent message, in order."""

    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)


class TestTable:
    def test_every_message_type_has_one_entry(self):
        declared = {
            obj
            for obj in vars(messages).values()
            if isinstance(obj, type) and issubclass(obj, Message) and obj is not Message
        }
        assert set(HANDLERS) == declared
        # No subclass defined anywhere else goes without an entry (a slots
        # dataclass leaves its pre-slots class behind, hence the names).
        assert {kind.__name__ for kind in message_types()} == {
            kind.__name__ for kind in HANDLERS
        }

    def test_work_flags_match_the_scheduler(self):
        work = {kind for kind, (_, is_work) in HANDLERS.items() if is_work}
        assert work == set(COMPUTATION_TYPES)
        assert set(HANDLERS) - work == set(PROTOCOL_TYPES)

    def test_unlisted_type_raises(self):
        engine = MessagePassingEngine(parse_program(PROGRAM))
        with pytest.raises(TypeError):
            engine.driver.handle(MessageBatch(0, ()), Recorder())

    def test_protocol_message_outside_a_component_is_refused(self):
        engine = MessagePassingEngine(parse_program(PROGRAM))
        edb = next(p for p in engine.processes.values() if isinstance(p, EdbLeafProcess))
        assert edb.protocol is None
        with pytest.raises(AssertionError, match="non-SC"):
            edb.handle(EndRequest(0, edb.node_id, 1), Recorder())


def d_stream(engine, kind):
    """A node of ``kind`` and a consumer of it that sends "d" bindings."""
    for node_id, node in sorted(engine.processes.items()):
        if type(node) is kind:
            for consumer_id, stream in sorted(node.consumers.items()):
                if not stream.wants_all:
                    return node, consumer_id
    raise AssertionError(f"no {kind.__name__} with a 'd' consumer")


def serve(kind, binding, packaged):
    """Open a stream at a fresh network's node of ``kind``, then request one
    binding as a tuple request or as a one-binding package.

    The network runs the paper's distributed graph: the coalesced one has
    no cyclic nodes.
    """
    program = parse_program(PROGRAM)
    engine = MessagePassingEngine(program, graph=build_rule_goal_graph(program, coalesce=False))
    node, consumer_id = d_stream(engine, kind)
    network = Recorder()
    node.handle(RelationRequest(consumer_id, node.node_id, ()), network)
    assert node.consumers[consumer_id].last_seq_received == 0
    opened = len(network.sent)
    if packaged:
        request = PackagedTupleRequest(consumer_id, node.node_id, (binding,), 1)
    else:
        request = TupleRequest(consumer_id, node.node_id, binding, 1)
    node.handle(request, network)
    db = engine.database
    return dict(
        consumers=node.consumers,
        feeders=node.feeders,
        sent=network.sent[opened:],
        buffered=node._request_buffer,
        db=(db.indexed_lookups, db.rows_retrieved, db.scans),
    )


@pytest.mark.parametrize(
    "kind", [GoalNodeProcess, CyclicNodeProcess, EdbLeafProcess, RuleNodeProcess]
)
@pytest.mark.parametrize("binding", [("b",), ("z",)], ids=["answered", "unknown"])
def test_tuple_request_is_a_package_of_one(kind, binding):
    single = serve(kind, binding, packaged=False)
    package = serve(kind, binding, packaged=True)
    assert single == package
    stream = next(s for s in single["consumers"].values() if s.last_seq_received >= 0)
    assert stream.last_seq_received == 1
    if kind is not RuleNodeProcess:  # rule nodes keep head bindings as environments
        assert binding in stream.requested


def test_edb_leaf_counts_one_lookup_either_way():
    for packaged in (False, True):
        served = serve(EdbLeafProcess, ("b",), packaged)
        # par(b, c) and par(b, e): one indexed lookup, two rows, no scan.
        assert served["db"] == (1, 2, 0)
        (message,) = served["sent"]
        # A leaf ships its serve's distinct rows as a tuple; their order is
        # the leaf's sent-set order, so compare them sorted.
        assert type(message.rows) is tuple
        assert sorted(message.rows) == [("b", "c"), ("b", "e")]


def test_goal_node_requests_each_binding_once_per_child():
    engine = MessagePassingEngine(parse_program(PROGRAM))
    goal, consumer_id = d_stream(engine, GoalNodeProcess)
    network = Recorder()
    goal.handle(RelationRequest(consumer_id, goal.node_id, ()), network)
    goal.handle(TupleRequest(consumer_id, goal.node_id, ("b",), 1), network)
    goal.flush_requests(network)
    first = [m for m in network.sent if isinstance(m, TupleRequest)]
    assert sorted(m.receiver for m in first) == sorted(goal.feeders)
    goal.handle(PackagedTupleRequest(consumer_id, goal.node_id, (("b",), ("c",)), 3), network)
    goal.flush_requests(network)
    again = [m for m in network.sent if isinstance(m, TupleRequest)][len(first):]
    assert [m.binding for m in again] == [("c",)] * len(goal.feeders)
    assert all(f.sent_bindings == {("b",), ("c",)} for f in goal.feeders.values())
