"""A queued ``TupleSet`` is its own tuple of rows, and a result its own answers.

Node relations and the database grow in place (docs/architecture.md,
"in-place growth").  A ``TupleSet`` carries a tuple of distinct rows in the
producer's order, copied out of whatever store served it, so growing that
store after the send leaves the queued message as it was: after a goal
node replays an ``answer_index`` bucket, and after an EDB leaf serves rows
gathered from ``Database.lookup`` buckets.  A result hands over the
driver's answer set without copying it, so a delta wave grows a copy of
its own and the result before the wave keeps its answers.
"""

from repro.core.parser import parse_program
from repro.network.engine import MessagePassingEngine
from repro.network.messages import RelationRequest, TupleRequest, TupleSet
from repro.network.nodes import EdbLeafProcess, GoalNodeProcess
from repro.session import Session
from repro.workloads import facts_from_tables

from tests.network.test_dispatch import PROGRAM, Recorder, d_stream

ANCESTOR = """
anc(X, Y) <- par(X, Y).
anc(X, Y) <- par(X, U), anc(U, Y).
par(a, b). par(b, c).
"""


def shipped(network) -> list[tuple]:
    """Every row set sent so far, with a copy of its rows taken now."""
    return [(m, tuple(m.rows)) for m in network.sent if isinstance(m, TupleSet)]


def assert_unchanged(before) -> None:
    for message, rows in before:
        assert type(message.rows) is tuple
        assert message.rows == rows
        assert len(set(rows)) == len(rows)


def test_a_goal_node_replay_does_not_share_its_bucket():
    engine = MessagePassingEngine(parse_program(PROGRAM))
    goal, consumer_id = d_stream(engine, GoalNodeProcess)
    child_id = next(iter(goal.feeders))
    network = Recorder()
    goal.handle(RelationRequest(consumer_id, goal.node_id, ()), network)
    answers = (("b", "c"), ("b", "e"))
    goal.handle(TupleSet(child_id, goal.node_id, answers), network)
    assert not shipped(network)  # nobody asked for ("b",) yet
    goal.handle(TupleRequest(consumer_id, goal.node_id, ("b",), 1), network)
    (replay,) = before = shipped(network)
    assert sorted(replay[1]) == list(answers)

    # The bucket the replay read grows in place; the queued message does not.
    goal.handle(TupleSet(child_id, goal.node_id, (("b", "d"), ("b", "a"))), network)
    assert len(goal.answer_index[("b",)]) == 4
    assert_unchanged(before)
    assert [sorted(rows) for _, rows in shipped(network)][1] == [("b", "a"), ("b", "d")]


def test_an_edb_leaf_serve_does_not_share_the_database_buckets():
    """A tuple request served from the ``lookup_many`` gather of par(b, _);
    tests/relational/test_incremental.py covers a relation request served
    from one live ``lookup`` bucket."""
    engine = MessagePassingEngine(parse_program(PROGRAM))
    leaf, consumer_id = d_stream(engine, EdbLeafProcess)  # par(U, Y), U bound
    network = Recorder()
    leaf.handle(RelationRequest(consumer_id, leaf.node_id, ()), network)
    leaf.handle(TupleRequest(consumer_id, leaf.node_id, ("b",), 1), network)
    (served,) = before = shipped(network)
    assert sorted(served[1]) == [("b", "c"), ("b", "e")]

    engine.database.add_facts(facts_from_tables({"par": [("b", "y"), ("b", "x")]}))
    assert len(engine.database.lookup("par", (0,), ("b",))) == 4
    assert_unchanged(before)


def test_a_delta_wave_leaves_the_previous_answers_alone():
    session = Session(ANCESTOR)
    engine = MessagePassingEngine(session.program_for("anc(a, Z)"), database=session.database)
    first = engine.run()
    assert first.answers == {("b",), ("c",)}

    delta = facts_from_tables({"par": [("c", "d")]})
    engine.database.add_facts(delta)
    second = engine.run_delta(delta)
    assert second.answers == {("b",), ("c",), ("d",)}
    assert first.answers == {("b",), ("c",)}

    # A wave that reaches nothing keeps the answers object; one that runs
    # and derives nothing leaves the answers before it unchanged.
    assert engine.run_delta(delta).answers is second.answers
    known = facts_from_tables({"par": [("b", "d")]})
    engine.database.add_facts(known)
    third = engine.run_delta(known)
    assert third.total_messages and not third.new_answers
    assert third.answers == second.answers == {("b",), ("c",), ("d",)}
    delta = facts_from_tables({"par": [("d", "e")]})
    engine.database.add_facts(delta)
    fourth = engine.run_delta(delta)
    assert fourth.answers == {("b",), ("c",), ("d",), ("e",)}
    assert second.answers == third.answers == {("b",), ("c",), ("d",)}
    assert first.answers == {("b",), ("c",)}
