"""Each row is checked for freshness once, where a duplicate can arise.

A goal or cyclic node's store admits each row once, and it sends a
consumer stream only what that store admitted or replays a binding's rows
the first time the binding is requested, so it keeps no per-stream sent
set.  A cyclic node with no "d" position keeps no store at all: it relays
what its ancestor sends, once.  A rule-node stage whose tuple-request
binding is the whole previous environment, fed by a child no other stage
shares, stores none of its rows: each one answers the one environment
that requested it, already stored.  So does stage 1 under a parent with
no "d" position, whose one environment, (), the relation request stores;
a row that comes before that request waits in the store until it does.
A rule node whose head reads every final position sends distinct heads
without a sent set.  Only EDB leaves filter per stream, since a delta can
re-offer a committed fact.

These tests watch every delivery and check three things.  Every delivered
``TupleSet``, from any sender, EDB leaves included, carries a tuple of
distinct rows.  No goal, cyclic or rule node sends a row twice on one
stream.  Every row reaching a stage without a row store finds its
environment there, or, before stage 1's environment exists, waits for
it.  They run over random
programs and every counter-pin program (on the default graph and on the
pinned one, see ``test_counter_pin.pinned_graph``), a
run with two EDB replicas per leaf (in send order and under seeded random
latencies), and a ``run_delta`` wave.
A delta that re-offers a committed fact must send nothing and move no
counter.

CI runs this file under two ``PYTHONHASHSEED`` values.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.parser import parse_program
from repro.core.rulegoal import build_rule_goal_graph
from repro.network.engine import MessagePassingEngine
from repro.network.messages import ColumnBatch, TupleMessage, TupleSet
from repro.network.nodes import CyclicNodeProcess, GoalNodeProcess, RuleNodeProcess, _bind
from repro.workloads import facts_from_tables

from tests.helpers import oracle_answers
from tests.network.test_counter_pin import PROGRAMS, logical_counters, pinned_graph
from tests.property.test_property_engine import programs


class Watch:
    """A delivery trace that checks both invariants as rows arrive."""

    def __init__(self) -> None:
        self.engine: MessagePassingEngine | None = None
        self.sent: Counter = Counter()  # (producer, consumer, row) -> sends
        self.unstored_rows = 0  # rows met at stages without a row store
        self.waiting_rows = 0  # rows that came before stage 1's environment
        self.set_senders: Counter = Counter()  # sender kind -> TupleSets delivered

    def __call__(self, message) -> None:
        if isinstance(message, TupleSet):
            rows = message.rows
            assert type(rows) is tuple, f"{message.sender} sent a {type(rows).__name__}"
            assert len(set(rows)) == len(rows), f"{message.sender} repeated a row in one set"
            self.set_senders[type(self.engine.processes[message.sender]).__name__] += 1
        elif isinstance(message, TupleMessage):
            rows = (message.row,)
        else:
            return
        processes = self.engine.processes
        sender = processes[message.sender]
        if isinstance(sender, (GoalNodeProcess, CyclicNodeProcess, RuleNodeProcess)):
            for row in rows:
                key = (message.sender, message.receiver, row)
                self.sent[key] += 1
                assert self.sent[key] == 1, f"{sender.adorned} sent {row} twice"
        receiver = processes[message.receiver]
        if isinstance(receiver, RuleNodeProcess):
            self.check_envs_present(receiver, message.sender, rows)

    def check_envs_present(self, node: RuleNodeProcess, sender: int, rows) -> None:
        for stage_number in node.child_stage[sender]:
            stage = node.stages[stage_number - 1]
            if stage.keeps_rows:
                continue
            envs = node.env_indexes[stage_number - 1]
            if not envs:
                assert stage_number == 1, f"{node.rule}: a row came before its request"
                self.waiting_rows += len(rows)
                continue
            assert not stage.row_index
            for row in rows:
                if stage.row_perm != "id":
                    row = _bind(stage.row_vars, row)
                    if row is None:
                        continue
                (key,) = ColumnBatch([row]).keys(stage.row_key_positions)
                assert key in envs, f"{node.rule}: {row} met no environment"
                self.unstored_rows += 1


def watched(program, **options):
    watch = Watch()
    engine = MessagePassingEngine(program, trace=watch, **options)
    watch.engine = engine
    return engine, watch


def node_counters(engine) -> dict:
    """Every storage and probe counter, per process."""
    return {
        node_id: (
            process.tuples_stored,
            getattr(process, "probe_lookups", 0),
            getattr(process, "index_inserts", 0),
            getattr(process, "envs_materialized", 0),
        )
        for node_id, process in engine.processes.items()
    }


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(programs())
def test_random_programs(program):
    expected = oracle_answers(program)
    for graph in (None, build_rule_goal_graph(program, coalesce=False)):
        engine, _ = watched(program, graph=graph)
        result = engine.run()
        assert result.completed and result.answers == expected


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_counter_pin_programs(name):
    text, options = PROGRAMS[name]
    program = parse_program(text)
    for graph in (None, pinned_graph(name, program, options)):
        engine, watch = watched(program, graph=graph, **options)
        assert engine.run().answers == oracle_answers(program)
        assert watch.sent


def test_unstored_stages_are_reached():
    """The pin programs exercise the stage without a row store."""
    reached = 0
    for text, options in PROGRAMS.values():
        engine, watch = watched(parse_program(text), **options)
        engine.run()
        reached += watch.unstored_rows
    assert reached


def test_every_sender_kind_ships_tuple_sets():
    """The row-set check above sees sets from every node kind that sends them."""
    senders: Counter = Counter()
    for name, (text, options) in PROGRAMS.items():
        program = parse_program(text)
        for graph in (None, pinned_graph(name, program, options)):
            engine, watch = watched(program, graph=graph, **options)
            engine.run()
            senders += watch.set_senders
    assert set(senders) == {
        "CyclicNodeProcess",
        "EdbLeafProcess",
        "GoalNodeProcess",
        "RuleNodeProcess",
    }


@pytest.mark.parametrize("seeded", [False, True])
def test_two_edb_replicas(seeded):
    text, _ = PROGRAMS["env_is_row"]
    program = parse_program(text)
    engine, watch = watched(program, edb_shards=2, seed=5 if seeded else None)
    assert engine.edb_replicas
    assert engine.run().answers == oracle_answers(program)
    assert watch.unstored_rows  # a replicated leaf feeds such a stage


def test_delta_wave_and_reoffered_fact():
    text, options = PROGRAMS["env_is_row"]
    engine, watch = watched(parse_program(text), **options)
    engine.run()
    delta = facts_from_tables({"e": [("f", "g"), ("g", "a"), ("x", "y")]})
    engine.database.add_facts(delta)
    wave = engine.run_delta(delta)
    assert wave.completed and sorted(wave.new_answers) == [("a",), ("g",)]
    assert watch.unstored_rows

    # Offer the same committed facts again: the leaves have sent them on
    # every stream that asked, so nothing moves.
    sends, counters = sum(watch.sent.values()), node_counters(engine)
    again = engine.run_delta(delta)
    assert again.total_messages == 0 and not again.new_answers
    assert logical_counters(again)[3:10] == logical_counters(wave)[3:10]
    assert sum(watch.sent.values()) == sends
    assert node_counters(engine) == counters


#: A cyclic t(X, Z) under four relaying goals: the root t(X, Y) sends its
#: base answers to the cyclic node before the relation request has come
#: down to u4's rule node, whose stage 1 keeps no rows once its () exists.
LATE_REQUEST = """
goal(X, Y) <- t(X, Y).
t(X, Y) <- e(X, Y).
t(X, Y) <- u1(X, Y).
u1(X, Y) <- u2(X, Y).
u2(X, Y) <- u3(X, Y).
u3(X, Y) <- u4(X, Y).
u4(X, Y) <- t(X, Z), e(Z, Y).
e(1, 2). e(2, 3). e(3, 4). e(4, 5).
"""


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_rows_before_the_relation_request(seed):
    program = parse_program(LATE_REQUEST)
    engine, watch = watched(program, seed=seed)
    assert engine.run().answers == oracle_answers(program)
    assert watch.waiting_rows and watch.unstored_rows
    for process in engine.processes.values():
        if isinstance(process, RuleNodeProcess):
            assert all(s.keeps_rows or not s.row_index for s in process.stages)
