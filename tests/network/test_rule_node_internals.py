"""White-box tests of the rule node's incremental join pipeline."""

import pytest

from repro.core.adornment import AdornedAtom
from repro.core.parser import parse_rule
from repro.core.sips import greedy_sip, adorn_body
from repro.core.terms import Variable
from repro.network.messages import (
    RelationRequest,
    TupleMessage,
    TupleRequest,
    TupleSet,
)
from repro.network.nodes import RuleNodeProcess
from repro.network.scheduler import Scheduler


class Probe:
    """Observes everything a node under test sends to a given id."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.tuples = []
        self.requests = []
        self.other = []

    def handle(self, message, network):
        if isinstance(message, TupleMessage):
            self.tuples.append(message.row)
        elif isinstance(message, TupleSet):
            self.tuples.extend(message.rows)
        elif isinstance(message, TupleRequest):
            self.requests.append(message.binding)
        else:
            self.other.append(message)

    def on_idle_check(self, network):
        pass


def build_rule_node(rule_text, head_adornment, parent_adornment=None):
    """A RuleNodeProcess wired to probe parents/children; returns all parts."""
    from repro.core.atoms import Atom

    rule = parse_rule(rule_text)
    head = AdornedAtom(rule.head, head_adornment)
    if parent_adornment is None:
        parent = AdornedAtom(rule.head, head_adornment)
    else:
        # The parent goal is its own (generic) atom: the rule head may be a
        # specialization of it, exactly as in the real graph.
        generic = Atom(
            rule.head.predicate,
            tuple(Variable(f"P{i}") for i in range(rule.head.arity)),
        )
        parent = AdornedAtom(generic, parent_adornment)
    sip = greedy_sip(rule, head)
    adorned = adorn_body(sip)
    child_ids = tuple(100 + i for i in range(len(rule.body)))
    node = RuleNodeProcess(1, rule, head, parent, sip.order, adorned, child_ids)
    scheduler = Scheduler()
    parent_probe = Probe(0)
    node.add_consumer(0, wants_all=not parent.dynamic_positions)
    scheduler.register(parent_probe)
    scheduler.register(node)
    child_probes = {}
    for child_id in child_ids:
        probe = Probe(child_id)
        child_probes[child_id] = probe
        node.add_feeder(child_id, is_feeder=True)
        scheduler.register(probe)
    return node, scheduler, parent_probe, child_probes, adorned


class TestStagePlans:
    def test_stage_vars_accumulate(self):
        node, *_ = build_rule_node(
            "p(X, Z) <- a(X, Y), b(Y, Z).", ("d", "f")
        )
        assert node.stage0_vars == (Variable("X"),)
        assert set(node.stages[0].env_vars) == {Variable("X"), Variable("Y")}
        assert set(node.stages[1].env_vars) == {
            Variable("X"), Variable("Y"), Variable("Z"),
        }

    def test_shared_keys_between_stages(self):
        node, *_ = build_rule_node(
            "p(X, Z) <- a(X, Y), b(Y, Z).", ("d", "f")
        )
        assert node.stages[1].shared_with_prev == (Variable("Y"),)

    def test_d_sources_resolved(self):
        node, *_ = build_rule_node(
            "p(X, Z) <- a(X, Y), b(Y, Z).", ("d", "f")
        )
        # b's first argument Y is class d, fed from the stage-1 env (X, Y).
        assert node.stages[1].d_env_positions == (1,)

    def test_constant_subgoal_position_excluded_from_requests(self):
        # A constant argument is class "c", not "d": it is filtered at the
        # child (EDB leaf / goal node), never shipped in tuple requests.
        node, *_ = build_rule_node(
            "p(X, Z) <- a(X, Y), b(k, Y, Z).", ("d", "f")
        )
        b_stage = next(s for s in node.stages if s.subgoal_index == 1)
        assert b_stage.adorned.adornment[0] == "c"
        assert b_stage.d_env_positions == (1,)  # just Y, from env (X, Y)


class TestPipelineFlow:
    def test_tuples_flow_through_stages(self):
        node, scheduler, parent, children, adorned = build_rule_node(
            "p(X, Z) <- a(X, Y), b(Y, Z).", ("d", "f")
        )
        scheduler.send(RelationRequest(0, 1, ("d", "f")))
        scheduler.send(TupleRequest(0, 1, ("x1",), 1))
        scheduler.run()
        # The request for a's d-binding went out.
        assert children[100].requests == [("x1",)]
        # a answers: (x1, y1)
        scheduler.send(TupleMessage(100, 1, ("x1", "y1")))
        scheduler.run()
        assert children[101].requests == [("y1",)]
        # b answers: (y1, z1) — the head row appears at the parent.
        scheduler.send(TupleMessage(101, 1, ("y1", "z1")))
        scheduler.run()
        assert parent.tuples == [("x1", "z1")]

    def test_arrival_order_does_not_matter(self):
        # b's tuple arrives before a's: the join must still fire.
        node, scheduler, parent, children, _ = build_rule_node(
            "p(X, Z) <- a(X, Y), b(Y, Z).", ("d", "f")
        )
        scheduler.send(RelationRequest(0, 1, ("d", "f")))
        scheduler.send(TupleRequest(0, 1, ("x1",), 1))
        scheduler.run()
        scheduler.send(TupleMessage(101, 1, ("y1", "z1")))  # early b tuple
        scheduler.run()
        assert parent.tuples == []
        scheduler.send(TupleMessage(100, 1, ("x1", "y1")))
        scheduler.run()
        assert parent.tuples == [("x1", "z1")]

    def test_duplicate_tuples_ignored(self):
        node, scheduler, parent, children, _ = build_rule_node(
            "p(X, Z) <- a(X, Y), b(Y, Z).", ("d", "f")
        )
        scheduler.send(RelationRequest(0, 1, ("d", "f")))
        scheduler.send(TupleRequest(0, 1, ("x1",), 1))
        for _ in range(3):
            scheduler.send(TupleMessage(100, 1, ("x1", "y1")))
            scheduler.send(TupleMessage(101, 1, ("y1", "z1")))
        scheduler.run()
        assert parent.tuples == [("x1", "z1")]
        assert children[101].requests == [("y1",)]

    def test_duplicate_head_requests_ignored(self):
        node, scheduler, parent, children, _ = build_rule_node(
            "p(X, Z) <- a(X, Y), b(Y, Z).", ("d", "f")
        )
        scheduler.send(RelationRequest(0, 1, ("d", "f")))
        scheduler.send(TupleRequest(0, 1, ("x1",), 1))
        scheduler.send(TupleRequest(0, 1, ("x1",), 2))
        scheduler.run()
        assert children[100].requests == [("x1",)]

    def test_head_constant_clash_produces_nothing(self):
        # Rule head p(a, Z): a request for X = b cannot match.
        node, scheduler, parent, children, _ = build_rule_node(
            "p(a, Z) <- r(a, Z).", ("c", "f"), parent_adornment=("d", "f")
        )
        scheduler.send(RelationRequest(0, 1, ("d", "f")))
        scheduler.send(TupleRequest(0, 1, ("b",), 1))
        scheduler.run()
        assert children[100].requests == []
        assert parent.tuples == []

    def test_repeated_head_variable_requires_equal_binding(self):
        node, scheduler, parent, children, _ = build_rule_node(
            "p(X, X) <- r(X).", ("d", "d")
        )
        scheduler.send(RelationRequest(0, 1, ("d", "d")))
        scheduler.send(TupleRequest(0, 1, ("v", "w"), 1))  # v != w: no-op
        scheduler.send(TupleRequest(0, 1, ("v", "v"), 2))
        scheduler.run()
        assert children[100].requests == [("v",)]

    def test_bodiless_rule_emits_head_directly(self):
        node, scheduler, parent, children, _ = build_rule_node(
            "p(a, b).", ("c", "c"), parent_adornment=("d", "f")
        )
        scheduler.send(RelationRequest(0, 1, ("d", "f")))
        scheduler.send(TupleRequest(0, 1, ("a",), 1))
        scheduler.run()
        assert parent.tuples == [("a", "b")]

    def test_existential_subgoal_positions_not_in_env(self):
        # W is existential in a(X, Y, W): rows arrive without the W column.
        node, scheduler, parent, children, adorned = build_rule_node(
            "p(X, Y) <- a(X, Y, W).", ("d", "f")
        )
        assert adorned[0].adornment == ("d", "f", "e")
        scheduler.send(RelationRequest(0, 1, ("d", "f")))
        scheduler.send(TupleRequest(0, 1, ("x1",), 1))
        scheduler.run()
        scheduler.send(TupleMessage(100, 1, ("x1", "y1")))  # two columns only
        scheduler.run()
        assert parent.tuples == [("x1", "y1")]

    def test_three_way_join_with_branching_flow(self):
        node, scheduler, parent, children, _ = build_rule_node(
            "p(X, Z) <- a(X, Y, V), b(Y, U), c(V, U, Z).", ("d", "f")
        )
        scheduler.send(RelationRequest(0, 1, ("d", "f")))
        scheduler.send(TupleRequest(0, 1, ("x",), 1))
        scheduler.run()
        scheduler.send(TupleMessage(100, 1, ("x", "y", "v")))
        scheduler.run()
        scheduler.send(TupleMessage(101, 1, ("y", "u")))
        scheduler.run()
        scheduler.send(TupleMessage(102, 1, ("v", "u", "z")))
        scheduler.run()
        assert parent.tuples == [("x", "z")]
