"""Importable helper functions shared across test modules."""

from __future__ import annotations

from repro.baselines import naive
from repro.core.adornment import AdornedAtom
from repro.core.atoms import atom
from repro.core.planner import CostPlanner
from repro.core.program import Program
from repro.core.rulegoal import RuleGoalGraph, build_rule_goal_graph
from repro.core.sips import greedy_sip
from repro.core.terms import Variable
from repro.network.nodes import GoalNodeProcess
from repro.relational.database import Database
from repro.workloads import facts_from_tables


def with_tables(program: Program, tables: dict) -> Program:
    """Attach ``{predicate: rows}`` tables to a program as its EDB."""
    return program.with_facts(facts_from_tables(tables))


def oracle_answers(program: Program) -> set[tuple]:
    """The reference answer set (naive minimum-model evaluation)."""
    return naive.goal_answers(program)


def distributed_graph(
    program: Program, sip_factory=greedy_sip, planner: str = "static", database=None
) -> RuleGoalGraph:
    """The paper's distributed rule/goal graph (no coalescing) under the
    SIP or planner an evaluation would use, to pass as ``graph=``."""
    if planner == "cost":
        facts = database if database is not None else Database.from_facts(program.facts)
        sip_factory = CostPlanner.from_database(facts).sip_factory()
    return build_rule_goal_graph(program, sip_factory, coalesce=False)


def flushed(*requests) -> list:
    """The messages node 0 sends producer 1 after requesting each binding
    set in ``requests`` within one burst (one flush)."""
    node = GoalNodeProcess(0, AdornedAtom(atom("p", Variable("X")), ("d",)))
    node.add_feeder(1, is_feeder=True).next_seq()  # sequence 0: the relation request
    sent = []

    class Recorder:
        def send(self, message):
            sent.append(message)

    for bindings in requests:
        node.send_requests(1, bindings)
    node.flush_requests(Recorder())
    return sent
