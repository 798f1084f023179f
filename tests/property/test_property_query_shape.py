"""Property tests for shape graphs: one rule/goal graph per query shape.

A query constant that equals no rule constant becomes a numbered
parameter (``repro.core.rulegoal.query_shape``).  Over random programs
with rule constants, repeated head variables and repeated query
constants, the graph built for the shape and bound to the query's values
must equal the graph built for the values themselves, node for node
(kinds, adornments, arcs, bound labels), and a session answering through
shape graphs — the second query of a pair hitting the first one's graph
whenever the two share a shape — must agree with ``baselines.seminaive``.
"""

from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from repro.baselines import seminaive
from repro.core.atoms import Atom
from repro.core.parser import query_to_rule
from repro.core.program import Program
from repro.core.rulegoal import (
    bind_adorned,
    bind_rule,
    build_rule_goal_graph,
    query_shape,
    rule_constants,
)
from repro.core.rules import Rule
from repro.core.terms import Constant, Variable
from repro.session import Session

X, Y, Z, U = (Variable(n) for n in "XYZU")
VARS = [X, Y, Z, U]
IDB = ["p", "s"]
#: Rule constants come from 0..3 and query constants from 0..7: a query
#: constant is sometimes a rule constant (a literal), often not (a
#: parameter), and facts cover both ranges.
rule_domain = st.integers(0, 3)
domain = st.integers(0, 7)


@st.composite
def rule_atoms(draw, predicates):
    """A binary atom over variables (repeats allowed) and rule constants."""
    return Atom(
        draw(st.sampled_from(predicates)),
        tuple(
            draw(st.one_of(st.sampled_from(VARS), rule_domain.map(Constant)))
            for _ in range(2)
        ),
    )


@st.composite
def rules(draw):
    head = draw(rule_atoms(IDB))
    body = [draw(rule_atoms(IDB + ["e", "e", "f"])) for _ in range(draw(st.integers(1, 2)))]
    body_vars = set().union(*(sub.variable_set() for sub in body))
    missing = [v for v in head.variables() if v not in body_vars]
    if missing:  # keep the rule safe: ground missing head variables
        body.append(Atom("e", (missing[0], missing[-1])))
    return Rule(head, tuple(body))


@st.composite
def knowledge_bases(draw):
    """``(rules, facts)``: 1-3 random rules plus two fixed ones.

    ``p`` gets a base rule; ``s(X, X)`` repeats a head variable, so a query
    constant there fills another head position (a constant head slot) and
    two query constants must be equal for the head to unify.
    """
    rule_list = [draw(rules()) for _ in range(draw(st.integers(1, 3)))]
    rule_list.append(Rule(Atom("p", (X, Y)), (Atom("e", (X, Y)),)))
    rule_list.append(Rule(Atom("s", (X, X)), (Atom("f", (X, Y)),)))
    facts = [
        Atom(pred, (Constant(draw(domain)), Constant(draw(domain))))
        for pred in ("e", "f")
        for _ in range(draw(st.integers(0, 12)))
    ]
    return tuple(rule_list), tuple(facts)


@st.composite
def query_pairs(draw):
    """Two queries of one template: the same atoms, other constant values.

    Each argument is a variable or one of two constant *slots*, so
    variables and constants both repeat; the two queries fill the slots
    with independently drawn values.
    """
    template = [
        (
            draw(st.sampled_from(IDB + ["e"])),
            tuple(draw(st.sampled_from([X, Y, 0, 0, 1])) for _ in range(2)),
        )
        for _ in range(draw(st.integers(1, 2)))
    ]
    pair = []
    for _ in range(2):
        values = [draw(domain) for _ in range(2)]
        pair.append(
            [
                Atom(
                    predicate,
                    tuple(
                        arg if isinstance(arg, Variable) else Constant(values[arg])
                        for arg in args
                    ),
                )
                for predicate, args in template
            ]
        )
    return pair


def value_graph(rule_list, atoms):
    return build_rule_goal_graph(Program(rule_list + (query_to_rule(atoms),)))


#: Pinned alongside the random cases: ``s(5, Z)`` fills a constant head
#: slot of ``s(X, X)`` from a parameter, and ``s(6, 6)`` unifies that head
#: only because its two equal constants are one parameter.
PINNED_KB = (
    (
        Rule(Atom("s", (X, X)), (Atom("f", (X, Y)),)),
        Rule(Atom("p", (X, Y)), (Atom("e", (X, Y)), Atom("f", (Y, Constant(1))))),
    ),
    tuple(
        Atom(pred, (Constant(a), Constant(b)))
        for pred, a, b in [("f", 5, 1), ("f", 6, 6), ("e", 5, 6), ("f", 6, 1)]
    ),
)
PINNED_QUERIES = [
    [Atom("s", (Constant(5), Z))],
    [Atom("s", (Constant(6), Constant(6))), Atom("p", (Constant(5), Y))],
]

COMMON = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestShapeGraphs:
    @seed(20260531)
    @settings(**COMMON)
    @given(knowledge_bases(), query_pairs())
    @example(PINNED_KB, PINNED_QUERIES)
    def test_bound_shape_graph_equals_value_graph(self, kb, queries):
        rule_list, _ = kb
        for atoms in queries:
            shape, bindings = query_shape(atoms, rule_constants(rule_list))
            expected = value_graph(rule_list, atoms)
            graph = value_graph(rule_list, shape)
            assert graph.goal_nodes.keys() == expected.goal_nodes.keys()
            assert graph.rule_nodes.keys() == expected.rule_nodes.keys()
            for node_id, goal in graph.goal_nodes.items():
                want = expected.goal_nodes[node_id]
                assert bind_adorned(goal.adorned, bindings) == want.adorned
                assert (goal.kind, goal.parent, goal.cycle_source) == (
                    want.kind,
                    want.parent,
                    want.cycle_source,
                )
                assert goal.rule_children == want.rule_children
            for node_id, node in graph.rule_nodes.items():
                want = expected.rule_nodes[node_id]
                assert bind_rule(node.rule, bindings) == want.rule
                assert bind_adorned(node.head, bindings) == want.head
                assert [bind_adorned(a, bindings) for a in node.adorned_body] == list(
                    want.adorned_body
                )
                assert node.subgoal_children == want.subgoal_children
                assert node.rule_index == want.rule_index
            assert graph.answer_flow_edges() == expected.answer_flow_edges()
            for node_id in [*graph.goal_nodes, *graph.rule_nodes]:
                assert graph.node_label(node_id, bindings) == expected.node_label(node_id)

    @seed(20260531)
    @settings(**COMMON)
    @given(knowledge_bases(), query_pairs())
    @example(PINNED_KB, PINNED_QUERIES)
    def test_shape_answers_match_seminaive(self, kb, queries):
        rule_list, facts = kb
        session = Session(Program(rule_list, facts))
        shapes = []
        for atoms in queries:
            oracle = seminaive.evaluate(
                Program(rule_list + (query_to_rule(atoms),), facts)
            ).answers()
            assert session.query(atoms) == oracle
            result = session.last_result
            assert result.completed and result.protocol_violations == []
            shapes.append(session.prepare(atoms).shape_key)
        # The second query reuses the first one's graph exactly when the
        # two share a shape.
        assert session.last_result.graph_cache_hit == (shapes[0] == shapes[1])
