"""Property-based end-to-end tests: random programs + EDBs vs the oracle.

Random safe Datalog programs (recursion included) over random small EDBs are
evaluated by the message-passing engine under every SIP strategy and random
delivery orders; the answers must always equal the naive minimum model's
goal relation, the run must complete, and the termination protocol must
never conclude early.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import naive
from repro.core.atoms import Atom
from repro.core.program import Program
from repro.core.rules import Rule
from repro.core.rulegoal import build_rule_goal_graph
from repro.core.sips import all_free_sip, left_to_right_sip
from repro.core.terms import Constant, Variable
from repro.network.engine import MessagePassingEngine, evaluate

X, Y, Z, U = (Variable(n) for n in "XYZU")
VARS = [X, Y, Z, U]

idb_preds = st.sampled_from(["p", "s"])
edb_preds = st.sampled_from(["e", "f"])
domain = st.integers(0, 4)


@st.composite
def body_atoms(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        pred = draw(idb_preds)
        arity = 2
    else:
        pred = draw(edb_preds)
        # EDB relations also appear as unary/ternary views of the pairs.
        arity = draw(st.sampled_from([2, 2, 2, 1, 3]))
        if arity == 1:
            pred = "u"
        elif arity == 3:
            pred = "t3"
    args = tuple(
        draw(st.one_of(st.sampled_from(VARS), domain.map(Constant)))
        for _ in range(arity)
    )
    return Atom(pred, args)


@st.composite
def rules(draw):
    head_pred = draw(idb_preds)
    head_vars = draw(st.permutations(VARS))[:2]
    head = Atom(head_pred, tuple(head_vars))
    body = [draw(body_atoms()) for _ in range(draw(st.integers(1, 3)))]
    # Enforce safety: any head variable missing from the body is grounded
    # by appending an EDB subgoal over the head variables.
    body_vars = set()
    for sub in body:
        body_vars |= sub.variable_set()
    if not head.variable_set() <= body_vars:
        body.append(Atom("e", tuple(head_vars)))
    return Rule(head, tuple(body))


@st.composite
def programs(draw):
    rule_list = [draw(rules()) for _ in range(draw(st.integers(1, 3)))]
    # Ensure p has at least one non-recursive rule so answers can exist.
    rule_list.append(Rule(Atom("p", (X, Y)), (Atom("e", (X, Y)),)))
    query = Rule(Atom("goal", (Z,)), (Atom("p", (Constant(0), Z)),))
    rule_list.append(query)
    facts = []
    for pred in ("e", "f"):
        n = draw(st.integers(0, 8))
        for _ in range(n):
            facts.append(
                Atom(pred, (Constant(draw(domain)), Constant(draw(domain))))
            )
    for _ in range(draw(st.integers(0, 4))):
        facts.append(Atom("u", (Constant(draw(domain)),)))
    for _ in range(draw(st.integers(0, 4))):
        facts.append(
            Atom(
                "t3",
                (Constant(draw(domain)), Constant(draw(domain)), Constant(draw(domain))),
            )
        )
    return Program(rule_list, facts)


COMMON = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestEngineAgainstOracle:
    @settings(**COMMON)
    @given(programs())
    def test_greedy_matches_oracle(self, program):
        expected = naive.goal_answers(program)
        result = evaluate(program)
        assert result.answers == expected
        assert result.completed
        assert result.protocol_violations == []

    @settings(**COMMON)
    @given(programs())
    def test_all_free_matches_oracle(self, program):
        assert evaluate(program, sip_factory=all_free_sip).answers == naive.goal_answers(program)

    @settings(**COMMON)
    @given(programs(), st.integers(0, 10_000))
    def test_random_delivery_matches_oracle(self, program, seed):
        result = evaluate(program, seed=seed)
        assert result.answers == naive.goal_answers(program)
        assert result.protocol_violations == []

    @settings(**COMMON)
    @given(programs())
    def test_left_to_right_matches_oracle(self, program):
        assert (
            evaluate(program, sip_factory=left_to_right_sip).answers
            == naive.goal_answers(program)
        )

    @settings(**COMMON)
    @given(programs())
    def test_coalesced_matches_oracle(self, program):
        # The default (coalesced) graph and the paper's distributed one.
        expected = naive.goal_answers(program)
        for graph in (None, build_rule_goal_graph(program, coalesce=False)):
            result = MessagePassingEngine(program, graph=graph).run()
            assert result.graph.coalesced is (graph is None)
            assert result.answers == expected
            assert result.completed
            assert result.protocol_violations == []

    @settings(**COMMON)
    @given(programs())
    def test_packaged_matches_oracle(self, program):
        # Every run packages its requests; here each package is split
        # binding by binding over two replicas of every "d"-bound EDB leaf.
        result = MessagePassingEngine(program, edb_shards=2).run()
        assert result.answers == naive.goal_answers(program)
        assert result.protocol_violations == []

    @settings(**COMMON)
    @given(programs(), st.integers(0, 10_000))
    def test_all_modes_combined(self, program, seed):
        result = MessagePassingEngine(program, seed=seed, edb_shards=2).run()
        assert result.answers == naive.goal_answers(program)
        assert result.completed
        assert result.protocol_violations == []
