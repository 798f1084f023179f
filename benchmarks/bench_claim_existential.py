"""Experiment claim-existential — class "e": don't transmit what nobody needs.

Section 2.2: a variable occurring nowhere else "could be treated as 'f' and
produce correct results, but the 'e' designation indicates that its value
will not be transmitted, possibly permitting greater efficiency.  For
example, goal p(X^f, Y^e) can be satisfied by producing one tuple for each
unique X even though there may be many Y values that go with a given X."

Series: tuples transmitted and answers for the same query with the second
argument existential vs free, as the Y-fanout per X grows.  Shape: the
existential run is flat in the fanout; the free run grows linearly.
"""

import pytest

from repro.core.adornment import initial_goal_adornment
from repro.core.atoms import atom
from repro.core.parser import parse_program
from repro.core.terms import Variable
from repro.network.engine import evaluate
from repro.workloads import facts_from_tables

from _support import emit_table, ratio

X, Y = Variable("X"), Variable("Y")

TEXT = """
goal(X, Y) <- owner(X, Y).
owner(X, Y) <- asset(X, Y).
"""


def instance(fanout: int):
    rows = [(f"x{i}", f"y{i}_{j}") for i in range(4) for j in range(fanout)]
    return parse_program(TEXT).with_facts(facts_from_tables({"asset": rows}))


def logical_tuples(result):
    """Tuples transmitted: plain tuple messages plus the rows inside sets.

    The paper counts one message per tuple; a TupleSet carries several of
    them in one delivery, so the physical TupleMessage count alone would
    miss every row that travelled packaged.
    """
    return result.stats.by_kind.get("TupleMessage", 0) + result.stats.tuple_set_rows


def test_claim_existential_projection():
    rows = []
    series = []
    for fanout in (5, 20, 80):
        program = instance(fanout)
        goal_e = initial_goal_adornment(atom("goal", X, Y), existential=[Y])
        goal_f = initial_goal_adornment(atom("goal", X, Y))
        existential = evaluate(program, query_goal=goal_e)
        free = evaluate(program, query_goal=goal_f)
        assert existential.answers == {(f"x{i}",) for i in range(4)}
        assert len(free.answers) == 4 * fanout
        e_msgs = logical_tuples(existential)
        f_msgs = logical_tuples(free)
        rows.append(
            (fanout, len(existential.answers), len(free.answers), e_msgs, f_msgs,
             f"{ratio(f_msgs, max(1, e_msgs)):.1f}x")
        )
        series.append((e_msgs, f_msgs))
    emit_table(
        "claim-existential: p(X^f, Y^e) vs p(X^f, Y^f) as Y-fanout grows",
        ["fanout", "answers (e)", "answers (f)", "tuple msgs (e)",
         "tuple msgs (f)", "f/e"],
        rows,
    )
    # The existential run's traffic is flat; the free run's grows.
    assert series[-1][0] <= 2 * series[0][0]
    assert series[-1][1] > 4 * series[0][1]
    assert series[-1][1] > 5 * series[-1][0]


@pytest.mark.benchmark(group="claim-existential")
@pytest.mark.parametrize("mode", ["existential", "free"])
def test_bench_existential(benchmark, mode):
    program = instance(40)
    goal = initial_goal_adornment(
        atom("goal", X, Y), existential=[Y] if mode == "existential" else []
    )
    result = benchmark(evaluate, program, query_goal=goal)
    assert result.completed
