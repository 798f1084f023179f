"""Differential property test for the stage kernels and cost planner.

Random EDB graphs are evaluated under both planners and must agree exactly
with the semi-naive baseline (:mod:`repro.baselines.seminaive`), which
shares no code with the message-passing kernels — the kernels and the
planner both claim to change *how* a fixpoint is computed, never *what*
it is.  Covers linear, non-linear, and cyclic (same-generation) recursion
shapes; constants in rule bodies, in rule heads and at every query
position, which never travel in rows; repeated variables in bodies and
queries; plus delta refresh: a materialized network absorbing random write
batches must track the semi-naive fixpoint of the grown base at every
round.  One answer per case is also proved by the string-only derivation
checker of ``tests/network/test_provenance.py``.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import seminaive
from repro.session import Session

from tests.network.test_provenance import check_derivation

CONSTANTS = (
    "p(X) <- e(0, X).\n"
    "p(X) <- p(U), e(U, X).\n"
    "m(X, Y) <- f(X, k, Y).\n"
    "m(X, Y) <- m(X, U), f(U, k, Y).\n"
    "h(X, 6) <- e(X, 6).\n"
    "h(0, Y) <- m(3, Y).\n"
    "h(X, Y) <- h(X, U), e(U, Y).\n"
    "w(X, K, Y) <- f(X, K, Y).\n"
    "w(X, K, Y) <- f(X, K, U), w(U, K, Y)."
)

REPEATS = (
    "q(X) <- e(X, X).\n"
    "q(X) <- e(X, Y), q(Y).\n"
    "r(X, Y) <- e(X, Y).\n"
    "r(X, Y) <- r(X, U), r(U, Y).\n"
    "loop(X) <- r(X, X)."
)

SHAPES = {
    "linear": (
        "t(X, Y) <- e(X, Y).\n"
        "t(X, Y) <- e(X, U), t(U, Y).",
        "t(0, Z)",
    ),
    "nonlinear": (
        "t(X, Y) <- e(X, Y).\n"
        "t(X, Y) <- t(X, U), t(U, Y).",
        "t(0, Z)",
    ),
    # Same-generation over a random graph: cyclic through the binary
    # rule's inner recursion; join keys mix constants and variables.
    "samegen": (
        "sg(X, Y) <- e(X, U), e(Y, U).\n"
        "sg(X, Y) <- e(X, U), sg(U, V), e(Y, V).",
        "sg(0, Z)",
    ),
    "body-const": (CONSTANTS, "p(Z)"),
    "body-const-first": (CONSTANTS, "m(0, Z)"),
    "body-const-last": (CONSTANTS, "m(Z, 0)"),
    "head-const-first": (CONSTANTS, "h(0, Z)"),
    "head-const-last": (CONSTANTS, "h(Z, 6)"),
    "ternary-first": (CONSTANTS, "w(0, K, Z)"),
    "ternary-middle": (CONSTANTS, "w(Z, k, W)"),
    "ternary-last": (CONSTANTS, "w(Z, W, 0)"),
    "repeated-body": (REPEATS, "q(Z)"),
    "repeated-derived": (REPEATS, "loop(Z)"),
    "repeated-query": (REPEATS, "r(Z, Z)"),
}

edge = st.tuples(st.integers(0, 6), st.integers(0, 6))
edges = st.lists(edge, min_size=1, max_size=12)

COMMON = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def facts_text(batch):
    """``e(a, b)`` per edge, plus a ternary ``f`` whose middle constant
    (``k`` or ``j`` by parity) gives body constants something to select."""
    return " ".join(
        f"e({a}, {b}). f({a}, {'kj'[(a + b) % 2]}, {b})." for a, b in batch
    )


def source(shape, batch):
    rules, _ = SHAPES[shape]
    return rules + "\n" + facts_text(batch)


def baseline(session, query):
    """The semi-naive answers to ``query`` over the session's base."""
    return seminaive.evaluate(session.program_for(query)).answers()


class TestColumnarPlannerDifferential:
    @settings(**COMMON)
    @given(shape=st.sampled_from(sorted(SHAPES)), initial=edges)
    def test_kernel_and_planner_combos_agree_with_seminaive(self, shape, initial):
        _, query = SHAPES[shape]
        for planner in ("static", "cost"):
            session = Session(source(shape, initial), planner=planner)
            assert session.query(query) == baseline(session, query), (
                f"{shape}: planner={planner} diverged"
            )

    @settings(**COMMON)
    @given(shape=st.sampled_from(sorted(SHAPES)), initial=edges)
    def test_one_answer_per_case_has_a_sound_derivation(self, shape, initial):
        _, query = SHAPES[shape]
        session = Session(source(shape, initial), provenance=True)
        answers = session.query(query)
        assert answers == baseline(session, query)
        if answers:
            derivation = session.explain(min(answers, key=repr))
            check_derivation(derivation, session.program_for(query))

    @settings(**COMMON)
    @given(
        shape=st.sampled_from(sorted(SHAPES)),
        initial=edges,
        batches=st.lists(edges, min_size=1, max_size=3),
    )
    def test_columnar_delta_refresh_tracks_seminaive(self, shape, initial, batches):
        _, query = SHAPES[shape]
        session = Session(source(shape, initial))
        mat = session.materialize(query)
        committed = len(initial)
        for batch in batches:
            session.add_facts(facts_text(batch))
            committed += len(batch)
            mat.refresh()
            assert mat.answers == baseline(session, query), (
                f"{shape}: delta refresh diverged after {committed} edges"
            )

    @settings(**COMMON)
    @given(shape=st.sampled_from(sorted(SHAPES)), initial=edges)
    def test_cost_planner_survives_magnitude_growth(self, shape, initial):
        """Growing the EDB past a size bucket re-plans without changing answers."""
        rules, query = SHAPES[shape]
        session = Session(source(shape, initial), planner="cost")
        expected = baseline(session, query)
        assert session.query(query) == expected
        # Push e past the next order of magnitude with disconnected edges:
        # node ids >= 100 never touch the 0-rooted query, so the answers
        # must not move.
        filler = [(100 + i, 101 + i) for i in range(60)]
        session.add_facts(" ".join(f"e({a}, {b})." for a, b in filler))
        assert session.query(query) == expected
