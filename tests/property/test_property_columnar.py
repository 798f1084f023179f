"""Differential property test for the stage kernels and cost planner.

Random EDB graphs are evaluated under both planners and must agree exactly
with the semi-naive baseline (:mod:`repro.baselines.seminaive`), which
shares no code with the message-passing kernels — the kernels and the
planner both claim to change *how* a fixpoint is computed, never *what*
it is.  Covers linear, non-linear, and cyclic (same-generation) recursion
shapes, plus delta refresh: a materialized network absorbing random write
batches must track the semi-naive fixpoint of the grown base at every
round.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import seminaive
from repro.session import Session

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
}

edge = st.tuples(st.integers(0, 6), st.integers(0, 6))
edges = st.lists(edge, min_size=1, max_size=12)

COMMON = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def facts_text(batch):
    return " ".join(f"e({a}, {b})." for a, b in batch)


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
