"""Differential property test for incremental view maintenance.

Random write schedules (batches of random EDB edges) are interleaved
with queries against a *warm* materialization; after every refresh the
answers must equal both a from-scratch cold session over the grown base
and the semi-naive baseline (`repro.baselines.seminaive`) on the full
induced program.  Covers linear, non-linear, and cyclic recursion
shapes — the delta waves in the cyclic shapes can close cycles through
already-converged nodes, which is exactly where a broken semi-naive
re-injection would under-derive.  One deterministic case exercises the
multiprocess runtimes' invalidate-and-recompute path (no warm network
to keep; every post-write query re-derives and must still agree).

The last property drives the serving layer's write path: random
interleavings of writes (duplicate, empty and irrelevant batches
included) and reads over several hot keys, where every served answer,
every answer-cache entry a write carried or extended, and every wire
render must equal a fresh evaluation of the facts so far.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import seminaive
from repro.core.parser import parse_program
from repro.service import SharedSession
from repro.service.protocol import rows_to_wire
from repro.service.server import QueryServer
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
    # rule's inner recursion, answers can grow non-locally per delta.
    "samegen": (
        "sg(X, Y) <- e(X, U), e(Y, U).\n"
        "sg(X, Y) <- e(X, U), sg(U, V), e(Y, V).",
        "sg(0, Z)",
    ),
}

edge = st.tuples(st.integers(0, 6), st.integers(0, 6))
edges = st.lists(edge, min_size=1, max_size=10)

COMMON = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def facts_text(batch):
    return " ".join(f"e({a}, {b})." for a, b in batch)


def cold_answers(rules, committed, query):
    cold = Session(rules)
    if committed:
        cold.add_facts(facts_text(committed))
    return cold.query(query)


class TestWarmRefreshDifferential:
    @settings(**COMMON)
    @given(
        shape=st.sampled_from(sorted(SHAPES)),
        initial=edges,
        batches=st.lists(edges, min_size=1, max_size=4),
    )
    def test_materialization_tracks_cold_session_and_baseline(
        self, shape, initial, batches
    ):
        rules, query = SHAPES[shape]
        session = Session(rules + "\n" + facts_text(initial))
        mat = session.materialize(query)
        assert mat.answers == cold_answers(rules, initial, query)
        committed = list(initial)
        for batch in batches:
            session.add_facts(facts_text(batch))
            committed.extend(batch)
            mat.refresh()
            expected = cold_answers(rules, committed, query)
            assert mat.answers == expected, (
                f"{shape}: warm refresh diverged after {len(committed)} edges"
            )
            baseline = seminaive.evaluate(session.program_for(query)).answers()
            assert mat.answers == baseline, (
                f"{shape}: warm refresh disagrees with semi-naive baseline"
            )

    @settings(**COMMON)
    @given(
        shape=st.sampled_from(sorted(SHAPES)),
        initial=edges,
        batches=st.lists(edges, min_size=1, max_size=3),
    )
    def test_serving_layer_refresh_tracks_cold_session(
        self, shape, initial, batches
    ):
        rules, query = SHAPES[shape]
        shared = SharedSession(
            rules + "\n" + facts_text(initial), materialize=True
        )
        shared.query(query)  # warm the pool
        committed = list(initial)
        for batch in batches:
            shared.add_facts(facts_text(batch))
            committed.extend(batch)
            outcome = shared.query_detailed(query)
            # The write-path refresh re-stored the entry at the new
            # version — served without evaluation, and still correct.
            assert outcome.answer_cached, f"{shape}: hot entry was purged"
            expected = cold_answers(rules, committed, query)
            assert set(outcome.answers) == expected


class TestMultiprocessInvalidateAndRecompute:
    def test_pool_runtime_write_then_query_parity(self):
        rules, query = SHAPES["linear"]
        initial = [(0, 1), (1, 2), (4, 5)]
        shared = SharedSession(
            rules + "\n" + facts_text(initial),
            materialize=True,  # silently ignored: no warm network to keep
            runtime="pool",
            workers=2,
            timeout=60,
        )
        assert shared.query(query) == cold_answers(rules, initial, query)
        committed = list(initial)
        for batch in [[(2, 3)], [(3, 0), (5, 6)]]:
            shared.add_facts(facts_text(batch))
            committed.extend(batch)
            outcome = shared.query_detailed(query)
            assert not outcome.materialized and not outcome.answer_cached
            assert set(outcome.answers) == cold_answers(
                rules, committed, query
            )
            # The recomputed answers re-populate the cache at the new version.
            assert shared.query_detailed(query).answer_cached


# ----------------------------------------------------------------------
# The serving layer's write path: carried and extended answer-cache entries
# ----------------------------------------------------------------------
HOT_RULES = SHAPES["linear"][0] + "\nlabel(X, L) <- tag(X, L)."
HOT_QUERIES = ("t(0, Z)", "t(1, Z)", "t(2, Z)", "t(X, 3)", "label(0, L)")

#: A write: edges (duplicates of earlier ones included by the small domain),
#: an empty batch, or facts no hot query can reach.
write = st.one_of(
    st.lists(edge, min_size=0, max_size=5).map(facts_text),
    st.lists(st.integers(0, 3), min_size=1, max_size=2).map(
        lambda xs: " ".join(f"unrelated({x})." for x in xs)
    ),
    st.tuples(st.integers(0, 2), st.sampled_from("ab")).map(
        lambda t: f"tag({t[0]}, {t[1]})."
    ),
)
step = st.one_of(
    st.tuples(st.just("write"), write),
    st.tuples(st.just("read"), st.sampled_from(HOT_QUERIES)),
)


def baseline_answers(committed_text, query):
    program = parse_program(f"{HOT_RULES}\n{committed_text}\n?- {query}.")
    return seminaive.evaluate(program).answers()


class TestServedAnswersThroughCarryAndExtend:
    @settings(**COMMON)
    @given(initial=edges, steps=st.lists(step, min_size=4, max_size=14))
    def test_every_served_answer_and_render_equals_a_fresh_evaluation(
        self, initial, steps
    ):
        committed = facts_text(initial)
        shared = SharedSession(HOT_RULES + "\n" + committed, materialize=True)
        cache = shared.answer_cache
        warm = {}  # query -> graph-cache key, once it has been read

        def check_read(query):
            outcome = shared.query_detailed(query)
            expected = baseline_answers(committed, query)
            assert set(outcome.answers) == expected, query
            # What the server would put on the wire for this outcome.
            assert QueryServer._wire_answers(outcome) == rows_to_wire(expected)
            warm[query] = shared.session.cache_key_for(query)
            return outcome

        for kind, payload in steps:
            if kind == "read":
                check_read(payload)
                continue
            version = shared.db_version
            shared.add_facts(payload)
            committed += "\n" + payload
            if shared.db_version == version:
                continue  # the empty batch: nothing was committed
            for query, key in warm.items():
                entry = cache._lru._entries.get((key, shared.db_version))
                assert entry is not None, f"{query}: hot entry lost by the write"
                expected = baseline_answers(committed, query)
                assert entry.answers == expected, query
                if "wire" in entry.renders:
                    assert entry.renders["wire"] == rows_to_wire(expected), query
            assert cache.nbytes == sum(
                e.nbytes + e.render_nbytes for e in cache._lru._entries.values()
            )
        for query in warm:
            assert check_read(query).answer_cached
        stats = shared.stats()["materialized"]
        assert stats["answer_refreshes"] >= stats["answers_carried"] + stats["answers_extended"]
        assert stats["noop_refreshes"] <= stats["delta_refreshes"]
