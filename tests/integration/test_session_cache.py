"""Session-level caching: graph reuse, invalidation, atomicity, accounting."""

import pytest

from repro.core.atoms import atom
from repro.core.program import ProgramError
from repro.network.engine import MessagePassingEngine
from repro.session import Session

KB = """
anc(X, Y) <- par(X, Y).
anc(X, Y) <- par(X, U), anc(U, Y).
par(ann, bob).  par(bob, cal).  par(cal, dee).
"""

ANSWERS = {("bob",), ("cal",), ("dee",)}


@pytest.fixture
def session():
    return Session(KB)


class TestGraphCacheHits:
    def test_first_query_misses_then_hits(self, session):
        assert session.query("anc(ann, Z)") == ANSWERS
        assert session.last_result.graph_cache_hit is False
        assert session.query("anc(ann, Z)") == ANSWERS
        assert session.last_result.graph_cache_hit is True
        stats = session.cache_stats()
        assert stats.hits == 1 and stats.misses == 1 and stats.size == 1

    def test_hit_reuses_the_same_graph_object(self, session):
        session.query("anc(ann, Z)")
        first_graph = session.last_result.graph
        session.query("anc(ann, Z)")
        assert session.last_result.graph is first_graph

    def test_variant_query_hits_despite_renamed_variable(self, session):
        answers = session.query("anc(ann, Z)")
        assert session.query("anc(ann, W)") == answers
        assert session.last_result.graph_cache_hit is True

    def test_different_constant_misses(self, session):
        # A constant equal to no rule constant is a parameter of the query's
        # shape: anc(bob, Z) runs on anc(ann, Z)'s graph, bound to bob.
        assert session.query("anc(ann, Z)") == ANSWERS
        graph = session.last_result.graph
        assert session.query("anc(bob, Z)") == {("cal",), ("dee",)}
        assert session.last_result.graph_cache_hit is True
        assert session.last_result.graph is graph
        assert session.cache_stats().size == 1
        # The value key still tells them apart (coalescing, answer cache).
        assert session.cache_key_for("anc(ann, Z)") != session.cache_key_for(
            "anc(bob, Z)"
        )

    def test_rule_constant_keeps_its_own_graph(self):
        session = Session(KB + "firstborn(X) <- par(ann, X).")
        assert session.query("anc(bob, Z)") == {("cal",), ("dee",)}
        assert session.query("anc(cal, Z)") == {("dee",)}
        assert session.last_result.graph_cache_hit is True
        # ann occurs in a rule, so it selects rules: a literal, not a parameter.
        assert session.query("anc(ann, Z)") == ANSWERS
        assert session.last_result.graph_cache_hit is False
        assert session.prepare("anc(ann, Z)").bindings == ()
        assert session.cache_stats().size == 2

    def test_equal_constants_share_one_parameter(self):
        session = Session("t(X, Y) <- e(X, Y). e(17, 17). e(17, 18). e(18, 19).")
        assert session.query("t(17, 17)") == {()}
        assert session.query("t(17, 18)") == {()}
        assert session.last_result.graph_cache_hit is False  # another shape
        assert session.cache_stats().size == 2
        assert session.query("t(18, 18)") == set()  # t(17, 17)'s shape
        assert session.last_result.graph_cache_hit is True
        assert session.query("t(18, 19)") == {()}  # t(17, 18)'s shape
        assert session.last_result.graph_cache_hit is True
        assert session.prepare("t(17, 17)").bindings == (17,)
        assert session.prepare("t(17, 18)").bindings == (17, 18)

    def test_add_rules_constant_gets_its_own_graph(self, session):
        session.query("anc(ann, Z)")
        assert session.query("anc(bob, Z)") == {("cal",), ("dee",)}
        assert session.last_result.graph_cache_hit is True
        session.add_rules("heir(X) <- anc(bob, X).")
        assert session.query("anc(ann, Z)") == ANSWERS
        assert session.last_result.graph_cache_hit is False  # flushed
        # bob is a rule constant now: its key no longer shares ann's graph.
        assert session.query("anc(bob, Z)") == {("cal",), ("dee",)}
        assert session.last_result.graph_cache_hit is False
        assert session.cache_stats().size == 2
        assert session.query("heir(Z)") == {("cal",), ("dee",)}

    def test_different_adornment_misses(self, session):
        session.query("anc(ann, Z)")  # cf
        session.query("anc(X, Y)")  # ff
        assert session.last_result.graph_cache_hit is False

    def test_conjunctive_variant_signature(self, session):
        answers = session.query("anc(ann, Z), par(Z, dee)")
        assert session.query("anc(ann, Q), par(Q, dee)") == answers
        assert session.last_result.graph_cache_hit is True
        # Breaking the shared-variable pattern is a different query.
        session.query("anc(ann, Q), par(R, dee)")
        assert session.last_result.graph_cache_hit is False

    def test_cache_disabled_with_size_zero(self):
        session = Session(KB, graph_cache_size=0)
        session.query("anc(ann, Z)")
        session.query("anc(ann, Z)")
        assert session.last_result.graph_cache_hit is False
        stats = session.cache_stats()
        assert stats.hits == 0 and stats.size == 0

    def test_coalesced_sessions_cache_too(self):
        session = Session(KB, coalesce=True)
        assert session.query("anc(ann, Z)") == ANSWERS
        assert session.query("anc(ann, Z)") == ANSWERS
        assert session.last_result.graph_cache_hit is True

    def test_repeated_queries_skip_graph_construction(self, monkeypatch):
        import repro.session as session_module

        calls = []
        original = session_module.plan_graph

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(session_module, "plan_graph", counting)
        session = Session(KB)
        for _ in range(5):
            assert session.query("anc(ann, Z)") == ANSWERS
        assert len(calls) == 1


class TestInvalidation:
    def test_add_rules_flushes_graph_cache(self, session):
        session.query("anc(ann, Z)")
        assert session.cache_stats().size == 1
        session.add_rules("sib(X, Y) <- par(P, X), par(P, Y).")
        assert session.cache_stats().size == 0
        session.query("anc(ann, Z)")
        assert session.last_result.graph_cache_hit is False

    def test_add_facts_keeps_graph_and_refreshes_answers(self, session):
        session.query("anc(ann, Z)")
        cached_graph = session.last_result.graph
        session.add_facts([atom("par", "dee", "eli")])
        answers = session.query("anc(ann, Z)")
        assert answers == ANSWERS | {("eli",)}
        assert session.last_result.graph_cache_hit is True
        assert session.last_result.graph is cached_graph

    def test_add_facts_grows_shared_database_incrementally(self, session):
        db = session.database
        session.query("anc(ann, Z)")
        before = len(db.relation("par"))
        session.add_facts([atom("par", "dee", "eli")])
        assert session.database is db  # same object, not a rebuild
        assert len(db.relation("par")) == before + 1

    def test_lru_eviction_under_small_capacity(self):
        # Three shapes (constants of one shape would share one graph).
        session = Session(KB, graph_cache_size=2)
        session.query("anc(ann, Z)")
        session.query("anc(X, Y)")
        session.query("anc(Z, dee)")  # evicts the anc(ann, Z) graph
        stats = session.cache_stats()
        assert stats.evictions == 1 and stats.size == 2
        session.query("anc(ann, Z)")  # rebuilt: it was evicted
        assert session.last_result.graph_cache_hit is False
        session.query("anc(Z, cal)")  # recent shape is still cached
        assert session.last_result.graph_cache_hit is True


class TestAtomicMutation:
    def test_add_rules_failure_leaves_session_unchanged(self, session):
        rules_before = session.rules
        facts_before = session.facts
        db_rows_before = session.database.total_rows()
        with pytest.raises(ProgramError):
            session.add_rules("bad(X, Y) <- par(X, X). extra(a, b).")
        assert session.rules == rules_before
        assert session.facts == facts_before  # the 'extra' fact did not leak
        assert session.database.total_rows() == db_rows_before
        assert "extra" not in session.database

    def test_add_rules_failure_keeps_graph_cache(self, session):
        session.query("anc(ann, Z)")
        with pytest.raises(ProgramError):
            session.add_rules("bad(X, Y) <- par(X, X).")
        session.query("anc(ann, Z)")
        assert session.last_result.graph_cache_hit is True

    def test_add_rules_with_facts_commits_both(self, session):
        session.add_rules("lives(ann, york).")
        assert session.ask("lives(ann, york)")
        assert "lives" in session.database

    def test_add_facts_rejects_idb_predicate(self, session):
        with pytest.raises(ProgramError):
            session.add_facts([atom("anc", "x", "y")])
        assert "anc" not in session.database

    def test_add_facts_rejects_nonground_batch_atomically(self, session):
        from repro.core.atoms import Atom
        from repro.core.terms import Variable

        bad = Atom("par", (Variable("X"), Variable("Y")))
        before = session.database.total_rows()
        with pytest.raises(ProgramError):
            session.add_facts([atom("par", "dee", "eli"), bad])
        assert session.database.total_rows() == before
        assert ("dee",) not in session.query("par(X, eli)")

    def test_add_facts_arity_mismatch_is_atomic(self, session):
        before = session.database.total_rows()
        with pytest.raises(ValueError):
            session.add_facts([atom("par", "x", "y"), atom("par", "z")])
        assert session.database.total_rows() == before

    def test_add_facts_accepts_program_text(self, session):
        session.add_facts("par(dee, eli).  par(eli, fay).")
        assert ("fay",) in session.query("anc(ann, Z)")

    def test_add_facts_rejects_rules_in_text(self, session):
        before = session.database.total_rows()
        with pytest.raises(ProgramError, match="facts only"):
            session.add_facts("par(dee, eli).  anc(X, Y) <- par(Y, X).")
        assert session.database.total_rows() == before


class TestPerQueryAccounting:
    def test_db_counters_are_per_query_deltas(self, session):
        session.query("anc(ann, Z)")
        first = session.last_result
        session.query("anc(ann, Z)")
        second = session.last_result
        # Identical queries do identical database work; cumulative counters
        # would make the second result roughly double the first.
        assert (second.db_scans, second.db_indexed_lookups, second.db_rows_retrieved) == (
            first.db_scans,
            first.db_indexed_lookups,
            first.db_rows_retrieved,
        )
        assert first.db_indexed_lookups + first.db_scans > 0

    def test_session_database_counters_accumulate(self, session):
        session.query("anc(ann, Z)")
        after_one = session.database.counters()
        session.query("anc(ann, Z)")
        after_two = session.database.counters()
        assert after_two > after_one

    def test_cache_stats_surfaced_in_result_and_summary(self, session):
        session.query("anc(ann, Z)")
        result = session.last_result
        assert result.cache_stats is not None
        assert result.cache_stats.misses == 1
        assert "graph cache: miss" in result.summary()
        session.query("anc(ann, Z)")
        assert "graph cache: hit" in session.last_result.summary()


class TestCacheCorrectness:
    """Cached graphs must never change answers — spot-check across modes."""

    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"coalesce": True}, {"package_requests": True}],
        ids=["default", "coalesce", "package"],
    )
    def test_cached_equals_uncached_answers(self, kwargs):
        cached = Session(KB, **kwargs)
        uncached = Session(KB, graph_cache_size=0, **kwargs)
        queries = ["anc(ann, Z)", "anc(X, dee)", "anc(X, Y)", "anc(ann, Z)"]
        for query in queries:
            assert cached.query(query) == uncached.query(query)
        assert cached.last_result.graph_cache_hit is True

    def test_seeded_queries_reuse_graph(self, session):
        baseline = session.query("anc(ann, Z)")
        for seed in range(3):
            assert session.query("anc(ann, Z)", seed=seed) == baseline
            assert session.last_result.graph_cache_hit is True


class TestShapeRenders:
    """A shape graph renders its bound values, exactly as a value graph."""

    def test_shape_hit_renders_like_a_fresh_session(self):
        warm = Session(KB, provenance=True)
        warm.query("anc(ann, Z)")
        assert warm.query("anc(bob, Z)") == {("cal",), ("dee",)}
        hit = warm.last_result
        assert hit.graph_cache_hit is True and hit.bindings == ("bob",)
        fresh = Session(KB, provenance=True)
        fresh.query("anc(bob, Z)")
        # The graph built from the query's own values, with no parameters.
        engine = MessagePassingEngine(fresh.program_for("anc(bob, Z)"), provenance=True)
        by_value = engine.run()
        assert by_value.bindings == ()
        for other in (fresh.last_result, by_value):
            assert hit.tuples_by_node == other.tuples_by_node
            assert hit.node_table(top=100) == other.node_table(top=100)
        assert "anc(bob^c, Ans0^f)" in hit.node_table() and "$" not in hit.node_table()
        proof = warm.explain(("dee",)).render()
        assert proof == fresh.explain(("dee",)).render()
        assert proof == engine.explain(("dee",)).render()
        assert "par(bob, cal)   [EDB fact]" in proof and "$" not in proof


class TestGraphCacheThreadSafety:
    """The LRU is shared across serving threads; counters must stay exact."""

    def test_concurrent_get_put_preserve_counter_invariants(self):
        import threading

        from repro.cache import GraphCache

        cache = GraphCache(capacity=8)
        lookups_per_thread = 2000

        def hammer(worker):
            for i in range(lookups_per_thread):
                key = (worker * 7 + i) % 16  # 16 keys over 8 slots: evictions
                if cache.get(key) is None:
                    cache.put(key, ("graph", key))

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
            assert not t.is_alive()
        stats = cache.stats()
        assert stats.hits + stats.misses == 8 * lookups_per_thread
        assert stats.size <= stats.capacity
        assert len(list(cache.keys())) == stats.size

    def test_concurrent_clear_never_corrupts(self):
        import threading

        from repro.cache import GraphCache

        cache = GraphCache(capacity=4)
        stop = threading.Event()

        def reader_writer():
            i = 0
            while not stop.is_set():
                cache.put(i % 6, i)
                cache.get((i + 1) % 6)
                i += 1

        def clearer():
            for _ in range(50):
                cache.clear()
            stop.set()

        threads = [threading.Thread(target=reader_writer) for _ in range(4)]
        threads.append(threading.Thread(target=clearer))
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
            assert not t.is_alive()
        stats = cache.stats()
        assert stats.size <= stats.capacity
        assert stats.invalidations >= 0  # snapshot is internally consistent
