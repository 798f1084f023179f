"""Serving-layer view maintenance: warm pools, delta-refreshed cache.

Pins the tentpole serving contract: with ``materialize=True`` the
shared session keeps a bounded pool of warm networks keyed by the
Theorem 2.1 cache key, repeat queries are answered by semi-naive
refresh instead of re-evaluation, and a committed write *re-stores* hot
answer-cache entries under the new ``db_version`` rather than purging
them.  Also pins the satellite bugfix: one parse per served request.
"""

import threading

import repro.session as session_module
from repro.service import SharedSession
from repro.service.protocol import rows_to_wire
from repro.service.server import QueryServer
from repro.session import Session

BASE = """
anc(X, Y) <- par(X, Y).
anc(X, Y) <- par(X, U), anc(U, Y).
par(ann, bob).  par(bob, cal).  par(cal, dee).
"""


def run_threads(n, fn):
    errors = []
    results = [None] * n

    def wrap(i):
        try:
            results[i] = fn(i)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=wrap, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
        assert not t.is_alive(), "worker thread wedged"
    if errors:
        raise errors[0]
    return results


class TestOneParsePerRequest:
    def test_query_detailed_parses_exactly_once(self, monkeypatch):
        shared = SharedSession(BASE)
        counter = {"parses": 0}
        real = session_module._parse_query_atoms

        def counting(query):
            counter["parses"] += 1
            return real(query)

        monkeypatch.setattr(session_module, "_parse_query_atoms", counting)
        shared.query_detailed("anc(ann, Z)")
        assert counter["parses"] == 1
        # The answer-cache hit path must not parse more than once either.
        shared.query_detailed("anc(ann, Z)")
        assert counter["parses"] == 2

    def test_materialized_path_parses_exactly_once(self, monkeypatch):
        shared = SharedSession(BASE, materialize=True)
        counter = {"parses": 0}
        real = session_module._parse_query_atoms

        def counting(query):
            counter["parses"] += 1
            return real(query)

        monkeypatch.setattr(session_module, "_parse_query_atoms", counting)
        shared.query_detailed("anc(ann, Z)")
        assert counter["parses"] == 1


class TestWarmPool:
    def test_first_query_materializes_then_serves_from_cache(self):
        shared = SharedSession(BASE, materialize=True)
        first = shared.query_detailed("anc(ann, Z)")
        assert first.materialized and not first.answer_cached
        repeat = shared.query_detailed("anc(ann, Z)")
        assert repeat.answer_cached
        assert shared.stats()["materialized"]["materializations"] == 1

    def test_write_refreshes_hot_entry_instead_of_purging(self):
        shared = SharedSession(BASE, materialize=True)
        shared.query("anc(ann, Z)")
        shared.add_facts("par(dee, eve).")
        outcome = shared.query_detailed("anc(ann, Z)")
        # Pre-tentpole this was a forced miss + full re-evaluation.
        assert outcome.answer_cached
        assert ("eve",) in {tuple(r) for r in outcome.answers}
        stats = shared.stats()
        assert stats["materialized"]["delta_refreshes"] == 1
        assert stats["materialized"]["answer_refreshes"] == 1

    def test_refreshed_answers_match_cold_session(self):
        shared = SharedSession(BASE, materialize=True)
        shared.query("anc(ann, Z)")
        writes = ["par(dee, eve).", "par(eve, fay).", "par(cal, ann)."]
        for batch in writes:
            shared.add_facts(batch)
            warm = shared.query("anc(ann, Z)")
            cold = Session(BASE)
            for committed in writes[: writes.index(batch) + 1]:
                cold.add_facts(committed)
            assert warm == cold.query("anc(ann, Z)")

    def test_cold_keys_fall_back_to_invalidation(self):
        shared = SharedSession(BASE, materialize=True, materialize_pool=1)
        shared.query("anc(ann, Z)")  # warm
        shared.query("anc(bob, Z)")  # evicts ann's network (pool=1)
        shared.add_facts("par(dee, eve).")
        hot = shared.query_detailed("anc(bob, Z)")
        assert hot.answer_cached  # refreshed across the write
        cold = shared.query_detailed("anc(ann, Z)")
        assert not cold.answer_cached  # invalidated, re-materialized
        assert cold.materialized
        assert ("eve",) in {tuple(r) for r in cold.answers}

    def test_pool_is_bounded_lru(self):
        shared = SharedSession(BASE, materialize=True, materialize_pool=2)
        for q in ("anc(ann, Z)", "anc(bob, Z)", "anc(cal, Z)"):
            shared.query(q)
        assert shared.stats()["materialized"]["pool_size"] == 2

    def test_eviction_closes_exactly_the_lru_network(self, monkeypatch):
        # No answer cache: every query reaches the warm pool.
        shared = SharedSession(
            BASE, materialize=True, materialize_pool=2, answer_cache_size=0
        )
        built = {}
        materialize = shared.session.materialize

        def spy(prepared):
            built[str(prepared.atoms[0])] = mat = materialize(prepared)
            return mat

        monkeypatch.setattr(shared.session, "materialize", spy)
        for q in ("anc(ann, Z)", "anc(bob, Z)", "anc(ann, Z)", "anc(cal, Z)"):
            shared.query(q)
        assert list(built) == ["anc(ann, Z)", "anc(bob, Z)", "anc(cal, Z)"]
        assert [mat.closed for mat in built.values()] == [False, True, False]
        assert shared.stats()["materialized"]["pool_size"] == 2
        assert shared.query_detailed("anc(ann, Z)").materialized

    def test_add_rules_invalidates_pool_then_rematerializes(self):
        shared = SharedSession(BASE, materialize=True)
        shared.query("anc(ann, Z)")
        shared.add_rules("anc2(X, Y) <- anc(X, Y).")
        assert shared.stats()["materialized"]["pool_size"] == 0
        outcome = shared.query_detailed("anc(ann, Z)")
        assert outcome.materialized and not outcome.answer_cached
        assert outcome.answers == frozenset({("bob",), ("cal",), ("dee",)})

    def test_facts_only_add_rules_keeps_networks_warm(self):
        shared = SharedSession(BASE, materialize=True)
        shared.query("anc(ann, Z)")
        shared.add_rules("par(dee, eve).")
        outcome = shared.query_detailed("anc(ann, Z)")
        assert outcome.answer_cached
        assert ("eve",) in {tuple(r) for r in outcome.answers}

    def test_materialize_ignored_for_multiprocess_runtime(self):
        shared = SharedSession(BASE, materialize=True, runtime="pool")
        assert shared.stats()["materialized"] == {"enabled": False}

    def test_concurrent_readers_and_writer_stay_consistent(self):
        shared = SharedSession(BASE, materialize=True)
        shared.query("anc(ann, Z)")
        barrier = threading.Barrier(7, timeout=10)

        def writer(_):
            barrier.wait()
            shared.add_facts("par(dee, eve). par(eve, fay).")
            return None

        def reader(_):
            barrier.wait()
            return shared.query_detailed("anc(ann, Z)")

        results = run_threads(
            7, lambda i: writer(i) if i == 0 else reader(i)
        )
        final = shared.query("anc(ann, Z)")
        cold = Session(BASE)
        cold.add_facts("par(dee, eve). par(eve, fay).")
        assert final == cold.query("anc(ann, Z)")
        before = frozenset({("bob",), ("cal",), ("dee",)})
        for outcome in results[1:]:
            # Every reader sees either the pre- or post-write fixpoint.
            assert outcome.answers in (before, frozenset(final))

    def test_variant_queries_share_one_warm_network(self):
        shared = SharedSession(BASE, materialize=True)
        shared.query("anc(ann, Z)")
        shared.query("anc(ann, W)")  # same Theorem 2.1 key
        assert shared.stats()["materialized"]["materializations"] == 1


class TestWritesMoveEntriesForward:
    """A write carries unchanged hot entries and extends grown ones."""

    def warm(self, *queries):
        shared = SharedSession(BASE, materialize=True)
        for query in queries:
            QueryServer._wire_answers(shared.query_detailed(query))  # as a server would
        return shared

    def entry(self, shared, query):
        key = shared.session.cache_key_for(query)
        return shared.answer_cache._lru._entries.get((key, shared.db_version))

    def test_unreached_entry_is_carried_with_its_render(self):
        shared = self.warm("anc(ann, Z)", "anc(X, bob)")
        up = self.entry(shared, "anc(X, bob)")
        rendered = up.renders["wire"]
        shared.add_facts("par(dee, eve).")  # below bob: anc(X, bob) gains nothing
        assert self.entry(shared, "anc(X, bob)") is up
        assert up.renders["wire"] is rendered and up.version == shared.db_version
        stats = shared.stats()["materialized"]
        assert stats["delta_refreshes"] == 2
        assert stats["noop_refreshes"] == 1
        assert (stats["answers_carried"], stats["answers_extended"]) == (1, 1)
        assert stats["answer_refreshes"] == 2

    def test_reached_entry_is_extended_and_its_render_merged(self):
        shared = self.warm("anc(ann, Z)")
        before = self.entry(shared, "anc(ann, Z)")
        sized = shared.answer_cache.stats().rows_sized
        shared.add_facts("par(dee, eve). par(aaa, bbb).")
        after = self.entry(shared, "anc(ann, Z)")
        assert after is not before and before.answers < after.answers
        assert after.renders["wire"] == rows_to_wire(after.answers)
        assert after.renders["wire"] == [["bob"], ["cal"], ["dee"], ["eve"]]
        assert shared.answer_cache.stats().rows_sized == sized + 1
        outcome = shared.query_detailed("anc(ann, Z)")
        assert outcome.answer_cached and outcome.cache_entry is after

    def test_writes_nothing_reaches_are_all_carries(self):
        shared = self.warm("anc(ann, Z)", "anc(bob, Z)", "anc(cal, Z)")
        for batch in ("other(1).", "par(zed, yan).", "par(ann, bob)."):
            shared.add_facts(batch)
        stats = shared.stats()
        assert stats["materialized"]["noop_refreshes"] == 9
        assert stats["materialized"]["answers_carried"] == 9
        assert stats["answer_cache"]["carried"] == 9
        assert stats["answer_cache"]["invalidations"] == 0
        for query in ("anc(ann, Z)", "anc(bob, Z)", "anc(cal, Z)"):
            assert shared.query_detailed(query).answer_cached

    def test_evicted_predecessor_falls_back_to_a_full_store(self):
        shared = SharedSession(BASE, materialize=True, answer_cache_size=1)
        shared.query("anc(ann, Z)")
        shared.query("anc(bob, Z)")  # evicts ann's entry; both networks stay warm
        shared.add_facts("par(dee, eve).")
        # ann has no predecessor; storing it afresh evicts bob's.
        stats = shared.stats()["materialized"]
        assert stats["answer_refreshes"] == 2
        assert stats["answers_carried"] + stats["answers_extended"] == 0
        assert shared.query("anc(ann, Z)") == {("bob",), ("cal",), ("dee",), ("eve",)}

    def test_counters_are_in_the_metrics_registry(self):
        shared = self.warm("anc(ann, Z)", "anc(X, bob)")
        shared.add_facts("par(dee, eve).")
        counters = shared.metrics.snapshot()["counters"]
        assert counters["noop_refreshes_total"] == 1
        assert counters["answers_carried_total"] == 1
        assert counters["answers_extended_total"] == 1

    def test_concurrent_writers_and_readers_keep_entries_exact(self):
        import sys

        shared = self.warm("anc(ann, Z)", "anc(bob, Z)", "anc(X, dee)")
        queries = ("anc(ann, Z)", "anc(bob, Z)", "anc(X, dee)")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def work(i):
                if i < 3:
                    for j in range(15):
                        shared.add_facts(f"par(dee, w{i}_{j}). par(w{i}_{j}, v{i}_{j}).")
                else:
                    for j in range(40):
                        outcome = shared.query_detailed(queries[j % 3])
                        wire = QueryServer._wire_answers(outcome)
                        assert wire == rows_to_wire(outcome.answers)
            run_threads(6, work)
        finally:
            sys.setswitchinterval(interval)
        cold = Session(BASE)
        cold.add_facts(shared.session.facts[3:])
        cache = shared.answer_cache
        for query in queries:
            outcome = shared.query_detailed(query)
            assert outcome.answer_cached and outcome.answers == cold.query(query)
            assert QueryServer._wire_answers(outcome) == rows_to_wire(outcome.answers)
        assert cache.nbytes == sum(
            e.nbytes + e.render_nbytes for e in cache._lru._entries.values()
        )
