"""The versioned answer cache: unit bounds + concurrency soundness.

Unit tests pin the LRU/byte-budget mechanics; the integration tests pin
the serving-layer contract from the issue: entries keyed by
``(graph_cache_key, db_version)`` never serve a pre-write answer set
after ``add_facts`` commits, even when the write interleaves with
concurrent evaluations of the same query.
"""

import threading
import time

import pytest

from repro.service import AnswerCache, SharedSession
from repro.service.answer_cache import estimate_answer_bytes
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


class TestAnswerCacheUnit:
    def test_get_miss_then_put_then_hit(self):
        cache = AnswerCache(capacity=4)
        answers = frozenset({("a",), ("b",)})
        assert cache.get("k", 0) is None
        cache.put("k", 0, answers, elapsed=0.25)
        entry = cache.get("k", 0)
        assert entry is not None and entry.answers == answers
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
        assert stats.seconds_saved == pytest.approx(0.25)

    def test_version_mismatch_is_a_miss(self):
        cache = AnswerCache(capacity=4)
        cache.put("k", 3, frozenset({("a",)}))
        assert cache.get("k", 4) is None  # post-write version: stale entry hidden
        assert cache.get("k", 2) is None

    def test_lru_eviction_by_count(self):
        cache = AnswerCache(capacity=2)
        for i in range(3):
            cache.put(f"k{i}", 0, frozenset({(i,)}))
        assert cache.get("k0", 0) is None  # oldest evicted
        assert cache.get("k2", 0) is not None
        assert cache.stats().evictions == 1

    def test_lookup_refreshes_recency(self):
        cache = AnswerCache(capacity=2)
        cache.put("k0", 0, frozenset({(0,)}))
        cache.put("k1", 0, frozenset({(1,)}))
        cache.get("k0", 0)  # k0 becomes most-recent
        cache.put("k2", 0, frozenset({(2,)}))
        assert cache.get("k0", 0) is not None
        assert cache.get("k1", 0) is None

    def test_byte_budget_evicts_and_oversized_sets_are_not_stored(self):
        small = frozenset({("x",)})
        big = frozenset({(f"row-{i}", i) for i in range(64)})
        budget = estimate_answer_bytes(big) + estimate_answer_bytes(small) // 2
        cache = AnswerCache(capacity=100, max_bytes=budget)
        cache.put("small", 0, small)
        cache.put("big", 0, big)  # over budget together: small is evicted
        assert cache.get("big", 0) is not None
        assert cache.get("small", 0) is None
        assert cache.stats().bytes <= budget
        # A single set larger than the whole budget is refused outright.
        tiny = AnswerCache(capacity=100, max_bytes=estimate_answer_bytes(big) - 1)
        assert tiny.put("big", 0, big) is None
        assert len(tiny) == 0

    def test_capacity_zero_disables(self):
        cache = AnswerCache(capacity=0)
        assert cache.put("k", 0, frozenset()) is None
        assert cache.get("k", 0) is None
        assert len(cache) == 0

    def test_purge_below_reclaims_only_stale_versions(self):
        cache = AnswerCache(capacity=8)
        cache.put("a", 1, frozenset({(1,)}))
        cache.put("b", 1, frozenset({(1,)}))
        cache.put("c", 2, frozenset({(2,)}))
        assert cache.purge_below(2) == 2
        assert cache.get("c", 2) is not None
        assert cache.stats().invalidations == 2
        assert cache.stats().entries == 1

    def test_clear_and_validation(self):
        cache = AnswerCache(capacity=8)
        cache.put("a", 0, frozenset({(1,)}))
        assert cache.clear() == 1
        assert len(cache) == 0 and cache.nbytes == 0
        with pytest.raises(ValueError):
            AnswerCache(capacity=-1)
        with pytest.raises(ValueError):
            AnswerCache(max_bytes=-1)


class TestSharedSessionAnswerCache:
    def test_repeat_query_is_served_without_evaluation(self):
        shared = SharedSession(BASE)
        evaluations = []
        original = shared.session.run_query

        def counting(query, seed=None):
            evaluations.append(query)
            return original(query, seed)

        shared.session.run_query = counting
        first = shared.query_detailed("anc(ann, Z)")
        second = shared.query_detailed("anc(ann, Z)")
        assert not first.answer_cached and second.answer_cached
        assert second.answers == first.answers
        assert second.db_version == first.db_version
        assert len(evaluations) == 1  # the repeat never reached evaluation
        assert shared.stats()["answer_cache"]["hits"] == 1

    def test_variant_query_shares_the_cached_answer(self):
        shared = SharedSession(BASE)
        shared.query("anc(ann, Z)")
        outcome = shared.query_detailed("anc(ann, W)")  # same Theorem 2.1 key
        assert outcome.answer_cached

    def test_write_invalidates_by_version(self):
        shared = SharedSession(BASE)
        before = shared.query_detailed("anc(ann, Z)")
        shared.add_facts("par(dee, eve).")
        after = shared.query_detailed("anc(ann, Z)")
        assert not after.answer_cached  # version bumped: stale entry unreachable
        assert after.db_version == before.db_version + 1
        assert after.answers > before.answers
        assert shared.stats()["answer_cache"]["invalidations"] >= 1
        # The post-write answer is itself cached under the new version.
        assert shared.query_detailed("anc(ann, Z)").answer_cached

    def test_disabled_cache_still_serves_correctly(self):
        shared = SharedSession(BASE, answer_cache_size=0)
        first = shared.query_detailed("anc(ann, Z)")
        second = shared.query_detailed("anc(ann, Z)")
        assert not second.answer_cached
        assert second.answers == first.answers
        assert shared.stats()["answer_cache"] is None

    def test_interleaved_writes_never_serve_pre_write_answers(self):
        """The issue's soundness matrix: concurrent readers vs add_facts.

        Readers hammer one query while a writer extends the chain.  After
        every commit the writer immediately re-queries: the answer must
        include the just-added edge (a version-stale cache entry would
        serve the pre-write set).  Reader results must always be a closed
        prefix, and post-write answers a superset of pre-write answers.
        """
        chain = "t(X, Y) <- e(X, Y). t(X, Y) <- t(X, U), e(U, Y). e(0, 1)."
        shared = SharedSession(chain)
        stop = threading.Event()
        post_commit = []

        def reader(_):
            seen = []
            while not stop.is_set():
                out = shared.query_detailed("t(0, Z)")
                seen.append((out.db_version, frozenset(out.answers)))
            return seen

        def writer(_):
            for nxt in range(2, 12):
                shared.add_facts(f"e({nxt - 1}, {nxt}).")
                out = shared.query_detailed("t(0, Z)")
                post_commit.append((nxt, frozenset(out.answers)))
                time.sleep(0.005)
            stop.set()
            return []

        results = run_threads(5, lambda i: writer(i) if i == 0 else reader(i))
        # Post-commit reads always include the just-committed edge.
        for nxt, answers in post_commit:
            assert (nxt,) in answers, f"stale answer served after adding edge {nxt}"
        # Reader observations are closed prefixes, monotone in db_version.
        valid = {frozenset((i,) for i in range(1, k + 1)) for k in range(1, 12)}
        by_version = {}
        for seen in results[1:]:
            for version, answers in seen:
                assert answers in valid
                assert by_version.setdefault(version, answers) == answers
        # Higher version => superset (monotone growth, never regression).
        ordered = sorted(by_version.items())
        for (_, a), (_, b) in zip(ordered, ordered[1:]):
            assert a <= b

    def test_concurrent_identical_repeats_all_hit(self):
        shared = SharedSession(BASE)
        shared.query("anc(ann, Z)")  # populate
        barrier = threading.Barrier(6, timeout=5)

        def client(_):
            barrier.wait()
            return shared.query_detailed("anc(ann, Z)")

        outcomes = run_threads(6, client)
        assert all(o.answer_cached for o in outcomes)
        assert shared.stats()["answer_cache"]["hits"] == 6

    def test_cached_answers_match_a_fresh_serial_session(self):
        shared = SharedSession(BASE)
        queries = ["anc(ann, Z)", "anc(bob, Z)", "anc(Q, dee)"]
        for q in queries:
            shared.query(q)
        serial = Session(BASE)
        for q in queries:
            assert shared.query(q) == serial.query(q), q


class TestRenderMemo:
    """`CachedAnswer.render`: race-free memoization + byte accounting."""

    def test_render_computes_once_and_memoizes(self):
        cache = AnswerCache(4, 1 << 20)
        entry = cache.put("k", 0, frozenset({(1,), (2,)}), 0.0)
        calls = []

        def compute(answers):
            calls.append(1)
            return sorted(answers)

        first = entry.render("wire", compute)
        second = entry.render("wire", compute)
        assert first is second
        assert len(calls) == 1

    def test_render_hammer_single_computation(self):
        """N threads racing on a cold memo -> exactly one computation."""
        cache = AnswerCache(4, 1 << 20)
        entry = cache.put("k", 0, frozenset((i,) for i in range(200)), 0.0)
        barrier = threading.Barrier(12, timeout=5)
        calls = []
        lock = threading.Lock()

        def compute(answers):
            with lock:
                calls.append(1)
            time.sleep(0.01)  # widen the old check-then-set race window
            return sorted(answers)

        def client(_):
            barrier.wait()
            return entry.render("wire", compute)

        rendered = run_threads(12, client)
        assert len(calls) == 1, "duplicate render under contention"
        assert all(r is rendered[0] for r in rendered)

    def test_render_kinds_are_independent(self):
        cache = AnswerCache(4, 1 << 20)
        entry = cache.put("k", 0, frozenset({(1,)}), 0.0)
        assert entry.render("wire", sorted) == [(1,)]
        assert entry.render("count", len) == 1

    def test_render_bytes_counted_against_budget(self):
        cache = AnswerCache(8, 1 << 20)
        entry = cache.put("k", 0, frozenset((i,) for i in range(100)), 0.0)
        base_bytes = cache.nbytes
        entry.render("wire", sorted)
        stats = cache.stats()
        assert stats.render_bytes > 0
        assert stats.bytes == base_bytes + stats.render_bytes

    def test_render_bytes_released_on_eviction_and_purge(self):
        cache = AnswerCache(2, 1 << 20)
        a = cache.put("a", 0, frozenset({(1,)}), 0.0)
        a.render("wire", sorted)
        cache.put("b", 0, frozenset({(2,)}), 0.0)
        cache.put("c", 0, frozenset({(3,)}), 0.0)  # evicts "a"
        assert ("a", 0) not in cache
        stats = cache.stats()
        assert stats.render_bytes == 0
        b = cache.put("b", 1, frozenset({(2,)}), 0.0)
        b.render("wire", sorted)
        cache.purge_below(2)
        assert cache.stats().render_bytes == 0
        assert cache.nbytes == 0 or len(cache) > 0

    def test_render_can_push_cache_over_budget_and_evict(self):
        row = tuple(range(64))
        answers = frozenset({row + (i,) for i in range(50)})
        nbytes = estimate_answer_bytes(answers)
        cache = AnswerCache(8, int(nbytes * 1.5))
        entry = cache.put("k", 0, answers, 0.0)
        # A render comparable in size to the answers blows the budget;
        # pre-fix the cache silently held ~2x max_bytes.
        entry.render("wire", lambda a: sorted(a))
        assert cache.nbytes <= cache.max_bytes

    def test_render_after_eviction_charges_nothing(self):
        cache = AnswerCache(1, 1 << 20)
        entry = cache.put("a", 0, frozenset({(1,)}), 0.0)
        cache.put("b", 0, frozenset({(2,)}), 0.0)  # evicts "a"
        entry.render("wire", sorted)  # caller still holds the entry
        assert cache.stats().render_bytes == 0

    def test_unstored_entry_renders_without_cache(self):
        cache = AnswerCache(0)  # disabled: put returns None
        assert cache.put("k", 0, frozenset({(1,)}), 0.0) is None
        from repro.service.answer_cache import CachedAnswer

        entry = CachedAnswer(frozenset({(1,)}), 0, 64, 0.0)
        assert entry.render("wire", sorted) == [(1,)]


def charged(cache):
    """What ``_bytes`` must equal: every resident entry plus its renders."""
    return sum(e.nbytes + e.render_nbytes for e in cache._lru._entries.values())


def wire(cache, key, version):
    from repro.service.protocol import merge_wire, rows_to_wire

    return cache.get(key, version).render("wire", rows_to_wire, merge_wire)


class TestCarryAndExtend:
    """Moving an entry across a write: same bytes, same renders, less work."""

    def test_carry_rekeys_the_same_entry_with_render_and_charge(self):
        cache = AnswerCache(8, 1 << 20)
        entry = cache.put("k", 3, frozenset((i,) for i in range(50)), 0.5)
        rendered = wire(cache, "k", 3)
        before = cache.stats()
        assert cache.carry("k", 3, 4) is entry
        assert entry.version == 4 and ("k", 3) not in cache
        assert cache.get("k", 4) is entry
        assert entry.render("wire", lambda rows: pytest.fail("re-rendered")) is rendered
        after = cache.stats()
        assert (after.bytes, after.render_bytes) == (before.bytes, before.render_bytes)
        assert (after.rows_sized, after.rows_rendered) == (50, 50)
        assert (after.carried, after.stores) == (1, 1)
        assert cache.nbytes == charged(cache)

    def test_carry_of_an_evicted_entry_reports_nothing_to_carry(self):
        cache = AnswerCache(1, 1 << 20)
        cache.put("a", 0, frozenset({(1,)}), 0.0)
        cache.put("b", 0, frozenset({(2,)}), 0.0)  # evicts "a"
        assert cache.carry("a", 0, 1) is None
        assert cache.carry("b", 0, 1) is not None
        assert len(cache) == 1 and cache.nbytes == charged(cache)

    def test_a_render_attached_after_the_carry_is_charged_to_the_new_slot(self):
        cache = AnswerCache(8, 1 << 20)
        entry = cache.put("k", 0, frozenset((i,) for i in range(20)), 0.0)
        cache.carry("k", 0, 1)
        entry.render("wire", sorted)  # a reader still holding the entry
        assert cache.stats().render_bytes == entry.render_nbytes > 0
        assert cache.nbytes == charged(cache)

    def test_extend_equals_a_fresh_store_and_touches_only_new_rows(self):
        from repro.service.protocol import rows_to_wire

        old_rows = frozenset((i, f"v{i}") for i in range(0, 200, 2))
        new_rows = [(i, f"v{i}") for i in (1, 77, 199, 500)]
        cache = AnswerCache(8, 1 << 20)
        cache.put("k", 0, old_rows, 0.25)
        old_wire = wire(cache, "k", 0)
        snapshot = list(old_wire)
        entry = cache.extend("k", 0, 1, new_rows)
        assert entry.answers == old_rows | set(new_rows)
        assert entry.renders["wire"] == rows_to_wire(entry.answers)
        assert old_wire == snapshot, "the predecessor's render was modified"
        assert ("k", 0) not in cache and cache.get("k", 1) is entry
        stats = cache.stats()
        assert (stats.rows_sized, stats.rows_rendered) == (100 + 4, 100 + 4)
        assert (stats.extended, stats.stores) == (1, 1)
        assert entry.elapsed == 0.25
        assert cache.nbytes == charged(cache)
        # The incremental charges agree with measuring the result whole.
        fresh = AnswerCache(8, 1 << 20)
        fresh.put("k", 1, entry.answers, 0.0)
        wire(fresh, "k", 1)
        assert abs(cache.nbytes - fresh.nbytes) <= 0.02 * fresh.nbytes

    def test_extend_with_nothing_new_is_a_carry(self):
        cache = AnswerCache(8, 1 << 20)
        entry = cache.put("k", 0, frozenset({(1,), (2,)}), 0.0)
        assert cache.extend("k", 0, 1, [(1,)]) is entry
        assert cache.stats().carried == 1 and cache.stats().extended == 0

    def test_extend_without_a_predecessor_or_past_the_budget_stores_nothing(self):
        rows = frozenset((i,) for i in range(100))
        cache = AnswerCache(8, estimate_answer_bytes(rows) + 64)
        assert cache.extend("k", 0, 1, [(1,)]) is None
        cache.put("k", 0, rows, 0.0)
        assert cache.extend("k", 0, 1, [(i,) for i in range(100, 200)]) is None
        assert len(cache) == 0 and cache.nbytes == 0

    def test_extend_can_evict_colder_entries_and_stays_balanced(self):
        rows = frozenset((i,) for i in range(100))
        cache = AnswerCache(8, int(estimate_answer_bytes(rows) * 2.5))
        cache.put("cold", 0, rows, 0.0)
        cache.put("hot", 0, rows, 0.0)
        assert cache.extend("hot", 0, 1, [(i,) for i in range(100, 160)]) is not None
        assert ("cold", 0) not in cache and cache.stats().evictions == 1
        assert cache.nbytes == charged(cache) <= cache.max_bytes

    def test_render_without_a_merge_is_dropped_by_extend_not_kept_stale(self):
        cache = AnswerCache(8, 1 << 20)
        cache.put("k", 0, frozenset({(1,), (2,)}), 0.0).render("count", len)
        entry = cache.extend("k", 0, 1, [(3,)])
        assert "count" not in entry.renders and entry.render_nbytes == 0
        assert entry.render("count", len) == 3
        assert cache.nbytes == charged(cache)

    def test_purge_below_reclaims_only_what_was_not_moved_forward(self):
        cache = AnswerCache(16, 1 << 20)
        for key in "abcd":
            cache.put(key, 0, frozenset({(key,)}), 0.0)
            wire(cache, key, 0)
        cache.carry("a", 0, 1)
        cache.extend("b", 0, 1, [("b2",)])
        assert cache.purge_below(1) == 2
        assert sorted(k for k, _ in cache._lru._entries) == ["a", "b"]
        assert set(cache._by_version) == {1}
        assert cache.purge_below(1) == 0
        stats = cache.stats()
        assert stats.invalidations == 2
        assert stats.bytes == charged(cache)
        assert stats.render_bytes == sum(
            e.render_nbytes for e in cache._lru._entries.values()
        )

    def test_accounting_survives_a_long_mixed_history(self):
        import random

        rng = random.Random(7)
        cache = AnswerCache(6, 40_000)
        version = 0
        for step in range(400):
            key = rng.choice("abcdefgh")
            op = rng.random()
            if op < 0.3:
                cache.put(key, version, frozenset((rng.randrange(500),) for _ in range(30)), 0.0)
            elif op < 0.5 and (key, version) in cache:
                wire(cache, key, version)
            elif op < 0.7:
                cache.carry(key, version - 1, version)
            elif op < 0.9:
                cache.extend(key, version - 1, version, [(1000 + step,), (2000 + step,)])
            else:
                version += 1
                if rng.random() < 0.5:
                    cache.purge_below(version - 1)
            assert cache.nbytes == charged(cache)
            assert cache.stats().render_bytes == sum(
                e.render_nbytes for e in cache._lru._entries.values()
            )
            assert sum(map(len, cache._by_version.values())) == len(cache)
            assert all(e._slot == slot for slot, e in cache._lru._entries.items())
