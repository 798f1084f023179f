"""Unit coverage for the one bounded LRU (``repro.cache.BoundedCache``)."""

import pytest

from repro import GraphCache
from repro.cache import BoundedCache


def evicted_log():
    log = []
    return log, lambda key, value: log.append((key, value))


class TestBoundedCache:
    def test_graph_cache_is_the_shared_class(self):
        assert GraphCache is BoundedCache

    def test_zero_capacity_disables(self):
        log, hook = evicted_log()
        cache = BoundedCache(0, max_bytes=100, on_evict=hook)
        cache.put("a", "A", 10)
        assert cache.get("a") is None and len(cache) == 0 and "a" not in cache
        assert cache.bytes == 0 and log == []
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size, stats.capacity) == (0, 1, 0, 0)

    def test_negative_bounds_are_rejected(self):
        with pytest.raises(ValueError):
            BoundedCache(-1)
        with pytest.raises(ValueError):
            BoundedCache(1, max_bytes=-1)

    def test_evicts_least_recently_used_past_the_entry_bound(self):
        cache = BoundedCache(3)
        for key in "abc":
            cache.put(key, key.upper())
        assert cache.get("a") == "A"  # a is now the most recent
        assert cache.peek("b") == "B"  # a peek does not refresh b
        cache.put("d", "D")
        assert list(cache.keys()) == ["c", "a", "d"]
        cache.put("c", "C2")  # a re-put refreshes and replaces
        cache.put("e", "E")
        assert list(cache.keys()) == ["d", "c", "e"]
        assert cache.get("c") == "C2"
        stats = cache.stats()
        assert (stats.evictions, stats.size, stats.hits, stats.misses) == (2, 3, 2, 0)

    def test_put_admits_then_evicts_older_entries_to_the_byte_bound(self):
        cache = BoundedCache(10, max_bytes=100)
        cache.put("a", "A", 40)
        cache.put("b", "B", 40)
        cache.put("c", "C", 40)  # 120 > 100: the oldest goes, c stays
        assert list(cache.keys()) == ["b", "c"] and cache.bytes == 80
        cache.put("huge", "H", 1000)  # larger than the bound: admitted alone
        assert list(cache.keys()) == ["huge"] and cache.bytes == 1000
        cache.put("d", "D", 10)  # the next put evicts it
        assert list(cache.keys()) == ["d"] and cache.bytes == 10
        assert cache.stats().evictions == 4

    def test_charge_past_the_byte_bound_may_evict_the_charged_entry(self):
        cache = BoundedCache(10, max_bytes=100)
        cache.put("a", "A", 30)
        cache.put("b", "B", 30)
        cache.charge("b", 50)  # 110 > 100: the colder entry goes first
        assert list(cache.keys()) == ["b"] and cache.bytes == 80
        cache.charge("b", 30)  # alone and still over: the charged entry goes
        assert len(cache) == 0 and cache.bytes == 0
        cache.charge("b", 5)  # charging what is not resident is a no-op
        assert cache.bytes == 0 and cache.stats().evictions == 2

    def test_on_evict_runs_once_per_evicted_entry(self):
        log, hook = evicted_log()
        cache = BoundedCache(2, max_bytes=100, on_evict=hook)
        for key in "abcd":
            cache.put(key, key.upper(), 10)
        assert log == [("a", "A"), ("b", "B")]
        cache.put("big", "BIG", 95)
        assert log[2:] == [("c", "C"), ("d", "D")]
        # Explicit removals are the caller's business, not evictions.
        assert cache.pop("big") == "BIG" and cache.pop("big") is None
        cache.put("x", "X", 1)
        assert cache.clear() == 1
        assert len(log) == 4 == cache.stats().evictions
        assert cache.stats().invalidations == 1 and cache.bytes == 0

    def test_items_is_a_snapshot_in_recency_order(self):
        cache = BoundedCache(4)
        for key in "abc":
            cache.put(key, key.upper())
        cache.get("a")
        items = cache.items()
        for key, _ in items:
            cache.pop(key)  # mutating while walking the snapshot is safe
        assert items == [("b", "B"), ("c", "C"), ("a", "A")] and len(cache) == 0

    def test_concurrent_puts_charges_and_pops_keep_the_books_exact(self):
        import sys
        import threading

        evicted = []
        cache = BoundedCache(6, max_bytes=200, on_evict=lambda k, v: evicted.append(k))
        interval = sys.getswitchinterval()

        def hammer(worker):
            for i in range(3000):
                key = (worker * 5 + i) % 11
                if i % 7 == 0:
                    cache.pop(key)
                elif cache.get(key) is None:
                    cache.put(key, key, 10 + key * 3)
                else:
                    cache.charge(key, 4)

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert cache.bytes == sum(cache._sizes.values()) <= cache.max_bytes
        assert set(cache._sizes) == set(cache.keys()) and len(cache) <= 6
        assert len(evicted) == cache.stats().evictions > 0
