"""Tests for the two-level memories: the sequential machine
(repro.machine.cache) and the engine's memory + disk artifact cache
(repro.engine.cache.EngineCache.get_or_build)."""

import numpy as np
import pytest

from repro.engine.cache import EngineCache, cache_key
from repro.machine.cache import FastMemory, streamed_add_cost


class TestCapacity:
    def test_rejects_nonpositive_m(self):
        with pytest.raises(ValueError):
            FastMemory(0)

    def test_load_counts_words_and_messages(self):
        fm = FastMemory(100)
        fm.new_slow("a", 40)
        fm.load("a")
        assert fm.counter.words_read == 40
        assert fm.counter.messages_read == 1

    def test_double_load_is_free(self):
        fm = FastMemory(100)
        fm.new_slow("a", 40)
        fm.load("a")
        fm.load("a")
        assert fm.counter.words_read == 40

    def test_overflow_raises(self):
        fm = FastMemory(10)
        fm.new_slow("a", 8)
        fm.new_slow("b", 8)
        fm.load("a")
        with pytest.raises(MemoryError, match="overflow"):
            fm.load("b")

    def test_peak_tracking(self):
        fm = FastMemory(100)
        fm.new_slow("a", 60)
        fm.load("a")
        fm.free("a")
        fm.new_slow("b", 30)
        fm.load("b")
        assert fm.peak_used == 60
        assert fm.used == 30

    def test_available(self):
        fm = FastMemory(50)
        fm.alloc_fast("x", 20)
        assert fm.available == 30


class TestDirtyProtocol:
    def test_store_required_before_free(self):
        fm = FastMemory(100)
        fm.alloc_fast("c", 10)
        with pytest.raises(RuntimeError, match="dirty"):
            fm.free("c")

    def test_discard_allows_dropping_scratch(self):
        fm = FastMemory(100)
        fm.alloc_fast("c", 10)
        fm.free("c", discard=True)
        assert fm.used == 0

    def test_store_then_free_ok(self):
        fm = FastMemory(100)
        fm.alloc_fast("c", 10)
        fm.store("c")
        fm.free("c")
        assert fm.counter.words_written == 10

    def test_store_nonresident_raises(self):
        fm = FastMemory(100)
        fm.new_slow("a", 10)
        with pytest.raises(RuntimeError, match="non-resident"):
            fm.store("a")

    def test_touch_dirty_requires_residency(self):
        fm = FastMemory(100)
        fm.new_slow("a", 10)
        with pytest.raises(RuntimeError):
            fm.touch_dirty("a")

    def test_contains_reflects_residency(self):
        fm = FastMemory(100)
        fm.new_slow("a", 10)
        assert "a" not in fm
        fm.load("a")
        assert "a" in fm


class TestRegions:
    def test_duplicate_name_rejected(self):
        fm = FastMemory(100)
        fm.new_slow("a", 10)
        with pytest.raises(ValueError, match="already exists"):
            fm.new_slow("a", 5)

    def test_drop_releases_capacity(self):
        fm = FastMemory(100)
        fm.alloc_fast("a", 40)
        fm.drop("a")
        assert fm.used == 0

    def test_negative_size_rejected(self):
        fm = FastMemory(100)
        with pytest.raises(ValueError):
            fm.new_slow("a", -1)


class TestStreaming:
    def test_stream_words_exact(self):
        fm = FastMemory(1000)
        fm.stream(read_sizes=[100, 100], write_sizes=[100])
        assert fm.counter.words_read == 200
        assert fm.counter.words_written == 100

    def test_stream_message_chunking(self):
        fm = FastMemory(30)
        # 3 streams -> chunk = 10; 100 words = 10 messages per stream
        fm.stream(read_sizes=[100, 100], write_sizes=[100])
        assert fm.counter.messages_read == 20
        assert fm.counter.messages_written == 10

    def test_stream_remainder_message(self):
        fm = FastMemory(20)
        fm.stream(read_sizes=[25], write_sizes=[])
        # chunk = 20 -> messages of 20 + 5
        assert fm.counter.messages_read == 2
        assert fm.counter.words_read == 25

    def test_stream_empty_noop(self):
        fm = FastMemory(10)
        fm.stream(read_sizes=[], write_sizes=[])
        assert fm.counter.words == 0

    def test_streamed_add_cost_formula(self):
        assert streamed_add_cost(100, 3) == 400


class TestBulkCounters:
    """read_many/write_many must tally exactly like a loop of read/write."""

    def test_bulk_matches_loop(self):
        from repro.machine.counters import IOCounter

        loop, bulk = IOCounter(), IOCounter()
        for _ in range(7):
            loop.read(13)
            loop.write(5)
        bulk.read_many(7, 13)
        bulk.write_many(7, 5)
        assert (loop.words_read, loop.messages_read) == (
            bulk.words_read,
            bulk.messages_read,
        )
        assert (loop.words_written, loop.messages_written) == (
            bulk.words_written,
            bulk.messages_written,
        )

    def test_bulk_zero_is_free(self):
        from repro.machine.counters import IOCounter

        c = IOCounter()
        c.read_many(0, 10)
        c.read_many(10, 0)
        c.write_many(0, 10)
        assert c.words == 0 and c.messages == 0

    def test_bulk_negative_rejected(self):
        import pytest as _pytest

        from repro.machine.counters import IOCounter

        c = IOCounter()
        with _pytest.raises(ValueError):
            c.read_many(-1, 5)
        with _pytest.raises(ValueError):
            c.write_many(1, -5)

    def test_stream_charging_matches_message_model(self):
        # 25 words in chunks of 10 -> messages of 10, 10, 5 (closed form)
        fm = FastMemory(10)
        fm.stream(read_sizes=[25], write_sizes=[], chunk=10)
        assert fm.counter.messages_read == 3
        assert fm.counter.words_read == 25


class TestGetOrBuildTiers:
    """EngineCache.get_or_build looks in memory, then on disk, then builds."""

    KEY = cache_key("tier-test", None, n=1)

    @staticmethod
    def encode(obj):
        return {"values": obj}

    @staticmethod
    def decode(data):
        return data["values"]

    @staticmethod
    def build():
        return np.arange(5, dtype=np.int64)

    def test_cold_lookup_builds_and_stores_once(self, tmp_path):
        cache = EngineCache(tmp_path)
        got = cache.get_or_build(self.KEY, self.build, self.encode, self.decode)
        assert np.array_equal(got, np.arange(5))
        assert cache.stats.builds == 1
        assert cache.stats.stores == 1
        assert len(list(tmp_path.glob("*/*.npz"))) == 1

    def test_same_instance_hits_memory_without_building(self, tmp_path):
        cache = EngineCache(tmp_path)
        first = cache.get_or_build(self.KEY, self.build, self.encode, self.decode)
        second = cache.get_or_build(
            self.KEY, lambda: pytest.fail("must not build"), self.encode, self.decode
        )
        assert second is first
        assert cache.stats.builds == 1
        assert cache.stats.hits == 1

    def test_fresh_instance_decodes_from_disk(self, tmp_path):
        EngineCache(tmp_path).get_or_build(self.KEY, self.build, self.encode, self.decode)
        fresh = EngineCache(tmp_path)
        got = fresh.get_or_build(
            self.KEY, lambda: pytest.fail("must not build"), self.encode, self.decode
        )
        assert np.array_equal(got, np.arange(5))
        assert fresh.stats.builds == 0
        assert fresh.stats.stores == 0
        assert fresh.stats.hits == 1  # the disk tier; memory was cold

    def test_truncated_bundle_is_rebuilt_and_never_decoded(self, tmp_path):
        EngineCache(tmp_path).get_or_build(self.KEY, self.build, self.encode, self.decode)
        (path,) = tmp_path.glob("*/*.npz")
        path.write_bytes(path.read_bytes()[:20])
        fresh = EngineCache(tmp_path)
        got = fresh.get_or_build(
            self.KEY, self.build, self.encode, lambda data: pytest.fail("decoded a bad file")
        )
        assert np.array_equal(got, np.arange(5))
        assert fresh.stats.builds == 1
        assert fresh.stats.stores == 1
        # the rebuild rewrote a whole bundle
        again = EngineCache(tmp_path).get_or_build(
            self.KEY, lambda: pytest.fail("must not build"), self.encode, self.decode
        )
        assert np.array_equal(again, np.arange(5))
