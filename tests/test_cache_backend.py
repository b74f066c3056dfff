"""Tests for the pluggable cache-backend layer (repro.pipeline.backend).

The contract under test: MemoryBackend speaks the exact envelope the
disk backend writes (so corruption and version skew degrade to misses,
never errors), open_backend maps spec strings to shared instances, and
— the PR-4 regression class — every cache-like object is truthy even
when empty.
"""

import sys
import threading

import pytest

from repro import Toolchain, audio_core
from repro.arch import ExploreCache
from repro.pipeline import (
    CacheBackend,
    DiskCache,
    MemoryBackend,
    StageCache,
    backend_stats,
    open_backend,
)
from repro.pipeline import diskcache
from repro.pipeline.backend import _MEMORY_BACKENDS

SOURCE = """
app backend;
param k = 0.5;
input i; output o;
state s(1);
loop {
  s = i;
  m := mlt(k, s@1);
  o = add_clip(m, i);
}
"""


class TestProtocol:
    def test_both_backends_satisfy_the_protocol(self, tmp_path):
        assert isinstance(MemoryBackend(), CacheBackend)
        assert isinstance(DiskCache(tmp_path), CacheBackend)

    def test_stagecache_accepts_any_backend(self):
        backend = MemoryBackend()
        cache = StageCache(disk=backend)
        toolchain = Toolchain(audio_core(), cache=cache, budget=64)
        first = toolchain.compile(SOURCE)
        assert backend.keys()  # stages were published
        # A cold memory tier over the same backend restores everything.
        warm = Toolchain(audio_core(), cache=StageCache(disk=backend),
                         budget=64)
        state = warm.run_pipeline(SOURCE)
        assert all(state.cache_hits.values())
        assert state.as_compiled().binary.words == first.binary.words


class TestTruthiness:
    """bool(empty cache) is True — the PR-4 `cache or default` bug class.

    Every cache-like object defines __len__, so without an explicit
    __bool__ an *empty* one is falsy and `cache or Default()` silently
    replaces a caller's shared instance.  Pinned here for all four.
    """

    def test_empty_stage_cache_is_true(self):
        assert bool(StageCache()) is True
        assert len(StageCache()) == 0

    def test_empty_explore_cache_is_true(self):
        assert bool(ExploreCache()) is True
        assert len(ExploreCache()) == 0

    def test_empty_disk_cache_is_true(self, tmp_path):
        assert bool(DiskCache(tmp_path)) is True
        assert len(DiskCache(tmp_path)) == 0

    def test_empty_memory_backend_is_true(self):
        assert bool(MemoryBackend()) is True
        assert len(MemoryBackend()) == 0


class TestMemoryBackend:
    def test_roundtrip(self):
        backend = MemoryBackend()
        schema = {"x": 1}
        backend.put("k" * 64, {"x": [1, 2, 3]}, schema)
        assert backend.get("k" * 64, schema) == {"x": [1, 2, 3]}
        assert backend.stats.hits == 1 and backend.stats.stores == 1

    def test_miss_is_none(self):
        backend = MemoryBackend()
        assert backend.get("absent") is None
        assert backend.stats.misses == 1

    def test_corrupt_entry_degrades_to_miss(self):
        backend = MemoryBackend()
        backend._entries["bad"] = (b"not an envelope", 0.0)
        assert backend.get("bad") is None
        assert backend.stats.corrupt == 1
        assert "bad" not in backend.keys()  # dropped, not retried forever

    def test_version_skew_degrades_to_miss(self, monkeypatch):
        backend = MemoryBackend()
        backend.put("skewed", {"x": 1}, {"x": 1})
        monkeypatch.setattr(diskcache, "PIPELINE_VERSION", 999)
        assert backend.get("skewed", {"x": 1}) is None
        assert backend.stats.version_skips == 1

    def test_unpicklable_store_degrades(self):
        backend = MemoryBackend()
        backend.put("gen", (n for n in range(3)))  # generators don't pickle
        assert backend.stats.write_errors == 1
        assert backend.keys() == []

    def test_size_bound_evicts_at_put(self):
        backend = MemoryBackend(max_bytes=1)
        backend.put("a", {"pad": "x" * 100})
        backend.put("b", {"pad": "y" * 100})
        # The bound is enforced at put time (no entry fits under 1 byte).
        assert backend.size_bytes() <= 1
        assert backend.stats.evictions >= 1

    def test_delete(self):
        backend = MemoryBackend()
        backend.put("a", {"x": 1})
        assert backend.delete("a") is True
        assert backend.delete("a") is False

    def test_running_size_matches_the_stored_envelopes(self, monkeypatch):
        """``size_bytes`` is a running total kept on every mutation,
        not a scan; it must equal the sum of the stored envelopes
        after any mix of them."""
        def stored() -> int:
            return sum(len(blob) for blob, _ in backend._entries.values())

        one = len(diskcache.serialize({"pad": "x" * 100}, {}))
        backend = MemoryBackend(max_bytes=6 * one)
        steps = [
            lambda: backend.put("a", {"pad": "x" * 100}),
            lambda: backend.put("b", {"pad": "y" * 300}),
            lambda: backend.put("a", {"pad": "z" * 10}),       # overwrite
            lambda: backend.put("c", {"pad": "w" * 100}),
            lambda: backend.put("d", {"pad": "v" * 400}),      # evicts
            lambda: backend.delete("c"),
            lambda: backend.gc(one),
            lambda: backend.put("e", {"pad": "u" * 50}),
            lambda: backend.put("f", {"pad": "t" * 50}),
            lambda: backend.verify(),
            lambda: backend.clear(),
            lambda: backend.put("g", {"pad": "s" * 20}),
        ]
        for step in steps:
            step()
            assert backend.size_bytes() == stored()
        assert backend.stats.evictions >= 2
        # Entries dropped on read (version skew) leave the total too.
        monkeypatch.setattr(diskcache, "PIPELINE_VERSION", 999)
        assert backend.get("g") is None
        assert backend.size_bytes() == stored() == 0

    def test_running_size_survives_concurrent_traffic(self):
        """Threads racing puts, overwrites, reads, deletes and gc on
        shared keys: no update to the byte total may be lost."""
        backend = MemoryBackend(max_bytes=4000)
        keys = [f"k{i}" for i in range(6)]

        def hammer(seed: int) -> None:
            for step in range(300):
                key = keys[(seed + step) % len(keys)]
                action = (seed * 7 + step) % 5
                if action < 2:
                    backend.put(key, {"pad": "x" * ((seed + step) % 90)})
                elif action == 2:
                    backend.get(key)
                elif action == 3:
                    backend.delete(key)
                else:
                    backend.gc(2000)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(n,))
                       for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert backend.size_bytes() == sum(
            len(blob) for blob, _ in backend._entries.values())


class TestGc:
    def test_gc_to_zero_empties_the_store(self):
        backend = MemoryBackend()
        for i in range(4):
            backend.put(f"k{i}", {"i": i})
        removed = backend.gc(0)
        assert removed == 4
        assert backend.keys() == []

    def test_min_age_protects_fresh_entries(self):
        backend = MemoryBackend()
        backend.put("fresh", {"x": 1})
        # Everything was stored milliseconds ago; an hour's min_age
        # means gc removes nothing even with a zero byte bound — this
        # is the in-flight-compile guard.
        assert backend.gc(0, min_age=3600.0) == 0
        assert backend.keys() == ["fresh"]

    def test_pinned_entries_survive(self):
        backend = MemoryBackend()
        backend.put("keep", {"x": 1})
        backend.put("drop", {"x": 2})
        removed = backend.gc(0, pinned=["keep"])
        assert removed == 1
        assert backend.keys() == ["keep"]

    def test_disk_gc_min_age_and_pinned(self, tmp_path):
        disk = DiskCache(tmp_path)
        disk.put("a" * 64, {"x": 1}, {"x": 1})
        disk.put("b" * 64, {"x": 2}, {"x": 2})
        assert disk.gc(0, min_age=3600.0) == 0
        assert disk.gc(0, pinned=["a" * 64]) == 1
        assert disk.keys() == ["a" * 64]
        assert disk.gc(0) == 1
        assert disk.keys() == []


class TestVerify:
    def test_clean_store(self):
        backend = MemoryBackend()
        backend.put("a", {"x": 1})
        report = backend.verify()
        assert report.checked == 1 and report.clean
        assert report.to_dict()["clean"] is True

    def test_corrupt_entries_reported_and_dropped(self):
        backend = MemoryBackend()
        backend.put("good", {"x": 1})
        backend._entries["bad"] = (b"\x00" * 16, 0.0)
        report = backend.verify()
        assert report.checked == 2
        assert report.corrupt == 1 and not report.clean
        assert report.dropped == ["bad"]
        assert backend.keys() == ["good"]

    def test_disk_verify_drops_truncated_entry(self, tmp_path):
        disk = DiskCache(tmp_path)
        disk.put("a" * 64, {"x": 1}, {"x": 1})
        victim = next(tmp_path.glob("objects/*/*.rpdc"))
        victim.write_bytes(victim.read_bytes()[:10])
        report = disk.verify()
        assert report.corrupt == 1
        assert disk.keys() == []


class TestOpenBackend:
    def test_path_spec_opens_disk(self, tmp_path):
        backend = open_backend(str(tmp_path / "store"))
        assert isinstance(backend, DiskCache)

    def test_memory_spec_is_shared_by_name(self):
        _MEMORY_BACKENDS.pop("t-shared", None)
        a = open_backend("memory:t-shared")
        b = open_backend("memory:t-shared")
        assert a is b
        a.put("k", {"x": 1})
        assert b.get("k") == {"x": 1}

    def test_bare_memory_scheme_names_default(self):
        assert open_backend("memory:") is open_backend("memory:default")

    def test_distinct_names_are_distinct_stores(self):
        _MEMORY_BACKENDS.pop("t-one", None)
        _MEMORY_BACKENDS.pop("t-two", None)
        assert open_backend("memory:t-one") is not open_backend(
            "memory:t-two")

    def test_toolchain_accepts_memory_spec_as_cache_dir(self):
        _MEMORY_BACKENDS.pop("t-toolchain", None)
        toolchain = Toolchain(audio_core(), budget=64,
                              cache_dir="memory:t-toolchain")
        compiled = toolchain.compile(SOURCE)
        backend = open_backend("memory:t-toolchain")
        assert backend.keys()
        warm = Toolchain(audio_core(), budget=64,
                         cache_dir="memory:t-toolchain")
        state = warm.run_pipeline(SOURCE)
        assert all(state.cache_hits.values())
        assert state.as_compiled().binary.words == compiled.binary.words


class TestBackendStats:
    def test_memory_stats_shape(self):
        backend = MemoryBackend(name="t-stats")
        backend.put("k", {"x": 1})
        payload = backend_stats(backend)
        assert payload["backend"] == "MemoryBackend"
        assert payload["entries"] == 1
        assert payload["bytes"] > 0
        assert payload["location"] == "t-stats"
        assert payload["session"]["stores"] == 1

    def test_disk_stats_shape(self, tmp_path):
        disk = DiskCache(tmp_path)
        disk.put("a" * 64, {"x": 1}, {"x": 1})
        payload = backend_stats(disk)
        assert payload["backend"] == "DiskCache"
        assert payload["entries"] == 1
        assert payload["location"] == str(tmp_path)


class TestExploreCacheBackend:
    def test_explore_cache_over_memory_backend(self):
        cache = ExploreCache(disk=open_backend("memory:t-explore"))
        assert bool(cache) is True
