"""Tests for the persistent tier (CacheBackend and its two media).

The contract under test: both media speak the exact envelope the disk
backend writes (so corruption and version skew degrade to misses,
never errors) through the one policy in CacheBackend, which the
``media`` fixture runs once per medium; open_backend maps spec strings
to shared instances, and every cache-like object is truthy even when
empty (an empty cache once lost to ``cache or Default()``).
"""

import sys
import threading

import pytest

from repro import Telemetry, Toolchain, audio_core, cli, use_telemetry
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


@pytest.fixture(params=["memory", "disk"])
def media(request, tmp_path):
    """A factory of backends on one medium, parametrized over both."""
    if request.param == "memory":
        return MemoryBackend
    return lambda **options: DiskCache(tmp_path, **options)


def stored_bytes(backend) -> int:
    """What the medium really holds, bypassing its running total."""
    if isinstance(backend, MemoryBackend):
        return sum(len(blob) for blob, _ in backend._entries.values())
    return sum(path.stat().st_size
               for path in backend.objects.glob("*/*.rpdc"))


def running_total(backend) -> int:
    """The running byte total that decides when a put evicts."""
    if isinstance(backend, MemoryBackend):
        return backend._bytes
    return backend._size_estimate


class TestCacheBackend:
    def test_both_media_are_cache_backends(self, tmp_path):
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


class TestBackend:
    def test_roundtrip(self, media):
        backend = media()
        schema = {"x": 1}
        backend.put("k" * 64, {"x": [1, 2, 3]}, schema)
        assert backend.get("k" * 64, schema) == {"x": [1, 2, 3]}
        assert backend.stats.hits == 1 and backend.stats.stores == 1

    def test_miss_is_none(self, media):
        backend = media()
        assert backend.get("absent") is None
        assert backend.stats.misses == 1

    def test_corrupt_entry_degrades_to_miss(self, media):
        backend = media()
        backend._write("bad", b"not an envelope")
        assert backend.get("bad") is None
        assert backend.stats.corrupt == 1
        assert "bad" not in backend.keys()  # dropped, not retried forever

    def test_drop_spares_an_entry_stored_during_the_read(self, media,
                                                         monkeypatch):
        """A read that finds a corrupt entry drops only that entry: a
        good one another thread stores while the read deserializes
        survives, and the next read hits it."""
        backend = media()
        backend._write("kk", b"not an envelope")
        real = diskcache.deserialize

        def racing(blob, *args, **kwargs):
            monkeypatch.setattr(diskcache, "deserialize", real)
            backend.put("kk", {"x": 1})
            return real(blob, *args, **kwargs)

        monkeypatch.setattr(diskcache, "deserialize", racing)
        assert backend.get("kk") is None
        assert backend.stats.corrupt == 1
        assert backend.get("kk") == {"x": 1}

    def test_version_skew_degrades_to_miss(self, media, monkeypatch):
        backend = media()
        backend.put("skewed", {"x": 1}, {"x": 1})
        monkeypatch.setattr(diskcache, "PIPELINE_VERSION", 999)
        assert backend.get("skewed", {"x": 1}) is None
        assert backend.stats.version_skips == 1
        assert backend.keys() == []

    def test_unpicklable_store_degrades(self, media):
        backend = media()
        backend.put("gen", (n for n in range(3)))  # generators don't pickle
        assert backend.stats.write_errors == 1
        assert backend.keys() == []

    def test_size_bound_evicts_at_put(self, media):
        backend = media(max_bytes=1)
        backend.put("a", {"pad": "x" * 100})
        backend.put("b", {"pad": "y" * 100})
        # The bound is enforced at put time (no entry fits under 1 byte).
        assert backend.size_bytes() <= 1
        assert backend.stats.evictions >= 1

    def test_delete(self, media):
        backend = media()
        backend.put("a", {"x": 1})
        assert backend.delete("a") is True
        assert backend.delete("a") is False

    def test_running_size_matches_the_stored_envelopes(self, media,
                                                       monkeypatch):
        """The running byte total is kept on every mutation, not
        scanned; it must equal the bytes the medium holds after any
        mix of them."""
        one = len(diskcache.serialize({"pad": "x" * 100}, {}))
        backend = media(max_bytes=6 * one)
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
            assert running_total(backend) == stored_bytes(backend)
        assert backend.stats.evictions >= 2
        # Entries dropped on read (version skew) leave the total too.
        monkeypatch.setattr(diskcache, "PIPELINE_VERSION", 999)
        assert backend.get("g") is None
        assert running_total(backend) == stored_bytes(backend) == 0

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
        assert running_total(backend) == stored_bytes(backend)


class TestByteCounters:
    def test_memory_compile_writes_its_envelopes_and_reads_them_back(
            self, monkeypatch):
        backend = MemoryBackend()
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            Toolchain(audio_core(), cache=StageCache(disk=backend),
                      budget=64).compile(SOURCE)
        envelopes = sum(len(blob) for blob, _ in backend._entries.values())
        # One envelope: the compile's one pack.
        assert telemetry.counters["diskcache.store"] == len(backend) == 1
        assert telemetry.counters["diskcache.bytes_written"] == envelopes
        assert telemetry.counters["diskcache.bytes_read"] == 0

        read: list[int] = []
        get = backend.get

        def recording_get(key, schema=None):
            read.append(len(backend._entries[key][0]))
            return get(key, schema)

        monkeypatch.setattr(backend, "get", recording_get)
        warm = Telemetry()
        with use_telemetry(warm):
            Toolchain(audio_core(), cache=StageCache(disk=backend),
                      budget=64).compile(SOURCE)
        assert warm.counters["diskcache.hit"] == len(read) == 1
        assert warm.counters["diskcache.bytes_read"] == sum(read)
        assert warm.counters["diskcache.bytes_written"] == 0

    def test_disk_counts_bytes_like_memory(self, tmp_path):
        disk, memory = DiskCache(tmp_path), MemoryBackend()
        counts = {}
        for backend in (disk, memory):
            telemetry = Telemetry()
            with use_telemetry(telemetry):
                backend.put("k", {"pad": "x" * 500})
                backend.get("k")
                backend.get("absent")
            counts[type(backend).__name__] = (
                telemetry.counters["diskcache.bytes_written"],
                telemetry.counters["diskcache.bytes_read"])
        size = disk.path_for("k").stat().st_size
        assert counts == {"DiskCache": (size, size),
                          "MemoryBackend": (size, size)}


class TestGc:
    def test_gc_to_zero_empties_the_store(self, media):
        backend = media()
        for i in range(4):
            backend.put(f"k{i}", {"i": i})
        removed = backend.gc(0)
        assert removed == 4
        assert backend.keys() == []

    def test_min_age_protects_fresh_entries(self, media):
        backend = media()
        backend.put("fresh", {"x": 1})
        # Everything was stored milliseconds ago; an hour's min_age
        # means gc removes nothing even with a zero byte bound — this
        # is the in-flight-compile guard.
        assert backend.gc(0, min_age=3600.0) == 0
        assert backend.keys() == ["fresh"]

    def test_pinned_entries_survive(self, media):
        backend = media()
        backend.put("keep", {"x": 1})
        backend.put("drop", {"x": 2})
        removed = backend.gc(0, pinned=["keep"])
        assert removed == 1
        assert backend.keys() == ["keep"]

    def test_bound_eviction_at_put_is_not_an_admin_gc(self, media):
        one = len(diskcache.serialize({"pad": "x" * 100}, {}))
        backend = media(max_bytes=3 * one)
        obs = Telemetry()
        with use_telemetry(obs):
            for i in range(5):
                backend.put(f"{i:02d}" + "0" * 62, {"pad": "x" * 100}, {})
        assert obs.counters["diskcache.eviction"] == 2
        assert "cache.gc_removed" not in obs.counters

    def test_cli_gc_counts_removed_entries(self, tmp_path, monkeypatch,
                                           capsys):
        disk = DiskCache(tmp_path)
        for key in ("a" * 64, "b" * 64):
            disk.put(key, {"x": 1}, {"x": 1})
        obs = Telemetry()
        monkeypatch.setattr(cli, "command_telemetry", lambda args: obs)
        assert cli.main(["cache", "gc", "--cache-dir", str(tmp_path),
                         "--max-bytes", "0"]) == 0
        assert "2 entries removed" in capsys.readouterr().out
        assert obs.counters["cache.gc_removed"] == 2
        assert obs.counters["diskcache.eviction"] == 2


class TestVerify:
    def test_clean_store(self, media):
        backend = media()
        backend.put("a", {"x": 1})
        report = backend.verify()
        assert report.checked == 1 and report.clean
        assert report.to_dict()["clean"] is True

    def test_unusable_entries_reported_and_dropped(self, media,
                                                   monkeypatch):
        backend = media()
        backend.put("good", {"x": 1}, {"x": 1})
        backend._write("bad", b"\x00" * 16)
        monkeypatch.setattr(diskcache, "FORMAT_VERSION", 2)
        backend._write("old", diskcache.serialize({"x": 1}))
        monkeypatch.undo()
        report = backend.verify()
        assert report.checked == 3
        assert report.corrupt == 1 and report.version_skew == 1
        assert not report.clean
        assert report.dropped == ["bad", "old"]
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
