"""Tests for the persistent stage cache and batched compiles.

The load-bearing guarantees: a second process restores every stage from
disk (zero stage-body executions, bit-identical binary), a bad entry is
a miss and never a crash, version skew invalidates instead of
deserializing nonsense, concurrent writers on one directory are safe,
and the store honors its size bound.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import pickle

import pytest

from repro import Q15, Toolchain, audio_core, run_reference
from repro.pipeline import (
    STAGE_EXECUTIONS,
    STAGE_NAMES,
    DiskCache,
    StageCache,
)
from repro.pipeline import diskcache
from repro.pipeline.diskcache import deserialize, serialize

SOURCE = """
app opts;
param k = 0.5;
input i; output o;
state s(1);
loop {
  s = i;
  m := mlt(k, s@1);
  o = add_clip(m, i);
}
"""

VARIANT = SOURCE.replace("0.5", "0.25")


def stimulus():
    return {"i": [Q15.from_float(v) for v in (0.5, -0.25, 0.125, 0.0, 0.9)]}


def toolchain_on(cache_dir, core=None, disk_options=None, **options) -> Toolchain:
    """A fresh toolchain over ``cache_dir`` — an empty memory tier plus
    the shared store, which is exactly what a new process starts with."""
    disk = DiskCache(cache_dir, **(disk_options or {}))
    return Toolchain(core if core is not None else audio_core(),
                     cache=StageCache(disk=disk), **options)


def format3_envelope(payload: bytes, names) -> bytes:
    """An envelope as format 3 wrote it: the stream bytes pickled, the
    header naming the version of each artifact ``names`` lists."""
    payload = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    header = json.dumps({
        "format": 3,
        "pipeline": diskcache.PIPELINE_VERSION,
        "schema": dict.fromkeys(names, 1),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }, sort_keys=True, separators=(",", ":")).encode()
    return diskcache._MAGIC + len(header).to_bytes(4, "little") + header \
        + payload


class TestEnvelope:
    def test_roundtrip(self):
        obj = {"dfg": [1, 2, 3], "binary": ("words", 42)}
        assert deserialize(serialize(obj)) == obj

    def test_bytes_are_the_payload_as_they_are(self):
        """A snapshot pack is stored as it is, not pickled again."""
        pack = bytes(range(256)) * 4
        blob = serialize(pack)
        assert blob.endswith(pack)
        assert len(blob) - len(pack) < 300
        assert deserialize(blob) == pack

    def test_corruption_rejected(self):
        blob = serialize({"x": 1})
        flipped = blob[:-1] + bytes([blob[-1] ^ 0xFF])
        with pytest.raises(diskcache.CacheEntryError):
            deserialize(flipped)
        with pytest.raises(diskcache.CacheEntryError):
            deserialize(b"not an entry at all")
        with pytest.raises(diskcache.CacheEntryError):
            deserialize(blob[: len(blob) // 2])

    def test_non_object_header_rejected(self):
        # Valid JSON but not an object: still corruption, never a crash.
        header = b"[1, 2]"
        blob = diskcache._MAGIC + len(header).to_bytes(4, "little") + header
        with pytest.raises(diskcache.CacheEntryError):
            deserialize(blob)

    def test_non_object_schema_rejected(self):
        """A header field this code no longer reads (the artifact schema
        of older envelopes), even malformed, never crashes a read."""
        import json as json_module

        header = json_module.dumps({
            "format": diskcache.FORMAT_VERSION,
            "pipeline": diskcache.PIPELINE_VERSION,
            "schema": [1, 2],
            "payload_sha256": "0" * 64,
        }).encode()
        blob = diskcache._MAGIC + len(header).to_bytes(4, "little") + header
        with pytest.raises(diskcache.CacheEntryError):
            deserialize(blob)


class TestSecondProcess:
    """The acceptance criterion: warm cross-process compiles do no
    stage work and reproduce the binary bit for bit."""

    def test_zero_stage_executions_and_bit_identical_binary(self, tmp_path):
        first = toolchain_on(tmp_path, budget=64).compile(SOURCE)

        before = dict(STAGE_EXECUTIONS)
        state = toolchain_on(tmp_path, budget=64).run_pipeline(SOURCE)
        executed = {
            name: STAGE_EXECUTIONS[name] - before.get(name, 0)
            for name in STAGE_NAMES
        }
        assert executed == {name: 0 for name in STAGE_NAMES}
        assert all(state.cache_hits[name] for name in STAGE_NAMES)
        assert all(state.cache_sources[name] == "disk"
                   for name in STAGE_NAMES)

        second = state.as_compiled()
        assert second.binary.words == first.binary.words
        assert second.binary.rom_words == first.binary.rom_words
        assert second.run(stimulus()) == run_reference(second.dfg, stimulus())

    def test_different_request_still_executes(self, tmp_path):
        toolchain_on(tmp_path, budget=64).compile(SOURCE)
        state = toolchain_on(tmp_path, budget=64).run_pipeline(VARIANT)
        assert not any(state.cache_hits.values())

    def test_partial_compile_resumes_across_processes(self, tmp_path):
        toolchain_on(tmp_path, budget=64,
                     stop_after="schedule").run_pipeline(SOURCE)
        state = toolchain_on(tmp_path, budget=64).run_pipeline(SOURCE)
        assert all(state.cache_sources[name] == "disk"
                   for name in STAGE_NAMES[:6])
        assert not state.cache_hits["regalloc"]

    def test_memory_tier_hydrated_from_disk(self, tmp_path):
        toolchain_on(tmp_path, budget=64).compile(SOURCE)
        toolchain = toolchain_on(tmp_path, budget=64)
        toolchain.compile(SOURCE)
        state = toolchain.run_pipeline(SOURCE)
        # Second compile with the same toolchain: served from memory,
        # not re-read from disk.
        assert all(src == "memory" for src in state.cache_sources.values())
        assert toolchain.cache.stats.disk_hits == len(STAGE_NAMES)


class TestCorruptionTolerance:
    def test_corrupted_entry_is_a_miss(self, tmp_path):
        toolchain_on(tmp_path, budget=64).compile(SOURCE)
        disk = DiskCache(tmp_path)
        for path in sorted(disk.objects.glob("*/*.rpdc")):
            path.write_bytes(b"garbage" * 100)
        state = toolchain_on(tmp_path, budget=64).run_pipeline(SOURCE)
        assert not any(state.cache_hits.values())
        assert state.as_compiled().binary.words

    def test_corrupt_entries_are_dropped_and_counted(self, tmp_path):
        disk = DiskCache(tmp_path)
        disk.put("ab" * 32, {"x": 1})
        path = disk.path_for("ab" * 32)
        path.write_bytes(b"\x00\x01\x02")
        assert disk.get("ab" * 32) is None
        assert disk.stats.corrupt == 1
        assert not path.exists()
        # The dropped entry cannot fail twice: now a plain miss.
        assert disk.get("ab" * 32) is None
        assert disk.stats.corrupt == 1

    def test_truncated_entry_is_a_miss(self, tmp_path):
        disk = DiskCache(tmp_path)
        disk.put("cd" * 32, {"x": list(range(1000))})
        path = disk.path_for("cd" * 32)
        path.write_bytes(path.read_bytes()[:-20])
        assert disk.get("cd" * 32) is None
        assert disk.stats.corrupt == 1


class TestUnwritableStore:
    def test_unwritable_directory_degrades_to_uncached(self, tmp_path):
        """A broken cache must not break the compiler: writes are
        counted and dropped, the compile succeeds cold.

        The cache root sits below a regular *file*, so every mkdir
        fails with NotADirectoryError — unlike permission bits, that
        holds even when the suite runs as root.
        """
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        disk = DiskCache(blocker / "cache")
        toolchain = Toolchain(audio_core(), cache=StageCache(disk=disk),
                              budget=64)
        compiled = toolchain.compile(SOURCE)
        assert compiled.run(stimulus()) == \
            run_reference(compiled.dfg, stimulus())
        assert disk.stats.write_errors == 1  # the compile's one pack
        assert disk.stats.stores == 0

    def test_unpicklable_object_degrades_too(self, tmp_path):
        disk = DiskCache(tmp_path)
        disk.put("ee" * 32, {"bad": lambda: None})
        assert disk.stats.write_errors == 1
        assert disk.stats.stores == 0
        assert disk.get("ee" * 32) is None


class TestVersioning:
    def test_pipeline_version_skew_invalidates(self, tmp_path, monkeypatch):
        toolchain_on(tmp_path, budget=64).compile(SOURCE)
        monkeypatch.setattr(diskcache, "PIPELINE_VERSION", 999)
        disk = DiskCache(tmp_path)
        state = Toolchain(audio_core(), cache=StageCache(disk=disk),
                          budget=64).run_pipeline(SOURCE)
        assert not any(state.cache_hits.values())
        assert disk.stats.version_skips > 0

    def test_entries_holding_the_artifact_dict_are_version_skips(
            self, tmp_path, monkeypatch):
        """Entries from before stage snapshots were stored serialized
        (format 1: the envelope pickled the artifact dict itself) never
        restore; every stage runs and the binary is unchanged."""
        reference = Toolchain(audio_core(), cache=StageCache(),
                              budget=64).run_pipeline(SOURCE)
        monkeypatch.setattr(diskcache, "FORMAT_VERSION", 1)
        old = DiskCache(tmp_path)
        for key in reference.fingerprints.values():
            old.put(key, reference.artifacts)
        monkeypatch.undo()
        disk = DiskCache(tmp_path)
        state = Toolchain(audio_core(), cache=StageCache(disk=disk),
                          budget=64).run_pipeline(SOURCE)
        assert not any(state.cache_hits.values())
        # Only the parse key is read; the later keys are probed only
        # behind a pack that restored.
        assert disk.stats.version_skips == 1
        assert state.binary.words == reference.binary.words

    def test_single_snapshot_entries_are_version_skips(
            self, tmp_path, monkeypatch):
        """Format 2 entries held one pickle of the stage's cumulative
        artifact dict.  A format 2 reader handed a later entry would
        read its parse frame alone, so the formats skip each other both
        ways."""
        from repro.pipeline.session import SnapshotStream

        reference = Toolchain(audio_core(), cache=StageCache(),
                              budget=64).run_pipeline(SOURCE)
        monkeypatch.setattr(diskcache, "FORMAT_VERSION", 2)
        old = DiskCache(tmp_path)
        for key in reference.fingerprints.values():
            stream = SnapshotStream()
            stream.dump(key, reference.artifacts)
            _, pack = stream.pack()
            old.put(key, pickle.dumps(pack))
        monkeypatch.undo()
        disk = DiskCache(tmp_path)
        state = Toolchain(audio_core(), cache=StageCache(disk=disk),
                          budget=64).run_pipeline(SOURCE)
        assert not any(state.cache_hits.values())
        assert disk.stats.version_skips == 1
        assert state.binary.words == reference.binary.words

        monkeypatch.setattr(diskcache, "FORMAT_VERSION", 2)
        stale_reader = DiskCache(tmp_path)
        assert stale_reader.get(state.fingerprints["parse"]) is None
        assert stale_reader.stats.version_skips == 1

    def test_stream_prefix_entries_are_version_skips(self, tmp_path):
        """Format 3 stored one entry per stage: the compile's stream up
        to that stage, pickled.  Each is a version skip to a format 4
        reader, which stores its pack over the parse entry it read, and
        ``verify`` drops the rest."""
        from repro.pipeline.session import decode_pack

        cache = StageCache()
        reference = Toolchain(audio_core(), cache=cache,
                              budget=64).run_pipeline(SOURCE)
        old = DiskCache(tmp_path)
        for pack in cache._entries.values():
            frames, start = decode_pack(pack)
            for key, end in frames:
                old._write(key, format3_envelope(pack[start:start + end],
                                                 reference.artifacts))
        assert len(old) == len(STAGE_NAMES)
        disk = DiskCache(tmp_path)
        state = Toolchain(audio_core(), cache=StageCache(disk=disk),
                          budget=64).run_pipeline(SOURCE)
        assert not any(state.cache_hits.values())
        assert disk.stats.version_skips == 1
        assert state.binary.words == reference.binary.words
        report = DiskCache(tmp_path).verify()
        assert (report.ok, report.version_skew) == (1, len(STAGE_NAMES) - 1)

    def test_format_version_skew_invalidates(self, tmp_path, monkeypatch):
        disk = DiskCache(tmp_path)
        disk.put("ef" * 32, {"x": 1})
        monkeypatch.setattr(diskcache, "FORMAT_VERSION", 999)
        fresh = DiskCache(tmp_path)
        assert fresh.get("ef" * 32) is None
        assert fresh.stats.version_skips == 1


class TestConcurrency:
    def test_two_sessions_one_directory(self, tmp_path):
        """Two 'processes' compiling the same sources into one cache
        directory concurrently: no crashes, correct results for both."""
        def compile_one(source):
            compiled = toolchain_on(tmp_path, budget=64).compile(source)
            return (compiled.binary.words, compiled.binary.rom_words)

        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            words = list(pool.map(compile_one,
                                  [SOURCE, VARIANT, SOURCE, VARIANT] * 2))
        assert words[0] == words[2] == words[4] == words[6]
        assert words[1] == words[3] == words[5] == words[7]
        assert words[0] != words[1]

    def test_racing_writers_same_key(self, tmp_path):
        disk = DiskCache(tmp_path)
        key = "aa" * 32

        def hammer(value):
            for _ in range(25):
                disk.put(key, {"payload": value})
                got = disk.get(key)
                # Last write wins; any complete entry is acceptable.
                assert got is None or got["payload"] in (0, 1)

        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(hammer, [0, 1]))
        assert disk.stats.corrupt == 0


class TestEviction:
    def test_size_bound_evicts_lru(self, tmp_path):
        one_entry = len(serialize({"payload": "x" * 1000}))
        disk = DiskCache(tmp_path, max_bytes=3 * one_entry)
        for index in range(8):
            disk.put(f"{index:02d}" + "0" * 62, {"payload": "x" * 1000})
        assert disk.stats.evictions >= 5
        assert disk.size_bytes() <= 3 * one_entry
        # The newest entry survived; the oldest did not.
        assert disk.get("07" + "0" * 62) is not None
        assert disk.get("00" + "0" * 62) is None

    def test_tiny_bound_still_correct(self, tmp_path):
        """A cache too small to hold one compile's snapshots still
        compiles correctly — it just cannot help later."""
        toolchain = toolchain_on(tmp_path, disk_options={"max_bytes": 1},
                                 budget=64)
        compiled = toolchain.compile(SOURCE)
        assert compiled.run(stimulus()) == \
            run_reference(compiled.dfg, stimulus())

    def test_same_key_restores_do_not_inflate_the_estimate(self, tmp_path):
        """Re-storing the same keys replaces bytes on disk; the running
        size estimate must track the delta, not the sum — otherwise a
        designer's iterative re-sweeps trigger needless full-scan
        eviction passes (and eventually evict live entries)."""
        one_entry = len(serialize({"payload": "x" * 1000}))
        disk = DiskCache(tmp_path, max_bytes=4 * one_entry)
        scans = 0
        real_gc = disk.gc

        def counting_gc(*args, **kwargs):
            nonlocal scans
            scans += 1
            return real_gc(*args, **kwargs)

        disk.gc = counting_gc
        keys = [f"{index:02d}" + "0" * 62 for index in range(3)]
        for _ in range(25):
            for key in keys:
                disk.put(key, {"payload": "x" * 1000})
        # 75 stores of 3 distinct keys fit the bound with room to
        # spare: no eviction scan may fire and nothing may be evicted.
        assert scans == 0
        assert disk.stats.evictions == 0
        assert disk._size_estimate == disk.size_bytes()
        assert all(disk.get(key) is not None for key in keys)

    def test_overwrite_with_larger_entry_tracks_growth(self, tmp_path):
        """The delta accounting still notices entries that grow."""
        disk = DiskCache(tmp_path, max_bytes=1 << 20)
        key = "aa" + "0" * 62
        disk.put(key, {"payload": "x"})
        small = disk._size_estimate
        disk.put(key, {"payload": "x" * 5000})
        assert disk._size_estimate > small
        assert disk._size_estimate == disk.size_bytes()

    def test_new_cache_objects_share_the_estimate(self, tmp_path):
        """A cache object per compile (what a compile server opens)
        must not rescan the store on its first put: the estimate is
        per directory and process, so only the first put scans, and
        the bound still holds across the objects."""
        one_entry = len(serialize({"payload": "x" * 1000}))
        scans = 0
        real_size = DiskCache.size_bytes

        def counting_size(self):
            nonlocal scans
            scans += 1
            return real_size(self)

        for index in range(12):
            disk = DiskCache(tmp_path, max_bytes=4 * one_entry)
            disk.size_bytes = counting_size.__get__(disk)
            disk.put(f"{index:02d}" + "0" * 62, {"payload": "x" * 1000})
        assert scans == 1
        assert disk._size_estimate == real_size(disk) <= 4 * one_entry
        assert disk.get("11" + "0" * 62) is not None

    def test_reads_refresh_recency(self, tmp_path):
        one_entry = len(serialize({"payload": "x" * 1000}))
        disk = DiskCache(tmp_path, max_bytes=2 * one_entry + 8)
        import os
        import time
        disk.put("aa" + "0" * 62, {"payload": "x" * 1000})
        disk.put("bb" + "0" * 62, {"payload": "x" * 1000})
        # Backdate 'aa', then read it: the read must refresh it so the
        # next eviction removes 'bb' instead.
        old = time.time() - 1000
        os.utime(disk.path_for("aa" + "0" * 62), (old, old))
        os.utime(disk.path_for("bb" + "0" * 62), (old + 1, old + 1))
        assert disk.get("aa" + "0" * 62) is not None
        disk.put("cc" + "0" * 62, {"payload": "x" * 1000})
        assert disk.get("bb" + "0" * 62) is None
        assert disk.get("aa" + "0" * 62) is not None


class TestBatchCompiles:
    def test_batch_shares_identical_prefixes(self, tmp_path):
        batch = toolchain_on(tmp_path, budget=64)
        result = batch.compile_many([SOURCE, SOURCE, VARIANT])
        assert result.ok
        assert len(result.states) == 3
        first, duplicate, variant = result.entries
        assert not any(first.state.cache_hits.values())
        assert all(duplicate.state.cache_hits.values())
        assert not any(variant.state.cache_hits.values())
        assert duplicate.state.binary.words == first.state.binary.words
        counts = result.stage_counts()
        assert counts["memory"] == len(STAGE_NAMES)
        assert counts["executed"] == 2 * len(STAGE_NAMES)

    def test_batch_warm_across_processes(self, tmp_path):
        toolchain_on(tmp_path, budget=64).compile_many([SOURCE, VARIANT])
        result = toolchain_on(tmp_path, budget=64).compile_many(
            [SOURCE, VARIANT])
        counts = result.stage_counts()
        assert counts["executed"] == 0
        assert counts["disk"] == 2 * len(STAGE_NAMES)

    def test_failures_do_not_abort_the_batch(self):
        result = Toolchain(audio_core(), cache=None, budget=1) \
            .compile_many([SOURCE, SOURCE])
        assert not result.ok
        assert [entry.ok for entry in result.entries] == [False, False]
        assert "BudgetExceededError" in result.entries[0].error
        assert result.states == []

    def test_bad_budget_mixed_with_good(self):
        bad = "app broken; input i; output o; loop { o = frobnicate(i); }"
        result = Toolchain(audio_core(), cache=None, budget=64) \
            .compile_many([SOURCE, bad])
        assert result.entries[0].ok
        assert not result.entries[1].ok
        assert not result.ok

    def test_names_label_entries(self):
        toolchain = Toolchain(audio_core(), cache=None, budget=64)
        result = toolchain.compile_many([SOURCE], names=["a.dsp"])
        assert result.entries[0].name == "a.dsp"
        with pytest.raises(ValueError, match="names"):
            toolchain.compile_many([SOURCE], names=["a", "b"])

    def test_batch_stop_after(self):
        result = Toolchain(audio_core(), cache=StageCache(),
                           stop_after="schedule").compile_many([SOURCE])
        state = result.entries[0].state
        assert not state.is_complete
        assert state.schedule.length >= 1


class TestDefaultDirectory:
    def test_env_var_overrides(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert diskcache.default_cache_dir() == tmp_path / "custom"

    def test_xdg_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert diskcache.default_cache_dir() == tmp_path / "xdg" / "repro"
