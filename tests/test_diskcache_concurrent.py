"""Concurrent multi-process DiskCache access.

The disk store's whole claim is that independent processes can share
one cache directory safely: publication is atomic (temp file + rename)
and every unreadable entry degrades to a miss.  These tests actually
run N simultaneous compiler processes — same application, different
applications, cold and warm — against one directory and check the
three things that matter: no corruption (verify() is clean), correct
hit accounting (a warm process restores all 8 stages from disk, out of
the 3 packs a compile stores), and bit-identical binaries everywhere.
"""

from concurrent.futures import ProcessPoolExecutor

from repro import Toolchain, audio_core
from repro.pipeline import DiskCache, StageCache

SOURCE = """
app mp;
param k = 0.5;
input i; output o;
state s(1);
loop {
  s = i;
  m := mlt(k, s@1);
  o = add_clip(m, i);
}
"""

VARIANT = SOURCE.replace("0.5", "0.25").replace("app mp", "app mp_v")

N_STAGES = 8
#: Packs one compile stores: one, under its parse key.
N_PACKS = 1


def compile_in_process(args):
    """One compiler process: cold memory tier over the shared dir.

    Module-level so it pickles across the process boundary; returns
    plain data (hex words + cache accounting), never artifacts.
    """
    cache_dir, source, budget = args
    toolchain = Toolchain(audio_core(), budget=budget,
                          cache=StageCache(disk=DiskCache(cache_dir)))
    state = toolchain.run_pipeline(source)
    words = [hex(word) for word in state.as_compiled().binary.words]
    return words, state.cache_counts()


def fan_out(jobs, workers):
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(compile_in_process, jobs))


class TestConcurrentSameApp:
    def test_simultaneous_cold_compiles_agree_and_do_not_corrupt(
            self, tmp_path):
        results = fan_out([(str(tmp_path), SOURCE, 64)] * 4, workers=4)
        words = {tuple(w) for w, _ in results}
        assert len(words) == 1  # bit-identical across every process
        # Racing publishers never corrupt the store.
        disk = DiskCache(tmp_path)
        report = disk.verify()
        assert report.clean and report.checked == N_PACKS
        # The store holds exactly one entry per pack — the atomic
        # rename makes the racing writes idempotent, not additive.
        assert len(disk.keys()) == N_PACKS

    def test_warm_process_restores_everything_from_disk(self, tmp_path):
        fan_out([(str(tmp_path), SOURCE, 64)], workers=1)
        (words, counts), = fan_out([(str(tmp_path), SOURCE, 64)],
                                   workers=1)
        assert counts == {"executed": 0, "memory": 0, "disk": N_STAGES}
        local = Toolchain(audio_core(), budget=64, cache=None) \
            .compile(SOURCE)
        assert words == [hex(word) for word in local.binary.words]

    def test_many_warm_processes_all_hit(self, tmp_path):
        fan_out([(str(tmp_path), SOURCE, 64)], workers=1)
        results = fan_out([(str(tmp_path), SOURCE, 64)] * 4, workers=4)
        for _, counts in results:
            assert counts["executed"] == 0
            assert counts["disk"] == N_STAGES


class TestConcurrentDifferentApps:
    def test_mixed_apps_one_directory(self, tmp_path):
        jobs = [(str(tmp_path), SOURCE, 64),
                (str(tmp_path), VARIANT, 64)] * 2
        results = fan_out(jobs, workers=4)
        by_app = {}
        for (words, _), (_, source, _) in zip(results, jobs):
            by_app.setdefault(source, set()).add(tuple(words))
        # Each app deterministic across processes, and distinct.
        assert all(len(images) == 1 for images in by_app.values())
        assert len(by_app) == 2
        assert DiskCache(tmp_path).verify().clean

    def test_warm_hits_are_per_app(self, tmp_path):
        fan_out([(str(tmp_path), SOURCE, 64)], workers=1)
        # VARIANT differs from the parse stage on (different source
        # text), so a warm run of it shares nothing.
        (_, counts), = fan_out([(str(tmp_path), VARIANT, 64)], workers=1)
        assert counts["executed"] == N_STAGES
        (_, counts), = fan_out([(str(tmp_path), VARIANT, 64)], workers=1)
        assert counts == {"executed": 0, "memory": 0, "disk": N_STAGES}


class TestConcurrentWithGc:
    def test_gc_during_warm_traffic_never_errors(self, tmp_path):
        """A gc pass racing live readers degrades hits, never crashes.

        One process streams warm compiles while the parent runs gc
        with a zero bound between them; the compiles must all succeed
        (recomputing evicted stages is fine) and the store must stay
        uncorrupted.
        """
        fan_out([(str(tmp_path), SOURCE, 64)], workers=1)
        with ProcessPoolExecutor(max_workers=1) as pool:
            futures = [pool.submit(compile_in_process,
                                   (str(tmp_path), SOURCE, 64))
                       for _ in range(3)]
            DiskCache(tmp_path).gc(0)
            results = [future.result() for future in futures]
        words = {tuple(w) for w, _ in results}
        assert len(words) == 1
        assert DiskCache(tmp_path).verify().clean
