"""Randomised differential testing: compiler vs reference interpreter.

Hypothesis generates random time-loop applications (random DAGs of
operations over inputs, coefficients and delayed states); each is
compiled through the full pipeline onto a core and executed on the
cycle-accurate simulator.  Output streams must equal the reference
interpreter's bit-exactly.

One generator covers three cores (tiny / fir / audio-style), giving the
strongest end-to-end oracle in the suite: any bug in RT generation,
routing, conflict modelling, scheduling, register allocation, encoding
or the machine model shows up as a stream mismatch.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Q15, Toolchain, audio_core, fir_core, run_batch, tiny_core
from repro.apps import (
    adaptive_core,
    audio_application,
    audio_io_binding,
    channel_frontend_application,
    fir_application,
    lms_application,
    stress_application,
)
from repro.errors import ReproError
from repro.gen import available_engines
from repro.lang import DfgBuilder, run_reference

from stream_helpers import random_streams

# Operation vocabulary per core: (name, arity, needs_param_port).
TINY_OPS = [("add", 2), ("sub", 2), ("pass", 1)]
FILTER_OPS = [("add", 2), ("add_clip", 2), ("pass", 1), ("pass_clip", 1)]


@st.composite
def random_application(draw, allow_states: bool, allow_mult: bool,
                       max_ops: int = 12):
    """Build a random but well-formed DFG via the builder."""
    b = DfgBuilder("random")
    values = [b.input("i0")]
    if draw(st.booleans()):
        values.append(b.input("i1"))

    states = []
    if allow_states:
        for index in range(draw(st.integers(min_value=0, max_value=2))):
            depth = draw(st.integers(min_value=1, max_value=3))
            states.append((b.state(f"s{index}", depth), depth))

    n_params = 0
    n_ops = draw(st.integers(min_value=1, max_value=max_ops))
    for _ in range(n_ops):
        choices = ["alu"]
        if allow_mult:
            choices.append("mult")
        if states:
            choices.append("delay")
        kind = draw(st.sampled_from(choices))
        if kind == "delay":
            state, depth = draw(st.sampled_from(states))
            k = draw(st.integers(min_value=1, max_value=depth))
            values.append(b.delay(state, k))
        elif kind == "mult":
            coefficient = b.param(
                f"c{n_params}",
                draw(st.floats(min_value=-0.99, max_value=0.99,
                               allow_nan=False)),
            )
            n_params += 1
            values.append(b.op("mult", coefficient, draw(st.sampled_from(values))))
        else:
            ops = FILTER_OPS if allow_mult else TINY_OPS
            name, arity = draw(st.sampled_from(ops))
            args = [draw(st.sampled_from(values)) for _ in range(arity)]
            values.append(b.op(name, *args))

    # Every state must be written once; outputs tap the last values.
    for index, (state, _) in enumerate(states):
        b.write(state, draw(st.sampled_from(values)))
    b.output("o0", values[-1])
    if draw(st.booleans()) and len(values) >= 2:
        b.output("o1", draw(st.sampled_from(values)))
    return b.build()


def roundtrip(dfg, core, n_frames=6, seed=0):
    """Compile; if routable, simulate and compare with the reference."""
    import random

    rng = random.Random(seed)
    stimulus = {
        port: [rng.randint(Q15.min_value, Q15.max_value)
               for _ in range(n_frames)]
        for port in dfg.inputs
    }
    try:
        compiled = Toolchain(core, cache=None).compile(dfg)
    except ReproError:
        # Random programs may exceed a small core's routes or register
        # files; rejection with a diagnostic is the documented contract.
        return None
    expected = run_reference(dfg, stimulus, n_frames)
    actual = compiled.run(stimulus, n_frames)
    assert actual == expected
    return compiled


class TestDifferential:
    @given(random_application(allow_states=False, allow_mult=False))
    @settings(max_examples=40, deadline=None)
    def test_tiny_core(self, dfg):
        roundtrip(dfg, tiny_core())

    @given(random_application(allow_states=True, allow_mult=True))
    @settings(max_examples=40, deadline=None)
    def test_fir_core(self, dfg):
        roundtrip(dfg, fir_core())

    @given(random_application(allow_states=True, allow_mult=True))
    @settings(max_examples=30, deadline=None)
    def test_audio_core(self, dfg):
        roundtrip(dfg, audio_core())

    @given(random_application(allow_states=True, allow_mult=True))
    @settings(max_examples=20, deadline=None)
    def test_adaptive_core(self, dfg):
        roundtrip(dfg, adaptive_core())

#: Every built-in application, its natural core and compile kwargs.
BUILTIN_APPS = {
    "audio": lambda: (audio_application(), audio_core(),
                      dict(budget=64, io_binding=audio_io_binding())),
    "fir": lambda: (fir_application([0.25, 0.5, 0.125, -0.0625, 0.3]),
                    fir_core(), {}),
    "lms": lambda: (lms_application(n_taps=2), adaptive_core(), {}),
    "channel": lambda: (channel_frontend_application(), fir_core(), {}),
    "stress": lambda: (stress_application(3), audio_core(), {}),
}

LEVELS = (0, 1, 2)
N_FRAMES = 8
N_LANES = 3


@functools.lru_cache(maxsize=None)
def builtin_compiled(name: str, level: int):
    """One cold compile per (application, level), shared by all engines."""
    dfg, core, kwargs = BUILTIN_APPS[name]()
    io_binding = kwargs.pop("io_binding", None)
    compiled = Toolchain(core, cache=None, opt=level, **kwargs).compile(
        dfg, io_binding=io_binding)
    return dfg, compiled


class TestBuiltinAppEngineMatrix:
    """Every built-in application × every -O level × every engine.

    The reference interpretation of the *source* graph is the single
    oracle: all (level, engine) pairs must be bit-identical to it, so
    agreement across optimizer levels and across the decoded and numpy
    engines follows transitively.
    """

    @pytest.mark.parametrize("engine", available_engines())
    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("name", sorted(BUILTIN_APPS))
    def test_matches_reference(self, name, level, engine):
        dfg, compiled = builtin_compiled(name, level)
        lanes = [random_streams(dfg, n=N_FRAMES, seed=90 + lane)
                 for lane in range(N_LANES)]
        expected = [run_reference(dfg, lane, N_FRAMES) for lane in lanes]
        actual = run_batch(compiled.binary, lanes, N_FRAMES, engine=engine)
        assert actual == expected

    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("name", sorted(BUILTIN_APPS))
    def test_one_lane_matches_reference(self, name, level):
        # The one-lane entry point (CompiledProgram.run -> run_program),
        # one stimulus at a time, as `repro run` and run-image use it.
        dfg, compiled = builtin_compiled(name, level)
        for lane in range(N_LANES):
            streams = random_streams(dfg, n=N_FRAMES, seed=90 + lane)
            assert compiled.run(streams, N_FRAMES) == \
                run_reference(dfg, streams, N_FRAMES)


class TestDifferentialProperties:
    @given(random_application(allow_states=True, allow_mult=True),
           st.integers(min_value=1, max_value=20))
    @settings(max_examples=15, deadline=None)
    def test_frame_count_invariance(self, dfg, n_frames):
        # Prefixes agree: running N frames equals the first N of N+2.
        compiled = roundtrip(dfg, fir_core(), n_frames=n_frames + 2)
        if compiled is None:
            return
        import random

        rng = random.Random(1)
        stimulus = {
            port: [rng.randint(Q15.min_value, Q15.max_value)
                   for _ in range(n_frames + 2)]
            for port in dfg.inputs
        }
        full = compiled.run(stimulus, n_frames + 2)
        prefix = compiled.run(stimulus, n_frames)
        for port in full:
            assert full[port][:n_frames] == prefix[port]
