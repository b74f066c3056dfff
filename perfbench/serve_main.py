"""Start ``repro serve`` from the checkout's sources.

    python perfbench/serve_main.py [--traced] serve --port 0 ...

A job's result carries ``perfbench_calibration_s`` when the worker ran
the calibration kernels right after the compile (at most every
:data:`INTERVAL_S`), so the client can tell how fast the worker's CPU
ran (see ``calibrate.py``).  With ``--traced`` the layer wrappers of
:mod:`tracer` are installed too.  The pool workers the server forks
inherit both; the layer timings travel home in the workers' counter
reports (read from ``/v1/stats``).  Everything after the flag goes to
the ``repro`` CLI unchanged.
"""

from __future__ import annotations

import functools
import sys
import time

from calibrate import memory_data, time_kernels
from common import SRC

#: Minimum gap between two calibration samples of one worker; the
#: kernels keep the worker busy, so they run on some jobs only.
INTERVAL_S = 0.25


def calibrate_jobs() -> None:
    import repro.serve.workers as workers

    compile_job = workers.execute_compile_job
    data = memory_data()
    last = [float("-inf")]

    @functools.wraps(compile_job)
    def calibrated(payload):
        report = compile_job(payload)
        if report.get("ok") and time.perf_counter() - last[0] >= INTERVAL_S:
            report["result"]["perfbench_calibration_s"] = time_kernels(data)
            last[0] = time.perf_counter()
        return report

    workers.execute_compile_job = calibrated


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    argv = sys.argv[1:]
    if argv[:1] == ["--traced"]:
        from tracer import LayerTracer

        LayerTracer().install()
        argv = argv[1:]
    calibrate_jobs()
    from repro.cli import main

    sys.exit(main(argv))
