"""repro.analyze — static analysis of every pipeline artifact.

Two halves (see ``docs/analysis.md``):

* **Stage verifiers** (:mod:`repro.analyze.verifiers`): pure invariant
  checks on the DFG, the RT program, the schedule, the register
  allocation and the datapath, wired into ``Toolchain`` behind the
  ``verify=`` compile option (``off`` / ``boundaries`` / ``strict``).
* **Machine-code lint** (:mod:`repro.analyze.lint`): CFG construction
  and classic dataflow over the *encoded image*, the simulation-free
  oracle behind ``repro check`` and the fuzz harness.

Both report through the shared :class:`Finding` schema; every code is
registered in :data:`CHECK_CODES`.
"""

from __future__ import annotations

from .._lazy import lazy_exports
from ..errors import VerificationError
from .findings import CHECK_CODES, Finding, Severity, error, warning
from .verifiers import (
    verify_allocation,
    verify_datapath,
    verify_dfg,
    verify_rt_program,
    verify_schedule,
    verify_stage,
    verify_state,
)

# The lint decodes images through the simulator's plan; it loads on
# first use, so a compile that only verifies never imports it.
__getattr__, __dir__ = lazy_exports(__name__, {
    "lint": ("build_cfg", "lint_program"),
})
del lazy_exports

__all__ = [
    "CHECK_CODES",
    "Finding",
    "Severity",
    "VerificationError",
    "build_cfg",
    "enforce",
    "error",
    "lint_program",
    "verify_allocation",
    "verify_datapath",
    "verify_dfg",
    "verify_rt_program",
    "verify_schedule",
    "verify_stage",
    "verify_state",
    "warning",
]


def enforce(findings: list[Finding], context: str) -> None:
    """Raise :class:`VerificationError` if any finding is an error.

    Warnings never raise; the caller decides whether to surface them
    (``repro check`` prints them, the pipeline only counts them).
    """
    errors = [f for f in findings if f.is_error]
    if errors:
        listing = "\n  - ".join(f.render() for f in errors)
        raise VerificationError(
            f"verification failed {context}: {len(errors)} error(s):\n"
            f"  - {listing}", findings)
