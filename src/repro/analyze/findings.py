"""The shared diagnostic schema of the static-analysis layer.

Every verifier and lint pass in :mod:`repro.analyze` — and the datapath
style checker in :mod:`repro.arch.validate` — reports through one type:
a :class:`Finding` with a severity, a stable dot-separated code, a
human message, an optional location ("word 3", "cycle 7", "rt mult/12")
and an optional fix hint.  Codes are registered in :data:`CHECK_CODES`;
``tools/check_doc_links.py`` keeps ``docs/analysis.md`` in lockstep
with this registry, the same way the counter table tracks
``repro.obs.COUNTERS``.

This module is deliberately dependency-free (stdlib only) so that any
layer of the package — including :mod:`repro.arch`, which everything
else imports — can produce findings without import cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings describe artifacts that are illegal — a compile
    under ``verify=`` raises on them and ``repro check`` exits 1.
    ``WARNING`` findings describe suspicious but executable code (for
    example a read of the power-on register value).
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Finding:
    """One structured diagnostic."""

    severity: Severity
    code: str
    message: str
    location: str | None = None
    hint: str | None = None

    def __post_init__(self) -> None:
        # Every emitted code must be registered (and therefore
        # documented): an unregistered code is a bug in the checker,
        # not a finding about the checked artifact.
        if self.code not in CHECK_CODES:
            raise ValueError(f"unknown check code {self.code!r}; "
                             f"register it in CHECK_CODES")

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def to_dict(self) -> dict:
        payload = {
            "severity": self.severity.value,
            "code": self.code,
            "message": self.message,
        }
        if self.location is not None:
            payload["location"] = self.location
        if self.hint is not None:
            payload["hint"] = self.hint
        return payload

    def render(self) -> str:
        where = f" [{self.location}]" if self.location else ""
        tail = f" (hint: {self.hint})" if self.hint else ""
        return f"{self.severity.value}: {self.code}{where}: {self.message}{tail}"


def error(code: str, message: str, location: str | None = None,
          hint: str | None = None) -> Finding:
    return Finding(Severity.ERROR, code, message, location, hint)


def warning(code: str, message: str, location: str | None = None,
            hint: str | None = None) -> Finding:
    return Finding(Severity.WARNING, code, message, location, hint)


#: Every check code the analysis layer can emit, with a one-line
#: invariant description.  ``docs/analysis.md`` must list exactly these
#: codes (enforced by ``tools/check_doc_links.py``).
CHECK_CODES: dict[str, str] = {
    # -- DFG well-formedness (parse / optimize boundaries) -------------
    "dfg.duplicate-id": "every node id is defined exactly once",
    "dfg.edge-cycle": "no node consumes a value defined later in the frame",
    "dfg.dangling-edge": "every edge references an existing producer node",
    "dfg.delay-window": "delay reads stay inside the declared state depth",
    "dfg.unknown-name": "inputs/outputs/params/states resolve to declared names",
    "dfg.state-rewrite": "each state element is written at most once per frame",
    "dfg.state-unwritten": "every state that is read is also written",
    # -- RT-program legality (rtgen boundary) --------------------------
    "rt.unknown-opu": "every RT executes on an OPU present in the datapath",
    "rt.unbindable-op": "the bound OPU supports the RT's operation",
    "rt.port-mismatch": "operands match the feeding file / immediate port",
    "rt.no-route": "a datapath route exists from the OPU to each destination",
    "rt.undefined-value": "every value read is produced or live-in",
    # -- schedule legality (schedule boundary) -------------------------
    "sched.unscheduled": "the schedule's RTs are exactly the dependence graph's",
    "sched.negative-cycle": "no RT is scheduled before cycle 0",
    "sched.overrun": "no RT's resource usage spills past the schedule length",
    "sched.dependence": "dependence edges (incl. OPU latency) are respected",
    "sched.double-booking": "no resource holds two different usages in a cycle",
    "sched.budget": "the schedule fits the requested cycle budget",
    # -- register-allocation legality (regalloc boundary) --------------
    "regalloc.unallocated": "every live interval is bound to a register",
    "regalloc.capacity": "register indices stay inside the file capacity",
    "regalloc.overlap": "no two overlapping live ranges share a cell",
    "regalloc.undefined-read": "every register read happens after its write lands",
    # -- datapath style rules (arch.validate migration) ----------------
    "arch.no-opus": "a datapath has at least one OPU",
    "arch.unfed-port": "every input port is register-fed or immediate",
    "arch.no-bus": "every result-producing OPU drives a bus",
    "arch.output-drives-bus": "output port blocks do not drive buses",
    "arch.input-reads-rf": "input port blocks have no register operands",
    "arch.mux-duplicate": "a multiplexer never sees the same bus twice",
    "arch.undriven-bus": "every bus has a driving OPU",
    "arch.dead-bus": "a result bus should reach at least one register file",
    "arch.unread-rf": "a register file should feed at least one port",
    "arch.unwritten-rf": "a register file should be reachable from a bus",
    "arch.thin-mux": "a multiplexer should have at least two inputs",
    # -- machine-code lint (encoded image) -----------------------------
    "mc.decode": "the image decodes against the core's instruction format",
    "mc.bad-jump": "control transfers stay inside the program",
    "mc.stack": "LOOP/ENDL nesting fits the controller's loop stack",
    "mc.unreachable": "every word is reachable from the reset vector",
    "mc.no-exit": "every control loop passes an IDLE/HALT settle point",
    "mc.oob": "register/RAM/ROM addresses stay inside the addressed store",
    "mc.bus-hazard": "every register write consumes a value maturing on its bus",
    "mc.uninit-read": "no operand reads a register cell never written",
    "mc.dead-write": "no register write is dead on every path",
}
