"""The register-transfer (RT) model (paper, section 3, figure 2).

"RTs correspond to paths in the architecture.  The characteristic
property of RTs is that they start with one or more operands
originating from register files as input for an operation executed on
an operation unit (OPU) which is possibly pipelined.  The result is
transferred through a buffer onto a bus and optionally through a
multiplexer into a destination register."

"Each RT specifies which resources on the path must be activated and
how the resources are occupied. ...  Different RTs with common
resources can be executed in parallel when the common resources have
the same usage."

That one sentence is the entire concurrency model of this compiler:

* the OPU resource gets the operation name as usage — two different
  operations on one OPU conflict;
* the bus gets the produced *value* as usage — carrying the same value
  twice is free (multicast), different values conflict;
* a multiplexer gets its *selection* as usage;
* register-file ports get the accessed register as usage — two reads
  of the same register share the port, reads of different registers
  need different ports;
* the artificial instruction-set resources of section 6.3 get the RT
  *class* as usage — RTs of conflicting classes disagree and can never
  share a cycle.

Values and registers are *virtual* during code generation: every RT
produces at most one virtual value, bound to a physical register of its
destination file(s) only after scheduling (left-edge allocation).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass


class OperandKind(enum.Enum):
    REGISTER = "register"
    IMMEDIATE = "immediate"


@dataclass(frozen=True)
class Operand:
    """One OPU input: a virtual register in a register file, or an
    immediate field of the instruction word."""

    kind: OperandKind
    register_file: str | None = None   # register-file name for REGISTER kind
    value: int | None = None           # virtual value id (REGISTER) or literal (IMMEDIATE)

    @staticmethod
    def register(register_file: str, value: int) -> "Operand":
        return Operand(OperandKind.REGISTER, register_file=register_file, value=value)

    @staticmethod
    def immediate(value: int) -> "Operand":
        return Operand(OperandKind.IMMEDIATE, value=value)

    @property
    def is_register(self) -> bool:
        return self.kind is OperandKind.REGISTER

    def pretty(self) -> str:
        if self.is_register:
            return f"v{self.value}:{self.register_file}"
        return f"#{self.value}"


@dataclass(frozen=True)
class Destination:
    """One fan-out of an RT's result into a register file.

    ``route`` records the physical path (bus → optional mux → file);
    multicast RTs carry several destinations on the same bus.
    """

    register_file: str
    value: int                 # virtual value id written
    mux: str | None = None     # mux resource name, if the path has one
    mux_usage: str | None = None

    def pretty(self) -> str:
        return f"v{self.value}:{self.register_file}"


@dataclass(frozen=True)
class ResourceUse:
    """Occupation of one resource by an RT.

    ``offset`` is the cycle offset relative to the RT's issue cycle;
    operand fetch happens at offset 0, the result write of an operation
    with latency L at offset L - 1 in this model (single-cycle RTs keep
    everything at offset 0, like the paper's audio core).
    """

    resource: str
    usage: str
    offset: int = 0


class RT:
    """A register transfer: one operation plus its complete path usage.

    Instances are created by the RT generator; tests may build them
    directly.  RTs hash and compare by object identity (Python's
    default), so schedulers can key dictionaries on them even when two
    transfers look identical.  The unique, creation-ordered ``uid`` is
    the deterministic tie-break: anything whose order reaches the
    output sorts on it, never on a hash.
    """

    _uids = itertools.count()

    def __init__(
        self,
        opu: str,
        operation: str,
        operands: tuple[Operand, ...],
        destinations: tuple[Destination, ...],
        uses: tuple[ResourceUse, ...],
        latency: int = 1,
        source: str | None = None,
        memory_location: str | None = None,
        memory_effect: str | None = None,
        io_port: str | None = None,
    ):
        self.uid = next(RT._uids)
        self.opu = opu
        self.operation = operation
        self.operands = operands
        self.destinations = destinations
        self.uses = uses
        self.latency = latency
        #: human-readable origin, e.g. the source line that produced it
        self.source = source
        #: symbolic memory location for RAM/ROM transfers (dependence analysis)
        self.memory_location = memory_location
        #: "read" / "write" / None
        self.memory_effect = memory_effect
        #: logical IO port name for INPUT/OUTPUT transfers
        self.io_port = io_port
        #: RT class name, annotated by the rtgen stage (or by
        #: :meth:`repro.core.rtclass.ClassTable.classify_program`)
        self.rt_class: str | None = None

    # ------------------------------------------------------------------

    @property
    def value(self) -> int | None:
        """The virtual value this RT produces (None for stores/outputs)."""
        if not self.destinations:
            return None
        return self.destinations[0].value

    @property
    def read_values(self) -> tuple[int, ...]:
        """Virtual values consumed through register operands."""
        return tuple(op.value for op in self.operands if op.is_register)

    def resources_at(self, cycle: int) -> dict[str, str]:
        """resource → usage map at absolute ``cycle`` when issued at 0."""
        return {
            use.resource: use.usage for use in self.uses if use.offset == cycle
        }

    @property
    def max_offset(self) -> int:
        return max((use.offset for use in self.uses), default=0)

    def with_extra_uses(self, extra: tuple[ResourceUse, ...]) -> "RT":
        """A copy of this RT with additional resource usages.

        Used by instruction-set conflict generation (artificial
        resources) and by register-file/bus merging; the copy keeps the
        class annotation but gets a fresh uid.
        """
        clone = RT(
            opu=self.opu,
            operation=self.operation,
            operands=self.operands,
            destinations=self.destinations,
            uses=self.uses + extra,
            latency=self.latency,
            source=self.source,
            memory_location=self.memory_location,
            memory_effect=self.memory_effect,
            io_port=self.io_port,
        )
        clone.rt_class = self.rt_class
        return clone

    # ------------------------------------------------------------------

    def pretty(self) -> str:
        """Render in the paper's concrete syntax (figure 2)::

            Dest_1:reg <- Opr_1:reg, Opr_2:reg
            \\ acu_1       = add,
              bus_1_acu_1 = add(Opr_1, Opr_2);
        """
        dests = ", ".join(
            f"Dest_{i + 1}:{d.pretty()}" for i, d in enumerate(self.destinations)
        )
        oprs = ", ".join(
            f"Opr_{i + 1}:{op.pretty()}" for i, op in enumerate(self.operands)
        )
        head = f"{dests or '(none)'} <- {oprs or '(none)'}"
        body = ",\n  ".join(
            f"{use.resource:<16} = {use.usage}"
            + (f" @+{use.offset}" if use.offset else "")
            for use in self.uses
        )
        return f"{head}\n\\ {body};"

    def __repr__(self) -> str:
        dest = self.destinations[0].pretty() if self.destinations else "-"
        return f"RT#{self.uid}({self.opu}.{self.operation} -> {dest})"


def conflict(a: RT, b: RT, distance: int = 0) -> bool:
    """Do ``a`` (issued at t) and ``b`` (issued at t + distance) collide?

    Two RTs conflict iff some resource is used by both at the same
    absolute cycle with *different* usages (paper, section 3).  With
    single-cycle RTs and distance 0 this is the plain instruction-
    compatibility check; non-zero distances matter for pipelined OPUs.
    """
    for use_a in a.uses:
        for use_b in b.uses:
            if (
                use_a.resource == use_b.resource
                and use_a.offset == use_b.offset + distance
                and use_a.usage != use_b.usage
            ):
                return True
    return False


def conflict_same_cycle(a: RT, b: RT) -> bool:
    """Specialised same-cycle conflict check (the common case)."""
    map_b: dict[tuple[str, int], str] = {
        (use.resource, use.offset): use.usage for use in b.uses
    }
    for use in a.uses:
        usage_b = map_b.get((use.resource, use.offset))
        if usage_b is not None and usage_b != use.usage:
            return True
    return False
