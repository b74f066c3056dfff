"""A library of in-house core definitions.

A :class:`CoreSpec` bundles everything the paper calls "the core":
the datapath, the controller and the instruction set (section 7:
"At this point the core is defined by the presented datapath, the
controller and the instruction set").

The instruction set is carried as *plain data* — named RT-class
definitions (OPU + usage set, section 6.1) and the desired instruction
types (sets of class names, section 6.2).  The :mod:`repro.core`
package interprets this data: it classifies RTs, validates/closes the
instruction set and generates the artificial conflict resources.

Cores provided
--------------
``audio_core``
    The digital-audio processor of figure 8, with the 13 RT classes of
    the paper's table reduced to the 9 classes {A,B,C,D,X,G,Y,L,M} and
    the three maximal instruction types of section 7.
``fir_core``
    A smaller filter core (no separate coefficient ROM: coefficients
    come from the program constant unit) used by the FIR/LMS examples.
``tiny_core``
    A register-only teaching core for quickstarts and unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ArchitectureError
from .controller import ControllerSpec
from .datapath import Datapath
from .opu import Operation, OpuKind
from .validate import datapath_findings


@dataclass(frozen=True)
class ClassDef:
    """One RT class: a name for an (OPU, usage set) pair (section 6.1)."""

    name: str
    opu: str
    usages: tuple[str, ...]


@dataclass
class CoreSpec:
    """A complete in-house core: datapath + controller + instruction set."""

    name: str
    datapath: Datapath
    controller: ControllerSpec
    class_defs: list[ClassDef] = field(default_factory=list)
    instruction_types: list[frozenset[str]] = field(default_factory=list)
    data_width: int = 16
    frac_bits: int = 15

    def __post_init__(self) -> None:
        errors = [f.message for f in datapath_findings(self.datapath)
                  if f.is_error]
        if errors:
            raise ArchitectureError(
                "datapath style violations:\n  - " + "\n  - ".join(errors))

    def class_def(self, name: str) -> ClassDef:
        for cd in self.class_defs:
            if cd.name == name:
                return cd
        raise KeyError(f"core {self.name!r} has no RT class {name!r}")


# ---------------------------------------------------------------------------
# The audio core of figure 8
# ---------------------------------------------------------------------------

#: The unreduced class identification of the paper's figure 8 table:
#: 13 classes A..M, one per (OPU, usage) pair.
AUDIO_CLASS_TABLE_13: list[ClassDef] = [
    ClassDef("A", "ipb", ("read",)),
    ClassDef("B", "opb_1", ("write",)),
    ClassDef("C", "opb_2", ("write",)),
    ClassDef("D", "acu", ("addmod",)),
    ClassDef("E", "ram", ("read",)),
    ClassDef("F", "ram", ("write",)),
    ClassDef("G", "mult", ("mult",)),
    ClassDef("H", "alu", ("add",)),
    ClassDef("I", "alu", ("add_clip",)),
    ClassDef("J", "alu", ("pass",)),
    ClassDef("K", "alu", ("pass_clip",)),
    ClassDef("L", "rom", ("const",)),
    ClassDef("M", "prg_c", ("const",)),
]

#: The reduced table of section 7: "Classes E and F can be combined in a
#: single class X and classes H, I, J and K can be combined to class Y
#: so the number of classes is reduced to 9."
AUDIO_CLASS_TABLE_9: list[ClassDef] = [
    ClassDef("A", "ipb", ("read",)),
    ClassDef("B", "opb_1", ("write",)),
    ClassDef("C", "opb_2", ("write",)),
    ClassDef("D", "acu", ("addmod",)),
    ClassDef("X", "ram", ("read", "write")),
    ClassDef("G", "mult", ("mult",)),
    ClassDef("Y", "alu", ("add", "add_clip", "pass", "pass_clip")),
    ClassDef("L", "rom", ("const",)),
    ClassDef("M", "prg_c", ("const",)),
]

#: Section 7: "The instructions which are required are
#: {A,D,X,G,Y,L,M}, {B,D,X,G,Y,L,M}, {C,D,X,G,Y,L,M} together with all
#: their sub-instructions."  (Sub-instructions follow from construction
#: rule 3; the closure is computed by repro.core.)
AUDIO_INSTRUCTION_TYPES: list[frozenset[str]] = [
    frozenset({"A", "D", "X", "G", "Y", "L", "M"}),
    frozenset({"B", "D", "X", "G", "Y", "L", "M"}),
    frozenset({"C", "D", "X", "G", "Y", "L", "M"}),
]


def audio_datapath(ram_size: int = 128, rom_size: int = 64,
                   rf_scale: int = 1) -> Datapath:
    """Build the datapath of figure 8.

    OPUs: RAM (delay-line state), MULT, ALU with clip, coefficient ROM,
    ACU with modulo addressing, program constant unit PRG_C, the input
    port block IPB and two output port blocks OPB_1/OPB_2.  All operand
    register files are distributed, single-cycle, per-port.

    ``rf_scale`` multiplies every register-file size — used by the
    scaling benches that compile far bigger applications than the
    audio workload the default sizes were chosen for.
    """
    dp = Datapath("audio")

    ram = dp.add_opu("ram", OpuKind.RAM, [
        Operation("read", arity=1, reads_memory=True),
        Operation("write", arity=2, writes_memory=True),
    ], memory_size=ram_size)
    mult = dp.add_opu("mult", OpuKind.MULT, [
        Operation("mult", arity=2, commutative=True),
    ])
    alu = dp.add_opu("alu", OpuKind.ALU, [
        Operation("add", arity=2, commutative=True),
        Operation("add_clip", arity=2, commutative=True),
        Operation("pass", arity=1),
        Operation("pass_clip", arity=1),
    ])
    rom = dp.add_opu("rom", OpuKind.ROM, [
        Operation("const", arity=1, reads_memory=True),
    ], memory_size=rom_size)
    acu = dp.add_opu("acu", OpuKind.ACU, [
        Operation("addmod", arity=2),
    ])
    prg = dp.add_opu("prg_c", OpuKind.CONST, [
        Operation("const", arity=1),
    ])
    ipb = dp.add_opu("ipb", OpuKind.INPUT, [Operation("read", arity=0)])
    dp.add_opu("opb_1", OpuKind.OUTPUT, [Operation("write", arity=1)])
    dp.add_opu("opb_2", OpuKind.OUTPUT, [Operation("write", arity=1)])

    # Distributed register files, one per OPU input port (figure 8).
    # The paper does not publish file sizes; these accommodate the
    # 92%-occupation audio schedule (nine interleaved filter sections
    # keep up to 9 accumulators and 8 routed values alive at once).
    rf_ram_addr = dp.add_register_file("rf_ram_addr", 4 * rf_scale)
    rf_ram_data = dp.add_register_file("rf_ram_data", 8 * rf_scale)
    rf_mult_data = dp.add_register_file("rf_mult_data", 8 * rf_scale)
    rf_mult_coef = dp.add_register_file("rf_mult_coef", 4 * rf_scale)
    rf_rom_addr = dp.add_register_file("rf_rom_addr", 4 * rf_scale)
    rf_alu_p0 = dp.add_register_file("rf_alu_p0", 6 * rf_scale)
    rf_alu_p1 = dp.add_register_file("rf_alu_p1", 10 * rf_scale)
    rf_acu = dp.add_register_file("rf_acu", 2)
    rf_opb1 = dp.add_register_file("rf_opb1", 2 * rf_scale)
    rf_opb2 = dp.add_register_file("rf_opb2", 2 * rf_scale)

    dp.connect_port(ram, 0, rf_ram_addr)
    dp.connect_port(ram, 1, rf_ram_data)
    dp.connect_port(mult, 0, rf_mult_data)
    dp.connect_port(mult, 1, rf_mult_coef)
    dp.connect_port(alu, 0, rf_alu_p0)
    dp.connect_port(alu, 1, rf_alu_p1)
    dp.connect_port(rom, 0, rf_rom_addr)
    dp.connect_port(acu, 0, rf_acu)
    dp.make_immediate_port(acu, 1)       # modulo offset from the instruction word
    dp.make_immediate_port(prg, 0)       # the program constant itself
    dp.connect_port("opb_1", 0, rf_opb1)
    dp.connect_port("opb_2", 0, rf_opb2)

    bus_ram = dp.attach_bus(ram)
    bus_mult = dp.attach_bus(mult)
    bus_alu = dp.attach_bus(alu)
    bus_rom = dp.attach_bus(rom)
    bus_acu = dp.attach_bus(acu)
    bus_prg = dp.attach_bus(prg)
    bus_ipb = dp.attach_bus(ipb)

    # Fan-out.  Register files with several writers get a multiplexer
    # (inserted automatically), matching the optional mux of figure 3.
    dp.route_bus(bus_acu, rf_ram_addr)
    dp.route_bus(bus_acu, rf_acu)            # frame-pointer feedback
    dp.route_bus(bus_ipb, rf_ram_data)       # store input sample
    dp.route_bus(bus_alu, rf_ram_data)       # store computed state
    dp.route_bus(bus_mult, rf_ram_data)      # store scaled state
    dp.route_bus(bus_ram, rf_mult_data)      # delayed signal into MULT
    dp.route_bus(bus_alu, rf_mult_data)      # chained section into MULT
    dp.route_bus(bus_ipb, rf_mult_data)      # input sample into MULT
    dp.route_bus(bus_rom, rf_mult_coef)      # coefficient fetch
    dp.route_bus(bus_prg, rf_rom_addr)       # coefficient address
    dp.route_bus(bus_mult, rf_alu_p0)        # product into ALU
    dp.route_bus(bus_ram, rf_alu_p0)         # delayed signal into ALU
    dp.route_bus(bus_ipb, rf_alu_p0)         # input sample into ALU
    dp.route_bus(bus_alu, rf_alu_p0)         # chained ALU op (unary port)
    dp.route_bus(bus_alu, rf_alu_p1)         # accumulator feedback
    dp.route_bus(bus_ram, rf_alu_p1)         # delayed signal into ALU
    dp.route_bus(bus_alu, rf_opb1)
    dp.route_bus(bus_alu, rf_opb2)
    return dp


def audio_core(ram_size: int = 128, rom_size: int = 64,
               rf_scale: int = 1, program_size: int = 128) -> CoreSpec:
    """The complete audio core of section 7 (figure 8).

    The controller is "a stripped version of the controller presented
    in figure 4 as there are no conditional instructions at all".
    """
    return CoreSpec(
        name="audio",
        datapath=audio_datapath(ram_size=ram_size, rom_size=rom_size,
                                rf_scale=rf_scale),
        controller=ControllerSpec(
            stack_depth=2,
            n_flags=0,
            supports_conditionals=False,
            supports_loops=True,
            program_size=program_size,
        ),
        class_defs=list(AUDIO_CLASS_TABLE_9),
        instruction_types=list(AUDIO_INSTRUCTION_TYPES),
    )


# ---------------------------------------------------------------------------
# A smaller filter core (FIR / LMS examples)
# ---------------------------------------------------------------------------

def fir_datapath(ram_size: int = 256) -> Datapath:
    """A filter core without a coefficient ROM.

    Coefficients are program constants routed straight into the
    multiplier; the ACU additionally supports ``inca`` (post-increment
    addressing) for walking delay lines inside hardware loops.
    """
    dp = Datapath("fir")

    ram = dp.add_opu("ram", OpuKind.RAM, [
        Operation("read", arity=1, reads_memory=True),
        Operation("write", arity=2, writes_memory=True),
    ], memory_size=ram_size)
    mult = dp.add_opu("mult", OpuKind.MULT, [
        Operation("mult", arity=2, commutative=True),
    ])
    alu = dp.add_opu("alu", OpuKind.ALU, [
        Operation("add", arity=2, commutative=True),
        Operation("sub", arity=2),
        Operation("add_clip", arity=2, commutative=True),
        Operation("pass", arity=1),
        Operation("pass_clip", arity=1),
    ])
    acu = dp.add_opu("acu", OpuKind.ACU, [
        Operation("addmod", arity=2),
        Operation("inca", arity=1),
    ])
    prg = dp.add_opu("prg_c", OpuKind.CONST, [Operation("const", arity=1)])
    ipb = dp.add_opu("ipb", OpuKind.INPUT, [Operation("read", arity=0)])
    dp.add_opu("opb", OpuKind.OUTPUT, [Operation("write", arity=1)])

    rf_ram_addr = dp.add_register_file("rf_ram_addr", 4)
    rf_ram_data = dp.add_register_file("rf_ram_data", 4)
    rf_mult_data = dp.add_register_file("rf_mult_data", 4)
    rf_mult_coef = dp.add_register_file("rf_mult_coef", 4)
    rf_alu_p0 = dp.add_register_file("rf_alu_p0", 6)
    rf_alu_p1 = dp.add_register_file("rf_alu_p1", 6)
    rf_acu = dp.add_register_file("rf_acu", 4)
    rf_opb = dp.add_register_file("rf_opb", 2)

    dp.connect_port(ram, 0, rf_ram_addr)
    dp.connect_port(ram, 1, rf_ram_data)
    dp.connect_port(mult, 0, rf_mult_data)
    dp.connect_port(mult, 1, rf_mult_coef)
    dp.connect_port(alu, 0, rf_alu_p0)
    dp.connect_port(alu, 1, rf_alu_p1)
    dp.connect_port(acu, 0, rf_acu)
    dp.make_immediate_port(acu, 1)
    dp.make_immediate_port(prg, 0)
    dp.connect_port("opb", 0, rf_opb)

    bus_ram = dp.attach_bus(ram)
    bus_mult = dp.attach_bus(mult)
    bus_alu = dp.attach_bus(alu)
    bus_acu = dp.attach_bus(acu)
    bus_prg = dp.attach_bus(prg)
    bus_ipb = dp.attach_bus(ipb)

    dp.route_bus(bus_acu, rf_ram_addr)
    dp.route_bus(bus_acu, rf_acu)
    dp.route_bus(bus_ipb, rf_ram_data)
    dp.route_bus(bus_alu, rf_ram_data)
    dp.route_bus(bus_mult, rf_ram_data)
    dp.route_bus(bus_ram, rf_mult_data)
    dp.route_bus(bus_alu, rf_mult_data)
    dp.route_bus(bus_ipb, rf_mult_data)
    dp.route_bus(bus_prg, rf_mult_coef)
    dp.route_bus(bus_mult, rf_alu_p0)
    dp.route_bus(bus_ram, rf_alu_p0)
    dp.route_bus(bus_ipb, rf_alu_p0)
    dp.route_bus(bus_alu, rf_alu_p0)
    dp.route_bus(bus_alu, rf_alu_p1)
    dp.route_bus(bus_ram, rf_alu_p1)
    dp.route_bus(bus_prg, rf_alu_p1)
    dp.route_bus(bus_alu, rf_opb)
    return dp


FIR_CLASS_TABLE: list[ClassDef] = [
    ClassDef("A", "ipb", ("read",)),
    ClassDef("B", "opb", ("write",)),
    ClassDef("D", "acu", ("addmod", "inca")),
    ClassDef("X", "ram", ("read", "write")),
    ClassDef("G", "mult", ("mult",)),
    ClassDef("Y", "alu", ("add", "sub", "add_clip", "pass", "pass_clip")),
    ClassDef("M", "prg_c", ("const",)),
]

#: IO is exclusive on the FIR core too (one IO field in the word), and
#: the program-constant field is shared between the coefficient path
#: and the ALU path, so M appears in every type.
FIR_INSTRUCTION_TYPES: list[frozenset[str]] = [
    frozenset({"A", "D", "X", "G", "Y", "M"}),
    frozenset({"B", "D", "X", "G", "Y", "M"}),
]


def fir_core(ram_size: int = 256) -> CoreSpec:
    return CoreSpec(
        name="fir",
        datapath=fir_datapath(ram_size=ram_size),
        controller=ControllerSpec(
            stack_depth=4,
            n_flags=0,
            supports_conditionals=False,
            supports_loops=True,
            program_size=256,
        ),
        class_defs=list(FIR_CLASS_TABLE),
        instruction_types=list(FIR_INSTRUCTION_TYPES),
    )


# ---------------------------------------------------------------------------
# A register-only teaching core
# ---------------------------------------------------------------------------

def tiny_datapath() -> Datapath:
    """The smallest style-conforming datapath: ALU + constants + IO."""
    dp = Datapath("tiny")

    alu = dp.add_opu("alu", OpuKind.ALU, [
        Operation("add", arity=2, commutative=True),
        Operation("sub", arity=2),
        Operation("pass", arity=1),
    ])
    prg = dp.add_opu("prg_c", OpuKind.CONST, [Operation("const", arity=1)])
    ipb = dp.add_opu("ipb", OpuKind.INPUT, [Operation("read", arity=0)])
    dp.add_opu("opb", OpuKind.OUTPUT, [Operation("write", arity=1)])

    rf_p0 = dp.add_register_file("rf_alu_p0", 4)
    rf_p1 = dp.add_register_file("rf_alu_p1", 4)
    rf_opb = dp.add_register_file("rf_opb", 2)

    dp.connect_port(alu, 0, rf_p0)
    dp.connect_port(alu, 1, rf_p1)
    dp.make_immediate_port(prg, 0)
    dp.connect_port("opb", 0, rf_opb)

    bus_alu = dp.attach_bus(alu)
    bus_prg = dp.attach_bus(prg)
    bus_ipb = dp.attach_bus(ipb)

    dp.route_bus(bus_ipb, rf_p0)
    dp.route_bus(bus_alu, rf_p0)
    dp.route_bus(bus_prg, rf_p1)
    dp.route_bus(bus_alu, rf_p1)
    dp.route_bus(bus_alu, rf_opb)
    dp.route_bus(bus_ipb, rf_opb)
    return dp


TINY_CLASS_TABLE: list[ClassDef] = [
    ClassDef("A", "ipb", ("read",)),
    ClassDef("B", "opb", ("write",)),
    ClassDef("Y", "alu", ("add", "sub", "pass")),
    ClassDef("M", "prg_c", ("const",)),
]

TINY_INSTRUCTION_TYPES: list[frozenset[str]] = [
    frozenset({"A", "Y", "M"}),
    frozenset({"B", "Y", "M"}),
]


def tiny_core() -> CoreSpec:
    return CoreSpec(
        name="tiny",
        datapath=tiny_datapath(),
        controller=ControllerSpec(
            stack_depth=2,
            n_flags=0,
            supports_conditionals=False,
            supports_loops=True,
            program_size=64,
        ),
        class_defs=list(TINY_CLASS_TABLE),
        instruction_types=list(TINY_INSTRUCTION_TYPES),
    )
