"""RT generation: lower a DFG onto a core as register transfers.

This is step 1 of the paper's compiler (figure 1b), rebuilt from
scratch over our datapath model.  For every live DFG node it emits the
RT(s) realising it:

==================  =====================================================
DFG node            register transfers
==================  =====================================================
INPUT               ``ipb.read`` → consumer register files
PARAM (ROM core)    ``prg_c.const #addr`` → ROM address register, then
                    ``rom.const`` → coefficient register
PARAM (no ROM)      ``prg_c.const #value`` → consumer register files
DELAY s@k           ``acu.addmod fp,#off`` → address register, then
                    ``ram.read`` → consumer register files
OP                  one RT on the bound OPU
STATE_WRITE s       ``acu.addmod fp,#off`` then ``ram.write``
OUTPUT              ``opb.write``
(per iteration)     ``acu.addmod fp,#S`` — frame-pointer advance
==================  =====================================================

Data routing: a value is written (multicast, one bus occupation) into
every register file its consumers read.  When the producer's bus does
not reach a required file, a single-hop *copy* through a pass-capable
OPU is inserted — the "data routing" repair of the Cathedral school
[Lanneer et al.].  If no copier exists either, a
:class:`~repro.errors.RoutingError` asks the user to rewrite the source
or extend the core, which is exactly the design iteration the paper
describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..arch.datapath import Datapath
from ..arch.library import CoreSpec
from ..arch.opu import Operation, Opu
from ..errors import ConnectivityError, RoutingError
from ..fixed import FixedFormat
from ..lang.dfg import Dfg, Node, NodeKind
from ..obs import current_telemetry
from .binding import Binding, bind
from .memory import MemoryLayout, RomLayout
from .program import LoopCarry, RTProgram
from .rt import RT, Destination, Operand, ResourceUse


def live_nodes(dfg: Dfg) -> set[int]:
    """Backward closure from the sinks (outputs and state writes)."""
    live: set[int] = set()
    worklist = [
        n.id for n in dfg.nodes
        if n.kind in (NodeKind.OUTPUT, NodeKind.STATE_WRITE)
    ]
    while worklist:
        node_id = worklist.pop()
        if node_id in live:
            continue
        live.add(node_id)
        worklist.extend(dfg.node(node_id).args)
    return live


@dataclass
class _Consumer:
    """One read of a value: which node, which argument position."""

    node: Node
    arg_index: int


@dataclass
class _CopyPlan:
    copier: Opu
    target_rf: str
    copy_value: int


class _Sink(NamedTuple):
    """The resources a result books to reach one register file."""

    mux: str | None          # mux resource, if the route has one
    mux_usage: str | None    # its selection of the producer's bus
    write: str               # the register file's write port


class _Wiring(NamedTuple):
    """One OPU's connections as resource names, resolved once per compile."""

    buffer: str                      # output buffer
    bus: str | None                  # bus it drives
    sinks: dict[str, _Sink]          # reachable register file -> sink
    reads: tuple[str | None, ...]    # read resource per input port


def _wiring(dp: Datapath, opu: Opu) -> _Wiring:
    sinks = {}
    for route in dp.routes_from(opu):
        mux = route.mux
        sinks[route.register_file.name] = _Sink(
            mux.resource if mux is not None else None,
            mux.select_usage(route.bus) if mux is not None else None,
            route.register_file.write_resource,
        )
    reads = tuple(
        port.register_file.read_resource(port)
        if port.register_file is not None else None
        for port in opu.ports
    )
    bus = opu.bus.resource if opu.bus is not None else None
    return _Wiring(opu.buffer_name, bus, sinks, reads)


class _Generator:
    def __init__(self, dfg: Dfg, core: CoreSpec, binding: Binding,
                 live: set[int]):
        self.dfg = dfg
        self.core = core
        self.dp: Datapath = core.datapath
        self.binding = binding
        # The core's wiring is fixed for the compile: every route and
        # resource name is looked up here instead of re-derived per use.
        self.wiring = {name: _wiring(self.dp, opu)
                       for name, opu in self.dp.opus.items()}
        self.copiers = self.dp.opus_supporting("pass")
        # Equal resource uses are one object per compile (they are
        # frozen), so the RT snapshot pickles each distinct use once.
        self._uses: dict[tuple[str, str, int], ResourceUse] = {}
        self.live = live
        self.fmt = FixedFormat(core.data_width, core.frac_bits)
        self._aux_counter = len(dfg.nodes)
        self.rts: list[RT] = []
        self.loop_carries: list[LoopCarry] = []
        self.value_names: dict[int, str] = {}
        # (consumer node id, arg index) -> (register file name, value id)
        self.operand_source: dict[tuple[int, int], tuple[str, int]] = {}
        # (consumer node id, arg index) -> input port index on the bound OPU
        self.port_of: dict[tuple[int, int], int] = {}
        # value id -> destination register files (direct multicast)
        self.dest_rfs: dict[int, list[str]] = {}
        # value id -> copies through pass-capable OPUs
        self.copies: dict[int, list[_CopyPlan]] = {}
        self.memories: dict[str, MemoryLayout] = {}
        self.acu_moduli: dict[str, int] = {}
        self.rom: RomLayout | None = None
        self.fp_old: dict[str, int] = {}     # RAM name -> frame pointer value

    def new_value(self, name: str) -> int:
        value = self._aux_counter
        self._aux_counter += 1
        self.value_names[value] = name
        return value

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def plan(self) -> None:
        self._plan_memory()
        self._assign_ports()
        self._plan_routes()

    def _plan_memory(self) -> None:
        for ram_name in self.binding.rams:
            ram = self.dp.opu(ram_name)
            states = [
                self.dfg.states[state]
                for state, assigned in self.binding.state_ram.items()
                if assigned == ram_name
            ]
            layout = MemoryLayout.for_states(states, ram.memory_size)
            self.memories[ram_name] = layout
            acu_name = self.binding.ram_acu[ram_name]
            existing = self.acu_moduli.get(acu_name)
            if existing is not None and existing != layout.modulus:
                raise RoutingError(
                    f"ACU {acu_name!r} would need two modulo "
                    f"configurations ({existing} and {layout.modulus}); "
                    f"give each data memory its own ACU"
                )
            self.acu_moduli[acu_name] = layout.modulus
        if self.binding.rom_opu is not None:
            live_params = {
                n.name: self.fmt.from_float(self.dfg.params[n.name])
                for n in self.dfg.nodes
                if n.id in self.live and n.kind is NodeKind.PARAM
            }
            if live_params:
                rom = self.dp.opu(self.binding.rom_opu)
                self.rom = RomLayout.for_params(live_params, rom.memory_size)

    def _producer_opu(self, value_node: Node) -> Opu:
        return self.dp.opu(self.binding.opu_of_node(value_node))

    def _assign_ports(self) -> None:
        """Choose the argument → input-port mapping of every consumer."""
        for node in self.dfg.nodes:
            if node.id not in self.live:
                continue
            if node.kind is NodeKind.OP:
                self._assign_op_ports(node)
            elif node.kind is NodeKind.OUTPUT:
                self.port_of[(node.id, 0)] = 0
            elif node.kind is NodeKind.STATE_WRITE:
                # RAM write: port 0 is the address (internal), port 1 data.
                self.port_of[(node.id, 0)] = 1

    def _assign_op_ports(self, node: Node) -> None:
        opu = self.dp.opu(self.binding.operation_opu[node.id])
        operation = opu.operation(node.name)
        if len(node.args) != operation.arity:
            raise RoutingError(
                f"operation {node.name!r} (node n{node.id}) has "
                f"{len(node.args)} operands; OPU {opu.name!r} expects "
                f"{operation.arity}"
            )
        orders = [tuple(range(operation.arity))]
        if operation.commutative and operation.arity == 2:
            orders.append((1, 0))

        def directness(order: tuple[int, ...]) -> int:
            score = 0
            for arg_index, port_index in enumerate(order):
                producer = self.binding.opu_of_node(
                    self.dfg.node(node.args[arg_index]))
                port_rf = self.dp.port_register_file(opu, port_index)
                if port_rf.name in self.wiring[producer].sinks:
                    score += 1
            return score

        best = max(orders, key=directness)
        for arg_index, port_index in enumerate(best):
            self.port_of[(node.id, arg_index)] = port_index

    def _plan_routes(self) -> None:
        """Decide destination register files and copies for every value.

        Values are planned in first-use order (the order their first
        live consumer appears); each value's readers come from the
        DFG's cached consumer index.
        """
        index = self.dfg.consumer_index()
        planned: set[int] = set()
        for consumer_node in self.dfg.nodes:
            if consumer_node.id not in self.live:
                continue
            for value in consumer_node.args:
                if value in planned:
                    continue
                planned.add(value)
                readers = [
                    _Consumer(reader, arg_index)
                    for reader in index[value]
                    if reader.id in self.live
                    for arg_index, arg in enumerate(reader.args)
                    if arg == value
                ]
                self._plan_value(value, readers)

    def _plan_value(self, value: int, readers: list[_Consumer]) -> None:
        current_telemetry().count("rtgen.values_routed")
        value_node = self.dfg.node(value)
        producer = self._producer_opu(value_node)
        direct: list[str] = []
        plans: list[_CopyPlan] = []
        reachable = self.wiring[producer.name].sinks
        for reader in readers:
            consumer_opu = self.dp.opu(self.binding.opu_of_node(reader.node))
            port_index = self.port_of[(reader.node.id, reader.arg_index)]
            target = self.dp.port_register_file(consumer_opu, port_index).name
            if target in reachable:
                if target not in direct:
                    direct.append(target)
                self.operand_source[(reader.node.id, reader.arg_index)] = (
                    target, value,
                )
                continue
            plan = self._find_copy(plans, producer, target, value_node)
            if plan.copier.ports[0].register_file.name not in direct:
                direct.append(plan.copier.ports[0].register_file.name)
            self.operand_source[(reader.node.id, reader.arg_index)] = (
                target, plan.copy_value,
            )
        self.dest_rfs[value] = direct
        self.copies[value] = plans

    def _find_copy(self, plans: list[_CopyPlan], producer: Opu, target: str,
                   value_node: Node) -> _CopyPlan:
        for plan in plans:
            if plan.target_rf == target:
                return plan
        producer_reach = self.wiring[producer.name].sinks
        for copier in self.copiers:
            if copier is producer:
                continue
            input_rf = copier.ports[0].register_file
            if input_rf is None:
                continue
            if (input_rf.name in producer_reach
                    and target in self.wiring[copier.name].sinks):
                copy_value = self.new_value(
                    f"copy_{self.value_names.get(value_node.id, value_node.id)}"
                )
                plan = _CopyPlan(copier, target, copy_value)
                plans.append(plan)
                current_telemetry().count("rtgen.copies_inserted")
                return plan
        raise RoutingError(
            f"value of node n{value_node.id} ({value_node.name}) produced on "
            f"OPU {producer.name!r} cannot reach register file {target!r}, "
            f"and no pass-capable OPU can relay it; rewrite the source or "
            f"extend the core's interconnect"
        )

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def emit(self) -> None:
        for ram_name in self.memories:
            self.fp_old[ram_name] = self.new_value(f"fp_{ram_name}")
        handlers = {
            NodeKind.INPUT: self._emit_input,
            NodeKind.PARAM: self._emit_param,
            NodeKind.DELAY: self._emit_delay,
            NodeKind.OP: self._emit_op,
            NodeKind.STATE_WRITE: self._emit_state_write,
            NodeKind.OUTPUT: self._emit_output,
        }
        for node in self.dfg.nodes:
            if node.id not in self.live:
                continue
            handlers[node.kind](node)
            if node.label:
                self.value_names[node.id] = node.label
        for ram_name in self.memories:
            self._emit_fp_advance(ram_name)

    # -- helpers -----------------------------------------------------------

    def _use(self, resource: str, usage: str, offset: int = 0) -> ResourceUse:
        key = (resource, usage, offset)
        use = self._uses.get(key)
        if use is None:
            use = self._uses[key] = ResourceUse(resource, usage, offset)
        return use

    def _make_rt(
        self,
        opu: Opu,
        operation: Operation,
        operands: list[tuple[Operand, int | None]],
        value: int | None,
        dest_rfs: list[str],
        source: str,
        memory_location: str | None = None,
        memory_effect: str | None = None,
        io_port: str | None = None,
    ) -> RT:
        """Assemble one RT with its full resource/usage path (figure 2).

        ``operands`` pairs each :class:`Operand` with the input-port
        index it enters through (``None`` for immediates on ports).
        """
        wiring = self.wiring[opu.name]
        use = self._use
        uses: list[ResourceUse] = [use(opu.name, operation.name)]
        if io_port is not None:
            # The IO pin carries one logical stream's sample per cycle;
            # two streams through one port block must take turns even
            # when they happen to carry the same value.
            uses.append(use(f"{opu.name}:pin", io_port))
        if operation.initiation_interval > 1:
            uses.extend(
                use(opu.name, operation.name, offset)
                for offset in range(1, operation.initiation_interval)
            )
        for operand, port_index in operands:
            if not operand.is_register or port_index is None:
                continue
            uses.append(use(wiring.reads[port_index], f"v{operand.value}"))
        destinations: list[Destination] = []
        if value is not None and dest_rfs:
            result_offset = operation.latency - 1
            carried = f"v{value}"
            uses.append(use(wiring.buffer, "write", result_offset))
            uses.append(use(wiring.bus, carried, result_offset))
            for rf in dest_rfs:
                sink = wiring.sinks.get(rf)
                if sink is None:
                    raise ConnectivityError(
                        f"no route from OPU {opu.name!r} to register "
                        f"file {rf!r}"
                    )
                if sink.mux is not None:
                    uses.append(use(sink.mux, sink.mux_usage, result_offset))
                uses.append(use(sink.write, carried, result_offset))
                destinations.append(
                    Destination(
                        register_file=rf,
                        value=value,
                        mux=sink.mux,
                        mux_usage=sink.mux_usage,
                    )
                )
        rt = RT(
            opu=opu.name,
            operation=operation.name,
            operands=tuple(op for op, _ in operands),
            destinations=tuple(destinations),
            uses=tuple(uses),
            latency=operation.latency,
            source=source,
            memory_location=memory_location,
            memory_effect=memory_effect,
            io_port=io_port,
        )
        self.rts.append(rt)
        return rt

    def _emit_copies(self, node_id: int) -> None:
        for plan in self.copies.get(node_id, ()):  # insert data-routing hops
            copier = plan.copier
            operation = copier.operation("pass")
            input_rf = copier.ports[0].register_file
            self._make_rt(
                copier,
                operation,
                [(Operand.register(input_rf.name, node_id), 0)],
                plan.copy_value,
                [plan.target_rf],
                source=f"route n{node_id}",
            )

    def _dests(self, node_id: int) -> list[str]:
        return self.dest_rfs.get(node_id, [])

    # -- node emitters ------------------------------------------------------

    def _emit_input(self, node: Node) -> None:
        opu = self.dp.opu(self.binding.input_opu[node.name])
        self._make_rt(
            opu, opu.operation("read"), [], node.id, self._dests(node.id),
            source=f"{node.name} (input)",
            io_port=node.name,
        )
        self._emit_copies(node.id)

    def _emit_param(self, node: Node) -> None:
        if self.rom is not None:
            address = self.rom.address[node.name]
            const_opu = self.dp.opu(self.binding.const_opu)
            rom_opu = self.dp.opu(self.binding.rom_opu)
            rom_port_rf = self.dp.port_register_file(rom_opu, 0)
            address_value = self.new_value(f"addr_{node.name}")
            self._make_rt(
                const_opu,
                const_opu.operation("const"),
                [(Operand.immediate(address), None)],
                address_value,
                [rom_port_rf.name],
                source=f"#{node.name} (ROM address)",
            )
            self._make_rt(
                rom_opu,
                rom_opu.operation("const"),
                [(Operand.register(rom_port_rf.name, address_value), 0)],
                node.id,
                self._dests(node.id),
                source=f"{node.name} (coefficient)",
                memory_location=f"rom[{address}]",
                memory_effect="read",
            )
        else:
            const_opu = self.dp.opu(self.binding.const_opu)
            quantised = self.fmt.from_float(self.dfg.params[node.name])
            self._make_rt(
                const_opu,
                const_opu.operation("const"),
                [(Operand.immediate(quantised), None)],
                node.id,
                self._dests(node.id),
                source=f"{node.name} (coefficient)",
            )
        self._emit_copies(node.id)

    def _address_rt(self, ram_name: str, offset: int, label: str) -> int:
        """Emit one ACU address computation; return the address value id."""
        acu = self.dp.opu(self.binding.ram_acu[ram_name])
        acu_rf = self.dp.port_register_file(acu, 0)
        ram = self.dp.opu(ram_name)
        ram_addr_rf = self.dp.port_register_file(ram, 0)
        address_value = self.new_value(label)
        self._make_rt(
            acu,
            acu.operation("addmod"),
            [
                (Operand.register(acu_rf.name, self.fp_old[ram_name]), 0),
                (Operand.immediate(offset), 1),
            ],
            address_value,
            [ram_addr_rf.name],
            source=label,
        )
        return address_value

    def _emit_delay(self, node: Node) -> None:
        ram_name = self.binding.state_ram[node.name]
        offset = self.memories[ram_name].read_offset(node.name, node.delay)
        address_value = self._address_rt(
            ram_name, offset, f"&{node.name}@{node.delay}"
        )
        ram = self.dp.opu(ram_name)
        ram_addr_rf = self.dp.port_register_file(ram, 0)
        self._make_rt(
            ram,
            ram.operation("read"),
            [(Operand.register(ram_addr_rf.name, address_value), 0)],
            node.id,
            self._dests(node.id),
            source=f"{node.name}@{node.delay}",
            memory_location=f"{node.name}@{node.delay}",
            memory_effect="read",
        )
        self._emit_copies(node.id)

    def _emit_op(self, node: Node) -> None:
        opu = self.dp.opu(self.binding.operation_opu[node.id])
        operation = opu.operation(node.name)
        operands: list[tuple[Operand, int | None]] = []
        by_port = sorted(
            range(len(node.args)),
            key=lambda arg_index: self.port_of[(node.id, arg_index)],
        )
        for arg_index in by_port:
            rf, value = self.operand_source[(node.id, arg_index)]
            operands.append(
                (Operand.register(rf, value), self.port_of[(node.id, arg_index)])
            )
        self._make_rt(
            opu, operation, operands, node.id, self._dests(node.id),
            source=f"{node.name} n{node.id}",
        )
        self._emit_copies(node.id)

    def _emit_state_write(self, node: Node) -> None:
        ram_name = self.binding.state_ram[node.name]
        offset = self.memories[ram_name].write_offset(node.name)
        address_value = self._address_rt(ram_name, offset, f"&{node.name}")
        ram = self.dp.opu(ram_name)
        ram_addr_rf = self.dp.port_register_file(ram, 0)
        data_rf, data_value = self.operand_source[(node.id, 0)]
        self._make_rt(
            ram,
            ram.operation("write"),
            [
                (Operand.register(ram_addr_rf.name, address_value), 0),
                (Operand.register(data_rf, data_value), 1),
            ],
            None,
            [],
            source=f"{node.name} = ...",
            memory_location=f"{node.name}@0",
            memory_effect="write",
        )

    def _emit_output(self, node: Node) -> None:
        opu = self.dp.opu(self.binding.output_opu[node.name])
        rf, value = self.operand_source[(node.id, 0)]
        self._make_rt(
            opu,
            opu.operation("write"),
            [(Operand.register(rf, value), 0)],
            None,
            [],
            source=f"{node.name} (output)",
            io_port=node.name,
        )

    def _emit_fp_advance(self, ram_name: str) -> None:
        acu = self.dp.opu(self.binding.ram_acu[ram_name])
        acu_rf = self.dp.port_register_file(acu, 0)
        fp_new = self.new_value(f"fp_{ram_name}'")
        self._make_rt(
            acu,
            acu.operation("addmod"),
            [
                (Operand.register(acu_rf.name, self.fp_old[ram_name]), 0),
                (Operand.immediate(self.memories[ram_name].advance_offset()), 1),
            ],
            fp_new,
            [acu_rf.name],
            source=f"frame pointer advance ({ram_name})",
        )
        self.loop_carries.append(
            LoopCarry(
                register_file=acu_rf.name,
                register=0,
                old=self.fp_old[ram_name],
                new=fp_new,
                initial=0,
            )
        )


def generate_rts(
    dfg: Dfg,
    core: CoreSpec,
    io_binding: dict[str, str] | None = None,
) -> RTProgram:
    """Lower ``dfg`` onto ``core``; the main entry point of this package."""
    dfg.validate()
    live = live_nodes(dfg)
    binding = bind(dfg, core, io_binding, live)
    generator = _Generator(dfg, core, binding, live)
    generator.plan()
    generator.emit()
    return RTProgram(
        core=core,
        dfg=dfg,
        rts=generator.rts,
        loop_carries=generator.loop_carries,
        memories=generator.memories,
        acu_moduli=generator.acu_moduli,
        rom=generator.rom,
        value_names=generator.value_names,
    )
