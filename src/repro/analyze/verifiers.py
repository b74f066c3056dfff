"""Stage-boundary verifiers: pure invariant checks on pipeline artifacts.

Each pipeline stage (see ``repro.pipeline.stages``) hands its successor
an artifact it trusts to be legal; these functions state that legality,
LLVM-verifier style, and report violations as
:class:`~repro.analyze.findings.Finding` lists instead of crashing
somewhere downstream.  The DFG, schedule and datapath rules live here
only: ``Dfg.validate``, ``Schedule.validate`` and ``CoreSpec`` raise
on the error findings.  They never mutate their inputs and never raise
on malformed artifacts — a corrupted schedule yields findings, not a
``KeyError`` — so they are safe to run over adversarial fixtures.

The ``verify=`` knob of :class:`repro.options.CompileOptions` wires
:func:`verify_stage` into ``Toolchain.run_pipeline`` after every stage
boundary (``boundaries``), with ``strict`` additionally linting the
encoded image (see :mod:`repro.analyze.lint`).
"""

from __future__ import annotations

from ..arch.opu import OpuKind
from ..errors import ConnectivityError
from .findings import Finding, error, warning

__all__ = [
    "verify_allocation",
    "verify_datapath",
    "verify_dfg",
    "verify_rt_program",
    "verify_schedule",
    "verify_stage",
    "verify_state",
]


# ----------------------------------------------------------------------
# DFG well-formedness


def verify_dfg(dfg) -> list[Finding]:
    """Well-formedness of a :class:`repro.lang.Dfg`, the one copy of its
    rules: ``Dfg.validate`` raises on these findings.

    Checks unique node ids, definition-before-use (which is exactly
    acyclicity of the within-frame dataflow — cross-iteration feedback
    must go through DELAY states), delay windows, declared names and
    the single-write-per-frame state discipline.
    """
    from ..lang.dfg import NodeKind

    findings: list[Finding] = []
    states = dfg.states
    defined: set[int] = set()
    all_ids: set[int] | None = None
    read_states: set[str] = set()
    state_writes: set[str] = set()
    for node in dfg.nodes:
        node_id, name, kind = node.id, node.name, node.kind
        if node_id in defined:
            findings.append(error(
                "dfg.duplicate-id",
                f"node id {node_id} is defined twice", f"node n{node_id}"))
        for arg in node.args:
            if arg in defined:
                continue
            if all_ids is None:
                all_ids = {n.id for n in dfg.nodes}
            if arg in all_ids:
                findings.append(error(
                    "dfg.edge-cycle",
                    f"node n{node_id} ({name}) uses n{arg} before its "
                    f"definition", f"node n{node_id}",
                    hint="route cross-iteration feedback through a state"))
            else:
                findings.append(error(
                    "dfg.dangling-edge",
                    f"node n{node_id} ({name}) uses n{arg}, which no node "
                    f"produces", f"node n{node_id}",
                    hint="remove the edge or add the producer"))
        defined.add(node_id)
        if kind is NodeKind.OP:
            continue
        if kind is NodeKind.DELAY:
            read_states.add(name)
            spec = states.get(name)
            if spec is None:
                findings.append(_unknown_name("delay of unknown state", node))
            elif not 1 <= node.delay <= spec.depth:
                findings.append(error(
                    "dfg.delay-window",
                    f"delay {name}@{node.delay} outside the state's "
                    f"window [1, {spec.depth}]", f"node n{node_id}"))
        elif kind is NodeKind.STATE_WRITE:
            if name not in states:
                findings.append(_unknown_name("write to unknown state", node))
            elif name in state_writes:
                findings.append(error(
                    "dfg.state-rewrite",
                    f"state {name!r} written twice in one iteration",
                    f"node n{node_id}"))
            state_writes.add(name)
        elif kind is NodeKind.PARAM and name not in dfg.params:
            findings.append(_unknown_name("unknown parameter", node))
        elif kind is NodeKind.INPUT and name not in dfg.inputs:
            findings.append(_unknown_name("unknown input port", node))
        elif kind is NodeKind.OUTPUT and name not in dfg.outputs:
            findings.append(_unknown_name("unknown output port", node))
    for name in sorted(read_states - state_writes):
        if name in states:
            findings.append(error(
                "dfg.state-unwritten",
                f"state {name!r} is read but never written",
                hint="add the state_write or drop the delay"))
    return findings


def _unknown_name(what: str, node) -> Finding:
    return error("dfg.unknown-name", f"{what} {node.name!r}",
                 f"node n{node.id}")


# ----------------------------------------------------------------------
# RT-program legality


def verify_rt_program(program) -> list[Finding]:
    """Bindability of every RT against the program's datapath.

    Checks that each RT executes on an existing OPU that supports its
    operation, that register operands arrive through the file actually
    feeding that port (immediates through immediate ports), that a
    route exists from the OPU's bus to every destination file, and that
    every value read is either produced by some RT or live-in (loop
    carry / pinned initial).  Intended for the ``rtgen`` boundary,
    *before* instruction-set imposition adds artificial resources.
    """
    findings: list[Finding] = []
    dp = program.core.datapath
    producers = program.producers()
    live_in = program.live_in_values()
    for rt in program.rts:
        where = f"rt {rt.opu}/{rt.uid}"
        opu = dp.opus.get(rt.opu)
        if opu is None:
            findings.append(error(
                "rt.unknown-opu",
                f"RT executes on {rt.opu!r}, not present in datapath "
                f"{dp.name!r}", where))
            continue
        if not opu.supports(rt.operation):
            findings.append(error(
                "rt.unbindable-op",
                f"OPU {opu.name!r} does not support operation "
                f"{rt.operation!r}", where,
                hint="rebind the node or extend the OPU's operation set"))
        for index, operand in enumerate(rt.operands):
            if index >= len(opu.ports):
                findings.append(error(
                    "rt.port-mismatch",
                    f"operand {index} exceeds the {len(opu.ports)} input "
                    f"port(s) of {opu.name!r}", where))
                continue
            port = opu.ports[index]
            if operand.is_register:
                feeding = port.register_file
                if feeding is None or feeding.name != operand.register_file:
                    fed = feeding.name if feeding is not None else "an immediate"
                    findings.append(error(
                        "rt.port-mismatch",
                        f"operand {index} reads file "
                        f"{operand.register_file!r} but port {index} of "
                        f"{opu.name!r} is fed by {fed}", where))
                if (operand.value not in producers
                        and operand.value not in live_in):
                    findings.append(error(
                        "rt.undefined-value",
                        f"value v{operand.value} is read but never produced "
                        f"and not live-in", where,
                        hint="a producer RT is missing or was dropped"))
            elif not port.accepts_immediate:
                findings.append(error(
                    "rt.port-mismatch",
                    f"operand {index} is an immediate but port {index} of "
                    f"{opu.name!r} is register-fed", where))
        for dest in rt.destinations:
            rf = dp.register_files.get(dest.register_file)
            if rf is None:
                findings.append(error(
                    "rt.no-route",
                    f"destination file {dest.register_file!r} does not "
                    f"exist in datapath {dp.name!r}", where))
                continue
            if not opu.produces_result:
                findings.append(error(
                    "rt.no-route",
                    f"{opu.name!r} produces no result but the RT writes "
                    f"{dest.register_file!r}", where))
                continue
            try:
                dp.route_to(opu, rf)
            except ConnectivityError:
                findings.append(error(
                    "rt.no-route",
                    f"no bus route from {opu.name!r} to file "
                    f"{dest.register_file!r}", where,
                    hint="add a route_bus edge or rebind the destination"))
    return findings


# ----------------------------------------------------------------------
# Schedule legality


def verify_schedule(program, schedule, graph) -> list[Finding]:
    """Legality of a schedule against its dependence graph, the one copy
    of its rules: ``Schedule.validate`` raises on these findings.

    Checks that the scheduled RTs are exactly the graph's, each at a
    non-negative cycle, no usage spilling past the schedule length,
    every dependence edge (whose RAW delays encode the producing OPU's
    latency) respected at iteration distance 0, no resource carrying
    two *different* usages in the same cycle (the paper's sharing rule:
    same usage may share), and the cycle budget.
    """
    findings: list[Finding] = []
    cycle_of, length = schedule.cycle_of, schedule.length
    bookings = graph.bookings
    slots: dict[tuple[str, int], str] = {}
    for rt, cycle in cycle_of.items():
        uses = bookings.get(rt)
        if uses is None:
            from ..sched.dependence import booking

            findings.append(error(
                "sched.unscheduled",
                f"RT {rt.opu}/{rt.uid} is scheduled but not in the "
                f"dependence graph", f"cycle {cycle}"))
            uses = booking(rt)
        if cycle < 0:
            findings.append(error(
                "sched.negative-cycle",
                f"RT {rt.opu}/{rt.uid} scheduled at negative cycle {cycle}",
                f"cycle {cycle}"))
            continue
        last = cycle
        for resource, offset, usage in uses:
            at = cycle + offset
            held = slots.setdefault((resource, at), usage)
            if held != usage:
                findings.append(error(
                    "sched.double-booking",
                    f"resource conflict in cycle {at}: {resource!r} holds "
                    f"{held!r} and {usage!r}", f"cycle {at}",
                    hint="two RTs with conflicting usage share a cycle"))
            if at > last:
                last = at
        if last >= length:
            findings.append(error(
                "sched.overrun",
                f"RT {rt.opu}/{rt.uid} at cycle {cycle} spills past the "
                f"schedule length {length} (it occupies cycle {last})",
                f"cycle {cycle}"))
    for rt in graph.rts:
        if rt not in cycle_of:
            findings.append(error(
                "sched.unscheduled",
                f"RT {rt.opu}/{rt.uid} ({rt.operation}) was never "
                f"scheduled", f"rt {rt.opu}/{rt.uid}"))
    for edge in graph.edges:
        if edge.distance:
            continue
        src, dst = cycle_of.get(edge.src), cycle_of.get(edge.dst)
        if src is None or dst is None or dst >= src + edge.delay:
            continue
        findings.append(error(
            "sched.dependence",
            f"dependence violated: {edge.kind.value} edge "
            f"{edge.src.opu}/{edge.src.uid} -> {edge.dst.opu}/{edge.dst.uid} "
            f"needs {edge.delay} cycle(s) but got {dst - src}",
            f"cycle {dst}",
            hint="the consumer starts before the producer's result "
                 "matures"))
    if schedule.budget is not None and length > schedule.budget:
        findings.append(error(
            "sched.budget",
            f"schedule length {length} exceeds budget {schedule.budget}"))
    return findings


# ----------------------------------------------------------------------
# Register-allocation legality


def verify_allocation(program, schedule, allocation,
                      capacities=None) -> list[Finding]:
    """Legality of a register allocation.

    Recomputes live intervals independently from the program and the
    schedule (never trusting ``allocation.intervals``), then checks
    that every interval is bound to a register inside its file's
    capacity, that no two *overlapping* intervals share a cell, and
    that every register read happens strictly after the producing
    write has landed (write moment ``cycle + latency - 1``; files are
    read at the start of a cycle and written at its end).
    """
    from ..sched.regalloc import compute_intervals

    findings: list[Finding] = []
    dp = program.core.datapath
    intervals = compute_intervals(program, schedule)
    for rf_name, file_intervals in intervals.items():
        if capacities is not None:
            capacity = capacities.get(rf_name)
        else:
            rf = dp.register_files.get(rf_name)
            capacity = rf.size if rf is not None else None
        by_register: dict[int, list] = {}
        for interval in file_intervals:
            key = (rf_name, interval.value)
            register = allocation.register_of.get(key)
            if register is None:
                findings.append(error(
                    "regalloc.unallocated",
                    f"value v{interval.value} in {rf_name!r} has no "
                    f"register", f"rf {rf_name}"))
                continue
            if register < 0 or (capacity is not None and register >= capacity):
                findings.append(error(
                    "regalloc.capacity",
                    f"value v{interval.value} sits in {rf_name}[{register}] "
                    f"but the file holds {capacity} register(s)",
                    f"rf {rf_name}[{register}]"))
            by_register.setdefault(register, []).append(interval)
        for register, cell_intervals in by_register.items():
            cell_intervals.sort(key=lambda iv: (iv.birth, iv.death))
            for earlier, later in zip(cell_intervals, cell_intervals[1:]):
                if later.birth < earlier.death and earlier.birth < later.death:
                    findings.append(error(
                        "regalloc.overlap",
                        f"values v{earlier.value} [{earlier.birth},"
                        f"{earlier.death}] and v{later.value} "
                        f"[{later.birth},{later.death}] overlap in "
                        f"{rf_name}[{register}]",
                        f"rf {rf_name}[{register}]",
                        hint="the second write clobbers a live value"))
    producers = program.producers()
    live_in = program.live_in_values()
    for rt, cycle in schedule.cycle_of.items():
        for operand in rt.operands:
            if not operand.is_register:
                continue
            producer = producers.get(operand.value)
            if producer is None:
                if operand.value not in live_in:
                    findings.append(error(
                        "regalloc.undefined-read",
                        f"RT {rt.opu}/{rt.uid} reads v{operand.value}, "
                        f"which nothing writes", f"cycle {cycle}"))
                continue
            if producer is rt:
                continue
            ready = schedule.cycle_of.get(producer)
            if ready is not None and cycle < ready + producer.latency:
                findings.append(error(
                    "regalloc.undefined-read",
                    f"RT {rt.opu}/{rt.uid} reads v{operand.value} in cycle "
                    f"{cycle} but its write lands at the end of cycle "
                    f"{ready + producer.latency - 1}", f"cycle {cycle}"))
    return findings


# ----------------------------------------------------------------------
# Datapath style rules (shared with repro.arch.validate)


def verify_datapath(dp) -> list[Finding]:
    """The datapath style rules of the paper's architecture template.

    Behind :func:`repro.arch.datapath_findings`;
    :class:`~repro.arch.library.CoreSpec` raises an
    :class:`~repro.errors.ArchitectureError` listing the messages of
    the error findings.  Error codes mark structurally unusable
    datapaths; warning codes mark dead structure the explorer may
    legitimately sweep through.
    """
    findings: list[Finding] = []
    if not dp.opus:
        findings.append(error(
            "arch.no-opus", "datapath has no OPUs", f"datapath {dp.name}"))
    for opu in dp.opus.values():
        where = f"opu {opu.name}"
        arity = max(op.arity for op in opu.operations.values())
        for port in opu.ports[:arity]:
            if port.register_file is None and not port.accepts_immediate:
                findings.append(error(
                    "arch.unfed-port",
                    f"port {port.name} is neither fed by a register file nor "
                    f"an immediate field (rule: all operands originate from "
                    f"register files)", where))
        if opu.produces_result and opu.bus is None:
            findings.append(error(
                "arch.no-bus",
                f"OPU {opu.name!r} produces results but drives no bus "
                f"(rule: results leave through a buffer onto a bus)", where))
        if opu.produces_result and opu.bus is not None and not opu.bus.sinks:
            findings.append(warning(
                "arch.dead-bus",
                f"bus {opu.bus.name!r} of OPU {opu.name!r} reaches no "
                f"register file; its results are unusable", where))
        if opu.kind is OpuKind.OUTPUT and opu.bus is not None:
            findings.append(error(
                "arch.output-drives-bus",
                f"output port block {opu.name!r} must not drive a bus",
                where))
        if opu.kind is OpuKind.INPUT and any(
                port.register_file is not None for port in opu.ports):
            findings.append(error(
                "arch.input-reads-rf",
                f"input port block {opu.name!r} must not read register files",
                where))
    for rf in dp.register_files.values():
        where = f"rf {rf.name}"
        if not rf.readers:
            findings.append(warning(
                "arch.unread-rf",
                f"register file {rf.name!r} feeds no OPU port", where))
        if not rf.writers:
            findings.append(warning(
                "arch.unwritten-rf",
                f"register file {rf.name!r} is never written", where))
    for mux in dp.muxes.values():
        where = f"mux {mux.name}"
        if len(mux.inputs) < 2:
            findings.append(warning(
                "arch.thin-mux",
                f"mux {mux.name!r} has {len(mux.inputs)} input(s); a mux in "
                f"front of a single writer is redundant", where))
        if len(set(b.name for b in mux.inputs)) != len(mux.inputs):
            findings.append(error(
                "arch.mux-duplicate",
                f"mux {mux.name!r} has duplicate bus inputs", where))
    for bus in dp.buses.values():
        if bus.driver is None:
            findings.append(error(
                "arch.undriven-bus",
                f"bus {bus.name!r} has no driving OPU", f"bus {bus.name}"))
    return findings


# ----------------------------------------------------------------------
# Pipeline dispatch


def verify_state(state, include_lint: bool = True) -> list[Finding]:
    """Run every verifier whose artifact is present in a compile state,
    plus (optionally) the machine-code lint on the final image."""
    findings: list[Finding] = []
    artifacts = state.artifacts
    if "source_dfg" in artifacts:
        findings.extend(verify_dfg(artifacts["source_dfg"]))
    if "dfg" in artifacts:
        findings.extend(verify_dfg(artifacts["dfg"]))
    if "base_program" in artifacts:
        findings.extend(verify_rt_program(artifacts["base_program"]))
    if ("schedule" in artifacts and "dependence_graph" in artifacts
            and "program" in artifacts):
        findings.extend(verify_schedule(
            artifacts["program"], artifacts["schedule"],
            artifacts["dependence_graph"]))
    if ("allocation" in artifacts and "schedule" in artifacts
            and "program" in artifacts):
        findings.extend(verify_allocation(
            artifacts["program"], artifacts["schedule"],
            artifacts["allocation"], artifacts.get("capacities")))
    if include_lint and "binary" in artifacts:
        from .lint import lint_program

        findings.extend(lint_program(artifacts["binary"]))
    return findings


def verify_stage(stage_name: str, state,
                 strict: bool = False) -> list[Finding] | None:
    """The per-boundary dispatch used by ``Toolchain.run_pipeline``.

    Returns ``None`` for boundaries with nothing to verify (merge and
    impose rewrite resource usage onto artificial/merged resources the
    datapath checks must not see; assemble is covered by the lint,
    which only ``strict`` mode pays for).
    """
    artifacts = state.artifacts
    if stage_name == "parse":
        return verify_dfg(artifacts["source_dfg"])
    if stage_name == "optimize":
        return verify_dfg(artifacts["dfg"])
    if stage_name == "rtgen":
        return verify_rt_program(artifacts["base_program"])
    if stage_name == "schedule":
        return verify_schedule(artifacts["program"], artifacts["schedule"],
                               artifacts["dependence_graph"])
    if stage_name == "regalloc":
        return verify_allocation(artifacts["program"], artifacts["schedule"],
                                 artifacts["allocation"],
                                 artifacts.get("capacities"))
    if stage_name == "assemble" and strict:
        from .lint import lint_program

        return lint_program(artifacts["binary"])
    return None
