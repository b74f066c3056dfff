"""Static lint of an encoded program image.

Reuses :func:`repro.sim.batch.decode_program` — the same decoder the
vectorized simulator trusts — to recover a flat execution plan from the
instruction words, then analyses the *image itself*, with no stimulus
and no simulation:

* a control-flow graph is built from the controller ops by abstract
  interpretation over (pc, loop-stack) states, so ``ENDL`` words are
  matched to their ``LOOP`` and stack overflow/underflow is caught
  statically (``mc.stack``), out-of-range transfers are flagged
  (``mc.bad-jump``) and dead words reported (``mc.unreachable``);
* loops that can never settle — a reachable control cycle passing no
  ``IDLE``/``HALT`` word, ignoring the bounded ``ENDL`` back edge —
  are rejected (``mc.no-exit``);
* operand register addresses and immediate RAM/ROM addresses are
  bounds-checked (``mc.oob``);
* a *must-mature* forward dataflow tracks which buses carry a value in
  each word (an operation issued at cycle ``t`` with latency ``L``
  matures on its bus in cycle ``t + L - 1``), so a destination field
  that consumes a bus on which nothing matures — the classic clobbered
  in-flight-destination encoding bug — is caught without running the
  machine (``mc.bus-hazard``, the static twin of the simulator's
  "nothing matured" crash);
* reaching definitions (must-defined, seeded with the image's pinned
  initial registers) flag reads of power-on register cells
  (``mc.uninit-read``) and backward liveness flags writes that are
  dead on every path (``mc.dead-write``); both honour the machine
  model — files are read at the start of a cycle and written at its
  end, so a same-word read observes the *old* value.

Every word-level CFG edge is exactly one machine cycle, which is what
lets the latency bookkeeping stay a small dataflow instead of a path
enumeration.
"""

from __future__ import annotations

from ..arch.controller import CtrlOp
from ..sim.batch import (
    SEM_RAM_READ,
    SEM_RAM_WRITE,
    SEM_ROM_READ,
    PlanError,
    decode_program,
)
from .findings import Finding, error, warning

__all__ = ["lint_program", "ProgramCfg", "build_cfg"]

#: Semantic codes of decode's plan ops that address a memory through
#: operand 0 (reads and writes alike).
_MEM_SEMS = {SEM_RAM_READ: "ram", SEM_RAM_WRITE: "ram", SEM_ROM_READ: "rom"}


class ProgramCfg:
    """Word-level control-flow graph of a decoded image.

    ``successors`` holds every one-cycle transfer; ``loop_back_edges``
    the subset that are bounded ``ENDL`` repeats (excluded from the
    termination check); ``reachable`` the words some execution can
    visit.
    """

    def __init__(self, n_words: int):
        self.n_words = n_words
        self.successors: dict[int, set[int]] = {i: set() for i in range(n_words)}
        self.loop_back_edges: set[tuple[int, int]] = set()
        self.reachable: set[int] = set()

    def predecessors(self) -> dict[int, set[int]]:
        preds: dict[int, set[int]] = {i: set() for i in range(self.n_words)}
        for src, dsts in self.successors.items():
            for dst in dsts:
                preds[dst].add(src)
        return preds


def build_cfg(plan) -> tuple[ProgramCfg, list[Finding]]:
    """Abstract interpretation of the controller over (pc, stack) states."""
    findings: list[Finding] = []
    flagged: set[tuple[str, int]] = set()
    cfg = ProgramCfg(plan.n_words)

    def flag(make, code: str, pc: int, message: str, hint=None) -> None:
        if (code, pc) not in flagged:
            flagged.add((code, pc))
            findings.append(make(code, message, f"word {pc}", hint))

    seen: set[tuple[int, tuple[int, ...]]] = set()
    work: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    while work:
        pc, stack = work.pop()
        if (pc, stack) in seen:
            continue
        seen.add((pc, stack))
        cfg.reachable.add(pc)
        word = plan.words[pc]

        def goto(target: int, next_stack: tuple[int, ...],
                 loop_back: bool = False) -> None:
            if not 0 <= target < plan.n_words:
                reason = ("execution falls off the end of the program"
                          if target == plan.n_words and word.ctrl in
                          (CtrlOp.CONT, CtrlOp.IDLE)
                          else f"transfer to word {target}, outside the "
                               f"{plan.n_words}-word program")
                flag(error, "mc.bad-jump", pc, reason,
                     "terminate with HALT or jump back into the body")
                return
            cfg.successors[pc].add(target)
            if loop_back:
                cfg.loop_back_edges.add((pc, target))
            work.append((target, next_stack))

        if word.ctrl in (CtrlOp.CONT, CtrlOp.IDLE):
            goto(pc + 1, stack)
        elif word.ctrl is CtrlOp.JUMP:
            goto(word.arg, stack)
        elif word.ctrl is CtrlOp.CJMP:
            goto(word.arg, stack)
            goto(pc + 1, stack)
        elif word.ctrl is CtrlOp.LOOP:
            if len(stack) >= plan.stack_depth:
                flag(error, "mc.stack", pc,
                     f"LOOP nesting exceeds the controller's stack depth "
                     f"{plan.stack_depth}")
            else:
                goto(pc + 1, stack + (pc + 1,))
        elif word.ctrl is CtrlOp.ENDL:
            if not stack:
                flag(error, "mc.stack", pc,
                     "ENDL with an empty loop stack (no matching LOOP)")
            else:
                goto(stack[-1], stack, loop_back=True)
                goto(pc + 1, stack[:-1])
        elif word.ctrl is CtrlOp.HALT:
            pass
    for pc in range(plan.n_words):
        if pc not in cfg.reachable:
            findings.append(warning(
                "mc.unreachable",
                f"word {pc} can never execute", f"word {pc}",
                "dead words waste control store; drop or re-link them"))
    return cfg, findings


def _check_termination(plan, cfg: ProgramCfg) -> list[Finding]:
    """A reachable control cycle that never passes an IDLE (frame
    settle point), ignoring bounded ENDL repeats, can never terminate."""
    graph: dict[int, list[int]] = {}
    for src in cfg.reachable:
        if plan.words[src].ctrl is CtrlOp.IDLE:
            continue
        graph[src] = [
            dst for dst in cfg.successors[src]
            if dst in cfg.reachable
            and (src, dst) not in cfg.loop_back_edges
            and plan.words[dst].ctrl is not CtrlOp.IDLE
        ]
    color: dict[int, int] = {}
    for root in graph:
        if color.get(root):
            continue
        stack = [(root, iter(graph[root]))]
        color[root] = 1
        while stack:
            node, children = stack[-1]
            for child in children:
                state = color.get(child, 0)
                if state == 1:
                    return [error(
                        "mc.no-exit",
                        f"control loop through word {child} never reaches an "
                        f"IDLE or HALT; the program cannot settle",
                        f"word {child}",
                        "every frame loop must pass the IDLE settle word")]
                if state == 0:
                    color[child] = 1
                    stack.append((child, iter(graph[child])))
                    break
            else:
                color[node] = 2
                stack.pop()
    return []


def _check_static_bounds(plan) -> list[Finding]:
    """Register / immediate-memory addresses the decoder does not check."""
    findings: list[Finding] = []
    for word in plan.words:
        for op in word.ops:
            for index, (is_register, src, addr) in enumerate(op.operands):
                if is_register:
                    size = plan.rf_sizes.get(src)
                    if size is not None and not 0 <= addr < size:
                        findings.append(error(
                            "mc.oob",
                            f"{op.opu} port {index} reads {src}[{addr}] but "
                            f"the file holds {size} register(s)",
                            f"word {word.index}",
                            "a corrupted register-address field"))
                elif op.sem in _MEM_SEMS and index == 0:
                    if _MEM_SEMS[op.sem] == "rom":
                        size = len(plan.rom_contents.get(op.opu, ()))
                    else:
                        size = plan.ram_sizes.get(op.opu)
                    if size is not None and not 0 <= src < size:
                        findings.append(error(
                            "mc.oob",
                            f"{op.opu} addresses word {src} of a {size}-word "
                            f"memory", f"word {word.index}"))
    return findings


def _meet_intersect(facts: list[frozenset | None]) -> frozenset | None:
    out: frozenset | None = None
    for fact in facts:
        if fact is None:
            continue
        out = fact if out is None else out & fact
    return out


def _must_forward(plan, cfg: ProgramCfg, entry: frozenset,
                  transfer) -> dict[int, frozenset]:
    """Generic must-analysis: intersection meet, forward, to fixpoint.

    ``transfer(word, in_fact) -> out_fact``.  Unvisited predecessors
    contribute top (no constraint); the virtual entry edge into word 0
    contributes ``entry``.
    """
    preds = cfg.predecessors()
    in_facts: dict[int, frozenset | None] = {
        pc: None for pc in cfg.reachable}
    out_facts: dict[int, frozenset | None] = {
        pc: None for pc in cfg.reachable}
    work = sorted(cfg.reachable)
    while work:
        next_work: set[int] = set()
        for pc in work:
            incoming = [out_facts.get(p) for p in preds[pc]
                        if p in cfg.reachable]
            if pc == 0:
                incoming.append(entry)
            fact = _meet_intersect(incoming)
            if fact is None:
                continue
            if in_facts[pc] is not None and in_facts[pc] == fact:
                continue
            in_facts[pc] = fact
            out = transfer(plan.words[pc], fact)
            if out != out_facts[pc]:
                out_facts[pc] = out
                next_work.update(s for s in cfg.successors[pc]
                                 if s in cfg.reachable)
        work = sorted(next_work)
    return {pc: fact for pc, fact in in_facts.items() if fact is not None}


def _check_bus_maturity(plan, cfg: ProgramCfg) -> list[Finding]:
    """Every destination field must consume a bus on which a value
    matures that very cycle — statically, on every path reaching it."""

    def transfer(word, in_fact: frozenset) -> frozenset:
        out = {(bus, due - 1) for bus, due in in_fact if due >= 1}
        for op in word.ops:
            if op.bus is not None and op.latency >= 2:
                out.add((op.bus, op.latency - 2))
        return frozenset(out)

    in_facts = _must_forward(plan, cfg, frozenset(), transfer)
    findings: list[Finding] = []
    for pc in sorted(cfg.reachable):
        word = plan.words[pc]
        if not word.writes:
            continue
        fact = in_facts.get(pc)
        matured = {bus for bus, due in fact if due == 0} if fact is not None \
            else set()
        matured |= {op.bus for op in word.ops
                    if op.bus is not None and op.latency == 1}
        for write in word.writes:
            if write.bus not in matured:
                findings.append(error(
                    "mc.bus-hazard",
                    f"{write.rf}[{write.addr}] latches bus {write.bus!r} but "
                    f"no result matures there in this cycle",
                    f"word {pc}",
                    "a destination field landed in the wrong word (check "
                    "OPU latency bookkeeping)"))
    return findings


def _word_uses(word) -> set[tuple[str, int]]:
    return {(src, addr) for op in word.ops
            for is_register, src, addr in op.operands if is_register}


def _check_dataflow(plan, cfg: ProgramCfg) -> list[Finding]:
    """Reaching definitions (uninitialized reads) and liveness (dead
    writes) per register-file cell."""
    findings: list[Finding] = []

    # -- must-defined, forward: reads at start of cycle see IN ---------
    def transfer(word, in_fact: frozenset) -> frozenset:
        if not word.writes:
            return in_fact
        return in_fact | {(w.rf, w.addr) for w in word.writes}

    entry = frozenset(
        (rf, reg) for rf, inits in plan.initial_registers.items()
        for reg, _value in inits)
    in_facts = _must_forward(plan, cfg, entry, transfer)
    for pc in sorted(cfg.reachable):
        defined = in_facts.get(pc, frozenset())
        for rf, reg in sorted(_word_uses(plan.words[pc])):
            if (rf, reg) not in defined:
                findings.append(warning(
                    "mc.uninit-read",
                    f"{rf}[{reg}] is read but not written on every path "
                    f"from reset; the power-on value (0) leaks in",
                    f"word {pc}",
                    "initialize the register or move the read after its "
                    "write"))

    # -- liveness, backward: a write is dead if its cell is not live
    #    out of the word (same-word reads see the OLD value, so they do
    #    not keep the word's own write alive).  Architecturally pinned
    #    cells (the image's initial registers — loop-carry state) stay
    #    live at HALT/IDLE settle points: they are the machine state an
    #    enclosing system may observe between frames.
    pinned = entry
    live_in: dict[int, frozenset] = {pc: frozenset() for pc in cfg.reachable}
    preds = cfg.predecessors()
    changed = set(cfg.reachable)
    while changed:
        next_changed: set[int] = set()
        for pc in sorted(changed, reverse=True):
            word = plan.words[pc]
            live_out: set[tuple[str, int]] = set()
            if word.ctrl in (CtrlOp.HALT, CtrlOp.IDLE):
                live_out |= pinned
            for succ in cfg.successors[pc]:
                if succ in cfg.reachable:
                    live_out |= live_in[succ]
            fact = frozenset(
                (live_out - {(w.rf, w.addr) for w in word.writes})
                | _word_uses(word))
            if fact != live_in[pc]:
                live_in[pc] = fact
                next_changed.update(p for p in preds[pc]
                                    if p in cfg.reachable)
        changed = next_changed
    for pc in sorted(cfg.reachable):
        word = plan.words[pc]
        if not word.writes:
            continue
        live_out: set[tuple[str, int]] = set()
        if word.ctrl in (CtrlOp.HALT, CtrlOp.IDLE):
            live_out |= pinned
        for succ in cfg.successors[pc]:
            if succ in cfg.reachable:
                live_out |= live_in[succ]
        for write in word.writes:
            if (write.rf, write.addr) not in live_out:
                findings.append(warning(
                    "mc.dead-write",
                    f"{write.rf}[{write.addr}] is written but never read "
                    f"afterwards on any path", f"word {pc}",
                    "the value is dead; the write (and maybe its producer) "
                    "can go"))
    return findings


def lint_program(program) -> list[Finding]:
    """Lint one :class:`repro.encode.EncodedProgram`; returns findings
    sorted errors-first, then by word."""
    try:
        plan = decode_program(program)
    except PlanError as exc:
        return [error(
            "mc.decode", str(exc),
            hint="the image does not decode against this core's "
                 "instruction format")]
    findings = _check_static_bounds(plan)
    cfg, cfg_findings = build_cfg(plan)
    findings.extend(cfg_findings)
    findings.extend(_check_termination(plan, cfg))
    findings.extend(_check_bus_maturity(plan, cfg))
    findings.extend(_check_dataflow(plan, cfg))
    findings.sort(key=lambda f: (not f.is_error, f.location or "", f.code))
    return findings
