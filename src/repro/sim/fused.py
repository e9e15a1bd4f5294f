"""The hot tier of the fast engine: one compiled call per straight-line run.

Predecoded stepping (:mod:`repro.sim.engine`, the fast engine's cold tier)
removed per-step re-decoding but still pays one Python closure call, one
tuple unpack and one kind/store check **per instruction**.  This module
removes that too for hot code: each straight-line run — a SOFIA
``_VerifiedBlock`` payload, or the vanilla per-PC chain up to and including
the next CTI / store / halt — is *source-compiled* into a single
specialized Python function once it has been traversed
:data:`COMPILE_THRESHOLD` times.  Every instruction's statements are the
entry of :data:`repro.sim.engine.SEMANTICS` rendered with literal operands
(:func:`repro.sim.engine.render`), the table the cold tier renders too;
this module adds only what a run needs around them: cycle costs folded
into compile-time run constants, I-cache tag checks collapsed to one
literal comparison per cache line, and the inlined RAM fast path of loads
and stores.

Run-handler contract
--------------------
A SOFIA block handler is called as ``fn(regs, load, store, mmio, tags,
ram)`` and returns a 7-tuple
``(n, cycles, hits, miss_runs, mac_cycles, next_key, arg)``:

* ``n``          — instructions committed (the k-th trap commits exactly k);
* ``cycles``     — ``max(fetch_cycles, exec_cycles)`` for the whole block,
  the bottleneck model of ``SofiaMachine._run_reference`` verbatim.  The
  possible values are a *compile-time constant tuple* indexed by the miss
  count, so the hot path does no cycle arithmetic at all;
* ``hits``/``miss_runs`` — I-cache accounting (``hits = n_fetch - mr``);
* ``mac_cycles`` — the block's constant seal-fetch charge;
* ``next_key``   — the next block-cache edge ``(prev_pc, pc)`` or ``None``
  when the run ends.  Fall-through and direct-CTI successors are constant
  tuples baked at compile time, so the driving loop allocates nothing;
* ``arg``        — ``None`` while running, else the terminal
  ``(code, payload)``: 2 halt, 3 MMIO exit, 4 trap (payload is the
  reason), 5 reset (payload is the violation; the block never verified
  and only fetch slots were charged).

A vanilla run handler returns ``(n, cycles, hits, misses, code, arg)`` with
per-instruction ``max(fetch, exec)`` charging and code 1 continue-at-`arg`,
2 halt, 3 exit, 4 trap.

The cold tiers (``SofiaMachine._interp_block``, ``VanillaMachine._step_run``)
speak the same protocols, so the driving loops never ask which tier ran.
Handlers fire no ``on_commit`` hook and poll the MMIO exit register only
after a store, the one instruction that can set it: a run with a hook, or
one resumed with the exit register already written, is the reference
oracle's job (see :func:`repro.sim.engine.run_loop`).

Trap equivalence
----------------
A ``SimulationError`` raised by the k-th fused instruction must leave regs,
RAM, the cycle count and the I-cache exactly as k stepped iterations would.
Every memory access is therefore wrapped in its own ``try`` whose handler
returns the run-constants of the first k instructions: cycles are summed as
compile-time constants per prefix (the trapping instruction's execution
cycles are *not* charged, its fetch *is* tag-checked and counted, and a
line fill it triggered stands — all exactly like predecoded stepping).
Register writes are in-place on the shared ``regs`` list, so the committed
prefix needs no replay.

Self-modifying code invalidates fused handlers exactly like predecoded
steps: SOFIA handlers live on the ``_VerifiedBlock`` (dies with the block
memo on a write to any word the block fetches), vanilla handlers live in per-start-PC dicts popped
by the same code-write listener.  Stores always terminate a vanilla run, so
a code write can never outrun its own compiled suffix.
"""

from __future__ import annotations

from types import CodeType
from typing import Dict, List

from ..errors import DecodingError, SimulationError
from ..isa.instructions import Instruction
from .engine import (HELPERS, LiteralOperands, Rendered, compile_fetch_runs,
                     render)
from .timing import TimingParams, cycle_costs

#: vanilla straight-line runs are capped so a single compile stays small
#: and the budget-boundary tail (stepped by the cold tier) stays short
MAX_RUN = 64

#: the heat gate of both machines: a SOFIA edge or a vanilla run start PC
#: is stepped by the predecoded cold tier this many traversals before its
#: code is source-compiled.  Generating and compiling a handler costs
#: about 0.5 ms while a compiled traversal only saves a couple of µs over
#: a stepped one, so compiling pays off only for genuinely hot code —
#: one-shot runs (attack instances, fuzz specimens) never compile.  Read
#: at every cold traversal, so tests can pin either tier by patching it.
COMPILE_THRESHOLD = 16

#: generated source -> its compiled code, per process: the same block of
#: the same image in another machine, fork or campaign execs the cached
#: code instead of compiling it again (the cold tier's handler factories
#: are generated through it too).  Bounded, oldest entry out
#: first (a fixed constant, not a tuning option).
CODE_CACHE_ENTRIES = 512

_CODE: Dict[str, CodeType] = {}

#: the inlined RAM fast path of each load width and signedness: the
#: big-endian bytes at offset ``o``, exactly what ``Memory.load`` reads
#: inside the data window
_LOAD_FAST = {
    (1, False): "ram[o]",
    (1, True): "((ram[o] ^ 128) - 128) & 4294967295",
    (2, False): "(ram[o] << 8) | ram[o + 1]",
    (2, True): "((((ram[o] << 8) | ram[o + 1]) ^ 32768) - 32768) "
               "& 4294967295",
    (4, False): "(ram[o] << 24) | (ram[o + 1] << 16) | (ram[o + 2] << 8) "
                "| ram[o + 3]",
}

#: the same for each store width, writing the value ``v``
_STORE_FAST = {
    1: ["ram[o] = v & 255"],
    2: ["ram[o] = (v >> 8) & 255", "ram[o + 1] = v & 255"],
    4: ["ram[o] = v >> 24", "ram[o + 1] = (v >> 16) & 255",
        "ram[o + 2] = (v >> 8) & 255", "ram[o + 3] = v & 255"],
}


def _mem_source(code: Rendered, data_base: int, ram_size: int):
    """The four code pieces of one rendered load/store.

    Returns ``(pre, cond, fast, slow)``: address/offset setup, the inline
    fast-path guard (aligned access fully inside data RAM — the exact
    condition ``Memory.load``/``Memory.store`` use), the direct-bytearray
    body, and the fallback call into the memory system (MMIO, code reads,
    traps).  Only the ``slow`` call can raise.  With a shadowed RAM
    window (``ram_size < 0``) the guard is constant-false and ``cond`` is
    ``None`` — the caller emits the fallback alone, exactly the stepped
    behaviour.
    """
    size = code.size
    pre = [f"a = {code.address}"]
    if code.data:
        slow = [f"st(a, {code.data}, {size})"]
    else:
        load = f"ld(a, {size}, {code.signed})"
        slow = [f"r[{code.dest}] = {load}" if code.dest else load]
    if ram_size < 0:
        return pre, None, [], slow
    pre.append(f"o = a - {data_base}")
    align = "" if size == 1 else f"not (a & {size - 1}) and "
    cond = f"{align}0 <= o <= {ram_size - size}"
    if code.data:
        fast = [f"v = {code.data}"] + _STORE_FAST[size]
    elif code.dest:
        fast = [f"r[{code.dest}] = {_LOAD_FAST[size, code.signed]}"]
    else:
        # r0 loads keep their trap/MMIO effects; an in-RAM read is
        # side-effect-free, so the fast path is a no-op
        fast = ["pass"]
    return pre, cond, fast, slow


def _compile(lines: List[str], namespace: dict):
    """Exec generated source defining ``_fused`` into ``namespace`` and
    return that function, compiling through the shared code cache."""
    source = "\n".join(lines) + "\n"
    code = _CODE.get(source)
    if code is None:
        if len(_CODE) >= CODE_CACHE_ENTRIES:
            del _CODE[next(iter(_CODE))]
        code = _CODE[source] = compile(source, "<fused-run>", "exec")
    # a fresh namespace per call: each handler keeps its own _TRAP/_VIOL
    exec(code, namespace)
    fn = namespace["_fused"]
    fn.__fused_source__ = source  # debugging / test introspection
    return fn


# -- SOFIA verified-block compiler ----------------------------------------

def compile_sofia_block(block, timing: TimingParams, icache, memory,
                        block_bytes: int):
    """Compile one ``_VerifiedBlock`` into a single run-handler.

    Returns the handler function, cached on the block (the same place
    ``_predecode_block`` memoizes predecoded steps, with the same lifetime:
    a write to any word the block fetches drops the block and the
    handler with it).  Everything the driving loop needs — I-cache
    accounting, the seal-fetch charge, the successor edge key, the
    terminal status — comes back in the handler's return tuple; the
    block-level ``max(fetch, exec)`` bottleneck collapses to a constant
    tuple indexed by the miss count.
    """
    runs = compile_fetch_runs(block.fetch_addresses,
                              icache.line_bytes.bit_length() - 1,
                              icache.lines - 1,
                              icache.lines.bit_length() - 1)
    n_fetch = len(block.fetch_addresses)
    pen = timing.icache_miss_penalty
    mc = timing.mac_word_cycles * block.mac_slots
    ft_prev = block.base + block_bytes - 4
    ft_pc = block.base + block_bytes
    ft_key = f"({ft_prev}, {ft_pc})"
    block_trap = None
    if block.decode_failure is not None:
        block_trap = ("illegal instruction in verified block: "
                      f"{block.decode_failure[1]}")

    namespace = dict(HELPERS, SimulationError=SimulationError,
                     _TRAP=block_trap, _VIOL=block.violation)
    out = ["def _fused(r, ld, st, mmio, tags, ram):"]
    if len(runs) == 1:
        (index, tag, _count), = runs
        out.append(f"    if tags[{index}] != {tag}:")
        out.append(f"        tags[{index}] = {tag}")
        out.append("        mr = 1")
        out.append("    else:")
        out.append("        mr = 0")
    else:
        out.append("    mr = 0")
        for index, tag, _count in runs:
            out.append(f"    if tags[{index}] != {tag}:")
            out.append(f"        tags[{index}] = {tag}")
            out.append("        mr += 1")

    def cyc(ec: int) -> str:
        # block-level bottleneck max(fetch_cycles, exec_cycles) for every
        # possible miss count, folded into one constant tuple lookup
        table = tuple(max(n_fetch + m * pen, ec)
                      for m in range(len(runs) + 1))
        return f"{table}[mr]"

    def ret(n: int, ec: int, key2: str, arg: str) -> str:
        return (f"return ({n}, {cyc(ec)}, {n_fetch} - mr, mr, {mc}, "
                f"{key2}, {arg})")

    if not block.ok:
        # never verified: fetch slots were charged, nothing executed
        out.append("    " + ret(0, 0, "None", "(5, _VIOL)"))
        return _compile(out, namespace)

    ec = 0       # constant exec cycles committed so far
    count = 0    # instructions committed so far
    for instr, address, _slot in block.payload:
        seq, taken = cycle_costs(instr, timing)
        spec = instr.spec
        if spec.is_halt:
            out.append("    " + ret(count + 1, ec + seq,
                                    "None", "(2, None)"))
            break
        code = render(instr, LiteralOperands(instr, address))
        if spec.is_load or spec.is_store:
            pre, cond, fast, slow = _mem_source(code, memory.data_base,
                                                memory._ram_size)
            trap_ret = ret(count, ec, "None", "(4, str(e))")
            for stmt in pre:
                out.append("    " + stmt)
            if cond is None:
                out.append("    try:")
                for stmt in slow:
                    out.append("        " + stmt)
                out.append("    except SimulationError as e:")
                out.append("        " + trap_ret)
                if spec.is_store:
                    out.append("    if mmio.exit_code is not None:")
                    out.append("        " + ret(count + 1, ec + seq,
                                                "None", "(3, None)"))
            else:
                out.append(f"    if {cond}:")
                for stmt in fast:
                    out.append("        " + stmt)
                out.append("    else:")
                out.append("        try:")
                for stmt in slow:
                    out.append("            " + stmt)
                out.append("        except SimulationError as e:")
                out.append("            " + trap_ret)
                if spec.is_store:
                    # an in-RAM store can never flip the exit register,
                    # so the fast path needs no poll (the fast loop only
                    # runs with the register clear)
                    out.append("        if mmio.exit_code is not None:")
                    out.append("            " + ret(count + 1, ec + seq,
                                                    "None", "(3, None)"))
        else:
            for stmt in code.body:
                out.append("    " + stmt)
            if spec.is_cti:
                n = count + 1
                key2 = f"({ft_prev}, {code.target})"
                if code.cond:
                    out.append(f"    if {code.cond}:")
                    out.append("        " + ret(n, ec + taken, key2, "None"))
                    out.append("    " + ret(n, ec + seq, ft_key, "None"))
                else:
                    out.append("    " + ret(n, ec + taken, key2, "None"))
                break
        ec += seq
        count += 1
    else:
        # ran off the payload end: sequential fall-through, or the
        # decode-failure trap when decode stopped short of a terminator
        if block_trap is not None:
            out.append("    " + ret(count, ec, "None", "(4, _TRAP)"))
        else:
            out.append("    " + ret(count, ec, ft_key, "None"))

    return _compile(out, namespace)


# -- vanilla straight-line-run compiler -----------------------------------

def compile_vanilla_run(machine, start_pc: int) -> tuple:
    """Walk the per-PC chain at ``start_pc`` and compile it into one call.

    The run covers consecutive PCs up to and *including* the first CTI,
    store or halt (stores terminate runs so self-modifying code can never
    execute a stale compiled suffix), capped at :data:`MAX_RUN`.  A decode
    or fetch fault *past* the first instruction truncates the run — the
    faulting PC becomes its own (trapping) run, preserving the exact
    stepped trap point and reason.

    Returns ``(fn, n_max, covered_addresses)``; when the first fetch/decode
    itself faults, ``(None, trap_reason, (start_pc,))`` — the machine then
    leaves the run to its cold tier, which traps identically.
    """
    timing = machine.timing
    icache = machine.icache
    instrs: List[Instruction] = []
    pc = start_pc
    while len(instrs) < MAX_RUN:
        try:
            instr = machine._fetch_decode(pc)
        except (DecodingError, SimulationError) as exc:
            if not instrs:
                return (None, str(exc), (start_pc,))
            break
        instrs.append(instr)
        spec = instr.spec
        if spec.is_cti or spec.is_halt or spec.is_store:
            break
        pc += 4

    n = len(instrs)
    covered = tuple(start_pc + 4 * k for k in range(n))
    line_shift = icache.line_bytes.bit_length() - 1
    lines_mask = icache.lines - 1
    lines_shift = icache.lines.bit_length() - 1
    pen = timing.icache_miss_penalty
    # unmasked on purpose: the stepping loops advance ``pc + 4`` without
    # wrapping, and bit-identity beats tidiness
    next_pc = start_pc + 4 * n

    namespace = dict(HELPERS, SimulationError=SimulationError)
    memory = machine.memory
    out = ["def _fused(r, ld, st, mmio, tags, ram):",
           "    mr = 0",
           "    xc = 0"]

    def charge(base: int, flag_extra: int = 0) -> str:
        expr = "xc" if base == 0 else f"{base} + xc"
        if flag_extra:
            expr += f" + ({flag_extra} if m else 0)"
        return expr

    cyc = 0            # constant hit-path cycles committed so far
    prev_line = None
    for k, instr in enumerate(instrs):
        address = start_pc + 4 * k
        line = address >> line_shift
        head = line != prev_line
        prev_line = line
        idx = line & lines_mask
        tag = line >> lines_shift
        seq, taken = cycle_costs(instr, timing)
        spec = instr.spec
        # per-instruction bottleneck: max(fetch, exec); a hit fetches in 1
        hc_seq = seq if seq > 1 else 1
        hc_taken = taken if taken > 1 else 1
        extra_seq = max(1 + pen, seq) - hc_seq
        extra_taken = max(1 + pen, taken) - hc_taken
        may_trap = spec.is_load or spec.is_store
        branch_flag = 0
        if head:
            if may_trap and extra_seq:
                # the miss extra must not be charged if this very
                # instruction traps (the fill itself still stands)
                out.append(f"    if tags[{idx}] != {tag}:")
                out.append(f"        tags[{idx}] = {tag}")
                out.append("        mr += 1")
                out.append(f"        m = {extra_seq}")
                out.append("    else:")
                out.append("        m = 0")
            elif spec.is_branch and extra_seq != extra_taken:
                branch_flag = 1
                out.append(f"    if tags[{idx}] != {tag}:")
                out.append(f"        tags[{idx}] = {tag}")
                out.append("        mr += 1")
                out.append("        m = 1")
                out.append("    else:")
                out.append("        m = 0")
            else:
                extra = extra_taken if (spec.is_cti or spec.is_halt) \
                    else extra_seq
                out.append(f"    if tags[{idx}] != {tag}:")
                out.append(f"        tags[{idx}] = {tag}")
                out.append("        mr += 1")
                if extra:
                    out.append(f"        xc += {extra}")

        if spec.is_halt:
            out.append(f"    return ({n}, {charge(cyc + hc_taken)}, "
                       f"{n} - mr, mr, 2, None)")
            break
        code = render(instr, LiteralOperands(instr, address))
        if may_trap:
            pre, cond, fast, slow = _mem_source(code, memory.data_base,
                                                memory._ram_size)
            trap_ret = (f"return ({k}, {charge(cyc)}, "
                        f"{k + 1} - mr, mr, 4, str(e))")
            for stmt in pre:
                out.append("    " + stmt)
            if cond is None:
                out.append("    try:")
                for stmt in slow:
                    out.append("        " + stmt)
                out.append("    except SimulationError as e:")
                out.append("        " + trap_ret)
            else:
                out.append(f"    if {cond}:")
                for stmt in fast:
                    out.append("        " + stmt)
                out.append("    else:")
                out.append("        try:")
                for stmt in slow:
                    out.append("            " + stmt)
                out.append("        except SimulationError as e:")
                out.append("            " + trap_ret)
            if head and extra_seq:
                out.append("    xc += m")
        else:
            for stmt in code.body:
                out.append("    " + stmt)
            if spec.is_cti:
                if code.cond:
                    taken_charge = charge(
                        cyc + hc_taken, extra_taken if branch_flag else 0)
                    seq_charge = charge(
                        cyc + hc_seq, extra_seq if branch_flag else 0)
                    out.append(f"    if {code.cond}:")
                    out.append(f"        return ({n}, {taken_charge}, "
                               f"{n} - mr, mr, 1, {code.target})")
                    out.append(f"    return ({n}, {seq_charge}, "
                               f"{n} - mr, mr, 1, {next_pc})")
                else:
                    out.append(f"    return ({n}, {charge(cyc + hc_taken)}, "
                               f"{n} - mr, mr, 1, {code.target})")
                break
        cyc += hc_seq
        if spec.is_store:
            out.append("    if mmio.exit_code is not None:")
            out.append(f"        return ({n}, {charge(cyc)}, "
                       f"{n} - mr, mr, 3, None)")
            out.append(f"    return ({n}, {charge(cyc)}, "
                       f"{n} - mr, mr, 1, {next_pc})")
            break
    else:
        # capped or truncated before a faulting PC: plain continue
        out.append(f"    return ({n}, {charge(cyc)}, "
                   f"{n} - mr, mr, 1, {next_pc})")

    return (_compile(out, namespace), n, covered)
