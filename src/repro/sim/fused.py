"""The hot tier of the fast engine: one compiled call per hot loop or run.

Predecoded stepping (:mod:`repro.sim.engine`, the fast engine's cold tier)
removed per-step re-decoding but still pays one Python closure call, one
tuple unpack and one kind/store check **per instruction**.  This module
removes that too for hot code, which is *source-compiled* into a single
specialized Python function once it has been traversed
:data:`COMPILE_THRESHOLD` times:

* on SOFIA, a **region**: the verified blocks of the machine's block
  cache reachable from the hot edge over constant successor edges (at
  most :data:`MAX_REGION`), compiled into one ``while True`` loop over a
  section per block, so a whole hot loop runs in one call with the SRISC
  registers in Python locals (:func:`grow_region`,
  :func:`compile_sofia_block`);
* on the vanilla core, the per-PC chain up to and including the next
  CTI / store / halt (:func:`compile_vanilla_run`), looping inside the
  call when it is an idle loop whose CTI targets its own start.

Every instruction's statements are the entry of
:data:`repro.sim.engine.SEMANTICS` rendered by
:func:`repro.sim.engine.render` with literal operands, the table the cold
tier renders too; a region only maps the registers to its locals.  This
module adds only what hot code needs around them: cycle costs folded into
compile-time constants, I-cache tag checks collapsed to one literal
comparison per cache line, and the inlined RAM fast path of loads and
stores (a word is one ``struct`` unpack or pack in place).

Handler contract
----------------
Every SOFIA handler — a region entered at one of its members, or the cold
tier's one-block traversal — is called as ``fn(regs, load, store, mmio,
tags, ram, budget)``, ``budget`` being the instructions the run has left
(at least 1), and returns an 8-tuple
``(n, cycles, hits, misses, mac_cycles, blocks, key, arg)``:

* ``n``          — instructions committed (a trap at the k-th instruction
  of a block commits exactly the k before it);
* ``cycles``     — the sum over the blocks run of ``max(fetch_cycles,
  exec_cycles)``, the bottleneck model of ``SofiaMachine._run_reference``
  verbatim.  Each block exit's value at zero misses is a compile-time
  constant: an exit bumps a visit counter, and the counters are summed
  once at return;
* ``hits``/``misses`` — I-cache accounting;
* ``mac_cycles`` — the blocks' constant seal-fetch charges;
* ``blocks``     — the blocks run;
* ``key``        — the next block-cache edge ``(prev_pc, pc)``, or the
  terminal block's own edge when ``arg`` is set;
* ``arg``        — ``None`` while running, else the terminal ``(code,
  payload)``: 2 halt, 3 MMIO exit, 4 trap (payload is the reason), 5
  reset (payload is the violation; the block never verified and only
  fetch slots were charged — the cold tier alone returns it).

A region checks ``budget`` at every member boundary, as the driving loop
checks it before every block: SOFIA budgets are block-granular.  It exits
on an indirect CTI, an edge to a block outside it, a trap, an MMIO exit or
a halt, and at the end of any block whose store left data RAM (such a
store may write code: the driving loop then looks the next edge up
afresh).  Registers are written back on every exit.

A vanilla run handler is called as ``fn(regs, load, store, mmio, tags,
ram, budget)``, ``budget`` being the instructions the run has left (at
least the run's length: the driving loop steps a shorter tail on the cold
tier), and returns ``(n, cycles, hits, misses, pc, arg)`` with
per-instruction ``max(fetch, exec)`` charging: ``pc`` is the next PC, or
the terminal instruction's own PC when ``arg`` is set, and ``arg`` is
``None`` while running, else ``(code, payload)`` as above (2 halt, 3 MMIO
exit, 4 trap).  A run whose direct CTI targets its own start (an idle
loop) iterates inside the call, starting another iteration only while a
whole one fits the budget (``n + N <= budget``), so vanilla budgets stay
exact per instruction.

The cold tiers (``SofiaMachine._interp_block``, ``VanillaMachine._step_run``)
speak the same protocols, so the driving loops never ask which tier ran.
Handlers fire no ``on_commit`` hook and poll the MMIO exit register only
after a store, the one instruction that can set it: a run with a hook, or
one resumed with the exit register already written, is the reference
oracle's job (see :func:`repro.sim.engine.run_loop`).

Trap equivalence
----------------
A ``SimulationError`` raised by the k-th compiled instruction of a block
must leave regs, RAM, the cycle count and the I-cache exactly as k stepped
iterations would.  Only the fallback call into the memory system can
raise; a vanilla run wraps each in its own ``try`` returning the run
constants of the first k instructions, a region notes the trapping
access's row of its constant exit table before the call and catches once
around its loop.  Cycles are compile-time constants per prefix (the
trapping instruction's execution cycles are *not* charged, its fetch *is*
tag-checked and counted, and a line fill it triggered stands — all exactly
like predecoded stepping), and the committed prefix needs no replay.

Self-modifying code invalidates compiled code exactly like predecoded
steps: a SOFIA region is registered under its member edges and dropped by
the machine with every block it inlines (a write to any word a member
fetches); vanilla handlers live in per-start-PC dicts popped by the same
code-write listener.  Stores always terminate a vanilla run, so a code
write can never outrun its own compiled suffix.
"""

from __future__ import annotations

import struct
from types import CodeType, FunctionType
from typing import Callable, Dict, List, NamedTuple, Optional

from ..errors import DecodingError, SimulationError
from ..isa.instructions import Instruction
from .engine import (HELPERS, LiteralOperands, Rendered, compile_fetch_runs,
                     render)
from .timing import TimingParams, cycle_costs

#: vanilla straight-line runs are capped so a single compile stays small
#: and the budget-boundary tail (stepped by the cold tier) stays short
MAX_RUN = 64

#: SOFIA regions are capped so a single compile stays small: a region
#: holds at most this many member blocks
MAX_REGION = 32

#: the heat gate of both machines: a SOFIA edge or a vanilla run start PC
#: is stepped by the predecoded cold tier this many traversals before its
#: code is source-compiled.  Compiling costs about 0.5 ms for a vanilla
#: run and 0.3 ms per member block for a SOFIA region (crc32-small's 25
#: blocks, about 7 ms), while a compiled traversal saves only a couple of
#: µs over a stepped one, so compiling pays off only for genuinely hot
#: code — one-shot runs (attack instances, fuzz specimens) never compile.
#: Read at every cold traversal, so tests can pin a tier by patching it.
COMPILE_THRESHOLD = 16

#: generated source -> its compiled code, per process: the same block of
#: the same image in another machine, fork or campaign execs the cached
#: code instead of compiling it again (the cold tier's handler factories
#: are generated through it too).  Bounded, oldest entry out
#: first (a fixed constant, not a tuning option).
CODE_CACHE_ENTRIES = 512

_CODE: Dict[str, CodeType] = {}

#: a big-endian word: word loads and stores of both hot tiers unpack and
#: pack it in place, one call where bytes would take four subscripts
_WORD = struct.Struct(">I")

#: the inlined RAM fast path of each load width and signedness: the
#: big-endian bytes at offset ``o``, exactly what ``Memory.load`` reads
#: inside the data window
_LOAD_FAST = {
    (1, False): "ram[o]",
    (1, True): "((ram[o] ^ 128) - 128) & 4294967295",
    (2, False): "(ram[o] << 8) | ram[o + 1]",
    (2, True): "((((ram[o] << 8) | ram[o + 1]) ^ 32768) - 32768) "
               "& 4294967295",
    (4, False): "_ld4(ram, o)[0]",
}

#: the same for each store width, writing the value ``{v}``
_STORE_FAST = {
    1: ["ram[o] = {v} & 255"],
    2: ["ram[o] = ({v} >> 8) & 255", "ram[o + 1] = {v} & 255"],
    4: ["_st4(ram, o, {v})"],
}

#: the word codec of the fast paths, in every hot-tier namespace
_RAM_HELPERS = {"_ld4": _WORD.unpack_from, "_st4": _WORD.pack_into}


def _mem_source(code: Rendered, data_base: int, ram_size: int):
    """The four code pieces of one rendered load/store.

    Returns ``(pre, cond, fast, slow)``: the offset ``o`` of the address
    in data RAM, the inline fast-path guard (aligned access fully inside
    data RAM — the exact condition ``Memory.load``/``Memory.store`` use),
    the in-place RAM body, and the fallback call into the memory system
    (MMIO, code reads, traps).  Only the ``slow`` call can raise.  With a
    shadowed RAM window (``ram_size < 0``) there is no fast path and
    ``cond`` is ``None`` — the caller emits the fallback alone, exactly
    the stepped behaviour.
    """
    size = code.size
    if ram_size < 0:
        pre, address = [f"a = {code.address}"], "a"
    else:
        pre, address = [f"o = ({code.address}) - {data_base}"], \
            f"o + {data_base}"
    if code.data:
        slow = [f"st({address}, {code.data}, {size})"]
    else:
        load = f"ld({address}, {size}, {code.signed})"
        slow = [f"{code.dest} = {load}" if code.dest else load]
    if ram_size < 0:
        return pre, None, [], slow
    if ram_size & (ram_size - 1) == 0 and data_base % size == 0:
        # a power-of-two window: in range and aligned is one mask test
        cond = f"not o & {~(ram_size - 1) | (size - 1)}"
    else:
        align = ""
        if size > 1:
            aligned = "o" if data_base % size == 0 else f"(o + {data_base})"
            align = f"not {aligned} & {size - 1} and "
        cond = f"{align}0 <= o <= {ram_size - size}"
    if code.data:
        fast = [stmt.format(v=code.data) for stmt in _STORE_FAST[size]]
    elif code.dest:
        fast = [f"{code.dest} = {_LOAD_FAST[size, code.signed]}"]
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
    # a fresh namespace per call: each region keeps its own exit table
    exec(code, namespace)
    fn = namespace["_fused"]
    fn.__fused_source__ = source  # debugging / test introspection
    return fn


# -- SOFIA region compiler -------------------------------------------------

class Region(NamedTuple):
    """One compiled region: its member edges and one entry per member.

    Binds no machine state, so machines whose block caches hold the same
    payloads share it.  Every entry carries ``members`` too, as a
    frozenset of the member edges, so a machine drops each entry of a
    region that inlines a stale block (``SofiaMachine._on_code_write``).
    """

    fn: Callable              # the compiled function, entered at member 0
    members: tuple            # (edge, payload object) per member, in order
    entries: Dict[tuple, Callable]   # member edge -> its entry handler


def _fold(source: str) -> Optional[int]:
    """The value of a rendered CTI target, or ``None`` when it reads a
    register (an indirect transfer's target is known only at run time)."""
    try:
        return eval(source, {"__builtins__": {}})
    except NameError:
        return None


def _payload_end(block):
    """Where ``block``'s payload ends: ``(count, last)`` — the number of
    instructions up to and including the first CTI or halt, and that
    instruction (``None`` when the payload runs off its end)."""
    for count, (instr, _address, _slot) in enumerate(block.payload, 1):
        if instr.spec.is_cti or instr.spec.is_halt:
            return count, instr
    return len(block.payload), None


def _successors(block, block_bytes: int) -> tuple:
    """The constant successor edges of a verified block, fall-through
    first: none after a halt or an indirect CTI, the taken edge of a
    direct CTI, and the sequential edge after a conditional branch or a
    payload without a CTI."""
    count, last = _payload_end(block)
    fallthrough = (block.base + block_bytes - 4, block.base + block_bytes)
    if last is None:
        return (fallthrough,)
    if last.spec.is_halt:
        return ()
    address = block.payload[count - 1][1]
    code = render(last, LiteralOperands(last, address))
    target = _fold(code.target)
    taken = () if target is None else ((address, target),)
    return (fallthrough,) + taken if code.cond else taken


def grow_region(cache, head, block_bytes: int) -> list:
    """The members of the region grown from edge ``head``: verified,
    decodable blocks of ``cache`` reachable from it over constant
    successor edges, in fall-through-first depth-first order, at most
    :data:`MAX_REGION` of them.  Returns ``[(edge, block)]``."""
    members = []
    seen = set()
    stack = [head]
    while stack and len(members) < MAX_REGION:
        key = stack.pop()
        if key in seen:
            continue
        seen.add(key)
        block = cache.get(key)
        if block is None or not block.ok or block.decode_failure is not None:
            continue
        members.append((key, block))
        # reversed: the fall-through successor is popped (visited) first
        stack.extend(reversed(_successors(block, block_bytes)))
    return members


class _RegionOperands(LiteralOperands):
    """A region's operand map: register ``n`` is the local ``Rn``, noted
    in ``used`` (and in ``written`` when the instruction writes it)."""

    def __init__(self, instr, pc, used: set, written: set) -> None:
        super().__init__(instr, pc)
        self.used = used
        self.written = written

    def register(self, number: int, written: bool) -> str:
        self.used.add(number)
        if written:
            self.written.add(number)
        return f"R{number}"


def compile_sofia_block(members, timing: TimingParams, icache, memory,
                        block_bytes: int) -> Region:
    """Compile the verified blocks ``members`` (``[(edge, block)]``, as
    :func:`grow_region` returns them) into one :class:`Region`.

    The function is a ``while True`` loop over one ``if e == j:`` section
    per member, ``e`` being the member about to run; a single block is a
    one-member region.  SRISC registers live in locals ``Rn`` for the
    whole call and are written back once, on every exit.  The charges of
    a block exit are constants: each exit bumps a visit counter (exits
    with equal cycles, fetch slots and seal charge share one) and adds its
    instruction count to ``n``, and the counters are summed once at
    return.  An I-cache miss adds its penalty where it happens, unless
    the block is execution-bound (``max(fetch, exec)`` is then not linear
    in the misses): its exits charge their own extra by the block's miss
    count ``mr``.  Terminal exits — halt, MMIO exit, and a trap, caught
    once around the loop — leave it with ``x`` set to their row of the
    constant table ``_X``.
    """
    index = {key: j for j, (key, _block) in enumerate(members)}
    line_shift = icache.line_bytes.bit_length() - 1
    lines_mask = icache.lines - 1
    lines_shift = icache.lines.bit_length() - 1
    pen = timing.icache_miss_penalty
    data_base, ram_size = memory.data_base, memory._ram_size
    used: set = set()
    written: set = set()
    counters: Dict[tuple, str] = {}
    #: terminal exits: (n, cycles, fetches, mac, key, code, miss extras)
    table: list = [None]
    out = []
    at = " " * 16   # a section's statements: def, try, while, if e

    for j, (key, block) in enumerate(members):
        runs = compile_fetch_runs(block.fetch_addresses, line_shift,
                                  lines_mask, lines_shift)
        n_fetch = len(block.fetch_addresses)
        mc = timing.mac_word_cycles * block.mac_slots
        fallthrough = (block.base + block_bytes - 4, block.base + block_bytes)
        count, _last = _payload_end(block)
        # the most exec cycles any exit can charge: fetch-bound blocks
        # (the usual case) charge a miss its plain penalty
        linear = n_fetch >= sum(max(cycle_costs(instr, timing))
                                for instr, _a, _s in block.payload[:count])
        out.append(f"            if e == {j}:")
        if not linear:
            out.append(at + "mr = 0")
        for line, tag, _words in runs:
            out += [f"{at}if tags[{line}] != {tag}:",
                    f"{at}    tags[{line}] = {tag}"]
            out += ([f"{at}    ms += 1", f"{at}    xc += {pen}"] if linear
                    else [f"{at}    mr += 1"])

        def extra(ec: int):
            # a non-linear block's miss charge by miss count, for an exit
            # after ec exec cycles
            base = max(n_fetch, ec)
            return None if linear else tuple(
                max(n_fetch + m * pen, ec) - base
                for m in range(len(runs) + 1))

        def leave(ind: str, ec: int, n: int) -> List[str]:
            # the charges of an exit to the next block
            lines = []
            if not linear:
                lines += [f"{ind}if mr:", f"{ind}    ms += mr",
                          f"{ind}    xc += {extra(ec)}[mr]"]
            name = counters.setdefault((max(n_fetch, ec), n_fetch, mc),
                                       f"c{len(counters)}")
            return lines + [f"{ind}{name} += 1", f"{ind}n += {n}"]

        def go(ind: str, succ) -> List[str]:
            # the transfer to edge succ, the charges already made
            if succ not in index:
                return [f"{ind}k = {succ}", f"{ind}break"]
            # out of budget, the region returns member e's edge
            m = index[succ]
            lines = [f"{ind}e = {m}", f"{ind}if n >= budget:",
                     f"{ind}    break"]
            return lines + [f"{ind}continue"] if m <= j else lines

        def terminal(ec: int, n: int, code: int) -> int:
            table.append((n, max(n_fetch, ec), n_fetch, mc, key, code,
                          extra(ec)))
            return len(table) - 1

        ec = 0
        for number, (instr, address, _slot) in enumerate(
                block.payload[:count]):
            seq, taken = cycle_costs(instr, timing)
            spec = instr.spec
            if spec.is_halt:
                out += [f"{at}x = {terminal(ec + seq, number + 1, 2)}",
                        at + "break"]
                break
            code = render(instr, _RegionOperands(instr, address, used,
                                                 written))
            if spec.is_load or spec.is_store:
                pre, cond, fast, slow = _mem_source(code, data_base,
                                                    ram_size)
                out += [at + stmt for stmt in pre]
                ind = at
                if cond is not None:
                    out.append(f"{at}if {cond}:")
                    out += [f"{at}    {stmt}" for stmt in fast]
                    out.append(at + "else:")
                    ind = at + "    "
                # the trap row, should the memory system raise
                out.append(f"{ind}s = {terminal(ec, number, 4)}")
                out += [ind + stmt for stmt in slow]
                if spec.is_store:
                    # a store outside data RAM may write code: end the
                    # region at this block's boundary
                    out += [f"{ind}budget = 0",
                            f"{ind}if mmio.exit_code is not None:",
                            f"{ind}    x = "
                            f"{terminal(ec + seq, number + 1, 3)}",
                            f"{ind}    break"]
            else:
                out += [at + stmt for stmt in code.body]
                if spec.is_cti:
                    target = _fold(code.target)
                    if target is None:
                        out += leave(at, ec + taken, number + 1)
                        out += [f"{at}k = ({address}, {code.target})",
                                at + "break"]
                    elif code.cond:
                        inner = at + "    "
                        out.append(f"{at}if {code.cond}:")
                        out += leave(inner, ec + taken, number + 1)
                        out += go(inner, (address, target))
                        out.append(at + "else:")
                        out += leave(inner, ec + seq, number + 1)
                        out += go(inner, fallthrough)
                    else:
                        out += leave(at, ec + taken, number + 1)
                        out += go(at, (address, target))
                    break
            ec += seq
        else:
            out += leave(at, ec, count) + go(at, fallthrough)

    # prologue and epilogue: registers in and out, the counters summed
    names = sorted(counters.items(), key=lambda item: item[1])

    def total(field: int) -> str:
        by_value: Dict[int, List[str]] = {}
        for constants, name in names:
            by_value.setdefault(constants[field], []).append(name)
        return " + ".join(f"{value} * ({' + '.join(group)})"
                          for value, group in by_value.items()) or "0"

    head = ["def _fused(r, ld, st, mmio, tags, ram, budget, e=0):"]
    head += [f"    R{reg} = r[{reg}]" for reg in sorted(used)]
    head.append("    n = ms = xc = x = "
                + "".join(f"{name} = " for _c, name in names) + "0")
    head += ["    k = p = None", "    try:", "        while True:"]
    tail = ["    except SimulationError as exc:",
            "        p = str(exc)",
            "        x = s"]
    tail += [f"    r[{reg}] = R{reg}" for reg in sorted(written)]
    tail += [f"    y = {total(0)} + xc",
             f"    f = {total(1)}",
             f"    g = {total(2)}",
             "    b = " + (" + ".join(name for _c, name in names) or "0"),
             "    if x:",
             "        N, C, F, M, k, x, D = _X[x]",
             "        if D:",
             "            ms += mr",
             "            C += D[mr]",
             "        return (n + N, y + C, f + F - ms, ms, g + M, b + 1, k, "
             "(x, p))",
             "    return (n, y, f - ms, ms, g, b, k or _K[e], None)"]
    namespace = dict(HELPERS, **_RAM_HELPERS, SimulationError=SimulationError,
                     _X=tuple(table), _K=tuple(index))
    fn = _compile(head + out + tail, namespace)
    keys = frozenset(index)
    entries = {}
    for j, (key, _block) in enumerate(members):
        entry = entries[key] = FunctionType(fn.__code__, fn.__globals__,
                                            fn.__name__, (j,))
        entry.members = keys
    return Region(fn, tuple((key, block.payload) for key, block in members),
                  entries)


# -- vanilla straight-line-run compiler -----------------------------------

def compile_vanilla_run(machine, start_pc: int) -> tuple:
    """Walk the per-PC chain at ``start_pc`` and compile it into one call.

    The run covers consecutive PCs up to and *including* the first CTI,
    store or halt (stores terminate runs so self-modifying code can never
    execute a stale compiled suffix), capped at :data:`MAX_RUN`.  A decode
    or fetch fault *past* the first instruction truncates the run — the
    faulting PC becomes its own (trapping) run, preserving the exact
    stepped trap point and reason.  A run whose direct CTI targets
    ``start_pc`` (an idle loop; it holds no store, which would have ended
    it) loops inside the call: it starts another iteration only if the
    whole iteration fits the ``budget``.

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
            instr = machine._decode(pc)[0]
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
    last = instrs[-1]
    loops = last.spec.is_cti and _fold(render(
        last, LiteralOperands(last, next_pc - 4)).target) == start_pc
    # the instructions of the iterations already completed
    done = "i + " if loops else ""

    namespace = dict(HELPERS, **_RAM_HELPERS, SimulationError=SimulationError)
    memory = machine.memory
    out = []

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
                       f"{n} - mr, mr, {address}, (2, None))")
            break
        code = render(instr, LiteralOperands(instr, address))
        if may_trap:
            pre, cond, fast, slow = _mem_source(code, memory.data_base,
                                                memory._ram_size)
            trap_ret = (f"return ({done}{k}, {charge(cyc)}, "
                        f"{done}{k + 1} - mr, mr, {address}, (4, str(e)))")
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
                taken_charge = charge(
                    cyc + hc_taken, extra_taken if branch_flag else 0)
                seq_charge = charge(
                    cyc + hc_seq, extra_seq if branch_flag else 0)
                ind = "    "
                if code.cond:
                    out.append(f"    if {code.cond}:")
                    ind = "        "
                if loops:
                    # back to the start: another iteration if it fits
                    out += [f"{ind}xc = {taken_charge}", f"{ind}i += {n}",
                            f"{ind}if i + {n} > budget:",
                            f"{ind}    return (i, xc, i - mr, mr, "
                            f"{start_pc}, None)"]
                    if code.cond:
                        out.append(f"{ind}continue")
                else:
                    out.append(f"{ind}return ({n}, {taken_charge}, "
                               f"{n} - mr, mr, {code.target}, None)")
                if code.cond:
                    out.append(f"    return ({done}{n}, {seq_charge}, "
                               f"{done}{n} - mr, mr, {next_pc}, None)")
                break
        cyc += hc_seq
        if spec.is_store:
            out.append("    if mmio.exit_code is not None:")
            out.append(f"        return ({n}, {charge(cyc)}, "
                       f"{n} - mr, mr, {address}, (3, None))")
            out.append(f"    return ({n}, {charge(cyc)}, "
                       f"{n} - mr, mr, {next_pc}, None)")
            break
    else:
        # capped or truncated before a faulting PC: plain continue
        out.append(f"    return ({n}, {charge(cyc)}, "
                   f"{n} - mr, mr, {next_pc}, None)")

    prologue = ["def _fused(r, ld, st, mmio, tags, ram, budget):",
                "    mr = 0",
                "    xc = 0"]
    if loops:
        prologue += ["    i = 0", "    while True:"]
        out = ["    " + line for line in out]
    return (_compile(prologue + out, namespace), n, covered)
