"""One instruction-semantics table, rendered for both fast-engine tiers.

:func:`repro.sim.core.execute` is the *reference semantics oracle*: a
hand-written mnemonic dispatch that re-reads every operand field,
allocates a fresh :class:`~repro.sim.core.ExecOutcome` and re-derives
:func:`~repro.sim.timing.instruction_cycles` on every step.  That is the
right shape for auditing the ISA against the paper, and the wrong shape
for the millions of steps a fault campaign or overhead sweep executes.

The ``"fast"`` engine therefore runs generated code, and generates it
from one definition: :data:`SEMANTICS` gives every SRISC mnemonic exactly
once, as Python source templates over named operands (:data:`OPERANDS`),
and :func:`render` applies the rules every rendering shares (a write to
r0 is compiled out; a zero offset addresses through the base register
alone; an indirect target is read before the link write).  Registers
are operands too (:data:`REGISTERS`), so each rendering chooses where
they live.  The two tiers of the fast engine are two renderings of that
table:

* the **cold tier** (code below the
  :data:`~repro.sim.fused.COMPILE_THRESHOLD` heat gate, plus the exact
  budget tail of a vanilla run): :func:`compile_handler` renders an entry
  once per mnemonic into a factory whose *handlers* bind the operands as
  default arguments (locals, not cell lookups), and :func:`predecode`
  pairs each handler with its two precomputed cycle costs from
  :func:`~repro.sim.timing.cycle_costs`;
* the **hot tier** (:mod:`repro.sim.fused`) renders the same entries
  with literal operands into one compiled function per vanilla
  straight-line run or SOFIA region, a region with the registers mapped
  to its locals.

Loads and stores keep one tier-specific part each (the cold
``memory.load``/``memory.store`` call, the hot inlined RAM fast path);
their address, stored value and r0 rule still come from the table.
``core.execute`` stays hand-written and independent of the table, because
it is the oracle the differential suites hold both renderings to;
``engine="reference"`` keeps its loop selectable.  The fast engine has one
loop per machine and it fires no ``on_commit`` hook: a run with a hook, or
one resumed with the MMIO exit register already written, is executed by
the oracle on either engine.

Handler contract
----------------
``handler(regs, memory, pc) -> Optional[int]`` where the return value is

* ``None``        — sequential flow (``pc + 4`` / next payload slot); the
  not-taken cycle cost applies;
* :data:`HALT`    — a ``halt`` committed (``-1``, unreachable as a real
  address because architectural values are masked to 32 bits);
* any other int   — the next PC; the taken cycle cost applies.

The mapping to the oracle is exact: a handler returns non-``None`` iff
``execute`` returns an outcome with ``next_pc is not None`` or ``halted``,
and a *branch* handler returns non-``None`` iff ``branch_taken`` — so
charging the taken cost on non-``None`` reproduces
``instruction_cycles(instr, timing, outcome.branch_taken)`` bit for bit
(unconditional transfers bake the jump penalty into both costs).
Handlers raise the same :class:`~repro.errors.SimulationError` as the
oracle for bus errors, MMIO violations and misaligned accesses, because
they call the same :class:`~repro.sim.memory.Memory` methods.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from ..errors import SimulationError
from ..isa.instructions import Instruction
from .timing import TimingParams, cycle_costs

MASK32 = 0xFFFFFFFF
SIGN_BIT = 0x80000000

#: sentinel returned by a compiled ``halt`` handler (no architectural
#: address can be negative, so it never collides with a branch target)
HALT = -1

#: the engines a machine can run: the tiered ``"fast"`` engine (predecoded
#: stepping while code is cold, one source-compiled call per block or
#: straight-line run once it is hot) and the ``"reference"`` oracle loop
#: over ``core.execute`` that the differential suites lockstep against.
#: Both are bit-identical; this tuple is the single home of the engine
#: name surface (CLI choices, telemetry counter suffixes).
ENGINES = ("fast", "reference")
DEFAULT_ENGINE = "fast"


def resolve_engine(engine: Optional[str]) -> str:
    """Validate an engine name (``None`` selects the default)."""
    if engine is None:
        return DEFAULT_ENGINE
    if engine not in ENGINES:
        raise ValueError(
            f"unknown execution engine {engine!r}; choose from {ENGINES}")
    return engine


def run_loop(engine: str, on_commit, mmio) -> str:
    """The loop one run executes: ``"reference"`` for that engine, for a
    run with an ``on_commit`` hook and for a run resumed with the MMIO
    exit register already written (the oracle executes one more
    instruction before it notices); ``"fast"`` otherwise.  Hooks and
    pending exits are observation paths the oracle serves bit for bit,
    so the fast engine keeps one hook-less loop per machine."""
    if (engine == "reference" or on_commit is not None
            or mmio.exit_code is not None):
        return "reference"
    return "fast"


# -- the semantics table ----------------------------------------------------

class Semantics(NamedTuple):
    """One mnemonic's semantics as source templates.

    A template names its operands in braces: the registers of
    :data:`REGISTERS`, the fields and constants of :data:`OPERANDS`,
    ``{pc}`` (the instruction's own address) and the constants ``{M}``
    (:data:`MASK32`) and ``{S}`` (:data:`SIGN_BIT`).
    """

    write: str = ""        # the value written to rd
    cond: str = ""         # a branch's taken condition
    target: str = ""       # a control transfer's next PC
    link: str = ""         # the register a transfer writes pc + 4 to
    address: str = ""      # a load's or store's effective address
    data: str = ""         # the value a store writes
    size: int = 0          # a load's or store's width in bytes
    signed: bool = False   # a load sign-extends


#: the operands a template may name: the decoded fields, and constants
#: derived from them, as templates over the fields
OPERANDS = {
    "rd": "{rd}", "rs1": "{rs1}", "rs2": "{rs2}", "imm": "{imm}",
    "sh": "{imm} & 31",             # shift amounts wrap at 32
    "hi": "({imm} << 16) & {M}",    # lui's upper half
    "biased": "{imm} + {S}",        # slti's bound, sign-biased like r[rs1]
    "uimm": "{imm} & {M}",          # the immediate as an unsigned word
}

#: the register operands a template may name: the register number as a
#: template over the fields, and whether the instruction writes it.
#: Each rendering maps them to its own storage (``r[rs1]`` in the cold
#: tier, ``r[5]`` in a compiled run, a local ``R5`` in a region)
REGISTERS = {
    "src1": ("{rs1}", False), "src2": ("{rs2}", False),
    "dst": ("{rd}", True),
    "ra": ("1", True),                  # call's link register
}

_CONSTANTS = {"M": str(MASK32), "S": str(SIGN_BIT)}

_ADDRESS = "({src1} + {imm}) & {M}"
#: what ``_ADDRESS`` renders as for a zero offset: the base register
#: alone, whose value is already a 32-bit word
_BASE = "{src1}"


def _load(size: int, signed: bool = False) -> Semantics:
    return Semantics(address=_ADDRESS, size=size, signed=signed)


def _store(size: int) -> Semantics:
    return Semantics(address=_ADDRESS, data="{src2}", size=size)


def _sdiv(x: int, y: int) -> int:
    """Signed 32-bit division truncating toward zero; ``x / 0`` is all
    ones (RISC-V style)."""
    y = (y ^ SIGN_BIT) - SIGN_BIT
    if y == 0:
        return MASK32
    x = (x ^ SIGN_BIT) - SIGN_BIT
    quotient = abs(x) // abs(y)
    return (quotient if (x < 0) == (y < 0) else -quotient) & MASK32


def _srem(x: int, y: int) -> int:
    """Signed 32-bit remainder of truncating division (the dividend's
    sign); ``x % 0`` is ``x``."""
    y = (y ^ SIGN_BIT) - SIGN_BIT
    if y == 0:
        return x
    x = (x ^ SIGN_BIT) - SIGN_BIT
    remainder = abs(x) % abs(y)
    return (-remainder if x < 0 else remainder) & MASK32


#: the helpers a rendered template may call, for every generated namespace
HELPERS = {"_sdiv": _sdiv, "_srem": _srem}

#: every mnemonic's semantics, for both tiers of the fast engine.
#: ``(x ^ S) - S`` reads a word as signed, and ``x ^ S`` orders words as
#: their signed views order.
SEMANTICS: Dict[str, Semantics] = {
    "nop": Semantics(),
    # the handler contract's sentinel; a compiled run ends itself on halt
    "halt": Semantics(target=str(HALT)),
    "add": Semantics("({src1} + {src2}) & {M}"),
    "sub": Semantics("({src1} - {src2}) & {M}"),
    "and": Semantics("{src1} & {src2}"),
    "or": Semantics("{src1} | {src2}"),
    "xor": Semantics("{src1} ^ {src2}"),
    "sll": Semantics("({src1} << ({src2} & 31)) & {M}"),
    "srl": Semantics("{src1} >> ({src2} & 31)"),
    "sra": Semantics("((({src1} ^ {S}) - {S}) >> ({src2} & 31)) & {M}"),
    "mul": Semantics("({src1} * {src2}) & {M}"),
    "div": Semantics("_sdiv({src1}, {src2})"),
    "rem": Semantics("_srem({src1}, {src2})"),
    "slt": Semantics("1 if ({src1} ^ {S}) < ({src2} ^ {S}) else 0"),
    "sltu": Semantics("1 if {src1} < {src2} else 0"),
    "addi": Semantics("({src1} + {imm}) & {M}"),
    "andi": Semantics("{src1} & {uimm}"),
    "ori": Semantics("{src1} | {uimm}"),
    "xori": Semantics("{src1} ^ {uimm}"),
    "slli": Semantics("({src1} << {sh}) & {M}"),
    "srli": Semantics("{src1} >> {sh}"),
    "srai": Semantics("((({src1} ^ {S}) - {S}) >> {sh}) & {M}"),
    "slti": Semantics("1 if ({src1} ^ {S}) < {biased} else 0"),
    "sltiu": Semantics("1 if {src1} < {uimm} else 0"),
    "lui": Semantics("{hi}"),
    "lw": _load(4), "lh": _load(2, True), "lhu": _load(2),
    "lb": _load(1, True), "lbu": _load(1),
    "sw": _store(4), "sh": _store(2), "sb": _store(1),
    "beq": Semantics(cond="{src1} == {src2}", target="{uimm}"),
    "bne": Semantics(cond="{src1} != {src2}", target="{uimm}"),
    "blt": Semantics(cond="({src1} ^ {S}) < ({src2} ^ {S})",
                     target="{uimm}"),
    "bge": Semantics(cond="({src1} ^ {S}) >= ({src2} ^ {S})",
                     target="{uimm}"),
    "bltu": Semantics(cond="{src1} < {src2}", target="{uimm}"),
    "bgeu": Semantics(cond="{src1} >= {src2}", target="{uimm}"),
    "jmp": Semantics(target="{uimm}"),
    "call": Semantics(target="{uimm}", link="{ra}"),
    "jr": Semantics(target="{src1}"),
    "jalr": Semantics(target="{src1}", link="{dst}"),
}


class Rendered(NamedTuple):
    """One instruction's :class:`Semantics` rendered over an operand map."""

    body: List[str]   # its register writes, in commit order
    cond: str
    target: str
    address: str
    dest: str         # the register a load writes ("" for r0)
    data: str
    size: int
    signed: bool


def semantics(mnemonic: str) -> Semantics:
    """The table entry of ``mnemonic``."""
    try:
        return SEMANTICS[mnemonic]
    except KeyError:
        raise SimulationError(
            f"no semantics for mnemonic {mnemonic!r}") from None


def render(instr: Instruction, operands: Mapping[str, str]) -> Rendered:
    """Render ``instr``'s table entry, each operand as ``operands[name]``.

    A write to r0 is compiled out (the oracle discards it in
    ``CPUState.write`` with no other side effect) — a load to r0 still
    accesses memory, because bus errors and MMIO reads trap exactly like
    the oracle.  A zero offset renders the address as the base register
    alone.  An indirect transfer reads its target into ``t`` before its
    link write (``jalr`` with rd == rs1).
    """
    sem = semantics(instr.mnemonic)
    rd_is_r0 = instr.rd == 0

    def fill(template: str) -> str:
        return template.format_map(operands) if template else ""

    body = []
    if sem.write and not rd_is_r0:
        body.append(fill("{dst} = " + sem.write))
    target = fill(sem.target)
    if sem.link and not (rd_is_r0 and sem.link == "{dst}"):
        if instr.spec.is_indirect:
            body.append(f"t = {target}")
            target = "t"
        body.append(fill(sem.link + " = ({pc} + 4) & {M}"))
    dest = ""
    if sem.address and not sem.data and not rd_is_r0:
        dest = fill("{dst}")
    address = sem.address
    if instr.imm == 0 and address == _ADDRESS:
        address = _BASE
    return Rendered(body, fill(sem.cond), target, fill(address), dest,
                    fill(sem.data), sem.size, sem.signed)


class LiteralOperands(dict):
    """The hot tier's operand map for ``instr`` at address ``pc``: a field
    is a literal, a derived operand, rendered on first use, is a constant
    expression that ``compile()`` folds to one, and register ``n`` is
    :meth:`register` ``(n)`` — a read of r0 is the constant ``0``."""

    def __init__(self, instr: Instruction, pc: int) -> None:
        super().__init__(_CONSTANTS, pc=str(pc), rd=str(instr.rd),
                         rs1=str(instr.rs1), rs2=str(instr.rs2),
                         imm=str(instr.imm))

    def register(self, number: int, written: bool) -> str:
        return f"r[{number}]"

    def __missing__(self, name: str) -> str:
        if name in REGISTERS:
            template, written = REGISTERS[name]
            number = int(template.format_map(self))
            source = ("0" if number == 0 and not written
                      else self.register(number, written))
        else:
            source = "(" + OPERANDS[name].format_map(self) + ")"
        self[name] = source
        return source


class _OperandNames(dict):
    """The cold tier's operand map: each field or derived operand renders
    as its own name, a register as ``r[...]`` of its field's, and the
    names a rendering used are its handlers' default arguments."""

    def __missing__(self, name: str) -> str:
        if name in REGISTERS:
            number = REGISTERS[name][0].format_map(self)
            source = self[name] = f"r[{number}]"
            return source
        self[name] = name
        return name


def _factory(instr: Instruction) -> Callable[[Instruction], Callable]:
    """Generate the handler factory of ``instr``'s entry and special
    case."""
    from .fused import _compile  # the shared source -> code cache
    operands = _OperandNames(_CONSTANTS, pc="pc")
    code = render(instr, operands)
    body = list(code.body)
    if code.data:
        body.append(f"memory.store({code.address}, {code.data}, "
                    f"{code.size})")
    elif code.address:
        access = f"memory.load({code.address}, {code.size}, {code.signed})"
        body.append(f"{code.dest} = {access}" if code.dest else access)
    if code.cond:
        body.append(f"return {code.target} if {code.cond} else None")
    else:
        body.append(f"return {code.target or None}")
    fields = dict(_CONSTANTS, rd="i.rd", rs1="i.rs1", rs2="i.rs2",
                  imm="i.imm")
    defaults = "".join(f", {name}={OPERANDS[name].format_map(fields)}"
                       for name in operands if name in OPERANDS)
    lines = ["def _fused(i):",
             f"    def run(r, memory, pc{defaults}):"]
    lines += ["        " + stmt for stmt in body]
    lines.append("    return run")
    return _compile(lines, dict(HELPERS))


#: (mnemonic, rd is r0, imm is 0) -> (the entry it was built from, its
#: factory)
_FACTORIES: Dict[Tuple[str, bool, bool], Tuple[Semantics, Callable]] = {}


def compile_handler(instr: Instruction) -> Callable:
    """Compile one instruction into its specialized handler.

    The factory of each mnemonic and special case (an r0 destination, a
    zero offset; see :func:`render`) is generated on first use and rebuilt
    when its table entry is replaced.
    """
    key = (instr.mnemonic, instr.rd == 0, instr.imm == 0)
    sem = SEMANTICS.get(instr.mnemonic)
    built = _FACTORIES.get(key)
    if built is None or built[0] is not sem:
        built = _FACTORIES[key] = (sem, _factory(instr))
    return built[1](instr)


#: step kinds: what a committed step can do beyond writing registers/RAM.
#: INERT handlers provably return ``None`` and cannot end a block or a
#: straight-line run, so the fast loops skip every post-commit check for
#: them; only a STORE can set the MMIO exit register.
KIND_INERT = 0   # ALU / load / nop: no control effect, cannot set exit
KIND_STORE = 1   # may write the MMIO exit register
KIND_CTI = 2     # ends the block: branch / jump / call / indirect
KIND_HALT = 3    # handler returns HALT


def predecode(instr: Instruction, timing: TimingParams) -> tuple:
    """Compile an instruction and precompute both cycle costs: the
    vanilla step ``(handler, cycles_not_taken, cycles_taken, kind)``."""
    seq, taken = cycle_costs(instr, timing)
    return (compile_handler(instr), seq, taken, step_kind(instr))


def step_kind(instr: Instruction) -> int:
    spec = instr.spec
    if spec.is_cti:
        return KIND_CTI
    if spec.is_store:
        return KIND_STORE
    if spec.is_halt:
        return KIND_HALT
    return KIND_INERT


def predecode_payload(payload, timing: TimingParams) -> tuple:
    """Compile a verified block's payload into handler steps
    ``(handler, cycles_not_taken, cycles_taken, kind, address)``.

    ``payload`` is the :class:`~repro.sim.sofia._VerifiedBlock` payload:
    ``(instr, address, slot)`` triples in fetch order.
    """
    steps = []
    for instr, address, _slot in payload:
        seq, taken = cycle_costs(instr, timing)
        steps.append((compile_handler(instr), seq, taken,
                      step_kind(instr), address))
    return tuple(steps)


#: one fetch "run": consecutive block words on the same I-cache line,
#: as (line_index, line_tag, word_count)
FetchRun = Tuple[int, int, int]


def compile_fetch_runs(addresses, line_shift: int, lines_mask: int,
                       lines_shift: int) -> Tuple[FetchRun, ...]:
    """Group a block's fetch addresses into same-cache-line runs.

    Touching one line ``count`` times in a row behaves exactly like one
    tag check: the first access decides hit-or-fill, the rest must hit.
    Collapsing the per-word loop into per-run checks therefore preserves
    bit-identical hit/miss statistics and miss penalties while doing one
    tag comparison per line instead of one per word (a block usually
    occupies a single line).
    """
    runs = []
    prev_line = None
    for address in addresses:
        line = address >> line_shift
        if line == prev_line:
            runs[-1][2] += 1
        else:
            runs.append([line & lines_mask, line >> lines_shift, 1])
            prev_line = line
    return tuple(tuple(run) for run in runs)
