"""End-to-end differential property tests.

THE invariant of the whole system (paper §II: the transformation preserves
program semantics for all valid control flow): any program produces
identical architectural results and identical console output on the
vanilla core and on the SOFIA core after transformation.  Hypothesis
generates random programs at two levels:

* structured random *assembly* (straight-line blocks with forward branches
  and calls — always terminating),
* random *C expressions* compiled by minicc, additionally checked against
  a Python evaluation of the same expression (golden semantics).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc import compile_source
from repro.crypto import DeviceKeys
from repro.isa import assemble, parse
from repro.sim import SofiaMachine, VanillaMachine
from repro.transform import ProtectionProfile, transform

KEYS = DeviceKeys.from_seed(1)

ALU_LINES = st.sampled_from([
    "addi t0, t0, 7",
    "add t1, t0, t1",
    "sub t0, t1, t0",
    "mul t1, t1, t0",
    "xor t0, t0, t1",
    "slli t1, t1, 1",
    "srai t0, t0, 2",
    "sltu t2, t0, t1",
    "sw t0, -4(sp)",
    "lw t1, -4(sp)",
    "sw t1, -8(sp)",
    "lw t2, -8(sp)",
])

BRANCHES = st.sampled_from(["beq", "bne", "blt", "bge", "bltu", "bgeu"])


@st.composite
def assembly_programs(draw):
    """A terminating program: N segments with forward-only branches."""
    n_segments = draw(st.integers(min_value=1, max_value=5))
    use_call = draw(st.booleans())
    lines = ["main:", "    li t0, 3", "    li t1, 5", "    li t2, 9"]
    for seg in range(n_segments):
        lines.append(f"seg{seg}:")
        for line in draw(st.lists(ALU_LINES, min_size=1, max_size=8)):
            lines.append(f"    {line}")
        if use_call and draw(st.booleans()):
            lines.append("    mv a0, t0")
            lines.append("    call helper")
            lines.append("    mv t0, a0")
        if seg + 1 < n_segments and draw(st.booleans()):
            branch = draw(BRANCHES)
            target = draw(st.integers(min_value=seg + 1,
                                      max_value=n_segments - 1))
            lines.append(f"    {branch} t0, t1, seg{target}")
    lines += [
        "    li a0, 0xFFFF0004",
        "    sw t0, 0(a0)",
        "    sw t1, 0(a0)",
        "    sw t2, 0(a0)",
        "    halt",
    ]
    if use_call:
        lines += ["helper:", "    addi a0, a0, 13",
                  "    slli a0, a0, 1", "    ret"]
    return "\n".join(lines) + "\n"


class TestAssemblyEquivalence:
    @given(source=assembly_programs(), nonce=st.integers(0, 0xFFFF))
    @settings(max_examples=30, deadline=None)
    def test_vanilla_equals_sofia(self, source, nonce):
        program = parse(source)
        vanilla = VanillaMachine(assemble(program)).run(200_000)
        image = transform(program, KEYS, nonce=nonce)
        sofia = SofiaMachine(image, KEYS).run(400_000)
        assert vanilla.ok and sofia.ok, (vanilla.summary(), sofia.summary())
        assert vanilla.output_ints == sofia.output_ints

    @given(source=assembly_programs())
    @settings(max_examples=10, deadline=None)
    def test_equivalence_with_small_blocks(self, source):
        program = parse(source)
        vanilla = VanillaMachine(assemble(program)).run(200_000)
        image = transform(program, KEYS, nonce=3,
                          profile=ProtectionProfile(block_words=6))
        sofia = SofiaMachine(image, KEYS).run(400_000)
        assert vanilla.output_ints == sofia.output_ints


# --- C expression differential tests -------------------------------------

@st.composite
def c_expressions(draw, depth=0):
    """Random int expression with guarded division (no div-by-zero/UB)."""
    if depth >= 3 or draw(st.booleans()):
        return str(draw(st.integers(min_value=-1000, max_value=1000)))
    op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^", "<", ">",
                               "==", "!=", "<=", ">=", "&&", "||"]))
    left = draw(c_expressions(depth=depth + 1))
    right = draw(c_expressions(depth=depth + 1))
    return f"({left} {op} {right})"


def _wrap32(v: int) -> int:
    v &= 0xFFFFFFFF
    return v - 0x100000000 if v & 0x80000000 else v


def python_eval_c(expr: str) -> int:
    """Evaluate a generated expression with exact C int32 semantics.

    The generator emits a strict grammar — either an integer literal or
    ``(left op right)`` — so a tiny recursive parser suffices.  Comparisons
    and logical operators yield 0/1; arithmetic wraps to 32 bits.
    """
    pos = [0]

    def skip_ws():
        while pos[0] < len(expr) and expr[pos[0]] == " ":
            pos[0] += 1

    def parse() -> int:
        skip_ws()
        if expr[pos[0]] != "(":
            start = pos[0]
            if expr[pos[0]] == "-":
                pos[0] += 1
            while pos[0] < len(expr) and expr[pos[0]].isdigit():
                pos[0] += 1
            return int(expr[start:pos[0]])
        pos[0] += 1  # "("
        left = parse()
        skip_ws()
        start = pos[0]
        while expr[pos[0]] in "+-*&|^<>=!":
            pos[0] += 1
        op = expr[start:pos[0]]
        right = parse()
        skip_ws()
        assert expr[pos[0]] == ")"
        pos[0] += 1
        ops = {
            "+": lambda a, b: _wrap32(a + b),
            "-": lambda a, b: _wrap32(a - b),
            "*": lambda a, b: _wrap32(a * b),
            "&": lambda a, b: _wrap32(a & b),
            "|": lambda a, b: _wrap32(a | b),
            "^": lambda a, b: _wrap32(a ^ b),
            "<": lambda a, b: int(a < b),
            ">": lambda a, b: int(a > b),
            "==": lambda a, b: int(a == b),
            "!=": lambda a, b: int(a != b),
            "<=": lambda a, b: int(a <= b),
            ">=": lambda a, b: int(a >= b),
            "&&": lambda a, b: int(bool(a) and bool(b)),
            "||": lambda a, b: int(bool(a) or bool(b)),
        }
        return ops[op](left, right)

    return parse()


class TestCompilerDifferential:
    @given(expr=c_expressions())
    @settings(max_examples=30, deadline=None)
    def test_minicc_matches_python(self, expr):
        expected = python_eval_c(expr)
        compiled = compile_source(
            f"int main() {{ print_int({expr}); return 0; }}")
        vanilla = VanillaMachine(assemble(compiled.program)).run(500_000)
        assert vanilla.ok
        assert vanilla.output_ints == [expected]

    @given(expr=c_expressions(), nonce=st.integers(0, 0xFFFF))
    @settings(max_examples=15, deadline=None)
    def test_protected_compiler_output_matches(self, expr, nonce):
        compiled = compile_source(
            f"int main() {{ print_int({expr}); return 0; }}")
        vanilla = VanillaMachine(assemble(compiled.program)).run(500_000)
        image = transform(compiled.program, KEYS, nonce=nonce)
        sofia = SofiaMachine(image, KEYS).run(1_000_000)
        assert vanilla.output_ints == sofia.output_ints
