"""Robustness fuzzing: decoders, parsers and containers never crash badly.

These property tests pin down *total* behaviour of the input-facing
surfaces: arbitrary or mangled inputs either parse cleanly or raise the
documented library exception — never an unrelated Python error.

Program-shaped inputs come from :mod:`repro.fuzz.generators` wrapped as
Hypothesis strategies (a genome is just a tuple of draws): the assembler
and compiler see real, structured programs plus text-level *mutations*
of them — deleted, duplicated and truncated lines — instead of the old
ad-hoc character soup, so the properties exercise the deep paths (label
resolution, section handling, codegen) on every example.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cc import compile_source, tokenize
from repro.errors import (AssemblyError, CompileError, DecodingError,
                          ImageError)
from repro.fuzz import BLOCK_WORDS, SHAPES, Genome, generate
from repro.isa import decode, disassemble_word, encode, parse
from repro.isa.assembler import assemble
from repro.transform import SofiaImage

# -- genome-backed strategies ----------------------------------------------

ASM_SHAPES = tuple(shape for shape in SHAPES if shape != "minic")


def genomes(shapes=SHAPES):
    return st.builds(
        Genome,
        shape=st.sampled_from(shapes),
        seed=st.integers(min_value=0, max_value=1 << 32),
        size=st.integers(min_value=1, max_value=3),
        block_words=st.sampled_from(BLOCK_WORDS),
        nonce=st.integers(min_value=1, max_value=0xFFFF))


def asm_sources():
    return genomes(ASM_SHAPES).map(lambda g: generate(g).source)


def c_sources():
    return genomes(("minic",)).map(lambda g: generate(g).source)


@st.composite
def mangled(draw, sources):
    """A generated program with line-level damage applied."""
    lines = draw(sources).splitlines()
    operation = draw(st.integers(min_value=0, max_value=3))
    index = draw(st.integers(min_value=0, max_value=max(0, len(lines) - 1)))
    if operation == 0:                      # delete a line
        del lines[index]
    elif operation == 1:                    # duplicate a line
        lines.insert(index, lines[index])
    elif operation == 2:                    # truncate a line mid-token
        keep = draw(st.integers(min_value=0,
                                max_value=max(0, len(lines[index]) - 1)))
        lines[index] = lines[index][:keep]
    else:                                   # swap two lines
        other = draw(st.integers(min_value=0,
                                 max_value=max(0, len(lines) - 1)))
        lines[index], lines[other] = lines[other], lines[index]
    return "\n".join(lines) + "\n"


# -- decoder totality ------------------------------------------------------

class TestDecodeFuzz:
    @given(word=st.integers(min_value=0, max_value=0xFFFFFFFF))
    @settings(max_examples=300, deadline=None)
    def test_decode_total(self, word):
        try:
            instr = decode(word, 0x100)
            # decoded instructions re-render to valid assembly text
            assert instr.render()
        except DecodingError:
            pass

    @given(word=st.integers(min_value=0, max_value=0xFFFFFFFF))
    @settings(max_examples=100, deadline=None)
    def test_disassembler_total(self, word):
        text = disassemble_word(word, 0)
        assert isinstance(text, str) and text

    @given(source=asm_sources())
    @settings(max_examples=25, deadline=None)
    def test_generated_words_roundtrip(self, source):
        """Every encoded word of a generated program decodes back."""
        exe = assemble(parse(source))
        for index, word in enumerate(exe.code_words):
            pc = exe.code_base + 4 * index
            assert encode(decode(word, pc), pc) == word


# -- assembler robustness --------------------------------------------------

class TestAssemblerFuzz:
    @given(source=asm_sources())
    @settings(max_examples=30, deadline=None)
    def test_generated_programs_parse(self, source):
        program = parse(source)
        assert program.instructions

    @given(source=mangled(asm_sources()))
    @settings(max_examples=80, deadline=None)
    def test_mangled_programs_raise_only_assembly_errors(self, source):
        try:
            parse(source)
        except AssemblyError:
            pass

    @given(text=st.text(max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_text_total(self, text):
        # totality over the full input space, unicode included — the
        # structured strategies above never leave the generators'
        # alphabet, so this cheap property keeps the outer wall pinned
        try:
            parse("main: halt\n" + text)
        except AssemblyError:
            pass


# -- compiler robustness ---------------------------------------------------

class TestCompilerFuzz:
    @given(source=c_sources())
    @settings(max_examples=20, deadline=None)
    def test_generated_units_compile(self, source):
        compiled = compile_source(source)
        assert compiled.program.instructions

    @given(source=mangled(c_sources()))
    @settings(max_examples=60, deadline=None)
    def test_mangled_units_raise_only_compile_errors(self, source):
        try:
            compile_source(source)
        except CompileError:
            pass

    @given(source=mangled(c_sources()))
    @settings(max_examples=40, deadline=None)
    def test_lexer_total(self, source):
        try:
            tokens = tokenize(source)
            assert tokens[-1].kind == "eof"
        except CompileError:
            pass

    @given(text=st.text(max_size=100))
    @settings(max_examples=60, deadline=None)
    @example(text="0X")        # hex prefix with no digits
    @example(text="'\\n")     # escaped char literal cut off by the end
    def test_arbitrary_text_total(self, text):
        # as for the assembler: keep compiler + lexer total over raw
        # unicode soup, not just structurally mangled programs
        try:
            compile_source(text)
        except CompileError:
            pass
        try:
            tokenize(text)
        except CompileError:
            pass


# -- image container totality ----------------------------------------------

class TestImageFuzz:
    @given(blob=st.binary(max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_from_bytes_total(self, blob):
        try:
            SofiaImage.from_bytes(blob)
        except ImageError:
            pass

    @given(prefix_keep=st.integers(min_value=0, max_value=60))
    @settings(max_examples=40, deadline=None)
    def test_truncations_rejected_cleanly(self, prefix_keep):
        from repro.crypto import DeviceKeys
        from repro.transform import transform
        image = transform(parse("main: halt\n"),
                          DeviceKeys.from_seed(1), nonce=1)
        blob = image.to_bytes()
        if prefix_keep >= len(blob):
            return
        with pytest.raises(ImageError):
            SofiaImage.from_bytes(blob[:prefix_keep])


class TestDeterminism:
    def test_transform_is_deterministic(self):
        from repro.crypto import DeviceKeys
        from repro.transform import transform
        from repro.workloads import make_workload
        program = make_workload("sort", "tiny").compile().program
        keys = DeviceKeys.from_seed(5)
        a = transform(program, keys, nonce=3)
        b = transform(program, keys, nonce=3)
        assert a.words == b.words
        assert a.entry == b.entry

    def test_nonce_changes_every_word(self):
        from repro.crypto import DeviceKeys
        from repro.transform import transform
        program = parse("main: li a0, 1\n add a0, a0, a0\n halt\n")
        keys = DeviceKeys.from_seed(5)
        a = transform(program, keys, nonce=1)
        b = transform(program, keys, nonce=2)
        differing = sum(1 for x, y in zip(a.words, b.words) if x != y)
        assert differing == len(a.words)

    def test_keys_change_every_word(self):
        from repro.crypto import DeviceKeys
        from repro.transform import transform
        program = parse("main: li a0, 1\n halt\n")
        a = transform(program, DeviceKeys.from_seed(1), nonce=1)
        b = transform(program, DeviceKeys.from_seed(2), nonce=1)
        differing = sum(1 for x, y in zip(a.words, b.words) if x != y)
        assert differing == len(a.words)
