"""Trace/listing tooling tests."""

import re

from repro.crypto import DeviceKeys
from repro.isa import assemble_text, parse
from repro.sim import SofiaMachine, VanillaMachine, list_image, trace
from repro.transform import transform
from repro.workloads import make_workload

KEYS = DeviceKeys.from_seed(0x7ACE)

SOURCE = """
main:
    li t0, 3
    li t1, 4
    add t2, t0, t1
    mul t3, t2, t2
    li t4, 0xFFFF0004
    sw t3, 0(t4)
    halt
"""


class TestVanillaTrace:
    def test_trace_records_every_instruction(self):
        machine = VanillaMachine(assemble_text(SOURCE))
        entries = trace(machine)
        assert len(entries) == 8  # li, li, add, mul, lui, ori, sw, halt
        assert entries[0].text.startswith("addi")
        assert entries[2].changed_reg == 14  # t2
        assert entries[2].new_value == 7

    def test_trace_render(self):
        machine = VanillaMachine(assemble_text(SOURCE))
        entries = trace(machine, max_instructions=2)
        line = entries[0].render()
        assert "00000000" in line and "t0" in line

    def test_trace_stops_at_budget(self):
        machine = VanillaMachine(assemble_text("main: jmp main\n"))
        entries = trace(machine, max_instructions=10)
        assert len(entries) == 10


class TestSofiaTrace:
    def test_traces_align_after_nop_filtering(self):
        # the SOFIA trace is the vanilla one plus padding nops: the same
        # mnemonics with the same register effects (addresses differ)
        program = parse(SOURCE)
        vanilla = trace(VanillaMachine(assemble_text(SOURCE)))
        image = transform(program, KEYS, nonce=0x11)
        sofia = trace(SofiaMachine(image, KEYS))

        def effects(entries):
            return [(e.text.split()[0], e.changed_reg, e.new_value)
                    for e in entries if e.text != "nop"]

        assert effects(sofia) == effects(vanilla)


class TestListing:
    def test_listing_decrypts_payload(self):
        image = transform(parse(SOURCE), KEYS, nonce=0x12)
        text = list_image(image, KEYS)
        assert "block @ 0x00000000" in text
        assert "MAC word" in text
        assert "halt" in text
        assert "sw" in text

    def test_listing_marks_block_kinds(self):
        source = """
        main:
            beq a0, zero, join
            jmp join
        join:
            halt
        """
        image = transform(parse(source), KEYS, nonce=0x13)
        text = list_image(image, KEYS)
        assert "[mux]" in text and "[exec]" in text

    def test_listing_wrong_keys_shows_garbage(self):
        image = transform(parse(SOURCE), KEYS, nonce=0x14)
        garbage = list_image(image, DeviceKeys.from_seed(0xBAD))
        correct = list_image(image, KEYS)
        # wrong keys decrypt to noise: the listing differs and at least
        # some words no longer decode as instructions
        assert garbage != correct
        assert ".word" in garbage

    def test_listing_shows_both_mux_m1_copies(self):
        """Every mux block lists its M1e2 word as decrypted by path 2's
        sealed edge, equal to the M1e1 copy path 1 decrypts."""
        program = make_workload("crc32", "tiny").compile().program
        text = list_image(transform(program, KEYS, nonce=0x15), KEYS)
        m1e1 = re.findall(r"([0-9a-f]{8})  ; MAC word M1e1", text)
        m1e2 = re.findall(r"([0-9a-f]{8})  ; MAC word M1e2", text)
        assert m1e1 and m1e2 == m1e1
        assert "00000000" not in m1e2
