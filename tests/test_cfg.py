"""Tests for the instruction-level CFG graph and builder."""

import pytest

from repro.cfg import RESET_NODE, build_cfg
from repro.cfg.graph import ControlFlowGraph, Edge
from repro.errors import CFGError
from repro.isa import parse


def edges_of(cfg, kind=None):
    return {(e.src, e.dst) for e in cfg.edges
            if kind is None or e.kind == kind}


class TestGraph:
    def test_add_edge_validates_range(self):
        cfg = ControlFlowGraph(num_nodes=2, entry=0)
        with pytest.raises(ValueError):
            cfg.add_edge(0, 5, "fall")
        with pytest.raises(ValueError):
            cfg.add_edge(-3, 0, "fall")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Edge(0, 1, "warp")

    def test_predecessor_and_successor_maps_agree(self):
        cfg = ControlFlowGraph(num_nodes=3, entry=0)
        cfg.add_edge(0, 1, "fall")
        cfg.add_edge(1, 2, "fall")
        cfg.add_edge(0, 2, "jump")
        assert {e.dst for e in cfg.successors(0)} == {1, 2}
        assert {e.src for e in cfg.predecessors(2)} == {0, 1}


class TestBuilder:
    def test_straight_line(self):
        cfg = build_cfg(parse("main: nop\n nop\n halt\n"))
        assert (0, 1) in edges_of(cfg, "fall")
        assert (1, 2) in edges_of(cfg, "fall")
        assert (RESET_NODE, 0) in edges_of(cfg, "reset")

    def test_branch_has_two_successors(self):
        cfg = build_cfg(parse("""
        main:
            beq a0, a1, out
            nop
        out:
            halt
        """))
        assert (0, 2) in edges_of(cfg, "taken")
        assert (0, 1) in edges_of(cfg, "fall")

    def test_call_and_return_edges(self):
        program = parse("""
        main:
            call f
            halt
        f:
            nop
            ret
        """)
        cfg = build_cfg(program)
        assert (0, 2) in edges_of(cfg, "call")
        # f's ret (index 3) returns to the instruction after the call
        assert (3, 1) in edges_of(cfg, "return")

    def test_multiple_callers_yield_multiple_return_edges(self):
        cfg = build_cfg(parse("""
        main:
            call f
            call f
            halt
        f:
            ret
        """))
        returns = edges_of(cfg, "return")
        assert (3, 1) in returns and (3, 2) in returns

    def test_halt_has_no_successors(self):
        cfg = build_cfg(parse("main: halt\n"))
        assert not cfg.successors(0)

    def test_fall_off_end_rejected(self):
        with pytest.raises(CFGError):
            build_cfg(parse("main: nop\n addi a0, a0, 1\n"))

    def test_tail_call_rejected(self):
        # g is a real function (directly called from main); f tail-calls it
        with pytest.raises(CFGError):
            build_cfg(parse("""
            main:
                call f
                call g
                halt
            f:
                jmp g
            g:
                ret
            """))

    def test_intra_function_jmp_to_label_allowed(self):
        cfg = build_cfg(parse("""
        main:
            call f
            halt
        f:
            jmp inner
        inner:
            ret
        """))
        assert (2, 3) in edges_of(cfg, "jump")

    def test_trailing_label_target_rejected_cleanly(self):
        # fuzzer-found (repro.fuzz minimizer): a label bound past the
        # last instruction parses and assembles, but building its CFG
        # used to escape as a raw ValueError instead of CFGError
        for source in ("main:\n    li t0, 1\n    beq t0, t0, end\nend:\n",
                       "main:\n    jmp end\nend:\n",
                       "main:\n    call end\n    halt\nend:\n"):
            with pytest.raises(CFGError):
                build_cfg(parse(source))

    def test_trailing_entry_label_rejected_cleanly(self):
        # the entry label itself can be the trailing one (the reset
        # edge used to raise a raw ValueError before any CTI is seen)
        with pytest.raises(CFGError):
            build_cfg(parse("helper: halt\nmain:\n"))

    def test_indirect_without_targets_rejected(self):
        with pytest.raises(CFGError):
            build_cfg(parse("""
            main:
                la t0, f
                jalr ra, t0
                halt
            f:
                ret
            """))

    def test_annotated_indirect_call(self):
        cfg = build_cfg(parse("""
        main:
            la t0, f
            .targets f
            jalr ra, t0
            halt
        f:
            ret
        """))
        assert (2, 4) in edges_of(cfg, "icall")
        assert (4, 3) in edges_of(cfg, "return")

    def test_empty_program_rejected(self):
        program = parse("main: halt\n")
        program.instructions = []
        program.labels = {"main": 0}
        with pytest.raises(CFGError):
            build_cfg(program)


class TestJoins:
    def test_join_has_both_predecessors(self):
        cfg = build_cfg(parse("""
        main:
            beq a0, a1, join
            nop
            jmp join
        join:
            halt
        """))
        assert {e.src for e in cfg.predecessors(3)} == {0, 2}
