"""Evaluation-harness and public-façade tests."""

import pytest

from repro import core
from repro.errors import ReproError
from repro.eval import (PAPER_ADPCM, experiment_blocksize,
                        experiment_cache, experiment_muxtree, experiment_security,
                        experiment_table1, format_overhead_rows,
                        measure_overhead, render_blocksize, render_muxtree,
                        render_unroll, experiment_unroll)
from repro.workloads import make_workload


class TestOverheadMeasurement:
    @pytest.fixture(scope="class")
    def row(self):
        return measure_overhead(make_workload("crc32", "tiny"))

    def test_sofia_binary_is_larger(self, row):
        assert row.size_ratio > 1.5

    def test_sofia_needs_more_cycles(self, row):
        assert row.cycle_overhead > 0

    def test_exec_time_compounds_clock_ratio(self, row):
        expected = (1 + row.cycle_overhead) * row.clock_ratio - 1
        assert row.exec_time_overhead == pytest.approx(expected)

    def test_block_accounting(self, row):
        assert row.blocks * 8 * 4 == row.sofia_bytes

    def test_formatting(self, row):
        text = format_overhead_rows([row])
        assert "crc32" in text and "ratio" in text


class TestExperiments:
    def test_table1_shape(self):
        t = experiment_table1()
        assert t.vanilla.slices < t.sofia.slices
        assert t.vanilla.clock_mhz > t.sofia.clock_mhz

    def test_paper_adpcm_constants(self):
        assert PAPER_ADPCM["size_ratio"] == pytest.approx(2.41, abs=0.01)
        assert PAPER_ADPCM["cycle_overhead"] == pytest.approx(0.1458, abs=0.001)

    def test_security_experiment(self):
        exp = experiment_security(experiments=50)
        assert exp.bounds.si_years > 40_000
        assert "Monte-Carlo" in exp.render()

    def test_blocksize_ablation(self):
        points = experiment_blocksize(scale="tiny", block_words=(6, 8),
                                      workload="crc32")
        small, large = points
        assert small.exec_capacity == 4 and large.exec_capacity == 6
        assert small.store_forbidden == ()
        assert large.store_forbidden == (0, 1)
        assert "Block-size" in render_blocksize(points)

    def test_cache_sweep(self):
        points = experiment_cache("tiny", (32, 128), "crc32")
        assert [p.lines for p in points] == [32, 128]
        assert points[0].cache_bytes == 32 * 32

    def test_muxtree_scaling_is_linear_in_fanin(self):
        points = experiment_muxtree(fan_ins=(2, 4, 8))
        # k callers need exactly k-1 multiplexor blocks in total
        for p in points:
            assert p.mux_blocks == p.fan_in - 1
        assert "fan-in" in render_muxtree(points)

    def test_unroll_render(self):
        assert "unroll" in render_unroll(experiment_unroll())


class TestFacade:
    def test_c_quickstart(self):
        keys = core.make_keys(seed=2)
        program = core.build_c("int main() { print_int(6 * 7); return 0; }")
        image = core.protect(program, keys, nonce=0x2016)
        result = core.run_protected(image, keys)
        assert result.ok and result.output_ints == [42]

    def test_assembly_quickstart(self):
        program = core.build_assembly(
            "main: li a0, 2\n add a0, a0, a0\n halt\n")
        exe = core.link_vanilla(program)
        assert core.run_vanilla(exe).ok

    def test_protect_and_run(self):
        program = core.build_assembly("main: halt\n")
        assert core.protect_and_run(program).ok

    def test_raw_string_rejected(self):
        with pytest.raises(ReproError):
            core.protect("main: halt\n", core.make_keys(1), nonce=1)

    def test_compiled_program_accepted_directly(self):
        compiled = core.build_c("int main() { return 0; }")
        exe = core.link_vanilla(compiled)
        assert core.run_vanilla(exe).ok

    def test_version_exported(self):
        import repro
        assert repro.__version__
