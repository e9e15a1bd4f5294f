"""Hardware model tests: Table I calibration and scaling structure."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

from repro.errors import HardwareModelError, ReproError
from repro.hwmodel import (CIPHER_ROUNDS, PAPER_UNROLL, PRESENT_PROFILE,
                           RECTANGLE_PROFILE, leon3_components, profile_cost,
                           sofia_profile_components, table1, unroll_ablation)
from repro.transform.profile import DEFAULT_PROFILE

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: SHA-256 of the stdout of ``python -m repro experiments table1 unroll``
#: (Table I and the unroll ablation); the CI smoke checks the same digest
TABLE1_UNROLL_SHA256 = (
    "69da5801a0e26b1b0f8edbd1941034bb1fa823fcb68b00d3ff728c19396dfdd9")


def test_table1_and_unroll_stdout_is_pinned():
    done = subprocess.run(
        [sys.executable, "-m", "repro", "experiments", "table1", "unroll"],
        capture_output=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == TABLE1_UNROLL_SHA256


class TestTable1:
    def test_vanilla_matches_paper(self):
        t = table1()
        assert t.vanilla_slices == 5_889
        assert round(t.vanilla_clock_mhz, 1) == 92.3

    def test_sofia_matches_paper(self):
        t = table1()
        assert t.sofia.slices == 7_551
        assert round(t.sofia.clock_mhz, 1) == 50.1

    def test_area_overhead_28_percent(self):
        assert round(table1().area_overhead, 3) == 0.282

    def test_clock_slowdown_near_85_percent(self):
        assert abs(table1().clock_slowdown - 0.846) < 0.01

    def test_clock_ratio_for_exec_time(self):
        # the multiplier turning cycle overhead into wall-clock overhead
        assert 1.8 < table1().clock_ratio < 1.9

    def test_render_contains_both_rows(self):
        text = table1().render()
        assert "Vanilla" in text and "SOFIA" in text
        assert "28.2%" in text


class TestComponents:
    def test_sofia_row_is_the_paper_design_point(self):
        assert table1().sofia == profile_cost(DEFAULT_PROFILE, PAPER_UNROLL)

    def test_sofia_is_vanilla_plus_additions(self):
        t = table1()
        assert t.sofia.slices - t.vanilla_slices == 1_662
        assert t.sofia.sofia_slices == 1_662
        additions = sofia_profile_components(DEFAULT_PROFILE, PAPER_UNROLL)
        assert sum(c.slices for c in additions) == 1_662

    def test_critical_path_dominated_by_cipher(self):
        design = profile_cost(DEFAULT_PROFILE, PAPER_UNROLL)
        assert design.critical_path_ns == pytest.approx(
            RECTANGLE_PROFILE.path_ns(PAPER_UNROLL))

    def test_cipher_slices_scale_linearly(self):
        assert RECTANGLE_PROFILE.datapath_slices(26) == pytest.approx(
            2 * RECTANGLE_PROFILE.datapath_slices(13), abs=1)

    def test_invalid_unroll_rejected(self):
        with pytest.raises(ValueError):
            RECTANGLE_PROFILE.datapath_slices(0)
        with pytest.raises(ValueError):
            RECTANGLE_PROFILE.path_ns(27)
        with pytest.raises(ValueError):
            sofia_profile_components(DEFAULT_PROFILE, 27)

    def test_invalid_unroll_raises_typed_error(self):
        # HardwareModelError subclasses ValueError, so both spellings work
        with pytest.raises(HardwareModelError, match="RECTANGLE-80"):
            RECTANGLE_PROFILE.datapath_slices(0)
        assert issubclass(HardwareModelError, ReproError)

    def test_unroll_bounds_follow_the_cipher_round_count(self):
        # regression: the bound was hardcoded to RECTANGLE's 26 rounds,
        # so PRESENT silently rejected its own legal 27..31 factors
        assert PRESENT_PROFILE.datapath_slices(31) == round(31 * 74.0)
        assert PRESENT_PROFILE.cycles_per_op(27) == 2
        with pytest.raises(HardwareModelError, match="PRESENT-80"):
            PRESENT_PROFILE.path_ns(32)
        with pytest.raises(HardwareModelError, match="RECTANGLE-80"):
            RECTANGLE_PROFILE.cycles_per_op(27)

    def test_zero_unroll_is_a_model_error_not_a_crash(self):
        # regression: cycles_per_op(0) used to raise ZeroDivisionError
        with pytest.raises(HardwareModelError):
            RECTANGLE_PROFILE.cycles_per_op(0)
        with pytest.raises(HardwareModelError):
            RECTANGLE_PROFILE.cycles_per_op(-3)

    def test_report_renders(self):
        for component in (leon3_components()
                          + sofia_profile_components(DEFAULT_PROFILE, 13)):
            assert "slices" in str(component)


class TestUnrollAblation:
    def test_thirteen_is_the_minimum_sustaining_fetch(self):
        points = unroll_ablation()
        sustaining = [p.unroll for p in points if p.sustains_fetch]
        assert min(sustaining) == PAPER_UNROLL == 13

    def test_cipher_cycles_monotone_nonincreasing(self):
        points = unroll_ablation()
        cycles = [p.cipher_cycles for p in points]
        assert cycles == sorted(cycles, reverse=True)
        assert RECTANGLE_PROFILE.cycles_per_op(26) == 1
        assert RECTANGLE_PROFILE.cycles_per_op(1) == CIPHER_ROUNDS

    def test_clock_decreases_with_unroll(self):
        points = unroll_ablation()
        clocks = [p.clock_mhz for p in points]
        assert all(a >= b for a, b in zip(clocks, clocks[1:]))

    def test_area_increases_with_unroll(self):
        points = unroll_ablation()
        slices = [p.slices for p in points]
        assert all(a <= b for a, b in zip(slices, slices[1:]))

    def test_every_point_is_priced_by_profile_cost(self):
        points = unroll_ablation()
        assert [p.unroll for p in points] == list(range(1, CIPHER_ROUNDS + 1))
        assert points == [profile_cost(DEFAULT_PROFILE, u)
                          for u in range(1, CIPHER_ROUNDS + 1)]

