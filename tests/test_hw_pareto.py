"""The unified E17+hardware Pareto (E20): profile costing, senses, sweep.

Covers the profile-driven hardware cost model
(:mod:`repro.hwmodel.profilecost`), the sense-tuple generalization of the
Pareto logic, and the ``--hw`` sweep/CLI integration — including the byte-determinism contract at any
``--jobs`` value.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.dse import (E17_SENSES, HW_SENSES, dominates, pareto_mask,
                       run_dse)
from repro.errors import HardwareModelError, ReproError
from repro.hwmodel import (cipher_hw_profile, legal_unrolls,
                           min_legal_unroll, parse_unroll_specs,
                           profile_cost, resolve_unrolls,
                           sofia_profile_components)
from repro.transform import ProtectionProfile
from repro.transform.profile import parse_profile_spec

DEFAULT = ProtectionProfile()
PRESENT64 = ProtectionProfile(cipher="present-80")


class TestProfileCost:
    def test_paper_point_reproduces_table1(self):
        hw = profile_cost(DEFAULT)  # unroll defaults to the minimum legal
        assert hw.unroll == hw.min_unroll == 13
        assert hw.slices == 7_551
        assert hw.sofia_slices == 1_662
        assert hw.datapath_slices == 1_118
        assert hw.cipher_cycles == 2
        assert round(hw.clock_mhz, 1) == 50.1
        assert hw.critical_path_ns == pytest.approx(19.96)
        assert hw.label == "rectangle-80/mac64/sequential@u13"

    def test_components_match_fixed_point_model(self):
        # at the paper point the component list is Table I's calibration,
        # slice for slice and ns for ns: RECTANGLE datapath (13x), key
        # storage, CBC-MAC compare, next-PC logic, reset integration
        assert ([(c.slices, c.path_ns)
                 for c in sofia_profile_components(DEFAULT, 13)]
                == [(1118, pytest.approx(19.96)), (221, 6.50), (182, 5.90),
                    (88, 4.80), (53, 3.10)])

    def test_min_legal_unroll_per_cipher(self):
        # ceil(rounds / 2): RECTANGLE 26 -> 13, PRESENT 31 -> 16
        assert min_legal_unroll(DEFAULT) == 13
        assert min_legal_unroll(PRESENT64) == 16
        assert legal_unrolls(DEFAULT) == range(13, 27)
        assert legal_unrolls(PRESENT64) == range(16, 32)

    def test_present_point_costs_more_area_delay(self):
        rect, present = profile_cost(DEFAULT), profile_cost(PRESENT64)
        assert present.unroll == 16
        assert present.slices > rect.slices
        assert present.clock_mhz < rect.clock_mhz
        assert present.area_delay > rect.area_delay

    def test_seal_width_scales_the_compare_block(self):
        mac32 = profile_cost(ProtectionProfile(mac_words=1))
        mac96 = profile_cost(ProtectionProfile(mac_words=3))
        hw = profile_cost(DEFAULT)
        assert mac96.slices - hw.slices == hw.slices - mac32.slices == 16

    def test_block_geometry_scales_the_counter(self):
        # bw <= 8 shares the paper's 3-bit counter; each extra bit is +4
        assert profile_cost(DEFAULT.with_block_words(6)).slices == 7_551
        assert profile_cost(DEFAULT.with_block_words(16)).slices == 7_555
        assert profile_cost(DEFAULT.with_block_words(32)).slices == 7_559

    def test_deeper_unroll_trades_area_for_clock(self):
        costs = [profile_cost(DEFAULT, unroll) for unroll in (13, 20, 26)]
        assert [c.unroll for c in costs] == [13, 20, 26]
        slices = [c.slices for c in costs]
        clocks = [c.clock_mhz for c in costs]
        assert slices == sorted(slices)
        assert clocks == sorted(clocks, reverse=True)
        assert costs[-1].cipher_cycles == 1  # fully unrolled: 1 op/cycle

    def test_illegal_unroll_raises_typed_error(self):
        with pytest.raises(HardwareModelError, match="13..26"):
            profile_cost(DEFAULT, unroll=12)  # would stall fetch
        with pytest.raises(HardwareModelError):
            profile_cost(PRESENT64, unroll=13)  # legal for RECTANGLE only
        # the typed error is both a ReproError and a ValueError
        assert issubclass(HardwareModelError, ReproError)
        assert issubclass(HardwareModelError, ValueError)

    def test_resolve_unrolls_filters_per_cipher(self):
        specs = ("min", 13, 16)
        assert resolve_unrolls(DEFAULT, specs) == [13, 16]
        assert resolve_unrolls(PRESENT64, specs) == [16]
        assert resolve_unrolls(DEFAULT) == [13]

    def test_parse_unroll_specs(self):
        assert parse_unroll_specs("min,13, 16") == ("min", 13, 16)
        with pytest.raises(ValueError, match="expected a positive"):
            parse_unroll_specs("13,bogus")
        with pytest.raises(ValueError, match="positive"):
            parse_unroll_specs("0")
        with pytest.raises(ValueError, match="empty"):
            parse_unroll_specs(" , ")

    def test_cipher_hw_profile_rounds(self):
        assert cipher_hw_profile(DEFAULT).rounds == 26
        assert cipher_hw_profile(PRESENT64).rounds == 31


# -- the hw-point label ---------------------------------------------------

profiles_st = st.builds(
    ProtectionProfile,
    cipher=st.sampled_from(["rectangle-80", "present-80"]),
    mac_words=st.sampled_from([1, 2, 3]),
    renonce=st.sampled_from(["sequential", "fixed"]),
    schedule_stores=st.booleans(),
    block_words=st.sampled_from([6, 8, 12, 16, 32]),
)


@st.composite
def hw_points_st(draw):
    profile = draw(profiles_st)
    legal = legal_unrolls(profile)
    return profile, draw(st.integers(legal.start, legal[-1]))


class TestHwPointLabels:
    @given(hw_points_st())
    def test_label_is_the_profile_label_at_its_unroll(self, point):
        profile, unroll = point
        spec, suffix = profile_cost(profile, unroll).label.rsplit("@u", 1)
        assert parse_profile_spec(spec) == profile
        assert suffix == str(unroll)

    @given(profiles_st)
    def test_default_unroll_is_the_minimum_legal(self, profile):
        assert profile_cost(profile).unroll == min_legal_unroll(profile)


# -- sense-tuple Pareto properties ----------------------------------------

objective_st = st.floats(min_value=-1e6, max_value=1e6,
                         allow_nan=False, allow_infinity=False)
senses3_st = st.tuples(*([st.sampled_from(["min", "max"])] * 3))
points3_st = st.tuples(objective_st, objective_st, objective_st)


class TestParetoSenses:
    @given(points3_st, senses3_st)
    def test_irreflexive(self, point, senses):
        assert not dominates(point, point, senses)

    @given(points3_st, points3_st, senses3_st)
    def test_antisymmetric(self, a, b, senses):
        assert not (dominates(a, b, senses) and dominates(b, a, senses))

    @given(points3_st, points3_st)
    def test_default_senses_are_e17(self, a, b):
        assert dominates(a, b) == dominates(a, b, E17_SENSES)

    @settings(max_examples=30)
    @given(st.lists(points3_st, min_size=1, max_size=8), senses3_st)
    def test_mask_keeps_at_least_one_point(self, points, senses):
        mask = pareto_mask(points, senses)
        assert len(mask) == len(points) and any(mask)

    def test_hw_senses_semantics(self):
        # (cycle_overhead min, si_years max, area_delay min)
        assert dominates((0.2, 100.0, 1000.0), (0.3, 100.0, 1000.0),
                         HW_SENSES)
        assert dominates((0.2, 200.0, 1000.0), (0.2, 100.0, 1000.0),
                         HW_SENSES)
        assert dominates((0.2, 100.0, 900.0), (0.2, 100.0, 1000.0),
                         HW_SENSES)
        assert not dominates((0.2, 100.0, 1000.0), (0.3, 200.0, 1000.0),
                             HW_SENSES)

    def test_two_objective_senses(self):
        assert dominates((1.0, 5.0), (2.0, 5.0), ("min", "max"))
        assert dominates((1.0, 6.0), (1.0, 5.0), ("min", "max"))
        assert pareto_mask([(1.0, 5.0), (2.0, 4.0), (0.5, 6.0)],
                           ("min", "max")) == [False, False, True]

    def test_arity_and_sense_validation(self):
        with pytest.raises(ValueError, match="2 objectives need 2 senses"):
            dominates((1.0, 2.0), (1.0, 2.0))  # default senses are 3-way
        with pytest.raises(ValueError, match="arity"):
            dominates((1.0, 2.0, 3.0), (1.0, 2.0), E17_SENSES)
        with pytest.raises(ValueError, match="sense"):
            pareto_mask([(1.0, 2.0)], ("min", "best"))


# -- sweep + CLI integration ----------------------------------------------

HW_PROFILES = [DEFAULT, PRESENT64]
SWEEP_ARGS = dict(seed=77, workloads=("crc32",), scale="tiny",
                  programs=1, per_model=1)


class TestHwSweep:
    @pytest.fixture(scope="class")
    def report(self):
        return run_dse(HW_PROFILES, hw=True, unrolls=("min", 13, 16),
                       **SWEEP_ARGS)

    def test_hw_points_cover_legal_unrolls(self, report):
        assert report.hw
        labels = [p.label for p in report.hw_points]
        # RECTANGLE gets {13, 16}, PRESENT only {16} (13 stalls fetch)
        assert labels == ["rectangle-80/mac64/sequential@u13",
                          "rectangle-80/mac64/sequential@u16",
                          "present-80/mac64/sequential@u16"]

    def test_paper_point_on_the_hw_front(self, report):
        front = report.hw_pareto_labels()
        assert "rectangle-80/mac64/sequential@u13" in front

    def test_hw_rows_inherit_the_measured_objectives(self, report):
        measured = {p.label: p for p in report.points}
        for row in report.hw_points:
            point = measured[row.profile]
            assert row.cycle_overhead == point.cycle_overhead
            assert row.si_years == point.si_years
            assert row.area_delay == pytest.approx(
                row.slices * row.path_ns, rel=1e-6)

    def test_hw_rows_agree_with_the_cost_model(self, report):
        # a sweep row renders its own label; it must name the same point
        # profile_cost labels and prices
        for row in report.hw_points:
            hw = profile_cost(parse_profile_spec(row.profile), row.unroll)
            assert (row.label, row.slices) == (hw.label, hw.slices)

    def test_record_carries_the_hw_block(self, report):
        record = report.to_record()
        hw = record["hw"]
        assert hw["cycles_budget"] == 2
        assert hw["unrolls"] == ["min", 13, 16]
        assert len(hw["points"]) == 3
        assert "rectangle-80/mac64/sequential@u13" in hw["pareto"]

    def test_render_includes_the_hw_table(self, report):
        text = report.render()
        assert "Hardware axes (E20)" in text
        assert "@u13" in text and "hw Pareto front" in text

    def test_hw_off_record_has_no_hw_key(self):
        report = run_dse([DEFAULT], **SWEEP_ARGS)
        assert not report.hw
        assert "hw" not in report.to_record()

    def test_unrolls_without_hw_rejected(self):
        with pytest.raises(ValueError, match="hw"):
            run_dse([DEFAULT], unrolls=(13,), **SWEEP_ARGS)

    def test_illegal_unroll_for_every_cipher_rejected(self):
        with pytest.raises(ValueError, match="not legal for any"):
            run_dse(HW_PROFILES, hw=True, unrolls=(5,), **SWEEP_ARGS)

    def test_hw_exports_deterministic_across_jobs(self, tmp_path):
        paths = {name: tmp_path / name
                 for name in ("s.json", "s.csv", "p.json", "p.csv")}
        run_dse(HW_PROFILES, hw=True, export_path=paths["s.json"],
                csv_path=paths["s.csv"], **SWEEP_ARGS)
        run_dse(HW_PROFILES, hw=True, jobs=4,
                export_path=paths["p.json"], csv_path=paths["p.csv"],
                **SWEEP_ARGS)
        assert paths["s.json"].read_bytes() == paths["p.json"].read_bytes()
        assert paths["s.csv"].read_bytes() == paths["p.csv"].read_bytes()
        header = paths["s.csv"].read_text().splitlines()[0]
        assert header.endswith(
            "unroll,cipher_cycles,datapath_slices,slices,clock_mhz,"
            "path_ns,area_delay,hw_pareto")


class TestHwCli:
    def test_unroll_without_hw_is_usage_error(self, capsys):
        assert main(["dse", "--unroll", "13"]) == 2
        assert "--hw" in capsys.readouterr().err

    def test_illegal_unroll_is_usage_error(self, capsys):
        assert main(["dse", "--profiles", "rectangle-80:mac64",
                     "--hw", "--unroll", "5"]) == 2
        assert "not legal" in capsys.readouterr().err

    def test_hw_sweep_exports_the_unified_front(self, tmp_path, capsys):
        export = tmp_path / "hw.json"
        status = main(["dse", "--profiles",
                       "rectangle-80:mac64:sequential",
                       "--workloads", "crc32", "--programs", "1",
                       "--per-model", "1", "--seed", "77", "--hw",
                       "--export", str(export)])
        assert status == 0
        out = capsys.readouterr().out
        assert "Hardware axes (E20)" in out
        record = json.loads(export.read_text())
        assert (record["hw"]["pareto"]
                == ["rectangle-80/mac64/sequential@u13"])
        point = record["hw"]["points"][0]
        assert point["slices"] == 7_551
        assert point["clock_mhz"] == pytest.approx(50.1, abs=0.01)
