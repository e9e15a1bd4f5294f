"""The E17 design-space engine: grid specs, Pareto logic, sweep + CLI."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.crypto.keys import DEFAULT_KEY_SEED
from repro.dse import (DseReport, default_grid, dominates, parse_grid,
                       parse_profile_spec, parse_profiles, pareto_mask,
                       resolve_profiles, run_dse)
from repro.dse import campaign as dse_campaign
from repro.transform import ProtectionProfile
from repro.workloads import base as workloads_base
from repro.workloads import make_workload


class TestSpecs:
    def test_profile_spec_tokens_in_any_order(self):
        assert (parse_profile_spec("present-80:mac32:fixed")
                == ProtectionProfile(cipher="present-80", mac_words=1,
                                     renonce="fixed"))
        assert (parse_profile_spec("mac96:sequential:rectangle-80:bw6:sched")
                == ProtectionProfile(mac_words=3, block_words=6,
                                     schedule_stores=True))

    def test_empty_tokens_default(self):
        assert parse_profile_spec("mac64") == ProtectionProfile()

    def test_bad_tokens_rejected(self):
        with pytest.raises(ValueError, match="unknown profile token"):
            parse_profile_spec("rectangle-80:macaroni")
        with pytest.raises(ValueError, match="multiple of 32"):
            parse_profile_spec("mac48")

    def test_mac0_rejected_at_parse_time(self):
        # regression: 0 is a multiple of 32, so "mac0" used to slip past
        # the width check and explode later in the transform
        with pytest.raises(ValueError, match="positive multiple of 32"):
            parse_profile_spec("rectangle-80:mac0")
        with pytest.raises(ValueError, match="positive multiple of 32"):
            parse_grid("rectangle-80:0:sequential")

    def test_nonpositive_block_words_rejected_at_parse_time(self):
        # regression: "bw0" parsed fine and produced a degenerate layout
        with pytest.raises(ValueError, match="block_words must be in 1"):
            parse_profile_spec("rectangle-80:bw0")
        with pytest.raises(ValueError, match="block_words must be in 1"):
            parse_grid("rectangle-80:64:sequential:0")

    def test_absurd_block_words_rejected_at_parse_time(self):
        # regression: bw1000000 was accepted and swept a nonsense point
        with pytest.raises(ValueError, match="block_words must be in 1"):
            parse_profile_spec("rectangle-80:bw1000000")
        with pytest.raises(ValueError, match="block_words must be in 1"):
            parse_grid("rectangle-80:64:sequential:257")
        assert parse_profile_spec("rectangle-80:bw256").block_words == 256

    def test_profile_constructor_refuses_bad_values_too(self):
        # the parse-time checks mirror constructor-level validation
        with pytest.raises(ValueError, match="mac_words"):
            ProtectionProfile(mac_words=0)
        with pytest.raises(ValueError, match="block_words must be in 1"):
            ProtectionProfile(block_words=0)
        with pytest.raises(ValueError, match="block_words must be in 1"):
            ProtectionProfile(block_words=-8)
        with pytest.raises(ValueError, match="block_words must be in 1"):
            ProtectionProfile(block_words=1_000_000)

    def test_profile_list(self):
        profiles = parse_profiles(
            "rectangle-80:mac64:sequential, present-80:mac32:fixed")
        assert len(profiles) == 2
        assert profiles[1].cipher == "present-80"

    def test_grid_axes(self):
        grid = parse_grid("rectangle-80,present-80:32,64:sequential")
        assert len(grid) == 4
        assert {p.mac_bits for p in grid} == {32, 64}
        with pytest.raises(ValueError, match="3 or 4 axes"):
            parse_grid("rectangle-80:64")

    def test_default_grid_is_the_e17_grid(self):
        grid = default_grid()
        assert len(grid) == 12  # 2 ciphers x 3 widths x 2 policies
        assert ProtectionProfile() in grid
        assert len({p.label for p in grid}) == 12

    def test_resolution_precedence_and_conflict(self):
        assert len(resolve_profiles(None, None)) == 12
        assert len(resolve_profiles("mac32", None)) == 1
        assert len(resolve_profiles(None, "rectangle-80:32:fixed")) == 1
        with pytest.raises(ValueError, match="mutually exclusive"):
            resolve_profiles("mac32", "rectangle-80:32:fixed")


class TestPareto:
    def test_dominates_semantics(self):
        # objectives: (cycle_overhead min, size_ratio min, si_years max)
        assert dominates((0.1, 2.0, 100.0), (0.2, 2.0, 100.0))
        assert dominates((0.1, 2.0, 100.0), (0.1, 2.1, 50.0))
        assert not dominates((0.1, 2.0, 100.0), (0.1, 2.0, 100.0))  # tie
        assert not dominates((0.1, 2.5, 100.0), (0.2, 2.0, 100.0))

    def test_mask_keeps_ties_and_tradeoffs(self):
        points = [
            (0.3, 2.0, 1.0),     # cheapest size, weakest security
            (0.2, 2.2, 1000.0),  # balanced
            (0.2, 2.2, 1000.0),  # exact tie with the previous: both stay
            (0.4, 2.5, 1000.0),  # dominated by the balanced point
        ]
        assert pareto_mask(points) == [True, True, True, False]

    def test_all_points_survive_when_incomparable(self):
        points = [(0.1, 3.0, 1.0), (0.3, 2.0, 1.0), (0.5, 1.5, 5.0)]
        assert pareto_mask(points) == [True, True, True]


PROFILES = [ProtectionProfile(),
            ProtectionProfile(cipher="present-80", mac_words=1,
                              renonce="fixed")]
SWEEP_ARGS = dict(seed=77, workloads=("crc32",), scale="tiny",
                  programs=1, per_model=1)


class TestSweep:
    @pytest.fixture(scope="class")
    def report(self) -> DseReport:
        return run_dse(PROFILES, **SWEEP_ARGS)

    def test_every_point_measured(self, report):
        assert [p.label for p in report.points] == [p.label
                                                    for p in PROFILES]
        for point in report.points:
            assert point.error is None
            assert point.size_ratio > 1.0
            assert point.cycle_overhead > 0.0
            assert point.synth_attempts > 0
            assert point.fault_counts and sum(point.fault_counts.values())

    def test_report_is_clean(self, report):
        assert report.ok
        for point in report.points:
            assert point.synth_undetected == 0
            assert point.synth_consistent

    def test_bounds_scale_with_the_seal_width(self, report):
        default, truncated = report.points
        assert default.mac_bits == 64 and truncated.mac_bits == 32
        assert default.si_years > truncated.si_years
        # the truncated seal has a *nonzero* expected-collision count
        assert truncated.synth_expected > 0.0
        assert truncated.synth_expected == pytest.approx(
            truncated.synth_attempts * 2.0 ** -32)

    def test_fixed_policy_removes_the_stale_nonce_surface(self, report):
        # fewer enumerable instances per program without renonce epochs
        default, fixed = report.points
        assert fixed.synth_instances < default.synth_instances

    def test_pareto_front_nonempty_and_consistent(self, report):
        labels = report.pareto_labels()
        assert labels
        point_labels = {p.label for p in report.points}
        assert set(labels) <= point_labels

    def test_exports_are_deterministic_across_jobs(self, report,
                                                   tmp_path):
        serial_json = tmp_path / "s.json"
        serial_csv = tmp_path / "s.csv"
        parallel_json = tmp_path / "p.json"
        parallel_csv = tmp_path / "p.csv"
        run_dse(PROFILES, export_path=serial_json, csv_path=serial_csv,
                **SWEEP_ARGS)
        run_dse(PROFILES, jobs=2,
                export_path=parallel_json, csv_path=parallel_csv,
                **SWEEP_ARGS)
        assert serial_json.read_bytes() == parallel_json.read_bytes()
        assert serial_csv.read_bytes() == parallel_csv.read_bytes()
        record = json.loads(serial_json.read_text())
        assert record["experiment"] == "E17"
        assert len(record["points"]) == 2
        header = serial_csv.read_text().splitlines()[0]
        assert header.startswith("profile,cipher,mac_bits,renonce")

    def test_empty_profile_list_rejected(self):
        with pytest.raises(ValueError, match="at least one profile"):
            run_dse([], **SWEEP_ARGS)

    def test_empty_workload_list_rejected(self):
        args = dict(SWEEP_ARGS, workloads=())
        with pytest.raises(ValueError, match="at least one workload"):
            run_dse(PROFILES, **args)


def _context(workloads):
    return (DEFAULT_KEY_SEED, SWEEP_ARGS["seed"], tuple(workloads),
            SWEEP_ARGS["programs"], SWEEP_ARGS["per_model"])


class TestDesignPointTask:
    def test_each_workload_compiles_once_per_process(self, monkeypatch):
        calls = []
        real = workloads_base.compile_source

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(workloads_base, "compile_source", counted)
        context = _context(make_workload(name, "tiny")
                           for name in ("crc32", "rle"))
        rows = [dse_campaign._dse_task(context, (index, profile))
                for index, profile in enumerate(PROFILES)]
        assert [row.error for row in rows] == [None, None]
        # the fault campaign reuses the suite's first compiled workload
        assert len(calls) == 2

    def test_compile_error_lands_in_the_point(self):
        broken = dataclasses.replace(make_workload("crc32", "tiny"),
                                     c_source="int main( {")
        row = dse_campaign._dse_task(_context([broken]), (0, PROFILES[0]))
        assert row.error.startswith("CompileError: ")
        assert row.workload_rows == []


class TestCli:
    def test_dse_command_exports(self, tmp_path, capsys):
        export = tmp_path / "dse.json"
        csv_path = tmp_path / "dse.csv"
        status = main(["dse", "--profiles", "rectangle-80:mac32:fixed",
                       "--workloads", "crc32", "--programs", "1",
                       "--per-model", "1", "--seed", "77",
                       "--export", str(export), "--csv", str(csv_path)])
        assert status == 0
        out = capsys.readouterr().out
        assert "Design-space sweep (E17)" in out
        assert "rectangle-80/mac32/fixed" in out
        record = json.loads(export.read_text())
        assert record["points"][0]["mac_bits"] == 32
        assert csv_path.exists()

    def test_bad_grid_spec_is_usage_error(self, capsys):
        assert main(["dse", "--grid", "nonsense"]) == 2
        assert "error" in capsys.readouterr().err

    def test_profiles_and_grid_conflict(self, capsys):
        assert main(["dse", "--profiles", "mac32",
                     "--grid", "rectangle-80:32:fixed"]) == 2

    def test_protect_and_run_protected_honour_profiles(self, tmp_path,
                                                       capsys):
        source = tmp_path / "p.s"
        source.write_text("main: li a0, 2\n add a0, a0, a0\n halt\n")
        image_path = tmp_path / "p.sofia"
        assert main(["protect", str(source), "-o", str(image_path),
                     "--profile", "present-80:mac32:fixed"]) == 0
        capsys.readouterr()
        assert main(["run-protected", str(image_path)]) == 0
        err = capsys.readouterr().err
        assert "halt" in err

    def test_protect_profile_conflicts_with_geometry_flags(self, tmp_path,
                                                           capsys):
        source = tmp_path / "p.s"
        source.write_text("main: halt\n")
        assert main(["protect", str(source), "-o", str(tmp_path / "x"),
                     "--profile", "mac32", "--block-words", "6"]) == 2
