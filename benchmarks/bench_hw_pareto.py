"""E20 — unified E17+hardware Pareto: overhead x forgery bound x area-delay.

``test_hw_pareto_smoke`` is the CI gate: a fixed-seed 2x2 grid (both
ciphers x {32, 64}-bit seals) swept with the hardware axes on.  The
paper's design point — ``rectangle-80/mac64/sequential`` at its
fetch-sustaining minimum ``unroll=13`` — must land on the hardware
front, and the export must stay byte-identical at ``--jobs 4``.

``test_hw_pareto_table`` sweeps the full 12-point grid across several
unroll factors and prints the unified table: the artifact behind the
E20 experiment-index row.  Structural assertions pin the design-space
shape rather than exact numbers:

* the minimum legal unroll follows each cipher's round count
  (``ceil(rounds / unroll) <= 2``: RECTANGLE 13, PRESENT 16);
* at the fetch-sustaining point RECTANGLE clocks higher than PRESENT —
  the cipher-choice argument of the paper, now an axis of the front;
* area is monotone and clock anti-monotone in the unroll factor, so
  deeper unrolls only survive through their lower cycles-per-op.
"""

import json

from repro.dse import run_dse
from repro.hwmodel import min_legal_unroll, profile_cost
from repro.transform import ProtectionProfile, profile_grid

PAPER_HW_LABEL = "rectangle-80/mac64/sequential@u13"

SMOKE_ARGS = dict(seed=0xE17, workloads=("crc32",), scale="tiny",
                  programs=2, per_model=2, hw=True)


def test_hw_pareto_smoke(tmp_path):
    """CI gate: paper point on the hw front, jobs-invariant export."""
    grid = profile_grid(mac_bits=(32, 64), renonce=("sequential",))
    assert len(grid) == 4
    serial_json = tmp_path / "s.json"
    serial_csv = tmp_path / "s.csv"
    report = run_dse(grid, export_path=serial_json, csv_path=serial_csv,
                     **SMOKE_ARGS)
    print("\n" + report.render())
    assert report.ok, report.render()
    assert report.hw
    front = report.hw_pareto_labels()
    assert PAPER_HW_LABEL in front, front
    # every measured point got exactly its minimum-unroll variant
    assert ([row.label for row in report.hw_points]
            == [f"{p.label}@u{min_legal_unroll(p)}" for p in grid])
    fanned = run_dse(grid, jobs=4,
                     export_path=tmp_path / "p.json",
                     csv_path=tmp_path / "p.csv", **SMOKE_ARGS)
    assert fanned.to_record() == report.to_record()
    assert serial_json.read_bytes() == (tmp_path / "p.json").read_bytes()
    assert serial_csv.read_bytes() == (tmp_path / "p.csv").read_bytes()


def test_hw_pareto_table():
    """The E20 artifact: the full grid x unroll sweep and its front."""
    grid = profile_grid()
    report = run_dse(grid, seed=0xE20, workloads=("crc32",),
                     scale="tiny", programs=2, per_model=2,
                     hw=True, unrolls=("min", 20, 26))
    print("\n" + report.render())
    assert report.ok, report.render()

    # per-cipher fetch-sustaining minimum, straight from the round counts
    rect = ProtectionProfile()
    present = ProtectionProfile(cipher="present-80")
    assert min_legal_unroll(rect) == 13
    assert min_legal_unroll(present) == 16

    # the cipher-choice argument: at the sustaining point RECTANGLE is
    # the faster (and cheaper, by area-delay) datapath
    rect_hw = profile_cost(rect)
    present_hw = profile_cost(present)
    assert rect_hw.clock_mhz > present_hw.clock_mhz
    assert rect_hw.area_delay < present_hw.area_delay

    # area monotone, clock anti-monotone in unroll, per design point
    by_profile = {}
    for row in report.hw_points:
        by_profile.setdefault(row.profile, []).append(row)
    for rows in by_profile.values():
        assert [r.unroll for r in rows] == sorted(r.unroll for r in rows)
        slices = [r.slices for r in rows]
        clocks = [r.clock_mhz for r in rows]
        assert slices == sorted(slices)
        assert clocks == sorted(clocks, reverse=True)

    front = set(report.hw_pareto_labels())
    assert PAPER_HW_LABEL in front, sorted(front)
    record = json.loads(json.dumps(report.to_record()))
    assert record["hw"]["cycles_budget"] == 2
    assert len(record["hw"]["points"]) == len(report.hw_points)
    assert set(record["hw"]["pareto"]) == front
