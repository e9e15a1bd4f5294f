"""E17 — design-space sweep: Pareto table over protection profiles.

``test_dse_smoke`` is the CI guard: a fixed-seed serial 2x2 grid (both
ciphers x {32, 64}-bit seals) that must measure every point cleanly —
no build errors, zero undetected forgeries, every point's empirical
detection rate consistent with its *own* §IV-A expectation — and whose
JSON/CSV exports are byte-identical at ``--jobs 4``.

``test_dse_pareto_table`` runs the full 12-point E17 grid (2 ciphers x
{32, 64, 96}-bit seals x both renonce policies) and prints the Pareto
table: the artifact behind the experiment-index row.  Structural
assertions pin the design-space shape rather than exact numbers:

* the forgery bound is monotone in the seal width while cycle overhead
  is *not* (wider seals shrink block capacity but also change block
  counts), which is exactly why the sweep is a Pareto front and not a
  single ranking;
* the paper's design point survives on the front (it is never
  dominated);
* a truncated 32-bit point also survives via its smaller code size —
  the overhead/security trade the paper forgoes.
"""

import json

from repro.dse import default_grid, run_dse
from repro.transform import ProtectionProfile, profile_grid

SMOKE_ARGS = dict(seed=0xE17, workloads=("crc32",), scale="tiny",
                  programs=2, per_model=2)


def test_dse_smoke(tmp_path):
    """CI gate: the 2x2 grid measures clean and jobs-invariant."""
    grid = profile_grid(mac_bits=(32, 64), renonce=("sequential",))
    assert len(grid) == 4
    serial_json = tmp_path / "s.json"
    serial_csv = tmp_path / "s.csv"
    report = run_dse(grid, export_path=serial_json, csv_path=serial_csv,
                     **SMOKE_ARGS)
    print("\n" + report.render())
    assert report.ok, report.render()
    for point in report.points:
        assert point.error is None
        assert point.synth_undetected == 0
        assert point.synth_consistent
        assert point.fault_counts.get("detected", 0) > 0
    parallel_json = tmp_path / "p.json"
    parallel_csv = tmp_path / "p.csv"
    fanned = run_dse(grid, jobs=4,
                     export_path=parallel_json, csv_path=parallel_csv,
                     **SMOKE_ARGS)
    assert fanned.to_record() == report.to_record()
    assert serial_json.read_bytes() == parallel_json.read_bytes()
    assert serial_csv.read_bytes() == parallel_csv.read_bytes()


def test_dse_pareto_table():
    """The E17 artifact: the full grid and its Pareto front."""
    grid = default_grid()
    report = run_dse(grid, seed=0xE171, workloads=("crc32", "rle"),
                     scale="tiny", programs=2, per_model=2)
    print("\n" + report.render())
    assert report.ok, report.render()
    points = {p.label: p for p in report.points}
    assert len(points) == 12

    # security is monotone in the seal width, per cipher and policy
    for cipher in ("rectangle-80", "present-80"):
        for policy in ("sequential", "fixed"):
            by_width = [points[f"{cipher}/mac{bits}/{policy}"]
                        for bits in (32, 64, 96)]
            years = [p.si_years for p in by_width]
            assert years == sorted(years)
            expected = [p.synth_expected for p in by_width]
            assert expected == sorted(expected, reverse=True)

    front = set(report.pareto_labels())
    assert front, "empty Pareto front"
    # the paper's design point is never dominated
    assert "rectangle-80/mac64/sequential" in front
    # the truncated seal trades security for code size and survives too
    assert any(label.startswith("rectangle-80/mac32") for label in front)
    record = json.loads(json.dumps(report.to_record()))
    assert record["experiment"] == "E17"
    assert len(record["points"]) == 12
