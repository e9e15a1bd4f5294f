"""E16 — attack-synthesis coverage and throughput (ISSUE 4).

``test_attacksynth_smoke`` is the CI guard: a fixed-seed serial sweep of
five fuzz-generated programs that must enumerate at least 50 concrete
attack instances, with **every** SI/CFI-violating instance detected by
the SOFIA model (a single viable-vs-SOFIA verdict fails the build), all
provably-benign mutations bit-identical, and the empirical detection
rate consistent with the paper's §IV-A forgery bound.

``test_attacksynth_throughput`` prints the detection matrix plus the
instances/sec rate of the whole build → enumerate → run pipeline, and
asserts a loose floor so a hot-path regression in the mutation or
classification code shows up as a benchmark failure rather than a
silently slower campaign.
"""

from repro.attacksynth import run_attacksynth
from repro.attacksynth.model import EXPECT_DETECTED

SMOKE_PROGRAMS = 5
SMOKE_MIN_INSTANCES = 50
THROUGHPUT_PROGRAMS = 20


def test_attacksynth_smoke():
    """CI gate: no enumerated attack may beat SOFIA."""
    report = run_attacksynth(programs=SMOKE_PROGRAMS, seed=0xE16)
    expected = report.expected_counts()
    print(f"\nattacksynth smoke: {len(report.programs)} programs, "
          f"{report.instances} instances "
          f"({expected[EXPECT_DETECTED]} CFI/SI-violating), "
          f"{len(report.missed)} missed")
    assert report.instances >= SMOKE_MIN_INSTANCES
    assert not report.missed, report.render()
    assert report.ok, report.render()
    assert report.bounds().consistent


def test_attacksynth_throughput():
    """Instances/sec through build + enumerate + classify, per family."""
    report = run_attacksynth(programs=THROUGHPUT_PROGRAMS, seed=0xE161)
    assert report.ok, report.render()
    rate = report.instances / report.elapsed_seconds
    print("\n" + report.matrix().render())
    print(f"throughput: {report.instances} instances over "
          f"{len(report.programs)} programs in "
          f"{report.elapsed_seconds:.1f}s = {rate:,.1f} instances/sec")
    # every instance is >= 2 full machine runs (SOFIA + vanilla) on top
    # of the per-program build; keep the floor loose for any CI host
    assert rate > 3.0, \
        f"attack-synthesis throughput collapsed: {rate:.2f} instances/sec"


def test_campaign_is_deterministic_across_worker_counts():
    """The whole report — not just the export — is jobs-invariant."""
    serial = run_attacksynth(programs=3, seed=0xE162)
    fanned = run_attacksynth(programs=3, seed=0xE162, jobs=2)
    assert serial.to_record() == fanned.to_record()
