"""E15 — fuzzing throughput and coverage growth (ISSUE 3).

The fuzzer only earns its keep if (a) it pushes specimens through the
four-run differential oracle fast enough to matter and (b) its
coverage map keeps growing as the campaign runs — a flat curve would
mean the generators collapse onto a few shapes and the "as many
scenarios as you can imagine" goal is not being met.

``test_fuzz_smoke`` is the cheap CI guard: a fixed-seed serial campaign
whose *any* divergence or triage artifact fails the build (the shipped
tree must be differentially clean).  ``test_fuzz_throughput`` prints
the programs/sec rate and the coverage growth curve per batch, and
asserts the qualitative shape: monotone coverage growth, early batches
contributing the bulk of new keys, and a floor on throughput loose
enough for any CI host.
"""

import json
import time

from repro.fuzz import CoverageMap, Genome, generate, run_fuzz, run_oracle
from repro.obs import Telemetry, campaign as obs_campaign
from repro.runner import task_rng
from repro.fuzz.generators import random_genome

SMOKE_SEEDS = 150
CURVE_BATCHES = 5
CURVE_BATCH_SIZE = 40


def test_fuzz_smoke():
    """CI gate: fixed seed, serial, zero divergences, zero triage."""
    report = run_fuzz(seeds=SMOKE_SEEDS, seed=0x5EED)
    print(f"\nfuzz smoke: {report.specimens} specimens, "
          f"{len(report.coverage)} coverage keys, "
          f"{len(report.corpus)} kept, {report.divergences} divergences")
    assert report.specimens == SMOKE_SEEDS
    assert report.ok, report.render()
    assert not report.failures


def test_fuzz_throughput(keys):
    """Programs/sec through the full oracle + per-batch coverage curve."""
    coverage = CoverageMap()
    rng = task_rng(0xE15, "bench")
    curve = []
    total = 0
    started = time.perf_counter()
    for batch in range(CURVE_BATCHES):
        new_keys = 0
        for _ in range(CURVE_BATCH_SIZE):
            report = run_oracle(generate(random_genome(rng)), keys)
            assert report.ok, report.divergences
            new_keys += len(coverage.observe(report.features))
            total += 1
        curve.append((new_keys, len(coverage)))
    elapsed = time.perf_counter() - started
    rate = total / elapsed

    header = f"{'batch':>6s} {'new keys':>9s} {'total keys':>11s}"
    lines = [header, "-" * len(header)]
    for index, (new_keys, cumulative) in enumerate(curve):
        lines.append(f"{index:>6d} {new_keys:>9d} {cumulative:>11d}")
    print("\n" + "\n".join(lines))
    print(f"throughput: {total} specimens in {elapsed:.1f}s "
          f"= {rate:,.1f} programs/sec (4 simulator runs each)")

    # coverage grows every batch, front-loaded on the first
    assert all(new_keys > 0 for new_keys, _ in curve)
    assert curve[0][0] > curve[-1][0]
    # loose floor: the oracle is 4 full simulator runs per specimen
    assert rate > 2.0, f"fuzz throughput collapsed: {rate:.2f} programs/sec"


def test_telemetry_overhead(tmp_path, bench_environment):
    """Telemetry tax on the E15 loop: same campaign with and without a
    :class:`repro.obs.Telemetry` attached.  The disabled path is the
    byte-identical historical code (0% by construction — asserted via
    identical reports); the enabled path budget is < 5%, asserted with a
    loose floor so CI scheduling noise cannot flake the build.  The
    measured rates land in an environment-stamped JSON record."""
    seeds, seed = 60, 0x5EED

    started = time.perf_counter()
    plain = run_fuzz(seeds=seeds, seed=seed)
    t_plain = time.perf_counter() - started

    telemetry = Telemetry(directory=tmp_path / "telemetry")
    started = time.perf_counter()
    with obs_campaign(telemetry, "fuzz", {"seeds": seeds, "seed": seed}):
        observed = run_fuzz(seeds=seeds, seed=seed)
    t_observed = time.perf_counter() - started

    # invisibility: the campaign outcome is identical either way
    assert observed.specimens == plain.specimens
    assert len(observed.corpus) == len(plain.corpus)
    assert observed.coverage.summary() == plain.coverage.summary()
    assert observed.divergences == plain.divergences

    overhead = t_observed / t_plain - 1.0
    print(f"\ntelemetry overhead: off {seeds / t_plain:,.1f}/s, "
          f"on {seeds / t_observed:,.1f}/s ({overhead:+.1%}, budget <5%)")
    record = {
        "experiment": "E15",
        "campaign": "fuzz-telemetry-overhead",
        "parameters": {"seeds": seeds, "seed": seed},
        "seconds_plain": round(t_plain, 3),
        "seconds_telemetry": round(t_observed, 3),
        "overhead": round(overhead, 4),
        "environment": bench_environment(engine="fast"),
    }
    path = tmp_path / "e15_telemetry_overhead.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    assert json.loads(path.read_text())["environment"]["cpus"] >= 1
    # loose CI floor (the real budget is 5%; timing asserts must not flake)
    assert t_observed < t_plain * 1.5, (
        f"telemetry overhead exploded: {overhead:+.1%}")


def test_replay_of_one_genome_is_free_of_drift(keys):
    """The same genome re-run end to end yields the same features."""
    genome = Genome(shape="calltree", seed=0xE15)
    first = run_oracle(generate(genome), keys)
    second = run_oracle(generate(genome), keys)
    assert first.features == second.features
    assert first.ok and second.ok
