"""E18 — batch-lockstep campaign throughput (specimens/sec).

Acceptance gate for the fault campaign's lockstep strategy
(:func:`~repro.faults.campaign.run_fault_batch` over
:mod:`repro.sim.batch`): on a detect-heavy fault population — the
protected-surface models the paper's CFI argument is about — lockstep
groups must deliver >= 5x specimens/sec over per-specimen
:func:`~repro.faults.campaign.run_fault` runs (stretch: >= 10x on a
pure-PCGlitch population) while every merged
:class:`~repro.faults.campaign.FaultResult` stays field-for-field
identical to its per-specimen twin.

The economics: a scalar campaign pays ``sum(t_i)`` clean-prefix
instructions across specimens, the lockstep leader pays ``max(t_i)``
once.  Detected specimens reset within a block of their trigger, so
detect-heavy populations (CodeBitFlip, PCGlitch) are prefix-dominated
and batch-friendly; MASKED specimens run their whole suffix on their
own machine, so mixed-model populations land lower — both regimes are
printed below.

``test_batch_lockstep_smoke`` is the cheap CI guard: identity only, no
timing.  The full gate (``test_fault_campaign_speedup``) prints the E18
table and writes the JSON/CSV artifacts via
:func:`repro.eval.export.batch_json` / ``batch_csv``.
"""

import json
import time

from repro.crypto import DeviceKeys
from repro.eval.export import batch_csv, batch_json
from repro.faults.campaign import run_fault, run_fault_batch, sample_faults
from repro.sim import SofiaMachine
from repro.transform import transform
from repro.transform.profile import profile_grid
from repro.workloads import make_workload

KEYS = DeviceKeys.from_seed(0xBEEF2016)
NONCE = 0x2016
SEED = 77
BUDGET = 2_000_000

#: detect-heavy population: faults on the protected fetch/control surface
PROTECTED_MODELS = ("CodeBitFlip", "PCGlitch")


def _build(name, scale, profile=None):
    workload = make_workload(name, scale)
    program = workload.compile().program
    keys = KEYS.for_profile(profile) if profile is not None else KEYS
    image = transform(program, keys, nonce=NONCE, profile=profile)
    return workload, image, keys


def _population(image, keys, per_model, models):
    golden = SofiaMachine(image, keys).run(max_instructions=BUDGET)
    assert golden.ok, golden.summary()
    faults = sample_faults(image, golden.instructions, per_model=per_model,
                           seed=SEED, models=models)
    return golden, faults


def _fault_fields(r):
    return (r.fault, r.model, r.outcome, r.description, r.status, r.detail)


def _measure(image, keys, faults, golden):
    """Time scalar per-specimen runs vs one lockstep batch; assert
    byte-identity; return (scalar_s, batch_s, identical)."""
    started = time.perf_counter()
    scalar = [run_fault(image, keys, f, golden.output_ints,
                        max_instructions=BUDGET) for f in faults]
    t_scalar = time.perf_counter() - started
    started = time.perf_counter()
    batch = run_fault_batch(image, keys, faults, golden.output_ints,
                            max_instructions=BUDGET)
    t_batch = time.perf_counter() - started
    identical = ([_fault_fields(r) for r in scalar]
                 == [_fault_fields(r) for r in batch])
    assert identical, "batch campaign diverged from scalar runs"
    return t_scalar, t_batch, identical


def _row(workload, faults, t_scalar, t_batch, identical):
    n = len(faults)
    return {"workload": workload, "specimens": n,
            "scalar_specimens_per_s": round(n / t_scalar, 1),
            "batch_specimens_per_s": round(n / t_batch, 1),
            "speedup": round(t_scalar / t_batch, 2),
            "identical": int(identical)}


def _print_rows(rows):
    header = (f"{'workload':<18s} {'specimens':>9s} {'scalar/s':>10s} "
              f"{'batch/s':>10s} {'speedup':>8s}")
    print("\n" + header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['workload']:<18s} {row['specimens']:>9d} "
              f"{row['scalar_specimens_per_s']:>10.1f} "
              f"{row['batch_specimens_per_s']:>10.1f} "
              f"{row['speedup']:>7.2f}x")


def test_batch_lockstep_smoke():
    """CI smoke: merged batch results byte-identical to scalar, no timing."""
    _, image, keys = _build("sort", "tiny")
    golden, faults = _population(image, keys, per_model=3, models=None)
    scalar = [run_fault(image, keys, f, golden.output_ints,
                        max_instructions=BUDGET) for f in faults]
    batch = run_fault_batch(image, keys, faults, golden.output_ints,
                            max_instructions=BUDGET)
    assert [_fault_fields(r) for r in scalar] == [
        _fault_fields(r) for r in batch]


def test_fault_campaign_speedup(tmp_path, bench_environment):
    """E18 gate: >= 5x specimens/sec on the detect-heavy E15 population,
    plus an E17 design-point row and the mixed-model regime, all
    byte-identical; artifacts exported through batch_json/batch_csv."""
    rows = []

    # E15 victim, protected-surface population — the headline row
    _, image, keys = _build("crc32", "small")
    golden, faults = _population(image, keys, per_model=32,
                                 models=PROTECTED_MODELS)
    t_scalar, t_batch, identical = _measure(image, keys, faults, golden)
    rows.append(_row("crc32/protected", faults, t_scalar, t_batch,
                     identical))
    headline = rows[0]["speedup"]

    # stretch regime: pure PCGlitch (resets within a block of the trigger)
    pc_faults = [f for f in faults if type(f).__name__ == "PCGlitch"]
    t_scalar, t_batch, identical = _measure(image, keys, pc_faults, golden)
    rows.append(_row("crc32/pcglitch", pc_faults, t_scalar, t_batch,
                     identical))

    # mixed-model regime: MASKED suffixes cap the win — reported, no floor
    mixed = sample_faults(image, golden.instructions, per_model=8,
                          seed=SEED)
    t_scalar, t_batch, identical = _measure(image, keys, mixed, golden)
    rows.append(_row("crc32/mixed", mixed, t_scalar, t_batch, identical))

    # an E17 design point away from the paper's: PRESENT-80, 32-bit seals
    profile = next(p for p in profile_grid()
                   if p.cipher == "present-80" and p.mac_words == 1
                   and p.renonce == "sequential")
    _, image17, keys17 = _build("sort", "small", profile=profile)
    golden17, faults17 = _population(image17, keys17, per_model=16,
                                     models=PROTECTED_MODELS)
    t_scalar, t_batch, identical = _measure(image17, keys17, faults17,
                                            golden17)
    rows.append(_row(f"sort/{profile.label}", faults17, t_scalar, t_batch,
                     identical))

    _print_rows(rows)
    print(f"headline (crc32/protected): {headline:.2f}x "
          f"(target >= 5x, stretch >= 10x on pcglitch: "
          f"{rows[1]['speedup']:.2f}x)")

    record = {
        "experiment": "E18",
        "campaign": "batch-lockstep",
        "parameters": {"seed": SEED, "per_model": 32, "width": 64,
                       "models": sorted(PROTECTED_MODELS)},
        "workloads": sorted(r["workload"] for r in rows),
        "identical": all(r["identical"] for r in rows),
        "environment": bench_environment(engine="fast"),
    }
    text = batch_json(record, tmp_path / "e18_batch.json")
    assert json.loads(text)["identical"] is True
    batch_csv(rows, tmp_path / "e18_batch.csv")
    assert (tmp_path / "e18_batch.csv").read_text().count("\n") == (
        len(rows) + 1)

    assert headline >= 5.0, (
        f"batch campaign speedup {headline:.2f}x below the 5x E18 target")

