"""E18 — batch-lockstep campaign throughput (specimens/sec).

Acceptance gate for the fault campaign's lockstep strategy
(:func:`~repro.faults.campaign.run_fault_batch` over
:class:`~repro.sim.batch.GoldenTrace`): on a detect-heavy fault
population — the protected-surface models the paper's CFI argument is
about — lockstep groups must deliver >= 5x specimens/sec over
per-specimen :func:`~repro.faults.campaign.run_fault` runs (stretch:
>= 10x on a pure-PCGlitch population) while every merged
:class:`~repro.faults.campaign.FaultResult` stays field-for-field
identical to its per-specimen twin.

The economics: a scalar campaign pays ``sum(t_i)`` clean-prefix
instructions across specimens; the lockstep path records the golden
run once and forks every specimen from its nearest checkpoint
(:meth:`~repro.sim.batch.GoldenTrace.fork_at`), adopting the golden
run's verified blocks, so a specimen's prefix costs at most one
``CHECK_EVERY`` stint.  Detected specimens reset within a block
of their trigger, so detect-heavy populations (CodeBitFlip, PCGlitch)
are prefix-dominated and batch-friendly; MASKED specimens run their
suffix on their own machine until they rejoin the golden run at one of
its checkpoints or to the end, so mixed-model populations land lower —
both regimes are printed below, each with the number of specimens that
converged.  The golden run is recorded outside the timed region, as
the campaign records it once for every group.

The per-specimen baseline runs every specimen on a copy of the image
without its front-end memo, so each machine starts from empty keystream
and seal memos — the cold per-specimen campaign the 5x target was set
against.  Per-specimen machines on the sealed image itself adopt the
memo ``seal`` left there and are much faster; that *warm* baseline is
printed beside the gated one (``warm/s``, ``vs warm``) but not gated.

``test_batch_lockstep_smoke`` is the cheap CI guard: identity only, no
timing.  The full gate (``test_fault_campaign_speedup``) prints the E18
table and writes the JSON/CSV artifacts via
:func:`repro.eval.export.record_json` / ``batch_csv``.
"""

import json
import time
from dataclasses import replace

from repro.crypto import DeviceKeys
from repro.eval.export import batch_csv, record_json
from repro.faults.campaign import run_fault, run_fault_batch, sample_faults
from repro.obs import hook as obs_hook
from repro.sim import GoldenTrace
from repro.transform import transform
from repro.transform.profile import DEFAULT_PROFILE, profile_grid
from repro.workloads import make_workload

KEYS = DeviceKeys.from_seed(0xBEEF2016)
NONCE = 0x2016
SEED = 77
BUDGET = 2_000_000

#: detect-heavy population: faults on the protected fetch/control surface
PROTECTED_MODELS = ("CodeBitFlip", "PCGlitch")


def _build(name, scale, profile=DEFAULT_PROFILE):
    workload = make_workload(name, scale)
    program = workload.compile().program
    keys = KEYS.for_profile(profile)
    image = transform(program, keys, nonce=NONCE, profile=profile)
    return workload, image, keys


def _population(image, keys, per_model, models):
    trace = GoldenTrace.record(image, keys, BUDGET)
    assert trace.result.ok, trace.result.summary()
    faults = sample_faults(image, trace.result.instructions,
                           per_model=per_model, seed=SEED, models=models)
    return trace, faults


class _ConvergedSink:
    """Telemetry sink that keeps only the ``faults.converged`` count."""

    def __init__(self):
        self.converged = 0

    def count(self, name, n=1):
        if name == "faults.converged":
            self.converged += n


def _fault_fields(r):
    return (r.fault, r.model, r.outcome, r.description, r.status, r.detail)


def _cold(image):
    """``image`` without its front-end memo (a fresh copy per specimen,
    so no specimen inherits what an earlier one computed)."""
    return replace(image, front_end=None)


def _measure(image, keys, faults, trace):
    """Time cold and warm per-specimen runs vs one lockstep batch; assert
    byte-identity; return (scalar_s, warm_s, batch_s, identical,
    converged)."""
    golden = trace.result
    started = time.perf_counter()
    scalar = [run_fault(_cold(image), keys, f, golden.output_ints,
                        max_instructions=BUDGET) for f in faults]
    t_scalar = time.perf_counter() - started
    started = time.perf_counter()
    warm = [run_fault(image, keys, f, golden.output_ints,
                      max_instructions=BUDGET) for f in faults]
    t_warm = time.perf_counter() - started
    sink = _ConvergedSink()
    with obs_hook.counting(sink):
        started = time.perf_counter()
        batch = run_fault_batch(image, keys, faults, golden.output_ints,
                                trace, max_instructions=BUDGET)
        t_batch = time.perf_counter() - started
    identical = ([_fault_fields(r) for r in scalar]
                 == [_fault_fields(r) for r in warm]
                 == [_fault_fields(r) for r in batch])
    assert identical, "batch campaign diverged from scalar runs"
    return t_scalar, t_warm, t_batch, identical, sink.converged


def _row(workload, faults, t_scalar, t_warm, t_batch, identical,
         converged):
    n = len(faults)
    return {"workload": workload, "specimens": n,
            "scalar_specimens_per_s": round(n / t_scalar, 1),
            "warm_specimens_per_s": round(n / t_warm, 1),
            "batch_specimens_per_s": round(n / t_batch, 1),
            "speedup": round(t_scalar / t_batch, 2),
            "speedup_vs_warm": round(t_warm / t_batch, 2),
            "converged": converged,
            "identical": int(identical)}


def _print_rows(rows):
    header = (f"{'workload':<18s} {'specimens':>9s} {'scalar/s':>10s} "
              f"{'batch/s':>10s} {'speedup':>8s} {'warm/s':>10s} "
              f"{'vs warm':>8s} {'converged':>9s}")
    print("\n" + header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['workload']:<18s} {row['specimens']:>9d} "
              f"{row['scalar_specimens_per_s']:>10.1f} "
              f"{row['batch_specimens_per_s']:>10.1f} "
              f"{row['speedup']:>7.2f}x "
              f"{row['warm_specimens_per_s']:>10.1f} "
              f"{row['speedup_vs_warm']:>7.2f}x "
              f"{row['converged']:>9d}")


def test_batch_lockstep_smoke():
    """CI smoke: merged batch results byte-identical to scalar, no timing."""
    _, image, keys = _build("sort", "tiny")
    trace, faults = _population(image, keys, per_model=3, models=None)
    golden = trace.result
    scalar = [run_fault(image, keys, f, golden.output_ints,
                        max_instructions=BUDGET) for f in faults]
    batch = run_fault_batch(image, keys, faults, golden.output_ints, trace,
                            max_instructions=BUDGET)
    assert [_fault_fields(r) for r in scalar] == [
        _fault_fields(r) for r in batch]


def test_fault_campaign_speedup(tmp_path, bench_environment):
    """E18 gate: >= 5x specimens/sec on the detect-heavy E15 population,
    plus an E17 design-point row and the mixed-model regime, all
    byte-identical; artifacts exported through record_json/batch_csv."""
    rows = []

    # E15 victim, protected-surface population — the headline row
    _, image, keys = _build("crc32", "small")
    trace, faults = _population(image, keys, per_model=32,
                                models=PROTECTED_MODELS)
    rows.append(_row("crc32/protected", faults,
                     *_measure(image, keys, faults, trace)))
    headline = rows[0]["speedup"]

    # stretch regime: pure PCGlitch (resets within a block of the trigger)
    pc_faults = [f for f in faults if type(f).__name__ == "PCGlitch"]
    rows.append(_row("crc32/pcglitch", pc_faults,
                     *_measure(image, keys, pc_faults, trace)))

    # mixed-model regime: MASKED suffixes cap the win unless they rejoin
    # the golden run (the converged column) — reported, no floor
    mixed = sample_faults(image, trace.result.instructions, per_model=8,
                          seed=SEED)
    rows.append(_row("crc32/mixed", mixed,
                     *_measure(image, keys, mixed, trace)))

    # an E17 design point away from the paper's: PRESENT-80, 32-bit seals
    profile = next(p for p in profile_grid()
                   if p.cipher == "present-80" and p.mac_words == 1
                   and p.renonce == "sequential")
    _, image17, keys17 = _build("sort", "small", profile=profile)
    trace17, faults17 = _population(image17, keys17, per_model=16,
                                    models=PROTECTED_MODELS)
    rows.append(_row(f"sort/{profile.label}", faults17,
                     *_measure(image17, keys17, faults17, trace17)))

    _print_rows(rows)
    print(f"headline (crc32/protected): {headline:.2f}x "
          f"(target >= 5x, stretch >= 10x on pcglitch: "
          f"{rows[1]['speedup']:.2f}x); vs warm per-specimen runs "
          f"{rows[0]['speedup_vs_warm']:.2f}x (not gated)")

    record = {
        "experiment": "E18",
        "campaign": "batch-lockstep",
        "parameters": {"seed": SEED, "per_model": 32, "width": 64,
                       "models": sorted(PROTECTED_MODELS)},
        "workloads": sorted(r["workload"] for r in rows),
        "identical": all(r["identical"] for r in rows),
        "environment": bench_environment(engine="fast"),
    }
    text = record_json(record, tmp_path / "e18_batch.json")
    assert json.loads(text)["identical"] is True
    batch_csv(rows, tmp_path / "e18_batch.csv")
    assert (tmp_path / "e18_batch.csv").read_text().count("\n") == (
        len(rows) + 1)

    assert headline >= 5.0, (
        f"batch campaign speedup {headline:.2f}x below the 5x E18 target")

