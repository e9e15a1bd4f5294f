"""E21 — hot-tier dispatch throughput (instructions/sec).

Acceptance gate for the fast engine's hot tier (:mod:`repro.sim.fused`):
in steady state — handlers compiled, every straight-line run dispatched
as ONE specialized Python call — the SOFIA core must deliver >= 1.8x
instructions/sec over the same engine pinned to its interpret-only cold
tier, aggregated across the medium workload sweep, while every
:class:`ExecutionResult` stays bit-identical (status, cycles,
instructions, I-cache stats, MAC fetch cycles, outputs).  The tiers are
pinned by patching :data:`repro.sim.fused.COMPILE_THRESHOLD`: ``1``
compiles every edge on its first traversal, a threshold no run reaches
never compiles.

The economics: predecoded stepping pays ~15 interpreter dispatches per
instruction slot (operand decode dict lookups, cycle-table indexing,
per-run tag probes); a compiled handler pays one dict hit on the
``(prev_pc, pc)`` edge and runs straight-line specialized bytecode with
constant-folded cycle tables.  The default heat gate amortizes
compilation: cold edges are stepped, so one-shot code never pays compile
latency.  Cold-start ratios (default threshold vs interpret-only) are
printed for honesty but not gated — the paper's campaign workloads
(fuzz/attacksynth/DSE victims, fault populations) re-enter the same
blocks thousands of times, which is the regime the gate models.

The second test re-runs E18's mixed-model regime: MASKED fault
specimens "peel off" the lockstep batch and run their suffix on the
fast engine until they rejoin the golden run (or to the end); results
stay field-for-field identical to per-specimen runs.

``test_fused_dispatch_smoke`` is the cheap CI guard: identity only, no
timing.
"""

import json
import time

import repro.sim.fused as fused
from repro.crypto import DeviceKeys
from repro.faults.campaign import run_fault, run_fault_batch, sample_faults
from repro.isa import assemble
from repro.sim import GoldenTrace, SofiaMachine, VanillaMachine
from repro.transform import transform
from repro.workloads import make_workload, workload_names

KEYS = DeviceKeys.from_seed(0xBEEF2016)
NONCE = 0x2016
BUDGET = 50_000_000
GATE = 1.8

#: COMPILE_THRESHOLD per pinned tier
HOT = 1
INTERPRETED = 1 << 62


def _build(name, scale):
    workload = make_workload(name, scale)
    program = workload.compile().program
    return program, transform(program, KEYS, nonce=NONCE)


def _fields(result):
    return (result.status, result.cycles, result.instructions,
            result.exit_code, result.icache.hits, result.icache.misses,
            result.blocks_executed, result.mac_fetch_cycles,
            result.output_ints, result.trap_reason)


def _steady(monkeypatch, image, threshold, repeats=2):
    """Best-of-N steady-state run at one tier: warm one machine to
    populate the front-end memos, transplant them onto fresh machines,
    time those.

    The transplanted memos (block cache, compiled edge handlers, heat)
    are pure functions of the untampered image + keys, so sharing them
    between machines of the same image is value-identical — the same
    argument :meth:`repro.sim.batch.GoldenTrace.fork_at` makes for forks.
    """
    monkeypatch.setattr(fused, "COMPILE_THRESHOLD", threshold)
    warm = SofiaMachine(image, KEYS)
    warm_result = warm.run(BUDGET)
    best = None
    for _ in range(repeats):
        machine = SofiaMachine(image, KEYS)
        machine._block_cache = warm._block_cache
        machine._fused_edges = warm._fused_edges
        machine._fused_heat = warm._fused_heat
        started = time.perf_counter()
        result = machine.run(BUDGET)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None or elapsed < best else best
        assert _fields(result) == _fields(warm_result)
    return warm_result, best


def _cold(monkeypatch, image, threshold):
    monkeypatch.setattr(fused, "COMPILE_THRESHOLD", threshold)
    machine = SofiaMachine(image, KEYS)
    started = time.perf_counter()
    result = machine.run(BUDGET)
    return result, time.perf_counter() - started


def test_fused_dispatch_smoke(monkeypatch):
    """CI smoke: both pinned tiers bit-identical to the reference oracle
    on both machines, tiny scale, no timing."""
    for name in ("sort", "crc32", "controller"):
        program, image = _build(name, "tiny")
        exe = assemble(program)
        for make in (lambda e: VanillaMachine(exe, engine=e),
                     lambda e: SofiaMachine(image, KEYS, engine=e)):
            reference = make("reference").run(BUDGET)
            for threshold in (HOT, INTERPRETED):
                monkeypatch.setattr(fused, "COMPILE_THRESHOLD", threshold)
                assert _fields(make("fast").run(BUDGET)) == \
                    _fields(reference), name


def test_fused_dispatch_speedup(monkeypatch, tmp_path, bench_environment):
    """E21 gate: >= 1.8x SOFIA instructions/sec of the hot tier over the
    interpret-only tier in steady state, aggregated over the medium
    workload sweep; results bit-identical; cold-start ratios printed
    unguarded."""
    default = fused.COMPILE_THRESHOLD
    rows = []
    total = {"instructions": 0, "interpreted": 0.0, "hot": 0.0}
    for name in workload_names():
        _, image = _build(name, "medium")
        cold_result, t_cold = _steady(monkeypatch, image, INTERPRETED)
        hot_result, t_hot = _steady(monkeypatch, image, HOT)
        assert _fields(hot_result) == _fields(cold_result), name
        _, t_cold_start = _cold(monkeypatch, image, INTERPRETED)
        _, t_default_start = _cold(monkeypatch, image, default)
        n = cold_result.instructions
        total["instructions"] += n
        total["interpreted"] += t_cold
        total["hot"] += t_hot
        rows.append({
            "workload": name, "instructions": n,
            "interpreted_mips": round(n / t_cold / 1e6, 2),
            "hot_mips": round(n / t_hot / 1e6, 2),
            "steady_speedup": round(t_cold / t_hot, 2),
            "cold_speedup": round(t_cold_start / t_default_start, 2),
            "identical": 1,
        })

    aggregate = total["interpreted"] / total["hot"]
    header = (f"{'workload':<12s} {'instrs':>10s} {'cold Mi/s':>9s} "
              f"{'hot Mi/s':>10s} {'steady':>7s} {'start':>6s}")
    print("\n" + header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['workload']:<12s} {row['instructions']:>10d} "
              f"{row['interpreted_mips']:>9.2f} {row['hot_mips']:>10.2f} "
              f"{row['steady_speedup']:>6.2f}x {row['cold_speedup']:>5.2f}x")
    print(f"{'AGGREGATE':<12s} {total['instructions']:>10d} "
          f"{total['instructions'] / total['interpreted'] / 1e6:>9.2f} "
          f"{total['instructions'] / total['hot'] / 1e6:>10.2f} "
          f"{aggregate:>6.2f}x")

    record = {"experiment": "E21", "gate": GATE,
              "aggregate_steady_speedup": round(aggregate, 2),
              "rows": rows, "environment": bench_environment("fast")}
    (tmp_path / "e21_fused_dispatch.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    assert aggregate >= GATE, (
        f"hot-tier steady-state aggregate {aggregate:.2f}x < {GATE}x gate")


def test_peel_off_suffix_rerun(bench_environment):
    """E18 re-run, mixed-model regime: MASKED specimens' suffixes run on
    the fast engine after forking off the golden trace.  Identity is
    the gate; the speedup is printed as evidence."""
    program, image = _build("crc32", "small")
    trace = GoldenTrace.record(image, KEYS, BUDGET)
    golden = trace.result
    assert golden.ok, golden.summary()
    faults = sample_faults(image, golden.instructions, per_model=8, seed=77)

    started = time.perf_counter()
    scalar = [run_fault(image, KEYS, f, golden.output_ints,
                        max_instructions=BUDGET) for f in faults]
    t_scalar = time.perf_counter() - started
    started = time.perf_counter()
    batch = run_fault_batch(image, KEYS, faults, golden.output_ints, trace,
                            max_instructions=BUDGET)
    t_batch = time.perf_counter() - started

    fields = lambda r: (r.fault, r.model, r.outcome, r.description,
                        r.status, r.detail)  # noqa: E731
    assert [fields(r) for r in scalar] == [fields(r) for r in batch], \
        "lockstep campaign diverged from per-specimen runs"
    n = len(faults)
    print(f"\nE18 rerun (mixed models, peel-off): {n} specimens, "
          f"per-specimen {n / t_scalar:.1f}/s, lockstep {n / t_batch:.1f}/s, "
          f"speedup {t_scalar / t_batch:.2f}x")
