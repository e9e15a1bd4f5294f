"""Engine speedup — the fast engine vs the reference oracle.

Acceptance gate for the fast execution engine (:mod:`repro.sim.engine`
predecoded stepping plus :mod:`repro.sim.fused` compiled hot runs, at
its default heat gate): across the workload sweep it must deliver
>= 3x instructions/sec on both the vanilla and the SOFIA machine while
producing bit-identical ``ExecutionResult`` fields (status, cycles,
instructions, exit code, I-cache stats) on every workload.

``test_engine_equivalence_smoke`` is the cheap CI guard: one workload,
both machines, both engines, divergence fails the build.  The full sweep
(``test_engine_speedup_sweep``) measures steady-state simulation
throughput at the ``medium`` scale, where per-run work dominates the
one-time build/decrypt warm-up that both engines share.
"""

import time

from repro.crypto import DeviceKeys
from repro.isa.assembler import assemble
from repro.sim import SofiaMachine, VanillaMachine
from repro.transform import transform
from repro.workloads import make_workload, workload_names

KEYS = DeviceKeys.from_seed(0xBEEF2016)
NONCE = 0x2016


def _build(name, scale):
    workload = make_workload(name, scale)
    program = workload.compile().program
    return workload, assemble(program), transform(program, KEYS, nonce=NONCE)


def _fields(result):
    return (result.status, result.cycles, result.instructions,
            result.exit_code, result.icache.hits, result.icache.misses,
            result.blocks_executed, result.mac_fetch_cycles,
            result.output_ints)


def _timed(make_machine, engine):
    machine = make_machine(engine)
    started = time.perf_counter()
    result = machine.run()
    return result, time.perf_counter() - started


def _compare_engines(make_machine, label):
    """Run both engines; assert bit-identity; return (instr, t_ref, t_fast)."""
    ref, t_ref = _timed(make_machine, "reference")
    fast, t_fast = _timed(make_machine, "fast")
    assert _fields(ref) == _fields(fast), (
        f"{label}: engines diverged\nreference: {_fields(ref)}\n"
        f"fast: {_fields(fast)}")
    return ref.instructions, t_ref, t_fast


def test_engine_equivalence_smoke():
    """CI smoke: one workload, both machines, divergence fails the job."""
    workload, exe, image = _build("crc32", "small")
    n, t_ref, t_fast = _compare_engines(
        lambda engine: VanillaMachine(exe, engine=engine), "crc32/vanilla")
    print(f"\ncrc32 vanilla: {n:,d} instr, reference {n / t_ref:,.0f} i/s, "
          f"fast {n / t_fast:,.0f} i/s ({t_ref / t_fast:.2f}x)")
    n, t_ref, t_fast = _compare_engines(
        lambda engine: SofiaMachine(image, KEYS, engine=engine),
        "crc32/sofia")
    print(f"crc32 sofia:   {n:,d} instr, reference {n / t_ref:,.0f} i/s, "
          f"fast {n / t_fast:,.0f} i/s ({t_ref / t_fast:.2f}x)")
    result = SofiaMachine(image, KEYS).run()
    assert result.output_ints == workload.expected_output


def test_engine_speedup_sweep():
    """Full sweep: >= 3x aggregate instructions/sec on both machines."""
    totals = {"vanilla": [0, 0.0, 0.0], "sofia": [0, 0.0, 0.0]}
    header = (f"{'workload':<10s} {'machine':<8s} {'instr':>10s} "
              f"{'ref i/s':>12s} {'fast i/s':>12s} {'speedup':>8s}")
    lines = [header, "-" * len(header)]
    for name in workload_names():
        _, exe, image = _build(name, "medium")
        for machine, make in (
                ("vanilla", lambda e: VanillaMachine(exe, engine=e)),
                ("sofia", lambda e: SofiaMachine(image, KEYS, engine=e))):
            n, t_ref, t_fast = _compare_engines(make, f"{name}/{machine}")
            totals[machine][0] += n
            totals[machine][1] += t_ref
            totals[machine][2] += t_fast
            lines.append(f"{name:<10s} {machine:<8s} {n:>10,d} "
                         f"{n / t_ref:>12,.0f} {n / t_fast:>12,.0f} "
                         f"{t_ref / t_fast:>7.2f}x")
    print("\n" + "\n".join(lines))
    for machine, (n, t_ref, t_fast) in totals.items():
        speedup = t_ref / t_fast
        print(f"{machine} sweep aggregate: {n:,d} instr, "
              f"{n / t_ref:,.0f} -> {n / t_fast:,.0f} i/s ({speedup:.2f}x)")
        assert speedup >= 3.0, (
            f"{machine} sweep speedup {speedup:.2f}x below the 3x target")
