"""E11 (extension) — fault-injection campaign (paper §V future work).

The paper plans to "test the architecture's resistance to fault-based
attacks"; this bench runs that study on the functional model.  Claims
under test: faults on the protected surface (stored code, fetched words,
the PC) are detected or masked — never silent data corruption; faults on
the unprotected surface (registers, a glitched comparator paired with a
tamper) can still corrupt silently, delimiting the guarantee.
"""

import os
import time

from repro.crypto import DeviceKeys
from repro.faults import FaultOutcome, run_campaign
from repro.workloads import make_workload

KEYS = DeviceKeys.from_seed(0xE11)


def test_fault_campaign(benchmark):
    workload = make_workload("crc32", "tiny")

    def campaign():
        return run_campaign(workload.compile().program, KEYS,
                            workload.expected_output, per_model=15,
                            seed=2016)

    results, summary = benchmark.pedantic(campaign, iterations=1, rounds=1)
    print()
    print(summary.render())

    protected = ("CodeBitFlip", "FetchGlitch", "PCGlitch")
    for model in protected:
        assert summary.rate(model, FaultOutcome.SDC) == 0.0, model

    # PC glitches on an encrypted binary are essentially always detected
    assert summary.rate("PCGlitch", FaultOutcome.DETECTED) > 0.8

    # the unprotected surface is where SDC can appear (register faults)
    # and where glitch-assisted tampers can slip one block through
    unprotected_sdc = (
        summary.rate("RegisterFault", FaultOutcome.SDC)
        + summary.rate("CombinedFault", FaultOutcome.SDC)
        + summary.rate("CombinedFault", FaultOutcome.CRASHED)
        + summary.rate("CombinedFault", FaultOutcome.DETECTED))
    assert unprotected_sdc > 0.0

    for outcome in FaultOutcome:
        benchmark.extra_info[f"pc_{outcome.value}"] = summary.rate(
            "PCGlitch", outcome)


def test_fault_campaign_parallel_speedup(benchmark):
    """Serial vs ``--jobs 4``: identical classification, faster wall clock.

    The campaign is the repo's canonical embarrassingly-parallel surface;
    this bench pins the runner's contract — parallel dispatch changes
    *nothing* about the per-model outcome counts — and reports the
    speedup.  The >=2x assertion only applies on hosts with >=4 CPUs
    (a process pool cannot beat serial on a single core).
    """
    workload = make_workload("crc32", "tiny")
    program = workload.compile().program

    serial_start = time.perf_counter()
    serial_results, serial_summary = run_campaign(
        program, KEYS, workload.expected_output, per_model=15, seed=2016)
    serial_seconds = time.perf_counter() - serial_start

    def parallel_campaign():
        return run_campaign(program, KEYS, workload.expected_output,
                            per_model=15, seed=2016, jobs=4)

    parallel_start = time.perf_counter()
    parallel_results, parallel_summary = benchmark.pedantic(
        parallel_campaign, iterations=1, rounds=1)
    parallel_seconds = time.perf_counter() - parallel_start

    # byte-identical classification: same specimens, same order, same
    # outcomes, same per-model counts
    assert [(r.model, r.outcome, r.description, r.status.value, r.detail)
            for r in serial_results] == \
           [(r.model, r.outcome, r.description, r.status.value, r.detail)
            for r in parallel_results]
    assert serial_summary.counts == parallel_summary.counts

    speedup = serial_seconds / max(parallel_seconds, 1e-9)
    cpus = os.cpu_count() or 1
    print(f"\nserial {serial_seconds:.2f}s, 4-way parallel "
          f"{parallel_seconds:.2f}s -> {speedup:.2f}x on {cpus} CPUs")
    benchmark.extra_info["serial_seconds"] = serial_seconds
    benchmark.extra_info["parallel_seconds"] = parallel_seconds
    benchmark.extra_info["speedup"] = speedup
    if cpus >= 4:
        assert speedup >= 2.0, (
            f"expected >=2x speedup at 4 workers on {cpus} CPUs, "
            f"got {speedup:.2f}x")
