#!/usr/bin/env python3
"""Parallel campaign orchestration with ``repro.runner``.

Demonstrates the ``--jobs``/``jobs=N`` surface end to end:

1. a fault-injection campaign run serially and then across worker
   processes — identical classification counts, wall-clock reported;
2. the E8 attack matrix fanned out cell-by-cell;
3. an overhead sweep whose points share one protected build, made once
   as the sweep's dispatch context;
4. structured JSON export of a campaign.

Worker counts are explicit here so the demo behaves the same everywhere;
in real use pass ``jobs=None`` (or ``--jobs 0`` on the CLI) to use one
worker per CPU.  Speedup over serial appears once the host has spare
cores — on a single-core machine the pool only adds dispatch overhead.
"""

import json
import time

from repro.attacks import format_matrix
from repro.attacks import run_campaign as attack_campaign
from repro.crypto import DeviceKeys
from repro.eval import OverheadPoint, measure_many
from repro.faults import run_campaign as fault_campaign
from repro.sim.timing import TimingParams
from repro.workloads import make_workload

JOBS = 2


def main() -> None:
    keys = DeviceKeys.from_seed(0xFA117)
    workload = make_workload("crc32", scale="tiny")
    program = workload.compile().program

    # -- 1: fault campaign, serial vs parallel ---------------------------
    print(f"fault campaign (serial vs jobs={JOBS}):")
    started = time.perf_counter()
    _, serial_summary = fault_campaign(program, keys,
                                       workload.expected_output,
                                       per_model=6, seed=2016)
    serial_s = time.perf_counter() - started
    started = time.perf_counter()
    _, parallel_summary = fault_campaign(program, keys,
                                         workload.expected_output,
                                         per_model=6, seed=2016,
                                         jobs=JOBS)
    parallel_s = time.perf_counter() - started
    print(parallel_summary.render())
    identical = serial_summary.counts == parallel_summary.counts
    print(f"identical outcome counts: {identical}  "
          f"(serial {serial_s:.2f}s, parallel {parallel_s:.2f}s)")
    print()

    # -- 2: attack matrix, one task per (attack, target) cell ------------
    print(f"attack matrix with jobs={JOBS}:")
    results = attack_campaign(seed=1337, jobs=JOBS)
    print(format_matrix(results))
    print()

    # -- 3: overhead sweep sharing one build ----------------------------
    # the points differ only in timing, so the sweep builds its image
    # once, before dispatch, and every point (in any worker) runs on it
    rows = measure_many([
        OverheadPoint(workload="crc32", scale="tiny",
                      timing=TimingParams(icache_lines=lines))
        for lines in (8, 32, 128)], jobs=JOBS)
    print(f"I-cache sweep with jobs={JOBS} (image built once, shared by "
          "every point):")
    for lines, row in zip((8, 32, 128), rows):
        print(f"  {lines:>4d} lines: sofia {row.sofia_cycles:,} cycles "
              f"({row.cycle_overhead:+.1%} vs vanilla)")
    print()

    # -- 4: JSON export of a campaign ------------------------------------
    fault_campaign(program, keys, workload.expected_output,
                   per_model=2, seed=7, jobs=JOBS,
                   export_path="fault_campaign.json")
    record = json.loads(open("fault_campaign.json").read())
    print(f"exported fault_campaign.json: {record['num_results']} specimens, "
          f"campaign={record['campaign']!r}, jobs={record['jobs']}")


if __name__ == "__main__":
    main()
