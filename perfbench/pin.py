"""Pin the pools' export digests and write ``BENCHMARK.json``.

    python3 perfbench/pin.py

Runs campaigns of each workload counting up from its pool seed, skips
the inadmissible ones, refuses any whose specimens fail, and records the
canonical export digests of the first ``pool_size`` in
``perfbench/pinned.json``.  It then writes ``BENCHMARK.json`` at the
repository root from the workload and metric definitions.  Re-pin only
when a change is *meant* to alter simulated results; a speed-up must
leave every digest as it is.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run import END_TO_END, PINNED, ROOT, WORK
from spans import PER_LAYER
from workloads import WORKLOADS

RUN_SECONDS = 16


def pin(name: str) -> dict:
    workload = WORKLOADS[name]
    context = workload.prepare()
    digests = {}
    campaign_seed = workload.pool_seed - 1
    while len(digests) < workload.pool_size:
        campaign_seed += 1
        workdir = WORK / "pin" / str(campaign_seed)
        workdir.mkdir(parents=True)
        try:
            outcome = workload.campaign(context, campaign_seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if outcome.failed or outcome.digest is None:
            raise SystemExit(f"{name} campaign {campaign_seed}: "
                             f"{outcome.failed} failed specimens")
        print(f"{name} {campaign_seed} {outcome.specimens} "
              f"{outcome.seconds:.4f}"
              + ("" if outcome.admissible else " skipped"), flush=True)
        if outcome.admissible:
            digests[str(campaign_seed)] = outcome.digest
    return {"pool_seed": workload.pool_seed, "digests": digests}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better(name)}
                      for name, unit in PER_LAYER],
    }


def better(name: str) -> str:
    """Sample counts and memo hits are better high; work and time low."""
    if name == "specimens" or name.endswith(
            ("_hits", "_hit_ratio", "_samples", "_pct")):
        return "higher"
    return "lower"


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    try:
        pinned = {name: pin(name) for name in WORKLOADS}
    finally:
        shutil.rmtree(WORK / "pin", ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    (ROOT / "BENCHMARK.json").write_text(
        json.dumps(benchmark_json(), indent=2) + "\n")
    print(f"pinned in {time.perf_counter() - started:.1f} s")


if __name__ == "__main__":
    main()
