"""One sweep of a workload's campaigns in a fresh interpreter.

    python3 perfbench/sweep.py WORKLOAD [CAMPAIGN_SEED ...] [--trace]

Makes the workload ready (``import repro``, the device keys and their
ciphers, whose first construction builds RECTANGLE's tables, and the
victim) and prints ``ready``; ``run.py`` times a fresh interpreter from
spawn to that line as one set-up sample.  Then it calls the given
campaigns one after the other and prints one JSON line: ``[seed,
specimens, failed, digest, seconds]`` per campaign, the seconds of each
run of the host-speed kernel (three before the first campaign and one
after every campaign), the sweep's wall time, the process's peak RSS
and, with ``--trace``, the per-layer metrics of ``spans.py``.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, Outcome  # noqa: E402


def calibrate() -> float:
    """Seconds one run of a fixed pure-Python kernel takes right now.

    The kernel (list indexing, integer ops, dict updates) is the
    benchmark's own, so no change to ``repro`` can move it; its time
    tracks how fast this host runs Python at the moment.
    """
    table = [(i * 2654435761) & 0xFFFF for i in range(4096)]
    counts = {}
    gc.disable()  # a collection of the program's heap is not host speed
    try:
        start = time.perf_counter()
        x = 1
        for i in range(30000):
            x = table[(x ^ i) & 4095] ^ (x >> 3)
            counts[x & 1023] = counts.get(x & 1023, 0) + 1
        return time.perf_counter() - start
    finally:
        gc.enable()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("campaigns", nargs="*", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from spans import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
    context = workload.prepare()
    print("ready", flush=True)

    calibration = [calibrate() for _ in range(3)]
    if tracer is not None:
        setup_crypto = (tracer.calls("crypto.setup"),
                        tracer.seconds("crypto.setup"))
        tracer.reset()
    work = HERE.parent / ".perfbench_work" / str(os.getpid())
    rows = []
    try:
        start = time.perf_counter()
        for campaign_seed in args.campaigns:
            workdir = work / str(campaign_seed)
            workdir.mkdir(parents=True)
            try:
                outcome = workload.campaign(context, campaign_seed, workdir)
            except Exception:  # a broken campaign is a wrong result
                traceback.print_exc()
                outcome = Outcome(0, 0, None, 0.0)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            rows.append([campaign_seed, outcome.specimens, outcome.failed,
                         outcome.digest, outcome.seconds])
            calibration.append(calibrate())
        # the kernel runs between campaigns are the benchmark's, not
        # the program's: keep them out of the traced wall time
        wall = time.perf_counter() - start - sum(calibration[3:])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()
    result = {
        "campaigns": rows,
        "calibration": calibration,
        "wall_s": wall,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        specimens = sum(row[1] for row in rows)
        result["layers"] = layer_metrics(tracer, specimens, wall,
                                         setup_crypto)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
