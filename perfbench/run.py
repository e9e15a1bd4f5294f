"""Campaign benchmark for the SOFIA reproduction.

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 20 --trace 0

Runs one workload (``fuzz``, ``fault`` or ``attacksynth``, see
``workloads.py``) at ``--jobs 1``: sweeps of the workload's fixed pool
of campaigns, each sweep a closed loop in a fresh interpreter
(``sweep.py``) in an order shuffled by ``--seed``.  It checks every
campaign's canonical export against the digest pinned in
``pinned.json``, prints each metric with its unit and base, and ends
with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The host this was built on runs Python up to 1.9x slower for seconds to
minutes at a time (CPU steal stays zero, so CPU time slows the same
way).  Every time metric is therefore taken in *reference seconds*: the
host seconds a process measured, times ``CAL_REFERENCE_S`` over the
time that process measured, just before and after, for
``sweep.calibrate``, a fixed kernel of the benchmark's own.  On the
quiet reference host the two coincide; the raw host figures are printed
beside them.

``--trace 0`` reports the end-to-end metrics, tracing off:

* ``specimens_per_s``: median over sweeps of the pool's specimens per
  reference second of public campaign calls;
* ``setup_s``: median reference seconds from spawning a fresh
  interpreter to the workload being ready, over every sweep and one
  set-up-only probe before each sweep and after the last;
* ``peak_rss_mb``: the highest peak RSS of the sweep processes (the
  peak depends a little on the campaign order, so the highest of
  several orders is the steady figure).

``--seconds`` fixes the number of sweeps (one per ``SWEEP_SECONDS`` of
the budget, at least ``MIN_SWEEPS``), not a deadline, so two commits
always do the same work.  ``--trace 1`` alternates untraced and traced
sweeps of one order and reports the per-layer metrics of ``spans.py``
(host seconds) with the tracing overhead.  Run from the root of a
checkout that holds ``src/repro``; without it the benchmark exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = HERE / "pinned.json"
WORK = ROOT / ".perfbench_work"

#: the budget one sweep of any pool takes on the reference host
SWEEP_SECONDS = 4.0
MIN_SWEEPS = 3
#: untraced/traced sweep pairs of a ``--trace 1`` run
TRACE_PAIRS = 2
#: a sweep that takes longer than this is a hung benchmark
SWEEP_TIMEOUT = 150
#: seconds ``sweep.calibrate`` takes on the reference host when quiet
CAL_REFERENCE_S = 0.0065

#: (name, unit, better, bound) of every end-to-end metric
END_TO_END = (
    ("specimens_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.2),
)

NOTE = ("simulated cycles are unvalidated against hardware apart from the "
        "Table I calibration; every time here is host time, scaled to "
        "reference seconds where named")


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a wrong result)."""


def sweep(workload: str, campaigns: List[int],
          trace: bool = False) -> Tuple[float, dict]:
    """Run ``sweep.py`` in a fresh interpreter; returns the seconds from
    spawn to ``ready`` and the sweep's JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    command = [sys.executable, str(HERE / "sweep.py"), workload,
               *map(str, campaigns)] + (["--trace"] if trace else [])
    start = time.perf_counter()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             env=env)
    try:
        first = child.stdout.readline()
        ready = time.perf_counter() - start
        rest = child.stdout.read()
        code = child.wait(timeout=SWEEP_TIMEOUT)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    lines = rest.strip().splitlines()
    if first.strip() != "ready" or code != 0 or not lines:
        raise BenchError(f"sweep of {workload} failed (exit code {code})")
    return ready, json.loads(lines[-1])


def setup_slowdown(result: dict) -> float:
    """How much slower than the reference host the process ran just
    after set-up (its first three kernel runs)."""
    return statistics.median(result["calibration"][:3]) / CAL_REFERENCE_S


def call_seconds(result: dict) -> float:
    """Host seconds of the sweep's campaign calls."""
    return sum(row[4] for row in result["campaigns"])


def ref_seconds(result: dict) -> float:
    """Reference seconds of the sweep's campaign calls: each call scaled
    by the mean of the kernel runs just before and just after it."""
    kernel = result["calibration"]
    return sum(row[4] * 2 * CAL_REFERENCE_S / (kernel[2 + i] + kernel[3 + i])
               for i, row in enumerate(result["campaigns"]))


def judge(sweeps: List[dict], pinned: dict) -> Tuple[int, int, int, list]:
    """(attempted, failed, campaign calls with a wrong digest, their
    campaign seeds); any wrong digest fails every specimen."""
    rows = [row for result in sweeps for row in result["campaigns"]]
    attempted = sum(row[1] for row in rows)
    failed = sum(row[2] for row in rows)
    wrong = [row[0] for row in rows
             if row[3] is None or pinned.get(str(row[0])) != row[3]]
    if wrong:
        failed = attempted
    return max(attempted, 1), failed, len(wrong), sorted(set(wrong))


def end_to_end(name: str, orders: List[List[int]]):
    setup, sweeps = [], []
    for order in orders + [[]]:
        ready, probe = sweep(name, [])
        setup.append((ready, setup_slowdown(probe)))
        if order:
            ready, result = sweep(name, order)
            setup.append((ready, setup_slowdown(result)))
            sweeps.append(result)

    specimens = sum(row[1] for row in sweeps[0]["campaigns"])
    rates = [specimens / max(ref_seconds(result), 1e-9)
             for result in sweeps]
    host_rates = [specimens / max(call_seconds(result), 1e-9)
                  for result in sweeps]
    slowdowns = [call_seconds(result) / max(ref_seconds(result), 1e-9)
                 for result in sweeps]
    rss = [result["rss_mib"] for result in sweeps]
    metrics = {
        "specimens_per_s": statistics.median(rates),
        "setup_s": statistics.median(ready / slow for ready, slow in setup),
        "peak_rss_mb": max(rss),
    }
    bases = {
        "specimens_per_s":
            f"{specimens} specimens per sweep, median of {len(sweeps)} "
            f"sweeps; host {statistics.median(host_rates):.4g}/s at "
            f"{min(slowdowns):.2f}..{max(slowdowns):.2f}x slowdown",
        "setup_s": f"median of {len(setup)} fresh interpreters; host "
                   f"{statistics.median(r for r, _ in setup):.4f} s",
        "peak_rss_mb": f"highest of {len(sweeps)} sweep processes "
                       f"(lowest {min(rss):.1f})",
    }
    return metrics, bases, sweeps, None


def traced(name: str, orders: List[List[int]]):
    """Untraced and traced sweeps, alternating, ``TRACE_PAIRS`` times in
    the same order; the layers come from the first traced sweep."""
    plain, spanned = [], []
    for _ in range(TRACE_PAIRS):
        plain.append(sweep(name, orders[0])[1])
        spanned.append(sweep(name, orders[0], trace=True)[1])
    metrics, bases, breakdown = spanned[0]["layers"]
    untraced = statistics.median(ref_seconds(r) for r in plain)
    traced_s = statistics.median(ref_seconds(r) for r in spanned)
    metrics["trace.untraced_s"] = untraced
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced
    metrics["trace.overhead_frac"] = (traced_s - untraced) / untraced
    for key in ("trace.untraced_s", "trace.traced_s"):
        bases[key] = (f"reference seconds of campaign calls, median of "
                      f"{TRACE_PAIRS} sweeps")
    slow = call_seconds(spanned[0]) / ref_seconds(spanned[0])
    bases["trace.wall_s"] = f"host seconds at {slow:.2f}x slowdown"
    return metrics, bases, plain + spanned, breakdown


def environment() -> dict:
    from repro.runner import available_cpus
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "cpus": available_cpus()}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro in this checkout; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    pinned = json.loads(PINNED.read_text())[workload.name]["digests"]
    rng = random.Random(args.seed)
    orders = []
    for _ in range(max(MIN_SWEEPS, round(args.seconds / SWEEP_SECONDS))):
        order = sorted(int(seed) for seed in pinned)
        rng.shuffle(order)
        orders.append(order)

    try:
        if args.trace:
            from spans import PER_LAYER
            metrics, bases, sweeps, breakdown = traced(workload.name, orders)
            units = dict(PER_LAYER)
        else:
            metrics, bases, sweeps, breakdown = end_to_end(workload.name,
                                                           orders)
            units = {name: unit for name, unit, _, _ in END_TO_END}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass

    attempted, failed, wrong, wrong_seeds = judge(sweeps, pinned)
    calls = sum(len(result["campaigns"]) for result in sweeps)
    print(f"perfbench {workload.name}: seed {args.seed}, {len(sweeps)} "
          f"sweeps of {len(pinned)} campaigns, --jobs 1, "
          f"trace {'on' if args.trace else 'off'}")
    print(f"  stresses {workload.stresses}; bypasses {workload.bypasses}")
    print(f"  environment {json.dumps(environment(), sort_keys=True)}")
    print(f"  note: {NOTE}")
    print(f"  correctness: {calls - wrong}/{calls} campaign calls match "
          f"their pinned digest"
          + (f"; wrong: campaign seeds {wrong_seeds}" if wrong else ""))
    rows = [("failed_frac", failed / attempted, "ratio",
             f"{failed} failed / {attempted} {workload.specimen}s")]
    rows += [(name, metrics[name], units[name], bases.get(name, ""))
             for name in units]
    for name, value, unit, base in rows:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<30s} {text:>14s} {unit:<6s} {base}")
    if breakdown is not None:
        print("  self time by layer (sums to trace.wall_s):")
        for layer, seconds, share in breakdown:
            print(f"    {layer:<20s} {seconds:10.4f} s {share:7.1%}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
