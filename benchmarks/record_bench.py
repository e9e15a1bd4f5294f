"""Record one ``perfbench/run.py`` run as ``BENCH_<label>.json``.

Usage, from the root of a checkout::

    python3 benchmarks/record_bench.py LABEL [--checkout DIR] -- \\
        --workload fault --seed 1 --seconds 16 --trace 0

Everything after ``--`` goes to ``perfbench/run.py`` unchanged.  The run
uses the ``perfbench/`` and ``src/`` of ``--checkout`` (by default this
checkout), so a record of a parent commit can be made from a second
checkout of it.  The record, written to ``BENCH_<label>.json`` at the
root of this checkout, holds the final JSON line of the run, its
``environment {...}`` line, the arguments, the commit of the checkout
that ran (with ``dirty`` when its working tree had uncommitted changes)
and the UTC date.  Committed records let the trend of a metric be read
across changes; compare two records only when their environments match.
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=checkout, check=True,
                          capture_output=True, text=True).stdout.strip()


def record(label: str, checkout: Path, perfbench_args: list) -> dict:
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", *perfbench_args],
        cwd=checkout, check=True, capture_output=True, text=True)
    lines = run.stdout.splitlines()
    environment = next(line for line in lines
                       if line.strip().startswith("environment "))
    return {
        "label": label,
        "args": perfbench_args,
        "commit": git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(git(checkout, "status", "--porcelain")),
        "date": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "environment": json.loads(environment.split("environment ", 1)[1]),
        "result": json.loads(lines[-1]),
    }


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    parser.add_argument("--checkout", type=Path, default=ROOT)
    args = parser.parse_args(argv[:split])
    data = record(args.label, args.checkout.resolve(), argv[split + 1:])
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"{path.name}: {json.dumps(data['result'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
