"""Summarize a telemetry directory (`repro stats DIR`).

Re-validates every event line against the schema, checks timestamp
monotonicity, and renders a human summary of events, task throughput,
phase timings, simulator counters, and histograms.  Returns the number
of problems found so the CLI can exit non-zero on a corrupt directory.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Tuple

from .events import validate_event


def summarize(directory) -> Tuple[str, int]:
    """Render a summary of ``directory``; returns (text, problems)."""
    root = Path(directory)
    events_path = root / "events.jsonl"
    if not events_path.is_file():
        raise FileNotFoundError(
            f"no telemetry directory at {root} (missing events.jsonl)")
    problems = 0
    counts = {}
    campaign = "?"
    campaign_seconds = None
    status = "unfinished"
    last_ts = 0.0
    lines = 0
    workers = set()
    cached = 0
    with open(events_path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            lines += 1
            try:
                record = validate_event(json.loads(line))
            except (ValueError, json.JSONDecodeError):
                problems += 1
                continue
            if record["ts"] < last_ts:
                problems += 1
            last_ts = record["ts"]
            event = record["event"]
            counts[event] = counts.get(event, 0) + 1
            if event == "campaign-start":
                campaign = record.get("campaign", "?")
            elif event == "campaign-end":
                campaign_seconds = record.get("seconds")
                status = record.get("status", "completed")
            elif event == "worker-start":
                workers.add(record.get("worker"))
            elif event == "tasks-planned":
                cached += int(record.get("cached", 0) or 0)

    out: List[str] = [f"Telemetry summary: {root}"]
    out.append(f"  campaign    {campaign}")
    out.append(f"  status      {status}")
    schema = "ok" if not problems else f"{problems} PROBLEMS"
    out.append(f"  events      {lines} lines, schema {schema}")
    for event in sorted(counts):
        out.append(f"    {event:<16} {counts[event]}")
    completed = counts.get("task-completed", 0)
    wall = f", wall {campaign_seconds:.2f}s" if campaign_seconds else ""
    qualifier = f" ({cached} cached)" if cached else ""
    out.append(f"  tasks       {completed} completed{qualifier} on "
               f"{len(workers)} worker(s){wall}")

    metrics_path = root / "metrics.json"
    if metrics_path.is_file():
        with open(metrics_path, encoding="utf-8") as handle:
            metrics = json.load(handle)
        counters = metrics.get("counters", {})
        if counters:
            out.append("  counters")
            for name in sorted(counters):
                out.append(f"    {name:<32} {counters[name]:,d}")
        recorded = counters.get("faults.golden_recorded", 0)
        reused = counters.get("faults.golden_reused", 0)
        if recorded or reused:
            out.append(f"  golden      {recorded:,d} golden run(s) recorded, "
                       f"{reused:,d} reused (process cache or store)")
        if "faults.converged" in counters:
            out.append(
                f"  converged   {counters['faults.converged']:,d} fault "
                "specimen(s) rejoined the golden run; "
                f"{counters.get('faults.instructions_skipped', 0):,d} "
                "golden instructions not simulated")
        if campaign_seconds:
            for name, value in sorted(counters.items()):
                if name.startswith("sim.instructions."):
                    label = name[len("sim.instructions."):] + " sofia"
                elif name.startswith("sim.vanilla.instructions."):
                    label = (name[len("sim.vanilla.instructions."):]
                             + " vanilla")
                else:
                    continue
                out.append(
                    f"  throughput  {value / campaign_seconds:,.0f} "
                    f"instructions/s ({label}, campaign wall)")
        histograms = metrics.get("histograms", {})
        if histograms:
            out.append("  histograms")
            for name in sorted(histograms):
                data = histograms[name]
                count = data.get("count", 0)
                mean = (data.get("total", 0.0) / count) if count else 0.0
                out.append(
                    f"    {name:<24} n={count} mean={mean:.4f}s "
                    f"min={_fmt(data.get('min'))} "
                    f"max={_fmt(data.get('max'))}")

    trace_path = root / "trace.json"
    if trace_path.is_file():
        try:
            with open(trace_path, encoding="utf-8") as handle:
                trace = json.load(handle)
            out.append(f"  trace       {len(trace.get('traceEvents', []))} "
                       "trace events (chrome://tracing)")
        except json.JSONDecodeError:
            problems += 1
            out.append("  trace       UNREADABLE")
    return "\n".join(out), problems


def _fmt(value) -> str:
    return f"{value:.4f}s" if isinstance(value, (int, float)) else "-"
