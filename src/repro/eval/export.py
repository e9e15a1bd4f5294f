"""CSV and JSON export of campaign data (figure-ready artifacts).

Each exporter turns one campaign's rows (E16 attack synthesis, E17/E20
design-space sweep, E18 batch throughput) into a CSV file, or its
record into canonical JSON, so downstream users can plot the
reproduction's figures with their own tooling (the repository
deliberately has no plotting dependency).
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, List, Optional, Sequence

from ..runner.export import atomic_write


def _write(header: Sequence[str], rows: List[Sequence],
           path: Optional[str]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buffer.getvalue()
    if path is not None:
        atomic_write(path, text)
    return text


#: column order of the E16 detection-matrix CSV (one row per
#: family x target cell); kept here so figure tooling and the
#: attack-synthesis campaign agree on the schema
ATTACKSYNTH_CSV_HEADER = (
    "family", "target", "detected", "crashed", "survived_clean",
    "survived_divergent", "limit", "hijacked", "not_applicable", "total")


def attacksynth_csv(rows: Sequence[Dict[str, Any]],
                    path: Optional[str] = None) -> str:
    """E16 data: the attack-synthesis detection matrix, one cell per row.

    ``rows`` are plain dicts keyed by :data:`ATTACKSYNTH_CSV_HEADER`
    (produced by ``DetectionMatrix.csv_rows`` in
    :mod:`repro.attacksynth`), so this exporter stays decoupled from the
    campaign types.
    """
    return _write(ATTACKSYNTH_CSV_HEADER,
                  [[row.get(key, 0) for key in ATTACKSYNTH_CSV_HEADER]
                   for row in rows],
                  path)


#: column order of the E17 Pareto-table CSV (one row per design point);
#: kept here so figure tooling and the DSE campaign agree on the schema
DSE_CSV_HEADER = (
    "profile", "cipher", "mac_bits", "renonce", "block_words",
    "schedule_stores", "size_ratio", "cycle_overhead", "si_years",
    "cfi_years", "synth_attempts", "synth_undetected", "detection_rate",
    "expected_collisions", "consistent", "fault_detected", "fault_sdc",
    "pareto", "error")

#: column order of the unified E17+hardware (E20) Pareto CSV: the E17
#: columns plus the profile-derived hardware axes, one row per
#: (design point, unroll factor); ``--hw`` off keeps the narrow header
#: so pre-hardware artifacts stay byte-identical
DSE_HW_CSV_HEADER = DSE_CSV_HEADER + (
    "unroll", "cipher_cycles", "datapath_slices", "slices", "clock_mhz",
    "path_ns", "area_delay", "hw_pareto")


def dse_csv(rows: Sequence[Dict[str, Any]],
            path: Optional[str] = None,
            header: Sequence[str] = DSE_CSV_HEADER) -> str:
    """E17/E20 data: the design-space Pareto table, one row per point.

    ``rows`` are plain dicts keyed by ``header`` — :data:`DSE_CSV_HEADER`
    (produced by ``DseReport.csv_rows``) or :data:`DSE_HW_CSV_HEADER`
    (``DseReport.hw_csv_rows``, one row per point x unroll) — so this
    exporter stays decoupled from the campaign types.
    """
    return _write(header,
                  [[row.get(key, "") for key in header]
                   for row in rows],
                  path)


#: column order of the E18 batch-lockstep CSV (one row per measured
#: campaign workload); kept here so figure tooling and the benchmark
#: agree on the schema
BATCH_CSV_HEADER = (
    "workload", "specimens", "scalar_specimens_per_s",
    "batch_specimens_per_s", "speedup", "identical")


def batch_csv(rows: Sequence[Dict[str, Any]],
              path: Optional[str] = None) -> str:
    """E18 data: batch-vs-scalar campaign throughput, one workload per row.

    ``rows`` are plain dicts keyed by :data:`BATCH_CSV_HEADER` (produced
    by ``benchmarks/bench_batch_lockstep.py``), so this exporter stays
    decoupled from the benchmark internals.
    """
    return _write(BATCH_CSV_HEADER,
                  [[row.get(key, "") for key in BATCH_CSV_HEADER]
                   for row in rows],
                  path)


def record_json(record: Dict[str, Any], path: Optional[str] = None) -> str:
    """A campaign record (E16, E17, E18) as canonical JSON.

    Keys are sorted, and a record carries only deterministic fields (no
    wall-clock, worker count or measured throughput), so the same
    campaign parameters produce byte-identical files at any ``--jobs``
    value or batch width — the contract the CLI tests, the CI smokes
    and the batch determinism suite pin.
    """
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if path is not None:
        atomic_write(path, text)
    return text
