"""CSV and JSON export of campaign data (figure-ready artifacts).

:func:`write_csv` turns one campaign's rows (E16 attack synthesis,
E17/E20 design-space sweep, E18 batch throughput) into a CSV file under
that campaign's header, and :func:`record_json` its record into
canonical JSON, so downstream users can plot the
reproduction's figures with their own tooling (the repository
deliberately has no plotting dependency).
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, Optional, Sequence

from ..runner.export import atomic_write


def write_csv(header: Sequence[str], rows: Sequence[Dict[str, Any]],
              path: Optional[str] = None) -> str:
    """One campaign's rows as CSV text, written to ``path`` if given.

    ``rows`` are plain dicts; ``header`` picks and orders their columns
    (a key the header does not name is left out, a column a row lacks is
    empty), so this exporter stays decoupled from the campaign types.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([row.get(key, "") for key in header] for row in rows)
    text = buffer.getvalue()
    if path is not None:
        atomic_write(path, text)
    return text


#: column order of the E16 detection-matrix CSV (one row per
#: family x target cell, from ``DetectionMatrix.csv_rows``); kept here so
#: figure tooling and the attack-synthesis campaign agree on the schema
ATTACKSYNTH_CSV_HEADER = (
    "family", "target", "detected", "crashed", "survived_clean",
    "survived_divergent", "limit", "hijacked", "not_applicable", "total")

#: column order of the E17 Pareto-table CSV (one row per design point,
#: from ``DseReport.csv_rows``); kept here so figure tooling and the DSE
#: campaign agree on the schema
DSE_CSV_HEADER = (
    "profile", "cipher", "mac_bits", "renonce", "block_words",
    "schedule_stores", "size_ratio", "cycle_overhead", "si_years",
    "cfi_years", "synth_attempts", "synth_undetected", "detection_rate",
    "expected_collisions", "consistent", "fault_detected", "fault_sdc",
    "pareto", "error")

#: column order of the unified E17+hardware (E20) Pareto CSV: the E17
#: columns plus the profile-derived hardware axes, one row per
#: (design point, unroll factor) from ``DseReport.hw_csv_rows``; the
#: hardware axes off keep the narrow header so pre-hardware artifacts
#: stay byte-identical
DSE_HW_CSV_HEADER = DSE_CSV_HEADER + (
    "unroll", "cipher_cycles", "datapath_slices", "slices", "clock_mhz",
    "path_ns", "area_delay", "hw_pareto")

#: column order of the E18 batch-lockstep CSV (one row per measured
#: campaign workload, from ``benchmarks/bench_batch_lockstep.py``); kept
#: here so figure tooling and the benchmark agree on the schema
BATCH_CSV_HEADER = (
    "workload", "specimens", "scalar_specimens_per_s",
    "batch_specimens_per_s", "speedup", "identical")


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
