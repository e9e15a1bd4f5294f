"""One-shot evaluation report: every experiment, one text artifact.

``full_report()`` regenerates E1–E11 and returns a single formatted
document (the CLI's ``experiments`` command runs subsets; this is the
"reproduce the whole paper" button).  ``write_report`` saves it to disk.
"""

from __future__ import annotations

import time
from typing import Optional

from ..attacks.harness import format_matrix, run_campaign
from ..crypto.keys import DeviceKeys
from ..faults.campaign import run_campaign as run_fault_campaign
from ..hwmodel.profilecost import table1, unroll_ablation
from ..runner.export import atomic_write
from ..sim.timing import LEON3_MINIMAL_TIMING
from ..workloads import make_workload
from .experiments import (experiment_adpcm, experiment_blocksize,
                          experiment_muxtree, experiment_security,
                          experiment_workloads, render_blocksize,
                          render_muxtree, render_unroll)
from .overhead import format_overhead_rows


def _section(title: str, body: str) -> str:
    rule = "=" * 72
    return f"{rule}\n{title}\n{rule}\n{body}\n"


def full_report(scale: str = "tiny", fault_samples: int = 8,
                security_experiments: int = 100,
                seed: int = 2016) -> str:
    """Regenerate every experiment at the given scale."""
    parts = [
        f"SOFIA reproduction — full evaluation report "
        f"(scale={scale}, generated {time.strftime('%Y-%m-%d %H:%M:%S')})",
        "",
    ]
    parts.append(_section("E1 — Table I: hardware comparison",
                          table1().render()))
    parts.append(_section("E2 — ADPCM overheads (§IV-B)",
                          experiment_adpcm(scale).render()))
    parts.append(_section("E3/E4/E9 — security bounds + Monte-Carlo",
                          experiment_security(security_experiments).render()))
    parts.append(_section(
        "E6 — block-size ablation (Figs. 5/6)",
        render_blocksize(experiment_blocksize(scale, (6, 8)))))
    parts.append(_section(
        "E7 — multiplexor-tree fan-in (Fig. 9)",
        render_muxtree(experiment_muxtree((1, 2, 4, 8, 16)))))
    parts.append(_section("E8 — attack-detection matrix",
                          format_matrix(run_campaign(seed=seed))))
    parts.append(_section(
        "E10 — per-workload overheads (calibrated timing)",
        format_overhead_rows(
            experiment_workloads(scale, timing=LEON3_MINIMAL_TIMING))))
    workload = make_workload("crc32", scale)
    _, fault_summary = run_fault_campaign(
        workload.compile().program, DeviceKeys.from_seed(seed),
        workload.expected_output, per_model=fault_samples, seed=seed)
    parts.append(_section("E11 — fault-injection campaign (§V future work)",
                          fault_summary.render()))
    parts.append(_section("hardware design space — cipher unroll (§III)",
                          render_unroll(unroll_ablation())))
    return "\n".join(parts)


def write_report(path: str, scale: str = "tiny",
                 **kwargs) -> Optional[str]:
    """Generate and save the full report; returns the text."""
    text = full_report(scale=scale, **kwargs)
    atomic_write(path, text)
    return text
