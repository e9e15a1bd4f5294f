"""Attack campaign harness: run every attack against every defense.

Outcome classification (the attacker's goal is the actuator write, the
defender's goal is to prevent *any* effect of tampered code):

``DETECTED``   the defense stopped the program deliberately (SOFIA reset)
``CRASHED``    the attack derailed execution without a guarantee
               (illegal-instruction trap, bus error) — typical for ISR
``HIJACKED``   the actuator received the unlock value
``CORRUPTED``  the program "completed" but produced wrong output
``NO_EFFECT``  output identical to the benign run

The campaign is a task matrix (attack x target) dispatched through
:mod:`repro.runner`: each cell applies one attack to a fresh machine, so
cells are independent and ``run_campaign(jobs=N)`` fans
them across worker processes.  The four targets, built and checked once
in the parent, are the dispatch's context: workers inherit them
through the fork, and results return in matrix order, making parallel
outcomes identical to serial ones.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..runner import (campaign_record, resolve_jobs, run_tasks_stored,
                      write_campaign)
from ..sim.result import Status
from .actions import ATTACKS, Attack
from .systems import Target, build_targets
from .victim import BENIGN_OUTPUT, UNLOCK_VALUE, victim_program

_MAX_INSTRUCTIONS = 200_000


class Outcome(enum.Enum):
    DETECTED = "detected"
    CRASHED = "crashed"
    HIJACKED = "hijacked"
    CORRUPTED = "corrupted"
    NO_EFFECT = "no-effect"


@dataclass
class AttackResult:
    attack: str
    category: str
    target: str
    outcome: Outcome
    status: Status
    detail: str = ""


def classify(result, benign_output: List[int]) -> Outcome:
    mmio = result.mmio
    if mmio is not None and UNLOCK_VALUE in mmio.actuator:
        return Outcome.HIJACKED
    if result.status is Status.RESET:
        return Outcome.DETECTED
    if result.status is Status.TRAP:
        return Outcome.CRASHED
    if result.output_ints != benign_output:
        return Outcome.CORRUPTED
    return Outcome.NO_EFFECT


def run_attack(attack: Attack, target: Target) -> AttackResult:
    """Apply one attack to a fresh instance of one target and classify."""
    machine = target.make()
    attack.apply(machine, target)
    result = machine.run(max_instructions=_MAX_INSTRUCTIONS)
    outcome = classify(result, BENIGN_OUTPUT)
    detail = ""
    if result.violation is not None:
        detail = str(result.violation)
    elif result.trap_reason:
        detail = result.trap_reason
    return AttackResult(attack=attack.name, category=attack.category,
                        target=target.name, outcome=outcome,
                        status=result.status, detail=detail)


def verify_benign(targets: List[Target]) -> None:
    """Sanity check: every clean target produces the benign output."""
    for target in targets:
        result = target.make().run(max_instructions=_MAX_INSTRUCTIONS)
        if result.output_ints != BENIGN_OUTPUT or not result.ok:
            raise AssertionError(
                f"clean run of {target.name} broken: {result.summary()} "
                f"output={result.output_ints}")


def _attack_task(targets: Dict[str, Target],
                 task: Tuple[int, str]) -> AttackResult:
    attack_index, target_name = task
    return run_attack(ATTACKS[attack_index], targets[target_name])


def run_campaign(seed: int = 1337, jobs: Optional[int] = 1,
                 export_path=None) -> List[AttackResult]:
    """The full matrix: every attack against every defense.

    Each (attack, target) cell starts from a fresh machine, so the matrix
    parallelizes cell-by-cell across ``jobs`` worker processes (``1``
    runs in-process, ``None`` uses one per CPU) with results in matrix
    order (identical to the serial traversal).  ``export_path`` writes
    the campaign as JSON.
    """
    started = time.perf_counter()
    targets = build_targets(victim_program(), seed=seed)
    verify_benign(targets)
    tasks = [(attack_index, target.name)
             for attack_index in range(len(ATTACKS))
             for target in targets]
    results = run_tasks_stored(
        _attack_task, tasks, jobs=jobs,
        context=lambda: {t.name: t for t in targets}).results
    if export_path is not None:
        write_campaign(export_path, campaign_record(
            "attack-matrix",
            {"seed": seed, "attacks": [a.name for a in ATTACKS],
             "targets": [t.name for t in targets]},
            results, jobs=resolve_jobs(jobs),
            elapsed_seconds=time.perf_counter() - started))
    return results


def campaign_matrix(results: List[AttackResult]) -> Dict[str, Dict[str, str]]:
    """attack -> target -> outcome string (for table rendering)."""
    matrix: Dict[str, Dict[str, str]] = {}
    for r in results:
        matrix.setdefault(r.attack, {})[r.target] = r.outcome.value
    return matrix


def format_matrix(results: List[AttackResult]) -> str:
    """Render the campaign as the E8 text table."""
    targets = sorted({r.target for r in results})
    matrix = campaign_matrix(results)
    width = max(len(t) for t in targets) + 2
    name_width = max(len(a) for a in matrix) + 2
    lines = ["".ljust(name_width) + "".join(t.ljust(width + 8) for t in targets)]
    for attack in matrix:
        row = attack.ljust(name_width)
        for target in targets:
            row += matrix[attack].get(target, "-").ljust(width + 8)
        lines.append(row)
    return "\n".join(lines)
