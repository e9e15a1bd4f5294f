"""Failure minimization and triage for divergent specimens.

The minimizer is a line-wise greedy delta reducer over *assembly* source
(mini-C failures are first lowered through their compiled assembly, so
one reducer serves both languages): repeatedly try deleting each
instruction line and keep the deletion when the reduced program still
(a) builds and (b) reproduces a divergence on the same oracle axis.
Labels and directives are only deleted together with the instruction
they annotate — candidates that stop assembling or transforming are
simply skipped, so every intermediate stays a valid specimen.

Running to a fixpoint makes the result 1-minimal (no single remaining
line can be removed) and therefore idempotent — re-minimizing a minimal
specimen returns it unchanged, which ``tests/test_fuzz.py`` pins.

``triage`` packages a failure into the on-disk artifact a human (or CI)
picks up: the genome to replay, the axis/observable/detail of every
divergence, and the original + minimized sources.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Callable, List, Optional

from ..crypto.keys import DeviceKeys
from ..errors import ReproError
from ..runner.export import atomic_write
from .corpus import specimen_sha
from .generators import Specimen
from .oracle import OracleReport, reproduces_axis


def _asm_source(specimen: Specimen) -> str:
    """The specimen's assembly view (compile mini-C once, then reduce)."""
    if specimen.language == "c":
        from ..cc import compile_source
        return compile_source(specimen.source).asm_text
    return specimen.source


def _reduced(specimen: Specimen, source: str) -> Specimen:
    return Specimen(genome=specimen.genome, language="asm", source=source)


#: ceiling on reduction probes per failure; a cap this size is only
#: reached by pathological specimens, where a partially reduced result
#: beats an unbounded search
DEFAULT_MAX_EVALS = 600

#: probe budgets scale with the original failing run (a deleted line can
#: turn a terminating specimen into an endless loop; such candidates
#: must be abandoned after a bounded, small number of steps)
_BUDGET_FLOOR = 4_000
_BUDGET_SCALE = 8


def probe_budgets(instructions: int) -> "tuple[int, int]":
    """(vanilla, sofia) step budgets for reduction probes."""
    vanilla = max(_BUDGET_FLOOR, _BUDGET_SCALE * max(1, instructions))
    return vanilla, 4 * vanilla


def minimize(specimen: Specimen, keys: DeviceKeys, axis: str,
             check: Optional[Callable[[Specimen], bool]] = None,
             instructions: int = 0,
             max_evals: int = DEFAULT_MAX_EVALS) -> Specimen:
    """Greedily shrink a failing specimen while ``axis`` still diverges.

    ``check`` overrides the reproduction predicate (tests use this to
    minimize against a planted bug without a full oracle run);
    ``instructions`` is the original failure's dynamic length, used to
    scale the probe budgets.  Within ``max_evals`` probes the result is
    1-minimal and therefore idempotent.
    """
    vanilla_budget, sofia_budget = probe_budgets(instructions)
    fails = check if check is not None else (
        lambda candidate: reproduces_axis(candidate, keys, axis,
                                          vanilla_budget, sofia_budget))
    evals = [0]

    def budgeted_fails(candidate: Specimen) -> bool:
        if evals[0] >= max_evals:
            return False
        evals[0] += 1
        return fails(candidate)

    current = _asm_source(specimen)
    if not budgeted_fails(_reduced(specimen, current)):
        return _reduced(specimen, current)  # not reproducible post-lowering
    changed = True
    while changed and evals[0] < max_evals:
        changed = False
        lines = current.splitlines()
        index = 0
        while index < len(lines):
            line = lines[index].strip()
            if not line or line.endswith(":") or line.startswith("."):
                index += 1  # labels/directives ride with their users
                continue
            candidate_lines = lines[:index] + lines[index + 1:]
            candidate = "\n".join(candidate_lines) + "\n"
            if budgeted_fails(_reduced(specimen, candidate)):
                lines = candidate_lines
                current = candidate
                changed = True
            else:
                index += 1
    return _reduced(specimen, current)


@dataclasses.dataclass
class TriageRecord:
    """The replay-ready description of one confirmed failure.

    ``language`` describes ``original_source``; ``minimized_language``
    describes ``minimized_source`` — a reduced mini-C failure is
    replayed as *assembly* (the reducer works on the lowered program).
    """

    sha: str
    genome: dict
    language: str
    divergences: List[dict]
    original_source: str
    minimized_source: str
    original_lines: int
    minimized_lines: int
    minimized_language: str = "asm"

    def render(self) -> str:
        lines = [f"specimen {self.sha} ({self.language}, "
                 f"shape={self.genome['shape']}, seed={self.genome['seed']})",
                 f"reduced {self.original_lines} -> "
                 f"{self.minimized_lines} lines"]
        for record in self.divergences:
            lines.append(f"  [{record['axis']}/{record['observable']}] "
                         f"{record['detail']}")
        lines.append("--- minimized specimen ---")
        lines.append(self.minimized_source.rstrip())
        return "\n".join(lines) + "\n"


def triage(report: OracleReport, keys: DeviceKeys,
           do_minimize: bool = True) -> TriageRecord:
    """Minimize a failing report and build its triage record."""
    specimen = report.specimen
    sha = specimen_sha(specimen.language, specimen.source)
    minimized = specimen
    if do_minimize and report.divergences:
        minimized = minimize(specimen, keys, report.divergences[0].axis,
                             instructions=report.instructions)
    # line counts compare like with like: the reducer works on the
    # assembly view, so a minimized mini-C failure reports its lowered
    # size (an untouched specimen keeps its own line count)
    original_lines = len(specimen.source.splitlines())
    if minimized.language != specimen.language:
        try:
            original_lines = len(_asm_source(specimen).splitlines())
        except ReproError:
            pass
    return TriageRecord(
        sha=sha,
        genome=dataclasses.asdict(specimen.genome),
        language=specimen.language,
        divergences=[dataclasses.asdict(d) for d in report.divergences],
        original_source=specimen.source,
        minimized_source=minimized.source,
        original_lines=original_lines,
        minimized_lines=len(minimized.source.splitlines()),
        minimized_language=minimized.language)


def write_triage(record: TriageRecord, root) -> Path:
    """Persist one triage artifact pair (JSON + readable text)."""
    directory = Path(root)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"triage-{record.sha}.json"
    atomic_write(path,
                 json.dumps(dataclasses.asdict(record), indent=2) + "\n")
    atomic_write(directory / f"triage-{record.sha}.txt", record.render())
    return path
