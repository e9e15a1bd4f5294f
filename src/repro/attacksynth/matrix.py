"""The detection matrix: attack family x target -> outcome counts.

The matrix is the campaign's figure-ready aggregate (experiment E16): it
generalizes the hand-written attack table (E8) from one victim to the
whole program space the fuzz generators cover.  Cells count observed
outcomes; ``hijacked`` additionally counts runs whose actuator received
the unlock value (a subset of the survived/crashed cells).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .model import (FAMILIES, OBSERVED, OBS_CRASHED, OBS_DETECTED,
                    OBS_LIMIT, OBS_NA, OBS_SURVIVED_CLEAN,
                    OBS_SURVIVED_DIVERGENT, TARGET_ECB, TARGET_SOFIA,
                    TARGET_VANILLA, TARGET_XOR)

#: canonical column order
_TARGET_ORDER = (TARGET_SOFIA, TARGET_VANILLA, TARGET_XOR, TARGET_ECB)

#: matrix-cell outcome -> CSV column name
_CSV_FIELD = {
    OBS_DETECTED: "detected",
    OBS_CRASHED: "crashed",
    OBS_SURVIVED_CLEAN: "survived_clean",
    OBS_SURVIVED_DIVERGENT: "survived_divergent",
    OBS_LIMIT: "limit",
    OBS_NA: "not_applicable",
}


class DetectionMatrix:
    """Accumulates (family, target, outcome) observations."""

    def __init__(self) -> None:
        self._cells: Dict[Tuple[str, str], Dict[str, int]] = {}
        self._hijacked: Dict[Tuple[str, str], int] = {}

    def observe(self, family: str, target: str, outcome: str,
                hijacked: bool = False) -> None:
        cell = self._cells.setdefault((family, target),
                                      {o: 0 for o in OBSERVED})
        cell[outcome] = cell.get(outcome, 0) + 1
        if hijacked:
            key = (family, target)
            self._hijacked[key] = self._hijacked.get(key, 0) + 1

    def families(self) -> List[str]:
        present = {family for family, _ in self._cells}
        ordered = [f for f in FAMILIES if f in present]
        return ordered + sorted(present - set(FAMILIES))

    def targets(self) -> List[str]:
        present = {target for _, target in self._cells}
        ordered = [t for t in _TARGET_ORDER if t in present]
        return ordered + sorted(present - set(_TARGET_ORDER))

    def cell(self, family: str, target: str) -> Dict[str, int]:
        return dict(self._cells.get((family, target),
                                    {o: 0 for o in OBSERVED}))

    def total(self, family: str, target: str) -> int:
        return sum(self._cells.get((family, target), {}).values())

    def hijack_count(self, family: str, target: str) -> int:
        return self._hijacked.get((family, target), 0)

    def csv_rows(self) -> List[Dict[str, int]]:
        """Rows for the E16 CSV
        (:data:`repro.eval.export.ATTACKSYNTH_CSV_HEADER`)."""
        rows = []
        for family in self.families():
            for target in self.targets():
                if (family, target) not in self._cells:
                    continue
                cell = self.cell(family, target)
                row = {"family": family, "target": target,
                       "hijacked": self.hijack_count(family, target),
                       "total": self.total(family, target)}
                for outcome, field in _CSV_FIELD.items():
                    row[field] = cell.get(outcome, 0)
                rows.append(row)
        return rows

    def to_record(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """Nested dict for the canonical JSON export (family>target)."""
        record: Dict[str, Dict[str, Dict[str, int]]] = {}
        for family in self.families():
            record[family] = {}
            for target in self.targets():
                if (family, target) not in self._cells:
                    continue
                cell = {outcome: count
                        for outcome, count in self.cell(family,
                                                        target).items()
                        if count}
                cell["hijacked"] = self.hijack_count(family, target)
                cell["total"] = self.total(family, target)
                record[family][target] = cell
        return record

    def render(self) -> str:
        """Human-readable table, one line per populated cell."""
        header = (f"{'family':<18} {'target':<9} {'det':>5} {'crash':>5} "
                  f"{'clean':>5} {'diverg':>6} {'limit':>5} {'hijack':>6} "
                  f"{'total':>5}")
        lines = [header, "-" * len(header)]
        for family in self.families():
            for target in self.targets():
                if (family, target) not in self._cells:
                    continue
                cell = self.cell(family, target)
                if self.total(family, target) == cell[OBS_NA]:
                    continue  # the family has no analogue on this target
                lines.append(
                    f"{family:<18} {target:<9} "
                    f"{cell[OBS_DETECTED]:>5} {cell[OBS_CRASHED]:>5} "
                    f"{cell[OBS_SURVIVED_CLEAN]:>5} "
                    f"{cell[OBS_SURVIVED_DIVERGENT]:>6} "
                    f"{cell[OBS_LIMIT]:>5} "
                    f"{self.hijack_count(family, target):>6} "
                    f"{self.total(family, target):>5}")
        return "\n".join(lines)
