"""Pareto-front computation over design points (experiment E17/E20).

A design point is *dominated* when another point is at least as good on
every objective and strictly better on at least one.  "Good" is defined
per objective by an explicit **sense tuple** — one ``"min"``/``"max"``
entry per objective position — instead of a hardcoded ordering, so the
same machinery serves both fronts:

* :data:`E17_SENSES` ``("min", "min", "max")`` — minimize mean cycle
  overhead, minimize mean code-size ratio, maximize the §IV-A
  online-forgery bound (the classic E17 objectives, and the default);
* :data:`HW_SENSES` ``("min", "max", "min")`` — minimize cycle
  overhead, maximize the forgery bound, minimize the hardware
  area-delay product (the unified E17+hardware front).

The front is computed on exact values (no tolerance): two points that tie
on every objective dominate each other on none, so both survive — which
is what a sweep wants when, say, two ciphers yield identical overheads at
the same seal width.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

#: per-objective optimization direction, one entry per objective position
Senses = Tuple[str, ...]

#: the classic E17 objectives: (cycle_overhead, size_ratio, si_years)
E17_SENSES: Senses = ("min", "min", "max")

#: the unified E17+hardware objectives (experiment E20):
#: (cycle_overhead, si_years, area_delay)
HW_SENSES: Senses = ("min", "max", "min")

#: objective vector (arity must match the sense tuple in use)
Objectives = Tuple[float, ...]


def _check_senses(senses: Senses, arity: int) -> None:
    if len(senses) != arity:
        raise ValueError(f"{arity} objectives need {arity} senses, "
                         f"got {len(senses)}: {senses!r}")
    for sense in senses:
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', "
                             f"got {sense!r}")


def dominates(a: Objectives, b: Objectives,
              senses: Senses = E17_SENSES) -> bool:
    """True when ``a`` Pareto-dominates ``b`` under ``senses``."""
    if len(a) != len(b):
        raise ValueError(f"objective arity mismatch: {len(a)} vs {len(b)}")
    _check_senses(senses, len(a))
    no_worse = all(x <= y if sense == "min" else x >= y
                   for x, y, sense in zip(a, b, senses))
    strictly_better = any(x < y if sense == "min" else x > y
                          for x, y, sense in zip(a, b, senses))
    return no_worse and strictly_better


def pareto_mask(points: Sequence[Objectives],
                senses: Senses = E17_SENSES) -> List[bool]:
    """Non-domination flags, one per point, in input order."""
    if points:
        _check_senses(senses, len(points[0]))
    return [not any(dominates(other, point, senses)
                    for j, other in enumerate(points) if j != i)
            for i, point in enumerate(points)]
