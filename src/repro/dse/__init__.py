"""Design-space exploration over protection profiles (experiment E17).

The paper argues security and overhead at one design point; this package
turns the reproduction into a design-space explorer.  A profile grid
(2 ciphers x {32, 64, 96}-bit seals x renonce policies by default) fans
out through :mod:`repro.runner`, each point measuring workload overheads,
an empirical attack-synthesis detection rate and a fault campaign, and
the sweep exports a byte-deterministic Pareto table of cost vs security.

Entry points: :func:`run_dse` (library), ``repro dse`` (CLI),
``benchmarks/bench_dse_pareto.py`` (the E17 driver).
"""

from .campaign import (DEFAULT_PROGRAMS, DEFAULT_SCALE, DEFAULT_SEED,
                       DEFAULT_WORKLOADS, DesignPointRow, DseReport,
                       HwPointRow, run_dse)
from .grid import (default_grid, parse_grid, parse_profile_spec,
                   parse_profiles, resolve_profiles)
from .pareto import E17_SENSES, HW_SENSES, dominates, pareto_mask

__all__ = [
    "run_dse", "DseReport", "DesignPointRow", "HwPointRow",
    "DEFAULT_SEED", "DEFAULT_SCALE", "DEFAULT_WORKLOADS",
    "DEFAULT_PROGRAMS",
    "default_grid", "parse_grid", "parse_profiles", "parse_profile_spec",
    "resolve_profiles",
    "dominates", "pareto_mask",
    "E17_SENSES", "HW_SENSES",
]
