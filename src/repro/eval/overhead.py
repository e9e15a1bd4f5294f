"""Overhead measurement: one workload, both cores, all three paper metrics.

The paper's §IV-B reports three numbers for ADPCM, reproduced here for any
workload:

* **code size** — text-section bytes before/after transformation,
* **cycle overhead** — cycles on the SOFIA core vs the vanilla core,
* **total execution-time overhead** — cycle overhead compounded with the
  clock-frequency ratio from the hardware model (Table I):
  ``(1 + cycle_ovh) * (f_vanilla / f_sofia) - 1``.  With the paper's
  numbers this is exactly 1.137 * (92.3/50.1) - 1 = 1.095 ≈ 110 %.

Sweeps over many (workload, profile, timing) points are expressed as
:class:`OverheadPoint` task lists and dispatched via
:func:`measure_many` through :mod:`repro.runner`.  The sweep's dispatch
context holds its builds: each protected image is compiled, transformed
and encrypted once per distinct :attr:`OverheadPoint.build`, in the
dispatching process, and every point that only varies timing parameters
(e.g. the I-cache sweep) runs on the shared image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..crypto.keys import DEFAULT_KEY_SEED, DeviceKeys
from ..errors import SimulationError
from ..hwmodel.profilecost import table1
from ..isa.assembler import assemble
from ..isa.program import Executable
from ..runner import run_tasks_stored
from ..sim.sofia import SofiaMachine
from ..sim.timing import DEFAULT_TIMING, TimingParams
from ..sim.vanilla import VanillaMachine
from ..transform.image import SofiaImage
from ..transform.profile import DEFAULT_PROFILE, ProtectionProfile
from ..transform.transformer import transform
from ..workloads import Workload, make_workload

_DEFAULT_KEYS = DeviceKeys.from_seed(DEFAULT_KEY_SEED)

#: the image nonce and per-core instruction budget of every measurement
_NONCE = 0x2016
_MAX_INSTRUCTIONS = 50_000_000


@dataclass(frozen=True)
class OverheadRow:
    """All overhead metrics for one workload."""

    workload: str
    vanilla_bytes: int
    sofia_bytes: int
    vanilla_cycles: int
    sofia_cycles: int
    vanilla_instructions: int
    sofia_instructions: int
    clock_ratio: float
    blocks: int
    mux_blocks: int
    tree_nodes: int
    padding_nops: int

    @property
    def size_ratio(self) -> float:
        return self.sofia_bytes / self.vanilla_bytes

    @property
    def cycle_overhead(self) -> float:
        return self.sofia_cycles / self.vanilla_cycles - 1.0

    @property
    def exec_time_overhead(self) -> float:
        return (1.0 + self.cycle_overhead) * self.clock_ratio - 1.0


def _build(workload: Workload, keys: DeviceKeys, profile: ProtectionProfile
           ) -> Tuple[Workload, Executable, SofiaImage, DeviceKeys]:
    """Assemble and protect ``workload``: ``(workload, exe, image, keys)``.

    The keys come back provisioned for ``profile``; the workload
    compiles through its own memo.
    """
    keys = keys.for_profile(profile)
    program = workload.compile().program
    return (workload, assemble(program),
            transform(program, keys, nonce=_NONCE, profile=profile), keys)


def _run_both(workload: Workload, exe: Executable, image: SofiaImage,
              keys: DeviceKeys, timing: TimingParams) -> OverheadRow:
    """Run both cores against a prepared build and assemble the row."""
    vanilla = VanillaMachine(exe, timing).run(_MAX_INSTRUCTIONS)
    if vanilla.output_ints != workload.expected_output:
        raise SimulationError(
            f"{workload.name}: vanilla output {vanilla.output_ints} != "
            f"golden {workload.expected_output}")
    sofia = SofiaMachine(image, keys, timing).run(_MAX_INSTRUCTIONS)
    if sofia.output_ints != workload.expected_output:
        raise SimulationError(
            f"{workload.name}: SOFIA output {sofia.output_ints} != "
            f"golden {workload.expected_output} ({sofia.summary()})")
    clocks = table1()
    stats = image.stats
    return OverheadRow(
        workload=workload.name,
        vanilla_bytes=exe.code_size_bytes,
        sofia_bytes=image.code_size_bytes,
        vanilla_cycles=vanilla.cycles,
        sofia_cycles=sofia.cycles,
        vanilla_instructions=vanilla.instructions,
        sofia_instructions=sofia.instructions,
        clock_ratio=clocks.clock_ratio,
        blocks=stats.total_blocks,
        mux_blocks=stats.mux_blocks,
        tree_nodes=stats.tree_nodes,
        padding_nops=stats.padding_nops)


def measure_overhead(workload: Workload,
                     keys: Optional[DeviceKeys] = None,
                     timing: TimingParams = DEFAULT_TIMING,
                     profile: ProtectionProfile = DEFAULT_PROFILE
                     ) -> OverheadRow:
    """Compile, run on both cores, verify outputs, return the metrics.

    ``profile`` measures a non-default design point and provisions the
    keys for its cipher.
    """
    return _run_both(*_build(workload, keys or _DEFAULT_KEYS, profile),
                     timing)


@dataclass(frozen=True)
class OverheadPoint:
    """One (workload, build, timing) cell of an overhead sweep.

    Points are plain picklable values, so a sweep is a task list for
    :func:`repro.runner.run_tasks_stored`; points with equal
    :attr:`build` share one protected image.
    """

    workload: str
    scale: str = "small"
    timing: TimingParams = DEFAULT_TIMING
    profile: ProtectionProfile = DEFAULT_PROFILE

    @property
    def build(self) -> tuple:
        """Everything that determines the point's protected build."""
        return (self.workload, self.scale, self.profile)


def _sweep_builds(points: List[OverheadPoint]) -> Dict[tuple, tuple]:
    """One build per distinct point build, one workload per (name, scale)."""
    workloads: Dict[Tuple[str, str], Workload] = {}
    builds: Dict[tuple, tuple] = {}
    for build in dict.fromkeys(point.build for point in points):
        name, scale, profile = build
        if (name, scale) not in workloads:
            workloads[name, scale] = make_workload(name, scale)
        builds[build] = _build(workloads[name, scale], _DEFAULT_KEYS,
                               profile)
    return builds


def _measure_task(builds: Dict[tuple, tuple],
                  point: OverheadPoint) -> OverheadRow:
    return _run_both(*builds[point.build], point.timing)


def measure_many(points: List[OverheadPoint], *,
                 jobs: Optional[int] = 1) -> List[OverheadRow]:
    """Measure a sweep, one row per point, in point order.

    The sweep's builds are its dispatch context, made once in this
    process; ``jobs`` workers (``None``: one per CPU) inherit them and
    build nothing.  Rows are deterministic at any ``jobs``.
    """
    points = list(points)
    return run_tasks_stored(_measure_task, points, jobs=jobs,
                            context=lambda: _sweep_builds(points)).results


def format_overhead_rows(rows: List[OverheadRow]) -> str:
    header = (f"{'workload':<10s} {'size':>12s} {'ratio':>6s} "
              f"{'cycles(van)':>12s} {'cycles(sofia)':>13s} "
              f"{'cyc ovh':>8s} {'exec ovh':>9s}")
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.workload:<10s} {r.vanilla_bytes:>5d}->{r.sofia_bytes:<6d} "
            f"{r.size_ratio:>5.2f}x {r.vanilla_cycles:>12,d} "
            f"{r.sofia_cycles:>13,d} {r.cycle_overhead:>+7.1%} "
            f"{r.exec_time_overhead:>+8.1%}")
    return "\n".join(lines)
