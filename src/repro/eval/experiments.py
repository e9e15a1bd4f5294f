"""Experiment runners — one per paper table/figure (see DESIGN.md index).

Each function regenerates the rows of its experiment and returns structured
data; ``render_*`` helpers print the same rows the paper reports, side by
side with the published values where applicable.

Experiments that iterate over independent cells (workloads, block sizes,
cache sizes, Monte-Carlo batches) express the loop as a task list for
:mod:`repro.runner` and accept ``jobs``; every value returns identical
results, the default ``jobs=1`` running the same tasks in-process (the
CLI's ``--jobs N`` sets it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..crypto.keys import DeviceKeys
from ..hwmodel.design import Table1, UnrollPoint, table1, unroll_ablation
from ..isa.assembler import parse
from ..security.bounds import SecurityReport, security_report
from ..security.montecarlo import (ForgeryScaling, forgery_scaling,
                                   tamper_detection)
from ..sim.sofia import SofiaMachine
from ..sim.timing import DEFAULT_TIMING, LEON3_MINIMAL_TIMING, TimingParams
from ..transform.profile import ProtectionProfile, store_forbidden_slots
from ..transform.transformer import transform
from ..workloads import make_workload, workload_names
from .overhead import (OverheadPoint, OverheadRow, measure_many,
                       measure_overhead)

#: published §IV-B numbers for the ADPCM benchmark
PAPER_ADPCM = {
    "vanilla_bytes": 6_976,
    "sofia_bytes": 16_816,
    "size_ratio": 16_816 / 6_976,
    "vanilla_cycles": 114_188_673,
    "sofia_cycles": 130_840_013,
    "cycle_overhead": 130_840_013 / 114_188_673 - 1.0,
    "exec_time_overhead": 1.10,
}


# -- E1: Table I ------------------------------------------------------------

def experiment_table1() -> Table1:
    return table1()


# -- E2: ADPCM overheads (§IV-B) ----------------------------------------------

@dataclass(frozen=True)
class AdpcmComparison:
    measured: OverheadRow
    paper: Dict[str, float]

    def render(self) -> str:
        m, p = self.measured, self.paper
        return "\n".join([
            "ADPCM overheads (paper §IV-B)            measured      paper",
            f"  code size ratio                     {m.size_ratio:>8.2f}x"
            f"   {p['size_ratio']:>8.2f}x",
            f"  cycle overhead                      {m.cycle_overhead:>+8.1%}"
            f"   {p['cycle_overhead']:>+8.1%}",
            f"  total execution-time overhead       "
            f"{m.exec_time_overhead:>+8.1%}   {p['exec_time_overhead']:>+8.1%}",
        ])


def experiment_adpcm(scale: str = "small") -> AdpcmComparison:
    """E2 under the LEON3-minimal timing calibration.

    The paper's baseline runs at an effective CPI well above 5 (114.2 M
    cycles for ADPCM on a minimal LEON3 config); SOFIA's extra fetch slots
    are diluted accordingly.
    """
    row = measure_overhead(make_workload("adpcm", scale),
                           timing=LEON3_MINIMAL_TIMING)
    return AdpcmComparison(measured=row, paper=PAPER_ADPCM)


# -- E3/E4/E9: security -----------------------------------------------------------

@dataclass(frozen=True)
class SecurityExperiment:
    bounds: SecurityReport
    scaling: List[ForgeryScaling]
    escape_rate: float
    escape_expected: float

    def render(self) -> str:
        lines = [self.bounds.render(), "",
                 "Monte-Carlo forgery scaling (truncated MACs):",
                 f"{'bits':>5s} {'mean trials':>12s} {'2^(n-1)':>10s} "
                 f"{'ratio':>6s}"]
        for s in self.scaling:
            lines.append(f"{s.bits:>5d} {s.mean_trials:>12.1f} "
                         f"{s.expected_trials:>10.1f} {s.ratio:>6.2f}")
        lines.append(f"tamper escape rate (8-bit MAC): "
                     f"{self.escape_rate:.4f} (expected "
                     f"{self.escape_expected:.4f})")
        return "\n".join(lines)


def experiment_security(experiments: int = 200,
                        jobs: Optional[int] = 1) -> SecurityExperiment:
    escape = tamper_detection(bits=8, jobs=jobs)
    return SecurityExperiment(
        bounds=security_report(),
        scaling=forgery_scaling(experiments=experiments, jobs=jobs),
        escape_rate=escape.escape_rate,
        escape_expected=escape.expected_rate)


# -- E6: block-size ablation (Figs. 5/6) ----------------------------------------

@dataclass(frozen=True)
class BlockSizePoint:
    block_words: int
    exec_capacity: int
    store_forbidden: tuple
    row: OverheadRow


def experiment_blocksize(scale: str = "small",
                         block_words: Sequence[int] = (6, 8),
                         workload: str = "adpcm",
                         jobs: Optional[int] = 1) -> List[BlockSizePoint]:
    """Rebuild the binary at several block sizes (Fig. 5 vs Fig. 6).

    6-word blocks (4 instructions) fit entirely before the MA stage — no
    store restriction; 8-word blocks (6 instructions) forbid stores in the
    first two slots but amortize the MAC words over more instructions.
    """
    profiles = [ProtectionProfile(block_words=bw) for bw in block_words]
    rows = measure_many(
        [OverheadPoint(workload=workload, scale=scale, profile=profile)
         for profile in profiles],
        jobs=jobs)
    return [BlockSizePoint(
        block_words=profile.block_words,
        exec_capacity=profile.exec_capacity,
        store_forbidden=store_forbidden_slots(profile.exec_capacity),
        row=row)
        for profile, row in zip(profiles, rows)]


def render_blocksize(points: List[BlockSizePoint]) -> str:
    lines = ["Block-size ablation (Figs. 5/6)",
             f"{'words':>6s} {'insts':>6s} {'store-forbidden':>16s} "
             f"{'size':>7s} {'cyc ovh':>8s}"]
    for p in points:
        lines.append(f"{p.block_words:>6d} {p.exec_capacity:>6d} "
                     f"{str(list(p.store_forbidden)):>16s} "
                     f"{p.row.size_ratio:>6.2f}x "
                     f"{p.row.cycle_overhead:>+8.1%}")
    return "\n".join(lines)


# -- E7: multiplexor-tree fan-in (Figs. 7/8/9) ------------------------------------

@dataclass(frozen=True)
class FanInPoint:
    fan_in: int
    tree_nodes: int
    mux_blocks: int
    code_bytes: int
    cycles: int


def _fan_in_program(k: int) -> str:
    calls = "\n".join("    call lib" for _ in range(k))
    return f"""
main:
{calls}
    halt
lib:
    addi a0, a0, 1
    ret
"""


def experiment_muxtree(fan_ins: Sequence[int] = (1, 2, 4, 8, 16, 32)
                       ) -> List[FanInPoint]:
    """Cost of multiplexor trees vs number of callers (paper Fig. 9)."""
    keys = DeviceKeys.from_seed(7)
    points = []
    for k in fan_ins:
        program = parse(_fan_in_program(k))
        image = transform(program, keys, nonce=k + 1)
        result = SofiaMachine(image, keys).run()
        assert result.ok, result.summary()
        stats = image.stats
        points.append(FanInPoint(
            fan_in=k, tree_nodes=stats.tree_nodes,
            mux_blocks=stats.mux_blocks,
            code_bytes=image.code_size_bytes, cycles=result.cycles))
    return points


def render_muxtree(points: List[FanInPoint]) -> str:
    lines = ["Multiplexor-tree cost vs fan-in (Fig. 9)",
             f"{'callers':>8s} {'tree nodes':>11s} {'mux blocks':>11s} "
             f"{'code bytes':>11s} {'cycles':>8s}"]
    for p in points:
        lines.append(f"{p.fan_in:>8d} {p.tree_nodes:>11d} "
                     f"{p.mux_blocks:>11d} {p.code_bytes:>11d} "
                     f"{p.cycles:>8d}")
    return "\n".join(lines)


# -- E10: workload sweep -----------------------------------------------------------

def experiment_workloads(scale: str = "small",
                         timing: TimingParams = DEFAULT_TIMING,
                         jobs: Optional[int] = 1) -> List[OverheadRow]:
    return measure_many(
        [OverheadPoint(workload=name, scale=scale, timing=timing)
         for name in workload_names()],
        jobs=jobs)


# -- E14: I-cache sensitivity ---------------------------------------------------

@dataclass(frozen=True)
class CachePoint:
    lines: int
    cache_bytes: int
    row: OverheadRow


def experiment_cache(scale: str = "tiny",
                     line_counts: Sequence[int] = (8, 32, 128, 512),
                     workload: str = "adpcm",
                     jobs: Optional[int] = 1) -> List[CachePoint]:
    """Cycle overhead vs I-cache size.

    SOFIA's ~2x code footprint stresses the I-cache harder than the
    vanilla binary, so small caches amplify the overhead — a deployment
    consideration the paper's single minimal configuration doesn't show.
    All points share one protected build, made once as the sweep's
    dispatch context.
    """
    rows = measure_many(
        [OverheadPoint(workload=workload, scale=scale,
                       timing=TimingParams(icache_lines=lines))
         for lines in line_counts],
        jobs=jobs)
    return [CachePoint(lines=lines, cache_bytes=lines * 32, row=row)
            for lines, row in zip(line_counts, rows)]


def render_cache(points: List[CachePoint]) -> str:
    lines = ["I-cache sensitivity (cycle overhead vs cache size)",
             f"{'lines':>6s} {'bytes':>7s} {'van cycles':>11s} "
             f"{'sofia cycles':>13s} {'cyc ovh':>8s}"]
    for p in points:
        lines.append(f"{p.lines:>6d} {p.cache_bytes:>7d} "
                     f"{p.row.vanilla_cycles:>11,d} "
                     f"{p.row.sofia_cycles:>13,d} "
                     f"{p.row.cycle_overhead:>+8.1%}")
    return "\n".join(lines)


# -- hardware ablation -------------------------------------------------------------

def experiment_unroll() -> List[UnrollPoint]:
    return unroll_ablation()


def render_unroll(points: List[UnrollPoint]) -> str:
    lines = ["Cipher unroll ablation (design choice, §III)",
             f"{'unroll':>7s} {'slices':>7s} {'MHz':>7s} "
             f"{'cipher cyc':>11s} {'fetch ok':>9s}"]
    for p in points:
        lines.append(f"{p.unroll:>7d} {p.slices:>7d} {p.clock_mhz:>7.1f} "
                     f"{p.cipher_cycles:>11d} "
                     f"{'yes' if p.sustains_fetch else 'no':>9s}")
    return "\n".join(lines)
