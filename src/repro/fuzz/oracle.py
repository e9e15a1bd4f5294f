"""Differential oracles: one specimen, four runs, every observable.

``run_oracle`` drives a specimen through protect → {vanilla, SOFIA} x
{reference, fast} and flags *any* observable disagreement:

* **engine axes** (``vanilla-engine``, ``sofia-engine``) — the two
  engines of one machine must be bit-identical in every
  ``ExecutionResult`` field (status, cycles, instructions, exit code,
  I-cache hits/misses, block/MAC accounting, violations, traps) *and*
  in final registers, PC and data RAM.  This is the PR 2 lockstep
  contract applied to generated programs.
* **cross-core axis** (``cross-core``) — the SOFIA build must preserve
  the vanilla program's semantics: same termination status, same
  console output (ints, text, raw words), same actuator writes, same
  exit code.  Registers, PC and raw stack bytes are *excluded* here by
  design: the transformed layout legally changes code addresses, which
  leak into ``ra`` and into spilled return addresses.
* **verdict axis** (``verdict``) — generated specimens are valid by
  construction, so any SOFIA detection (reset) or any trap/budget
  exhaustion on either core is itself a finding.

The optional **baseline axis** runs the XOR/ECB ISR machines' engine
pairs over the same executable — SRISC has no interrupts, so these
fetch-path variants stand in for the paper's interrupt-enabled builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..crypto.keys import DeviceKeys
from ..errors import ReproError
from ..isa.assembler import assemble, parse
from ..isa.program import AsmProgram
from ..sim.sofia import SofiaMachine
from ..sim.timing import DEFAULT_TIMING, TimingParams
from ..sim.vanilla import VanillaMachine
from ..transform.config import TransformConfig
from ..transform.transformer import transform
from .coverage import (image_features, outcome_features, overhead_feature,
                       program_features)
from .generators import Specimen

#: step budgets: a valid specimen finishes well below these; hitting one
#: is reported as a finding, not silently classified as "slow"
VANILLA_BUDGET = 200_000
SOFIA_BUDGET = 800_000


@dataclass(frozen=True)
class Divergence:
    """One observable disagreement between two runs of a specimen."""

    axis: str     # "vanilla-engine" | "sofia-engine" | "cross-core" |
                  # "verdict" | "build" | "baseline-xor" | "baseline-ecb"
    observable: str   # "status" | "regs" | "ram" | "cycles" | ...
    detail: str

    def render(self) -> str:
        return f"[{self.axis}/{self.observable}] {self.detail}"


@dataclass
class OracleReport:
    """Everything the campaign needs back from one specimen run."""

    specimen: Specimen
    divergences: List[Divergence] = field(default_factory=list)
    features: List[str] = field(default_factory=list)
    vanilla_status: str = ""
    sofia_status: str = ""
    instructions: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences


def _result_fields(result) -> Tuple:
    """The bit-identical ``ExecutionResult`` contract, as one tuple."""
    return (result.status, result.cycles, result.instructions,
            result.exit_code, result.icache.hits, result.icache.misses,
            result.blocks_executed, result.mac_fetch_cycles,
            result.output_ints, result.output_text, result.trap_reason,
            str(result.violation) if result.violation else None)


_FIELD_NAMES = ("status", "cycles", "instructions", "exit_code",
                "icache_hits", "icache_misses", "blocks_executed",
                "mac_fetch_cycles", "output_ints", "output_text",
                "trap_reason", "violation")


def _compare_engines(axis: str, make_machine, budget: int,
                     divergences: List[Divergence]):
    """Run the reference oracle against the fast engine of one machine;
    flag every differing observable.

    Returns the fast run's (machine, result) — the pair the rest of the
    oracle keeps reasoning about.
    """
    fast = make_machine("fast")
    fast_result = fast.run(max_instructions=budget)
    ref = make_machine("reference")
    ref_result = ref.run(max_instructions=budget)
    for name, a, b in zip(_FIELD_NAMES, _result_fields(ref_result),
                          _result_fields(fast_result)):
        if a != b:
            divergences.append(Divergence(
                axis, name, f"reference={a!r} fast={b!r}"))
    if ref.state.regs != fast.state.regs:
        delta = [i for i in range(32)
                 if ref.state.regs[i] != fast.state.regs[i]]
        divergences.append(Divergence(
            axis, "regs", f"registers differ at {delta}"))
    if ref.state.pc != fast.state.pc:
        divergences.append(Divergence(
            axis, "pc",
            f"reference=0x{ref.state.pc:08x} fast=0x{fast.state.pc:08x}"))
    if ref.memory.ram != fast.memory.ram:
        first = next(
            i for i, (x, y) in
            enumerate(zip(ref.memory.ram, fast.memory.ram)) if x != y)
        divergences.append(Divergence(
            axis, "ram", f"data RAM differs from byte offset {first}"))
    return fast, fast_result


def build_program(specimen: Specimen) -> AsmProgram:
    """Lower a specimen to a parsed program (asm directly, C via minicc)."""
    if specimen.language == "c":
        from ..cc import compile_source
        return compile_source(specimen.source).program
    return parse(specimen.source)


def run_oracle(specimen: Specimen, keys: DeviceKeys,
               timing: TimingParams = DEFAULT_TIMING,
               include_baselines: bool = False,
               vanilla_budget: int = VANILLA_BUDGET,
               sofia_budget: int = SOFIA_BUDGET) -> OracleReport:
    """The full differential pipeline for one specimen.

    The budgets exist for the minimizer: a reduced candidate can loop
    forever, so reduction probes run with budgets scaled to the
    original failure instead of the full campaign budgets.
    """
    report = OracleReport(specimen=specimen)
    genome = specimen.genome
    try:
        program = build_program(specimen)
        executable = assemble(program)
        image = transform(program, keys, nonce=genome.nonce,
                          config=TransformConfig(
                              block_words=genome.block_words))
    except ReproError as exc:
        # a generated specimen must always build — this is a generator
        # or toolchain bug, and exactly what the fuzzer exists to catch
        report.divergences.append(Divergence(
            "build", "toolchain", f"{type(exc).__name__}: {exc}"))
        return report

    report.features.extend(program_features(program.instructions))
    report.features.extend(image_features(image, timing.icache_line_words))

    divergences = report.divergences
    _, vanilla = _compare_engines(
        "vanilla-engine",
        lambda engine: VanillaMachine(executable, timing, engine=engine),
        vanilla_budget, divergences)
    _, sofia = _compare_engines(
        "sofia-engine",
        lambda engine: SofiaMachine(image, keys, timing, engine=engine),
        sofia_budget, divergences)

    report.vanilla_status = vanilla.status.value
    report.sofia_status = sofia.status.value
    report.instructions = vanilla.instructions + sofia.instructions
    report.features.extend(outcome_features("van", vanilla))
    report.features.extend(outcome_features("sofia", sofia))
    report.features.append(overhead_feature(vanilla.cycles, sofia.cycles))

    # verdict axis: a valid program must terminate cleanly on both cores
    if not vanilla.ok:
        divergences.append(Divergence(
            "verdict", "vanilla-status",
            f"valid specimen ended {vanilla.summary()}"))
    if not sofia.ok:
        detail = sofia.summary()
        if sofia.detected:
            detail = f"false detection: {sofia.violation}"
        divergences.append(Divergence("verdict", "sofia-status", detail))

    # cross-core axis: protection must preserve program semantics
    if vanilla.ok and sofia.ok:
        checks = (
            ("status", vanilla.status, sofia.status),
            ("output_ints", vanilla.output_ints, sofia.output_ints),
            ("output_text", vanilla.output_text, sofia.output_text),
            ("output_words", vanilla.mmio.words, sofia.mmio.words),
            ("actuator", vanilla.mmio.actuator, sofia.mmio.actuator),
            ("exit_code", vanilla.exit_code, sofia.exit_code),
        )
        for name, a, b in checks:
            if a != b:
                divergences.append(Divergence(
                    "cross-core", name, f"vanilla={a!r} sofia={b!r}"))

    if include_baselines:
        from ..baselines import EcbIsrMachine, XorIsrMachine
        _compare_engines(
            "baseline-xor",
            lambda engine: XorIsrMachine(executable, 0xA5A5F00D,
                                         engine=engine),
            vanilla_budget, divergences)
        _compare_engines(
            "baseline-ecb",
            lambda engine: EcbIsrMachine(executable, 0xBEEF2016CAFE,
                                         engine=engine),
            vanilla_budget, divergences)
    return report


def reproduces_axis(specimen: Specimen, keys: DeviceKeys, axis: str,
                    vanilla_budget: int = VANILLA_BUDGET,
                    sofia_budget: int = SOFIA_BUDGET,
                    timing: TimingParams = DEFAULT_TIMING) -> bool:
    """Does the specimen still diverge on ``axis``?  (Minimizer probe.)

    Engine axes only build and run the machines they compare — a
    ``vanilla-engine`` probe never pays for transform + encryption, a
    ``sofia-engine`` probe skips the vanilla pair — which is what makes
    line-wise reduction affordable.  Other axes fall back to the full
    oracle.
    """
    if axis == "vanilla-engine":
        try:
            executable = assemble(build_program(specimen))
        except ReproError:
            return False
        divergences: List[Divergence] = []
        _compare_engines(
            axis,
            lambda engine: VanillaMachine(executable, timing, engine=engine),
            vanilla_budget, divergences)
        return bool(divergences)
    if axis == "sofia-engine":
        genome = specimen.genome
        try:
            image = transform(build_program(specimen), keys,
                              nonce=genome.nonce,
                              config=TransformConfig(
                                  block_words=genome.block_words))
        except ReproError:
            return False
        divergences = []
        _compare_engines(
            axis,
            lambda engine: SofiaMachine(image, keys, timing, engine=engine),
            sofia_budget, divergences)
        return bool(divergences)
    try:
        report = run_oracle(specimen, keys, timing,
                            vanilla_budget=vanilla_budget,
                            sofia_budget=sofia_budget)
    except ReproError:
        return False
    return any(d.axis == axis for d in report.divergences)
