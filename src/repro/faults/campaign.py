"""Fault-injection campaign runner (experiment E11, paper §V future work).

For each fault specimen the campaign runs a fresh protected machine up to
the trigger instant, injects, resumes, and classifies the outcome:

``DETECTED``  the SOFIA core reset (violation before any effect),
``MASKED``    the run completed with the golden output (fault absorbed),
``SDC``       silent data corruption — completed with *wrong* output,
``CRASHED``   illegal instruction / bus error trap,
``HUNG``      exceeded the instruction budget.

The headline claim under test: for faults on the *protected surface*
(stored code, fetched words, the program counter), SOFIA converts
silent corruption and hijacks into detection; faults on the unprotected
surface (register file, a glitched MAC comparator) can still cause SDC —
quantifying exactly where the paper's guarantee ends.

Every specimen is a pure function of (image, fault): :func:`run_fault`
runs one on a fresh machine and is the per-specimen reference.  The
campaign itself always runs specimens in lockstep groups of
:data:`~repro.sim.batch.BATCH_WIDTH` (:func:`run_fault_batch`): each
specimen forks off the golden run's nearest checkpoint before its
trigger, byte-identical to per-specimen runs, and a specimen whose state
rejoins the golden run at one of its checkpoints takes the golden
outcome instead of simulating the rest
(:class:`~repro.sim.batch.GoldenTrace`).  The golden trace depends only
on the sealed image's bytes, the keys and the budget, never on the
campaign seed, so it is recorded once per image: a process keeps the
traces it recorded or loaded (:func:`~repro.sim.batch.keep_trace`), and
a store-backed campaign keeps its trace beside its results, so a
rerun, another shard or another seed over the same store records none.
``run_campaign(jobs=N)`` fans the groups across a process pool via
:mod:`repro.runner`; the image and the golden trace are the dispatch's
context, built in the parent and inherited by each worker, and results
come back in specimen order, so parallel classification counts are
byte-identical to the serial ones.
"""

from __future__ import annotations

import enum
import hashlib
import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from ..crypto.keys import DeviceKeys
from ..errors import check_count
from ..isa.program import AsmProgram
from ..obs import hook as obs_hook
from ..obs import phase as obs_phase
from ..runner import (ResultStore, ShardSpec, campaign_record,
                      check_writable, resolve_jobs, run_tasks_stored,
                      task_key, task_keys, write_campaign)
from ..sim.batch import BATCH_WIDTH, GoldenTrace, cached_trace, keep_trace
from ..sim.result import Status
from ..sim.sofia import SofiaMachine
from ..transform.image import SofiaImage
from ..transform.profile import DEFAULT_PROFILE, ProtectionProfile
from ..transform.transformer import transform
from .models import (CodeBitFlip, CombinedFault, FaultSpec, FetchGlitch,
                     PCGlitch, RegisterFault, VerifySkip)


class FaultOutcome(enum.Enum):
    DETECTED = "detected"
    MASKED = "masked"
    SDC = "sdc"
    CRASHED = "crashed"
    HUNG = "hung"


@dataclass
class FaultResult:
    fault: FaultSpec
    model: str
    outcome: FaultOutcome
    description: str
    status: Status
    detail: str = ""


@dataclass
class CampaignSummary:
    """Aggregated outcome counts per fault model."""

    counts: Dict[str, Dict[FaultOutcome, int]] = field(default_factory=dict)

    def add(self, result: FaultResult) -> None:
        per_model = self.counts.setdefault(
            result.model, {o: 0 for o in FaultOutcome})
        per_model[result.outcome] += 1

    def rate(self, model: str, outcome: FaultOutcome) -> float:
        per_model = self.counts.get(model)
        if not per_model:
            return 0.0
        total = sum(per_model.values())
        return per_model[outcome] / total if total else 0.0

    def render(self) -> str:
        header = (f"{'fault model':<16s}" + "".join(
            f"{o.value:>10s}" for o in FaultOutcome) + f"{'total':>8s}")
        lines = ["Fault-injection campaign (E11)", header, "-" * len(header)]
        for model in sorted(self.counts):
            per_model = self.counts[model]
            total = sum(per_model.values())
            row = f"{model:<16s}" + "".join(
                f"{per_model[o]:>10d}" for o in FaultOutcome)
            lines.append(row + f"{total:>8d}")
        return "\n".join(lines)


def _classify_fault(fault: FaultSpec, description: str, result,
                    golden_output: Sequence[int]) -> FaultResult:
    """Map one specimen's execution result to its campaign outcome."""
    if result.status is Status.RESET:
        outcome = FaultOutcome.DETECTED
    elif result.status is Status.TRAP:
        outcome = FaultOutcome.CRASHED
    elif result.status is Status.LIMIT:
        outcome = FaultOutcome.HUNG
    elif result.output_ints == list(golden_output):
        outcome = FaultOutcome.MASKED
    else:
        outcome = FaultOutcome.SDC
    return FaultResult(fault=fault, model=type(fault).__name__,
                       outcome=outcome, description=description,
                       status=result.status,
                       detail=str(result.violation or result.trap_reason))


def run_fault(image: SofiaImage, keys: DeviceKeys, fault: FaultSpec,
              golden_output: Sequence[int],
              max_instructions: int = 2_000_000) -> FaultResult:
    """Inject one fault into a fresh protected run and classify it."""
    machine = SofiaMachine(image, keys)
    if fault.trigger_instructions > 0:
        machine.run(max_instructions=fault.trigger_instructions)
    description = fault.inject(machine)
    result = machine.run(max_instructions=max_instructions)
    return _classify_fault(fault, description, result, golden_output)


def run_fault_batch(image: SofiaImage, keys: DeviceKeys,
                    faults: Sequence[FaultSpec],
                    golden_output: Sequence[int], trace: GoldenTrace,
                    max_instructions: int = 2_000_000) -> List[FaultResult]:
    """Golden-trace-forked :func:`run_fault` over one specimen group.

    ``trace`` is the clean run of this ``image`` (or of one with the same
    bytes) under these ``keys`` (:meth:`GoldenTrace.record`; a trace
    loaded from a store gets its golden blocks back first,
    :meth:`GoldenTrace.warm`).  Each specimen forks off it at its
    trigger (:meth:`GoldenTrace.fork_at`: the nearest checkpoint plus at
    most one stint), injects, and resumes on its own machine; one
    that rejoins the golden run at a checkpoint takes its final result
    without simulating the rest (:meth:`GoldenTrace.resume`), counted as
    ``faults.converged`` and ``faults.instructions_skipped``.  Results
    come back in the order of ``faults``, byte-identical to per-specimen
    :func:`run_fault` calls.

    The group works on its own copies of the image's front-end memo and
    of the golden blocks, so what its specimens add (faulted payloads'
    seals, glitched edges' keystream words, predecoded and compiled
    blocks) never reaches another group: the telemetry counters then
    depend only on the group, not on which groups a process ran before
    it, and their totals are the same at any ``--jobs``.
    """
    trace.warm(image, keys)
    if image.front_end is not None:
        image = replace(image, front_end=image.front_end.copy())
    trace = trace.copy()
    obs = obs_hook.SIM
    results = []
    for fault in faults:
        machine, start = trace.fork_at(image, keys,
                                       fault.trigger_instructions)
        description = fault.inject(machine)
        result, skipped = trace.resume(machine, start, max_instructions)
        if skipped is not None and obs is not None:
            obs.count("faults.converged")
            obs.count("faults.instructions_skipped", skipped)
        results.append(_classify_fault(fault, description, result,
                                       golden_output))
    return results


def sample_faults(image: SofiaImage, total_instructions: int,
                  per_model: int = 25, seed: int = 2016,
                  models: Optional[Sequence[str]] = None) -> List[FaultSpec]:
    """Draw a randomized fault population over the run's dynamic window.

    The draw uses a private ``random.Random(seed)``, never a shared
    global stream, so concurrent campaigns draw reproducible, mutually
    independent populations.
    """
    rng = random.Random(seed)
    wanted = set(models or ("CodeBitFlip", "FetchGlitch", "PCGlitch",
                            "RegisterFault", "VerifySkip", "CombinedFault"))
    code_limit = image.code_base + 4 * len(image.words)
    faults: List[FaultSpec] = []

    def trigger() -> int:
        return rng.randrange(0, max(1, total_instructions))

    for _ in range(per_model):
        address = image.code_base + 4 * rng.randrange(len(image.words))
        if "CodeBitFlip" in wanted:
            faults.append(CodeBitFlip(trigger(), address=address,
                                      bit=rng.randrange(32)))
        if "FetchGlitch" in wanted:
            faults.append(FetchGlitch(trigger(), address=address,
                                      xor_mask=1 << rng.randrange(32)))
        if "PCGlitch" in wanted:
            glitch_pc = image.code_base + 4 * rng.randrange(
                (code_limit - image.code_base) // 4)
            faults.append(PCGlitch(trigger(), target=glitch_pc))
        if "RegisterFault" in wanted:
            faults.append(RegisterFault(trigger(),
                                        reg=rng.randrange(1, 32),
                                        bit=rng.randrange(32)))
        if "VerifySkip" in wanted:
            faults.append(VerifySkip(trigger()))
        if "CombinedFault" in wanted:
            # glitch-assisted tamper: corrupt code and the comparator in
            # the same window (the strongest single-shot fault attack)
            when = trigger()
            faults.append(CombinedFault(when, parts=(
                VerifySkip(when),
                CodeBitFlip(when, address=address, bit=rng.randrange(32)),
            )))
    return faults


def _golden_trace(image: SofiaImage, keys: DeviceKeys,
                  golden_output: Sequence[int], max_instructions: int,
                  key: str, store: Optional[ResultStore]) -> GoldenTrace:
    """The golden trace of ``image``: the one this process keeps under
    ``key``, else the one ``store`` holds under it, else recorded (and
    checked against ``golden_output``); then kept in the process and in
    the store.

    Recording runs under no simulator sink, so the campaign's ``sim.*``
    counters do not depend on where the trace came from; that shows only
    in ``faults.golden_recorded`` or ``faults.golden_reused``, counted
    once per campaign.
    """
    trace = cached_trace(key)
    stored = False
    if store is not None:
        if trace is None:
            trace = store.get(key)  # None when absent or unreadable
            stored = trace is not None
        else:
            stored = key in store
    recorded = trace is None
    if recorded:
        with obs_hook.counting(None):
            trace = GoldenTrace.record(image, keys, max_instructions)
        baseline = trace.result
        if (list(baseline.output_ints) != list(golden_output)
                or not baseline.ok):
            raise AssertionError(
                f"golden run broken: {baseline.summary()} "
                f"{baseline.output_ints}")
    if store is not None and not stored:
        store.put(key, trace)
    keep_trace(key, trace)
    obs = obs_hook.SIM
    if obs is not None:
        obs.count("faults.golden_recorded" if recorded
                  else "faults.golden_reused")
    return trace


def _fault_batch_task(context: tuple,
                      group: List[FaultSpec]) -> List[FaultResult]:
    image, keys, golden_output, trace, max_instructions = context
    return run_fault_batch(image, keys, group, golden_output, trace,
                           max_instructions)


def run_campaign(program: AsmProgram, keys: DeviceKeys,
                 golden_output: Sequence[int], nonce: int = 0xFA17,
                 per_model: int = 25, seed: int = 2016,
                 max_instructions: int = 2_000_000,
                 jobs: Optional[int] = 1,
                 export_path=None,
                 profile: ProtectionProfile = DEFAULT_PROFILE,
                 models: Optional[Sequence[str]] = None,
                 store_dir=None, shard: Optional[ShardSpec] = None
                 ) -> "tuple[List[FaultResult], CampaignSummary]":
    """Full campaign on one program; returns per-fault results + summary.

    The protected image is built and golden-checked once; every
    specimen then runs against it, in submission-order lockstep groups
    of :data:`~repro.sim.batch.BATCH_WIDTH` (:func:`run_fault_batch`,
    one pool task per group).  ``jobs`` worker processes run the groups
    (``1``, the default, runs them in-process; ``None`` means one per
    CPU); the partition depends only on the width, and grouping never
    changes a result, so serial and parallel runs classify identically
    and match per-specimen :func:`run_fault` calls.  ``export_path``
    writes the campaign's parameters and per-specimen results as JSON.
    ``models`` restricts the sampled population to the named fault
    models (default: all six).

    ``store_dir`` makes the campaign incremental: each specimen's result
    is content-addressed by (code version, image + run context, fault
    spec) in a :class:`~repro.runner.store.ResultStore` there, beside
    the golden trace (under the same context), which any campaign on
    this image, whatever its seed, loads instead of recording; cached
    specimens are loaded instead of simulated, each group's
    results are stored as the group finishes, and a killed campaign
    resumed over the same store produces an export byte-identical to an
    uninterrupted run (store-backed exports are canonical: no wall-clock
    or worker-count field).  ``shard`` restricts
    execution to one deterministic slice of the specimen list; the
    summary then covers only the results present, and no export is
    written until a merged store makes the campaign complete.
    """
    check_count("per_model", per_model)
    check_writable(export_path)
    started = time.perf_counter()
    keys = keys.for_profile(profile)
    store = ResultStore(store_dir) if store_dir is not None else None
    with obs_phase("build"):
        image = transform(program, keys, nonce=nonce, profile=profile)
        # everything the worker context contributes to one result: the
        # image is the content-determined build artifact, the keys are
        # named by their provisioned values (never digest live objects)
        context = {
            "image": hashlib.sha256(image.to_bytes()).hexdigest(),
            "keys": [keys.k1, keys.k2, keys.k3,
                     keys.cipher_factory.__name__],
            "golden": list(golden_output),
            "max_instructions": max_instructions,
        }
        trace = _golden_trace(
            image, keys, golden_output, max_instructions,
            task_key("fault-golden-trace", context, None), store)
    baseline_instructions = trace.result.instructions
    with obs_phase("plan"):
        faults = sample_faults(image, baseline_instructions,
                               per_model=per_model, seed=seed,
                               models=models)
    fault_keys = None
    if store is not None:
        fault_keys = task_keys("fault-injection", context, faults)

    # lockstep groups are byte-identical to per-specimen runs at any
    # grouping, so grouping only the missing faults is safe
    with obs_phase("execute"):
        run = run_tasks_stored(
            _fault_batch_task, faults, fault_keys, width=BATCH_WIDTH,
            jobs=jobs,
            context=lambda: (image, keys, list(golden_output), trace,
                             max_instructions),
            store=store, shard=shard)
    results = run.results
    summary = CampaignSummary()
    for result in results:
        if result is not None:
            summary.add(result)
    if export_path is not None and run.complete:
        parameters = {"nonce": nonce, "per_model": per_model, "seed": seed,
                      "max_instructions": max_instructions,
                      "baseline_instructions": baseline_instructions}
        if models is not None:
            # restricted populations record their surface; the default
            # all-models export layout is unchanged
            parameters["models"] = sorted(models)
        if store is not None:
            # canonical export: resumed/merged runs must be byte-equal,
            # so no wall-clock or worker-count field
            record = campaign_record("fault-injection", parameters,
                                     results)
        else:
            record = campaign_record(
                "fault-injection", parameters, results,
                jobs=resolve_jobs(jobs),
                elapsed_seconds=time.perf_counter() - started)
        with obs_phase("export"):
            write_campaign(export_path, record)
    return results, summary
