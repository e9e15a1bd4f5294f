"""Attack-synthesis campaigns over the parallel runner (experiment E16).

One *task* is one protected program: the worker builds it (generate →
assemble → transform), runs the clean baselines, enumerates its attack
instances and runs every instance against every target, returning a
picklable :class:`ProgramOutcome`.  All aggregation — the detection
matrix, anomaly lists, the empirical-vs-analytic bound cross-check —
happens in the parent in task order, so a campaign is deterministic in
every knob: the same ``seed``/``programs`` produce byte-identical JSON
and CSV artifacts at any ``--jobs`` value (the export deliberately
carries no wall-clock or worker-count field).

Program sources, in precedence order:

* an explicit ``.sofia`` image (:func:`run_attacksynth_image`) —
  metadata-less, purely observational;
* a fuzzing corpus directory (``corpus_dir``) — coverage-selected
  specimens from :mod:`repro.fuzz` become the victims, topped up with
  fresh genomes when the corpus is smaller than ``programs``;
* fresh fuzz genomes drawn deterministically from the campaign seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..baselines.isr import EcbIsrMachine, XorIsrMachine
from ..crypto.keys import DEFAULT_KEY_SEED, DeviceKeys, derive_key
from ..errors import CampaignError, ReproError, check_count
from ..eval.export import attacksynth_csv, record_json
from ..fuzz.corpus import Corpus
from ..fuzz.generators import Genome, generate, random_genome
from ..fuzz.oracle import build_program
from ..isa.assembler import assemble
from ..obs import phase as obs_phase
from ..runner import (ResultStore, ShardSpec, check_writable,
                      run_tasks_stored, task_keys, task_rng)
from ..security.bounds import EmpiricalCheck, empirical_check
from ..sim.sofia import SofiaMachine
from ..sim.vanilla import VanillaMachine
from ..transform.image import SofiaImage
from ..transform.profile import DEFAULT_PROFILE, ProtectionProfile
from ..transform.transformer import transform
from .classify import (PLAIN_BUDGET, SOFIA_BUDGET, materialize_images,
                       observables, prefill_front_ends, run_plain_instance,
                       run_sofia_instance)
from .enumerate import enumerate_geometric, enumerate_instances
from .matrix import DetectionMatrix
from .model import (AttackInstance, EXPECT_BENIGN, EXPECT_DETECTED,
                    EXPECT_EDGE_OK, InstanceResult, OBS_NA,
                    OBS_SURVIVED_DIVERGENT, ProgramOutcome, TARGET_ECB,
                    TARGET_SOFIA, TARGET_VANILLA, TARGET_XOR)

DEFAULT_SEED = 0xA77AC2
DEFAULT_PROGRAMS = 200


def _synth_context(key_seed: int, campaign_seed: int,
                   per_program: Optional[int], include_baselines: bool,
                   profile: ProtectionProfile) -> tuple:
    """What every program of one campaign shares."""
    # provision the device for the campaign's design point: the keys
    # bind to the profile's cipher exactly as a manufactured device would
    keys = DeviceKeys.from_seed(key_seed).for_profile(profile)
    xor_key = derive_key(key_seed, "xor-isr") & 0xFFFFFFFF
    ecb_key = derive_key(key_seed, "ecb-isr")
    return (keys, key_seed, campaign_seed, per_program,
            include_baselines, xor_key, ecb_key, profile)


def _clean_sofia(image: SofiaImage, keys: DeviceKeys):
    """Clean run, the traversed block bases and the verified edges.

    A clean run verifies a block only to execute it, and commits at least
    one of its instructions unless the run fails, so the bases of the
    machine's verified blocks are the traversed ones: the run needs no
    commit hook and takes the fast loop.  The edges ``(prevPC, entry
    PC)`` it verified come in first-traversal order.
    """
    machine = SofiaMachine(image, keys)
    result = machine.run(max_instructions=SOFIA_BUDGET)
    return result, machine.verified_bases(), machine.verified_edges()


def _program_label(index: int, genome: Genome) -> str:
    return (f"p{index:03d}:{genome.shape}/s{genome.seed:x}"
            f"/bw{genome.block_words}")


def _sofia_instance_results(instances: List[AttackInstance],
                            image: SofiaImage, keys: DeviceKeys, clean_obs,
                            clean_edges) -> List[Tuple[InstanceResult, bool]]:
    """Run each instance on the SOFIA core into a fresh result record.

    Every instance's image is materialized first and their first
    traversals' cipher work done across lanes
    (:func:`~repro.attacksynth.classify.prefill_front_ends`), so the
    runs share the program's crypto instead of paying it one by one.
    """
    mutated = materialize_images(instances, image, keys)
    prefill_front_ends(instances, mutated, keys, clean_edges)
    results = []
    for instance, instance_image in zip(instances, mutated):
        result = InstanceResult(
            family=instance.family, name=instance.name,
            description=instance.description, expected=instance.expected,
            expected_plain=instance.expected_plain)
        sofia_out, hijacked, violation, edge_ok = run_sofia_instance(
            instance, instance_image, keys, clean_obs)
        result.outcomes[TARGET_SOFIA] = sofia_out
        result.violation = violation
        result.edge_ok = edge_ok
        results.append((result, hijacked))
    return results


def _synth_task(context: tuple,
                task: Tuple[int, Genome]) -> ProgramOutcome:
    """Worker: build one program, enumerate and run all its attacks."""
    (keys, key_seed, campaign_seed, per_program,
     include_baselines, xor_key, ecb_key, profile) = context
    index, genome = task
    outcome = ProgramOutcome(index=index,
                             label=_program_label(index, genome))
    try:
        program = build_program(generate(genome))
        exe = assemble(program)
        image = transform(
            program, keys, nonce=genome.nonce,
            profile=profile.with_block_words(genome.block_words))
    except ReproError as exc:
        outcome.build_error = f"{type(exc).__name__}: {exc}"
        return outcome
    outcome.blocks = image.num_blocks

    plain_targets = [(TARGET_VANILLA,
                      lambda: VanillaMachine(exe))]
    if include_baselines:
        plain_targets.append(
            (TARGET_XOR, lambda: XorIsrMachine(exe, xor_key)))
        plain_targets.append(
            (TARGET_ECB, lambda: EcbIsrMachine(exe, ecb_key)))

    sofia_clean, traversed, clean_edges = _clean_sofia(image, keys)
    plain_clean = {}
    for name, make in plain_targets:
        plain_clean[name] = make().run(max_instructions=PLAIN_BUDGET)
    if not sofia_clean.ok:
        outcome.build_error = (f"clean SOFIA run failed: "
                               f"{sofia_clean.summary()}")
        return outcome
    for name, _make in plain_targets:
        if not plain_clean[name].ok:
            outcome.build_error = (f"clean {name} run failed: "
                                   f"{plain_clean[name].summary()}")
            return outcome
    sofia_obs = observables(sofia_clean)
    plain_obs = {name: observables(result)
                 for name, result in plain_clean.items()}

    rng = task_rng(campaign_seed, "attacksynth", index)
    instances = enumerate_instances(image, exe, keys, traversed, rng,
                                    key_seed, limit=per_program)
    sofia_results = _sofia_instance_results(instances, image, keys,
                                            sofia_obs, clean_edges)
    for instance, (result, hij) in zip(instances, sofia_results):
        hijacked = [TARGET_SOFIA] if hij else []
        for name, make in plain_targets:
            if not instance.plain_applicable:
                result.outcomes[name] = OBS_NA
                continue
            plain_out, plain_hij = run_plain_instance(
                instance, make, plain_obs[name])
            result.outcomes[name] = plain_out
            if plain_hij:
                hijacked.append(name)
        result.hijacked = tuple(hijacked)
        outcome.instances.append(result)
    return outcome


@dataclass
class SynthReport:
    """Everything one campaign produced, with the cross-checks applied."""

    seed: int
    key_seed: int
    source: str                       # "generated" | "corpus" | "image"
    per_program: Optional[int]
    include_baselines: bool
    #: the design point the victims were sealed under; the §IV-A bound
    #: cross-check uses its actual mac_bits, not the paper constant
    profile: ProtectionProfile = DEFAULT_PROFILE
    programs: List[ProgramOutcome] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: ``False`` for a sharded invocation that skipped tasks owned by
    #: other shards: aggregation covers only the programs present, and
    #: no campaign artifact is exported until a merged store completes it
    complete: bool = True

    # -- aggregation -----------------------------------------------------

    @property
    def instances(self) -> int:
        return sum(len(p.instances) for p in self.programs)

    @property
    def build_errors(self) -> List[Tuple[str, str]]:
        return [(p.label, p.build_error) for p in self.programs
                if p.build_error is not None]

    def _iter_results(self):
        for program in self.programs:
            for result in program.instances:
                yield program, result

    def matrix(self) -> DetectionMatrix:
        matrix = DetectionMatrix()
        for _program, result in self._iter_results():
            for target, outcome in sorted(result.outcomes.items()):
                matrix.observe(result.family, target, outcome,
                               hijacked=target in result.hijacked)
        return matrix

    def expected_counts(self) -> Dict[str, int]:
        counts = {EXPECT_DETECTED: 0, EXPECT_BENIGN: 0, EXPECT_EDGE_OK: 0,
                  "unknown": 0}
        for _program, result in self._iter_results():
            counts[result.expected or "unknown"] += 1
        return counts

    @property
    def missed(self) -> List[Tuple[str, str]]:
        """Viable against SOFIA: predicted detected, not detected."""
        return [(p.label, r.name) for p, r in self._iter_results()
                if r.missed]

    @property
    def benign_anomalies(self) -> List[Tuple[str, str]]:
        return [(p.label, r.name) for p, r in self._iter_results()
                if r.benign_anomaly]

    @property
    def edge_anomalies(self) -> List[Tuple[str, str]]:
        """Sealed (legitimate) edges the front-end refused."""
        return [(p.label, r.name) for p, r in self._iter_results()
                if r.edge_anomaly]

    @property
    def plain_anomalies(self) -> List[Tuple[str, str]]:
        """Pinned-viable plaintext analogues that failed to succeed."""
        return [(p.label, r.name) for p, r in self._iter_results()
                if r.plain_anomaly]

    @property
    def ok(self) -> bool:
        return (not self.missed and not self.benign_anomalies
                and not self.edge_anomalies and not self.plain_anomalies
                and not self.build_errors)

    def vanilla_stats(self) -> Tuple[int, int]:
        """(applicable, successes) of instances against the vanilla core."""
        applicable = successes = 0
        for _program, result in self._iter_results():
            outcome = result.outcomes.get(TARGET_VANILLA)
            if outcome is None or outcome == OBS_NA:
                continue
            applicable += 1
            if (outcome == OBS_SURVIVED_DIVERGENT
                    or TARGET_VANILLA in result.hijacked):
                successes += 1
        return applicable, successes

    def bounds(self) -> EmpiricalCheck:
        """Empirical detection rate vs the §IV-A forgery bound.

        The analytic expectation is ``attempts * 2^-n`` at the
        *profile's* seal width: a truncated 32-bit campaign has a small
        but nonzero expected-collision count, a widened 96-bit one an
        even smaller one than the paper's 64-bit point.
        """
        attempts = self.expected_counts()[EXPECT_DETECTED]
        return empirical_check(attempts, len(self.missed),
                               mac_bits=self.profile.mac_bits)

    # -- presentation ----------------------------------------------------

    def to_record(self) -> Dict:
        """Canonical JSON document (wall-clock- and jobs-free)."""
        expected = self.expected_counts()
        applicable, successes = self.vanilla_stats()
        bounds = self.bounds()
        return {
            "campaign": "attacksynth",
            "parameters": {
                "seed": self.seed,
                "key_seed": self.key_seed,
                "source": self.source,
                "per_program": self.per_program,
                "baselines": self.include_baselines,
                "programs": len(self.programs),
                "profile": self.profile.label,
            },
            "instances": self.instances,
            "expected": expected,
            "matrix": self.matrix().to_record(),
            "anomalies": {
                "missed": [list(pair) for pair in self.missed],
                "benign": [list(pair) for pair in self.benign_anomalies],
                "edge": [list(pair) for pair in self.edge_anomalies],
                "plain": [list(pair) for pair in self.plain_anomalies],
                "build": [list(pair) for pair in self.build_errors],
            },
            "vanilla": {
                "applicable": applicable,
                "successes": successes,
                "rate": round(successes / applicable, 4) if applicable
                        else None,
            },
            "bounds": {
                "attempts": bounds.attempts,
                "undetected": bounds.undetected,
                "mac_bits": bounds.mac_bits,
                "expected": bounds.expected,
                "consistent": bounds.consistent,
            },
        }

    def render(self) -> str:
        expected = self.expected_counts()
        applicable, successes = self.vanilla_stats()
        lines = [
            "Attack synthesis (E16)",
            f"  programs    {len(self.programs)}  (source: {self.source}, "
            f"seed {self.seed:#x}, profile {self.profile.label})",
            f"  instances   {self.instances}  "
            f"(expect detected {expected[EXPECT_DETECTED]}, "
            f"benign {expected[EXPECT_BENIGN]}, "
            f"edge-ok {expected[EXPECT_EDGE_OK]}, "
            f"unknown {expected['unknown']})",
            "",
            self.matrix().render(),
            "",
            f"  SOFIA misses      {len(self.missed)}",
            f"  benign anomalies  {len(self.benign_anomalies)}",
            f"  edge anomalies    {len(self.edge_anomalies)}",
            f"  plain anomalies   {len(self.plain_anomalies)}",
            f"  vanilla success   {successes}/{applicable}",
            f"  bound cross-check {self.bounds().render()}",
        ]
        for label, name in (self.missed + self.benign_anomalies
                            + self.edge_anomalies + self.plain_anomalies):
            lines.append(f"    ANOMALY {label} {name}")
        for label, error in self.build_errors:
            lines.append(f"    BUILD   {label} {error}")
        return "\n".join(lines)


def _campaign_genomes(programs: int, seed: int,
                      corpus_dir) -> Tuple[str, List[Genome]]:
    """Victim programs: corpus entries first, fresh genomes after."""
    genomes: List[Genome] = []
    source = "generated"
    if corpus_dir is not None:
        if not Path(corpus_dir).is_dir():
            # a mistyped path must not quietly run generated programs
            raise CampaignError(f"no corpus directory at {corpus_dir}")
        genomes = Corpus.load(corpus_dir).genomes()[:programs]
        if genomes:
            source = "corpus"
    index = 0
    while len(genomes) < programs:
        genomes.append(random_genome(task_rng(seed, "attacksynth-gen",
                                              index)))
        index += 1
    return source, genomes


def run_attacksynth(programs: int = DEFAULT_PROGRAMS, *,
                    seed: int = DEFAULT_SEED,
                    per_program: Optional[int] = None,
                    jobs: Optional[int] = 1,
                    corpus_dir=None,
                    include_baselines: bool = False,
                    key_seed: int = DEFAULT_KEY_SEED,
                    profile: ProtectionProfile = DEFAULT_PROFILE,
                    export_path=None, csv_path=None,
                    store_dir=None,
                    shard: Optional[ShardSpec] = None) -> SynthReport:
    """Enumerate and run attacks over ``programs`` protected programs.

    ``profile`` seals every victim under that design point (the genome
    still picks the block geometry); the enumerator and the §IV-A bound
    cross-check adapt to the image's actual profile.

    ``store_dir`` memoizes each program's full :class:`ProgramOutcome`
    in a persistent :class:`~repro.runner.store.ResultStore` (one entry
    per victim, keyed by code version + campaign context + genome), so
    a killed campaign resumes where it stopped and a warm rerun
    simulates nothing; ``shard`` executes one deterministic ``i/n``
    slice of the victim list (requires a store) — exports are skipped
    until a merged store completes the campaign, and are then
    byte-identical to an uninterrupted serial run.
    """
    check_count("programs", programs)
    if per_program is not None:
        check_count("per_program", per_program)
    check_writable(export_path, csv_path)
    started = time.perf_counter()
    with obs_phase("plan"):
        source, genomes = _campaign_genomes(programs, seed, corpus_dir)
    report = SynthReport(seed=seed, key_seed=key_seed, source=source,
                         per_program=per_program,
                         include_baselines=include_baselines,
                         profile=profile)
    tasks = list(enumerate(genomes))
    store = ResultStore(store_dir) if store_dir is not None else None
    keys = None
    if store is not None:
        context = {"seed": seed, "key_seed": key_seed,
                   "per_program": per_program,
                   "baselines": include_baselines, "profile": profile}
        keys = task_keys("attacksynth", context,
                         [{"index": index, "genome": genome}
                          for index, genome in tasks])

    with obs_phase("execute"):
        run = run_tasks_stored(
            _synth_task, tasks, keys, jobs=jobs,
            context=partial(_synth_context, key_seed, seed, per_program,
                            include_baselines, profile),
            store=store, shard=shard)
    report.programs = [outcome for outcome in run.results
                       if outcome is not None]
    report.complete = run.complete
    report.elapsed_seconds = time.perf_counter() - started
    if run.complete:
        with obs_phase("export"):
            _export(report, export_path, csv_path)
    return report


def run_attacksynth_image(image: SofiaImage, *, seed: int = DEFAULT_SEED,
                          per_program: Optional[int] = None,
                          key_seed: int = DEFAULT_KEY_SEED,
                          export_path=None, csv_path=None) -> SynthReport:
    """Observational sweep over one explicit (metadata-less) image.

    Deserialized images carry no layout metadata, so enumeration is
    geometric and every expected verdict is unknown; the report records
    what the hardware model actually did, cell by cell.
    """
    if per_program is not None:
        check_count("per_program", per_program)
    check_writable(export_path, csv_path)
    started = time.perf_counter()
    # provision for the image's embedded design point (cipher included)
    keys = DeviceKeys.from_seed(key_seed).for_profile(image.profile)
    report = SynthReport(seed=seed, key_seed=key_seed, source="image",
                         per_program=per_program, include_baselines=False,
                         profile=image.profile)
    outcome = ProgramOutcome(index=0, label="image")
    outcome.blocks = image.num_blocks
    clean, _traversed, clean_edges = _clean_sofia(image, keys)
    if not clean.ok:
        # without a clean baseline every mutated run "detects" too — a
        # wrong key seed must be an error, not a perfect-looking matrix
        outcome.build_error = (
            f"clean run of the image failed: {clean.summary()} "
            f"(wrong --key-seed, or a corrupt image?)")
        report.programs = [outcome]
        report.elapsed_seconds = time.perf_counter() - started
        return report
    clean_obs = observables(clean)
    rng = task_rng(seed, "attacksynth-image")
    instances = enumerate_geometric(image, rng)
    if per_program is not None:
        instances = instances[:per_program]
    for result, hij in _sofia_instance_results(instances, image, keys,
                                               clean_obs, clean_edges):
        result.hijacked = (TARGET_SOFIA,) if hij else ()
        outcome.instances.append(result)
    report.programs = [outcome]
    report.elapsed_seconds = time.perf_counter() - started
    _export(report, export_path, csv_path)
    return report


def _export(report: SynthReport, export_path, csv_path) -> None:
    if report.instances == 0:
        return  # an empty campaign is an error, not an artifact
    if export_path is not None:
        record_json(report.to_record(), export_path)
    if csv_path is not None:
        attacksynth_csv(report.matrix().csv_rows(), csv_path)
