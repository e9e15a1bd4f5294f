"""Coverage-guided fuzzing campaigns over the parallel runner.

A campaign is a sequence of fixed-size *batches*.  Each batch is an
ordered list of genomes — fresh random ones plus mutations of corpus
entries that exhibit the rarest coverage keys — dispatched through
:func:`repro.runner.store.run_tasks_stored` exactly like the fault and
attack campaigns: workers are pure (genome -> :class:`OracleReport`), the
device keys are the dispatch's context, inherited once per worker, and
results return in submission order.  All steering state — the coverage
map, the corpus, failure collection — lives in the parent and is
updated in task order, so a campaign is **deterministic in every knob
except wall-clock**: same ``seed`` and ``seeds`` produce byte-identical
corpus directories and coverage summaries at any ``--jobs`` value.
``time_budget`` (seconds) optionally caps a campaign between batches;
only then does wall-clock influence how many specimens run.

Failures are deduplicated by content, minimized
(:mod:`repro.fuzz.minimize`), and triaged to ``<corpus>/triage/``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from ..crypto.keys import DEFAULT_KEY_SEED, DeviceKeys
from ..errors import check_count
from ..obs import phase as obs_phase
from ..runner import (ResultStore, ShardSpec, run_tasks_stored, task_keys,
                      task_rng, write_campaign)
from .corpus import Corpus, specimen_sha
from .coverage import CoverageMap
from .generators import SHAPES, Genome, generate, mutate, random_genome
from .minimize import TriageRecord, triage, write_triage
from .oracle import OracleReport, run_oracle


def _fuzz_task(context: tuple, genome: Genome) -> OracleReport:
    keys, include_baselines = context
    return run_oracle(generate(genome), keys,
                      include_baselines=include_baselines)


@dataclass
class FuzzReport:
    """Outcome of one campaign: steering state plus the findings."""

    seed: int
    specimens: int = 0
    instructions: int = 0
    batches: int = 0
    coverage: CoverageMap = field(default_factory=CoverageMap)
    corpus: Corpus = field(default_factory=Corpus)
    failures: List[TriageRecord] = field(default_factory=list)
    #: a sharded invocation stopped at a sync point: the next planned
    #: batch needs results owned by other shards.  Rerun the peer shards
    #: (same store, or merge theirs in) until a ``--resume`` pass
    #: completes; nothing is persisted for a pending run
    pending: bool = False

    @property
    def divergences(self) -> int:
        return sum(len(record.divergences) for record in self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [
            "Fuzzing campaign (E15)",
            f"  specimens   {self.specimens}  "
            f"({self.batches} batches, seed {self.seed})",
            f"  simulated   {self.instructions:,d} instructions",
            f"  corpus      {len(self.corpus)} specimens kept",
            f"  {self.coverage.render()}",
            f"  divergences {self.divergences}"
            + ("" if self.ok else f" in {len(self.failures)} specimens"),
        ]
        for record in self.failures:
            for divergence in record.divergences:
                lines.append(f"    {record.sha}: "
                             f"[{divergence['axis']}/"
                             f"{divergence['observable']}] "
                             f"{divergence['detail']}")
        return "\n".join(lines)


def _plan_batch(seed: int, round_index: int, batch: int,
                coverage: CoverageMap, corpus: Corpus) -> List[Genome]:
    """The genomes of one batch (pure function of the steering state).

    Round 0 sweeps every shape round-robin to open coverage broadly;
    later rounds alternate fresh genomes with mutations of the corpus
    entries that contributed the rarest coverage keys — the classic
    greybox schedule, kept fully deterministic by deriving every draw
    from the campaign seed and the (ordered) steering state.
    """
    genomes = []
    rare_keys = coverage.rarest(batch) if len(corpus) else []
    for index in range(batch):
        rng = task_rng(seed, "fuzz-plan", round_index, index)
        if round_index == 0 or not len(corpus) or index % 2 == 0:
            shape = SHAPES[index % len(SHAPES)] if round_index == 0 else None
            genomes.append(random_genome(rng, shape=shape))
            continue
        parent = None
        if rare_keys:
            key = rare_keys[index % len(rare_keys)]
            candidates = corpus.entries_with_key(key)
            if candidates:
                parent = candidates[rng.randrange(len(candidates))]
        if parent is None:
            shas = corpus.shas()
            parent = corpus.entries()[rng.randrange(len(shas))]
        genomes.append(mutate(parent.genome, rng))
    return genomes


def run_fuzz(seeds: int = 500, *, seed: int = 0x5EED,
             batch: int = 50,
             jobs: Optional[int] = 1,
             corpus_dir=None,
             time_budget: Optional[float] = None,
             include_baselines: bool = False,
             max_failures: int = 8,
             key_seed: int = DEFAULT_KEY_SEED,
             store_dir=None, shard: Optional[ShardSpec] = None) -> FuzzReport:
    """Run a campaign of ``seeds`` specimens; returns the full report.

    ``corpus_dir`` persists the corpus, ``coverage.json``,
    ``report.json`` and any triage artifacts; an existing corpus there
    is loaded first, so campaigns accumulate across invocations.
    ``max_failures`` caps how many *distinct* failing specimens are
    minimized (minimization re-runs the oracle many times); every
    distinct failure is triaged, the rest unminimized.

    ``store_dir`` caches every specimen's :class:`OracleReport` in a
    persistent :class:`~repro.runner.store.ResultStore` keyed by code
    version + (key seed, baselines) + genome: a killed campaign
    resumed over the same store replays its finished specimens and only
    simulates the rest, converging on the same report.  ``shard``
    distributes fuzzing round-by-round: each invocation executes its
    deterministic slice of every planned batch, and stops at a *sync
    point* (``report.pending``) once the next batch needs results owned
    by other shards — the steering state is sequential across rounds by
    design.  Alternate the shards over a shared (or merged) store until
    a plain ``--resume`` pass replays the whole campaign; that pass is
    byte-identical to an uninterrupted serial run.
    """
    check_count("seeds", seeds)
    check_count("batch", batch, 1)
    started = time.perf_counter()
    keys = DeviceKeys.from_seed(key_seed)
    report = FuzzReport(seed=seed)
    if corpus_dir is not None:
        report.corpus = Corpus.load(corpus_dir)
        coverage_path = Path(corpus_dir) / "coverage.json"
        if coverage_path.is_file():
            report.coverage = CoverageMap.load(coverage_path)
    store = ResultStore(store_dir) if store_dir is not None else None
    context = {"key_seed": key_seed, "baselines": include_baselines}

    failing_reports: List[OracleReport] = []
    seen_failures = set()
    round_index = 0
    while report.specimens < seeds:
        if time_budget is not None and \
                time.perf_counter() - started >= time_budget:
            break
        size = min(batch, seeds - report.specimens)
        genomes = _plan_batch(seed, round_index, size,
                              report.coverage, report.corpus)
        genome_keys = None
        if store is not None:
            genome_keys = task_keys("fuzz", context, genomes)
        run = run_tasks_stored(_fuzz_task, genomes, genome_keys,
                               jobs=jobs,
                               context=lambda: (keys, include_baselines),
                               store=store, shard=shard)
        if not run.complete:
            # sync point: the steering update needs the whole batch in
            # task order, and the gaps belong to other shards
            report.pending = True
            break
        results = run.results
        for oracle_report in results:
            report.specimens += 1
            report.instructions += oracle_report.instructions
            new_keys = report.coverage.observe(oracle_report.features)
            specimen = oracle_report.specimen
            if new_keys:
                report.corpus.add(specimen, new_keys)
            if oracle_report.divergences:
                sha = specimen_sha(specimen.language, specimen.source)
                if sha not in seen_failures:
                    seen_failures.add(sha)
                    failing_reports.append(oracle_report)
        report.batches = round_index = round_index + 1

    if report.pending:
        # a sync-pointed shard must not persist: a partial corpus or
        # triage directory would change the initial steering state of
        # the next invocation and break replay determinism
        return report

    with obs_phase("triage"):
        for position, oracle_report in enumerate(failing_reports):
            report.failures.append(triage(
                oracle_report, keys, do_minimize=position < max_failures))

    if corpus_dir is not None:
        with obs_phase("export"):
            root = report.corpus.save(corpus_dir)
            report.coverage.save(root / "coverage.json")
            write_campaign(root / "report.json", _campaign_record(report))
            for record in report.failures:
                write_triage(record, root / "triage")
    return report


def _campaign_record(report: FuzzReport) -> dict:
    """The deterministic JSON digest of a campaign (no wall-clock)."""
    return {
        "campaign": "fuzz",
        "parameters": {"seed": report.seed,
                       "specimens": report.specimens,
                       "batches": report.batches},
        "corpus_size": len(report.corpus),
        "coverage": report.coverage.summary(),
        "failures": [record.sha for record in report.failures],
        "divergences": report.divergences,
    }
