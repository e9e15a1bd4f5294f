"""repro.fuzz — coverage-guided differential program fuzzer (ISSUE 3).

The paper's security argument quantifies over *every* program and CFG
shape; the hand-picked workloads and per-instruction property tests
sample that space thinly.  This package turns the PR 2 lockstep oracle
and the PR 1 parallel runner into a standing scenario-generation engine:

:mod:`repro.fuzz.generators`
    genome-driven generators emitting random-but-valid SRISC programs
    (straight-line, diamonds, loops, call trees, indirect fan-in) and
    mini-C sources for :mod:`repro.cc` — deterministic, mutation-ready.

:mod:`repro.fuzz.coverage`
    the coverage map (mnemonic bigrams, block/entry-path classes,
    I-cache line-run shapes, outcome classes) that decides which
    specimens are worth keeping and steers mutation.

:mod:`repro.fuzz.oracle`
    differential oracles over protect → {vanilla, SOFIA} x
    {reference, fast}: any divergence in registers, PC, data
    memory, cycles, I-cache stats or detection verdicts is a finding.

:mod:`repro.fuzz.corpus`
    content-addressed, deduplicated, deterministically serialized
    specimen corpus.

:mod:`repro.fuzz.minimize`
    line-wise delta reduction of failing specimens + triage artifacts.

:mod:`repro.fuzz.campaign`
    batch scheduling over :mod:`repro.runner` — ``run_fuzz`` is the
    ``repro fuzz`` CLI's engine and experiment E15's driver.

Quickstart::

    from repro.fuzz import run_fuzz
    report = run_fuzz(seeds=200, seed=7)
    assert report.ok, report.render()
"""

from .campaign import FuzzReport, run_fuzz
from .corpus import Corpus, CorpusEntry, specimen_sha
from .coverage import CoverageMap
from .generators import (BLOCK_WORDS, SHAPES, Genome, Specimen, generate,
                         mutate, random_genome)
from .minimize import TriageRecord, minimize, triage, write_triage
from .oracle import Divergence, OracleReport, build_program, run_oracle

__all__ = [
    "run_fuzz", "FuzzReport",
    "Genome", "Specimen", "generate", "mutate", "random_genome",
    "SHAPES", "BLOCK_WORDS",
    "CoverageMap",
    "Corpus", "CorpusEntry", "specimen_sha",
    "Divergence", "OracleReport", "run_oracle", "build_program",
    "TriageRecord", "minimize", "triage", "write_triage",
]
