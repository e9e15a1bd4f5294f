#!/usr/bin/env python3
"""Coverage-guided differential fuzzing with ``repro.fuzz``.

Walks the whole subsystem end to end:

1. grow single specimens from genomes and inspect their shapes;
2. run one specimen through the four-run differential oracle (vanilla
   and SOFIA, each on the fast engine and the reference oracle);
3. run a small deterministic campaign, watch coverage accumulate, and
   persist the deduplicated corpus + coverage map + campaign report;
4. replay one corpus entry from its stored genome — the corpus is
   self-describing, no source needs to be trusted;
5. demonstrate the failure path on a *planted* engine bug: the oracle
   flags it, the minimizer shrinks the specimen, triage renders the
   replay-ready artifact.  (The bug is reverted afterwards — the real
   tree is differentially clean, which `repro fuzz` verifies in CI.)

CLI equivalent of step 3: ``python -m repro fuzz --seeds 200 --jobs 2
--corpus fuzz-corpus``.
"""

import repro.sim.engine as engine
from repro.crypto import DeviceKeys
from repro.fuzz import (Corpus, Genome, generate, run_fuzz, run_oracle,
                        triage)

KEYS = DeviceKeys.from_seed(0xF022)


def main() -> None:
    # -- 1: genomes -> specimens ----------------------------------------
    print("specimen shapes from four genomes:")
    for shape in ("diamond", "loop", "calltree", "minic"):
        specimen = generate(Genome(shape=shape, seed=7, size=2))
        lines = specimen.source.count("\n")
        print(f"  {shape:<9s} -> {specimen.language} specimen, "
              f"{lines} lines")
    print()

    # -- 2: one specimen through the differential oracle -----------------
    specimen = generate(Genome(shape="indirect", seed=3))
    report = run_oracle(specimen, KEYS)
    print(f"oracle on one indirect-call specimen: "
          f"clean={report.ok}, vanilla={report.vanilla_status}, "
          f"sofia={report.sofia_status}, "
          f"{len(report.features)} coverage features")
    print()

    # -- 3: a small deterministic campaign with a persisted corpus -------
    campaign = run_fuzz(seeds=120, seed=0x5EED, corpus_dir="fuzz-corpus")
    print(campaign.render())
    print()

    # -- 4: replay a corpus entry from its genome alone ------------------
    corpus = Corpus.load("fuzz-corpus")
    entry = corpus.entries()[0]
    regrown = generate(entry.genome)
    print(f"corpus replay: entry {entry.sha} regrows byte-identically: "
          f"{regrown.source == entry.source}")
    print()

    # -- 5: planted engine bug -> caught, minimized, triaged -------------
    original = engine.SEMANTICS["sub"]
    # off by one, in the table entry both tiers of the fast engine render
    engine.SEMANTICS["sub"] = engine.Semantics(
        "(r[{rs1}] - r[{rs2}] - 1) & {M}")
    try:
        hunt = run_fuzz(seeds=40, seed=99, max_failures=1)
        print(f"planted off-by-one in the 'sub' semantics entry: "
              f"{len(hunt.failures)} failing specimens, "
              f"{hunt.divergences} divergences")
        record = hunt.failures[0]
        print(f"  first failure {record.sha}: reduced "
              f"{record.original_lines} -> {record.minimized_lines} lines")
        print(f"  divergence: [{record.divergences[0]['axis']}/"
              f"{record.divergences[0]['observable']}]")
    finally:
        engine.SEMANTICS["sub"] = original
    clean = run_oracle(generate(Genome(shape="straight", seed=1)), KEYS)
    print(f"engine restored, tree differentially clean again: {clean.ok}")


if __name__ == "__main__":
    main()
