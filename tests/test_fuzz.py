"""Tests of the fuzzing subsystem itself (ISSUE 3 satellite).

Four contracts are pinned here:

* **generator validity** — every genome grows a program that builds
  (parse/compile, assemble, SOFIA-transform) and terminates cleanly on
  both cores well under the oracle's step budget;
* **corpus and minimizer mechanics** — content dedup, deterministic
  serialization, and 1-minimal (hence idempotent) reduction;
* **deterministic replay** — the same campaign seed reproduces the
  same coverage map, corpus and verdicts, serial or parallel;
* **planted bug** — corrupting one predecoded handler makes the
  differential oracle flag, minimize and triage the divergence,
  proving the campaign would catch a real engine regression.
"""

import dataclasses

import pytest

import repro.sim.engine as engine
from repro.crypto import DeviceKeys
from repro.fuzz import (Corpus, CoverageMap, Genome, SHAPES, Specimen,
                        build_program, generate, minimize, mutate,
                        random_genome, run_fuzz, run_oracle, specimen_sha,
                        triage, write_triage)
from repro.isa import assemble
from repro.runner import task_rng
from repro.sim import SofiaMachine, VanillaMachine
from repro.transform import ProtectionProfile, transform

KEYS = DeviceKeys.from_seed(1)

#: far below the oracle's budgets: generated specimens are *small*
STEP_CAP = 100_000


def oracle_reports(seeds, campaign_seed=3):
    rng = task_rng(campaign_seed, "test")
    return [run_oracle(generate(random_genome(rng)), KEYS)
            for _ in range(seeds)]


class TestGeneratorValidity:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_every_shape_builds_and_terminates(self, shape):
        for seed in range(6):
            genome = Genome(shape=shape, seed=seed, size=1 + seed % 3,
                            block_words=(8, 6)[seed % 2], nonce=seed + 1)
            specimen = generate(genome)
            program = build_program(specimen)
            vanilla = VanillaMachine(assemble(program)).run(STEP_CAP)
            assert vanilla.ok, (shape, seed, vanilla.summary())
            image = transform(
                program, KEYS, nonce=genome.nonce,
                profile=ProtectionProfile(block_words=genome.block_words))
            sofia = SofiaMachine(image, KEYS).run(4 * STEP_CAP)
            assert sofia.ok, (shape, seed, sofia.summary())
            assert vanilla.output_ints == sofia.output_ints

    def test_generation_is_deterministic(self):
        for shape in SHAPES:
            genome = Genome(shape=shape, seed=99)
            assert generate(genome) == generate(genome)

    def test_mutation_preserves_validity(self):
        rng = task_rng(7, "mutate-test")
        genome = random_genome(rng)
        for _ in range(12):
            genome = mutate(genome, rng)
            report = run_oracle(generate(genome), KEYS)
            assert report.ok, report.divergences

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError):
            generate(Genome(shape="quantum", seed=1))


class TestOracleOnCleanTree:
    def test_sample_campaign_is_clean(self):
        for report in oracle_reports(10):
            assert report.ok, [d.render() for d in report.divergences]
            assert report.vanilla_status in ("halt", "exit")
            assert report.features

    def test_baseline_axis_runs_clean(self):
        genome = Genome(shape="loop", seed=5)
        report = run_oracle(generate(genome), KEYS, include_baselines=True)
        assert report.ok


class TestCorpus:
    def test_dedup_by_content(self):
        corpus = Corpus()
        specimen = generate(Genome(shape="straight", seed=1))
        assert corpus.add(specimen, ["mn:add"]) is not None
        # same source under a different genome is one corpus slot
        twin = Specimen(genome=Genome(shape="straight", seed=1, nonce=77),
                        language=specimen.language, source=specimen.source)
        assert corpus.add(twin, ["mn:sub"]) is None
        assert len(corpus) == 1

    def test_save_load_roundtrip(self, tmp_path):
        corpus = Corpus()
        for seed in range(4):
            corpus.add(generate(Genome(shape=SHAPES[seed], seed=seed)),
                       [f"mn:k{seed}"])
        corpus.save(tmp_path)
        loaded = Corpus.load(tmp_path)
        assert loaded.shas() == corpus.shas()
        assert [dataclasses.asdict(e.genome) for e in loaded.entries()] == \
            [dataclasses.asdict(e.genome) for e in corpus.entries()]

    def test_load_ignores_foreign_files(self, tmp_path):
        (tmp_path / "coverage.json").write_text('{"counts": {}}')
        (tmp_path / "notes.json").write_text('{"hello": 1}')
        assert len(Corpus.load(tmp_path)) == 0


class TestCoverageMap:
    def test_observe_reports_new_keys_once(self):
        coverage = CoverageMap()
        assert coverage.observe(["a", "b", "a"]) == ["a", "b"]
        assert coverage.observe(["a", "c"]) == ["c"]
        assert coverage.counts == {"a": 3, "b": 1, "c": 1}

    def test_rarest_is_stable(self):
        coverage = CoverageMap()
        coverage.observe(["x", "y", "y", "z", "z", "z"])
        assert coverage.rarest(2) == ["x", "y"]

    def test_json_roundtrip(self):
        coverage = CoverageMap()
        coverage.observe(["mn:add", "bi:add>sub", "oc:van:halt"])
        restored = CoverageMap.from_json(coverage.to_json())
        assert restored.counts == coverage.counts


class TestDeterministicReplay:
    def test_same_seed_same_campaign(self, tmp_path):
        first = run_fuzz(seeds=40, seed=1234,
                         corpus_dir=tmp_path / "one")
        second = run_fuzz(seeds=40, seed=1234,
                          corpus_dir=tmp_path / "two")
        assert first.ok and second.ok
        assert first.coverage.counts == second.coverage.counts
        assert first.corpus.shas() == second.corpus.shas()
        one = sorted(p.name for p in (tmp_path / "one").iterdir())
        two = sorted(p.name for p in (tmp_path / "two").iterdir())
        assert one == two
        for name in one:
            assert (tmp_path / "one" / name).read_bytes() == \
                (tmp_path / "two" / name).read_bytes()

    def test_parallel_matches_serial(self):
        serial = run_fuzz(seeds=24, seed=77)
        fanned = run_fuzz(seeds=24, seed=77, jobs=2)
        assert serial.coverage.counts == fanned.coverage.counts
        assert serial.corpus.shas() == fanned.corpus.shas()
        assert serial.divergences == fanned.divergences == 0

    def test_existing_corpus_is_extended(self, tmp_path):
        run_fuzz(seeds=20, seed=5, corpus_dir=tmp_path)
        before = len(Corpus.load(tmp_path))
        report = run_fuzz(seeds=20, seed=6, corpus_dir=tmp_path)
        assert len(report.corpus) >= before


# -- planted bug: the whole loop must catch an engine regression ----------

@pytest.fixture
def broken_xor_engine(monkeypatch):
    """Corrupt the ``xor`` entry of the semantics table (computes OR
    instead), which both tiers of the fast engine render."""
    monkeypatch.setitem(engine.SEMANTICS, "xor",
                        engine.Semantics("r[{rs1}] | r[{rs2}]"))


XOR_SPECIMEN = Specimen(
    genome=Genome(shape="straight", seed=0),
    language="asm",
    source="\n".join([
        "main:",
        "    li t0, 12",
        "    li t1, 10",
        "    addi t2, t0, 1",      # removable
        "    xor t0, t0, t1",      # the essential line
        "    addi t3, t1, 2",      # removable
        "    li a1, 0xFFFF0004",
        "    sw t0, 0(a1)",
        "    halt",
    ]) + "\n")


class TestPlantedBug:
    def test_oracle_flags_engine_divergence(self, broken_xor_engine):
        report = run_oracle(XOR_SPECIMEN, KEYS)
        axes = {d.axis for d in report.divergences}
        assert "vanilla-engine" in axes and "sofia-engine" in axes
        observables = {d.observable for d in report.divergences}
        assert "regs" in observables or "output_ints" in observables

    def test_campaign_catches_minimizes_and_triages(self, tmp_path,
                                                    broken_xor_engine):
        report = run_fuzz(seeds=40, seed=11, max_failures=1,
                          corpus_dir=tmp_path)
        assert not report.ok and report.divergences > 0
        record = report.failures[0]
        assert record.minimized_lines <= record.original_lines
        # the minimized specimen still reproduces under the planted bug,
        # replayed exactly as the triage record describes it
        reduced = Specimen(genome=Genome(**record.genome),
                           language=record.minimized_language,
                           source=record.minimized_source)
        assert not run_oracle(reduced, KEYS).ok
        # triage artifacts landed next to the corpus
        triage_files = sorted(
            p.name for p in (tmp_path / "triage").iterdir())
        assert f"triage-{record.sha}.json" in triage_files
        assert f"triage-{record.sha}.txt" in triage_files

    def test_minimizer_is_idempotent(self, broken_xor_engine):
        report = run_oracle(XOR_SPECIMEN, KEYS)
        axis = report.divergences[0].axis
        once = minimize(XOR_SPECIMEN, KEYS, axis)
        twice = minimize(once, KEYS, axis)
        assert once.source == twice.source
        # the reducer stripped the removable filler lines
        assert "addi t2" not in once.source
        assert "xor t0, t0, t1" in once.source

    def test_clean_tree_does_not_reproduce(self):
        # guard: without the planted bug the same specimen runs clean
        assert run_oracle(XOR_SPECIMEN, KEYS).ok

    def test_triage_record_renders(self, broken_xor_engine, tmp_path):
        report = run_oracle(XOR_SPECIMEN, KEYS)
        record = triage(report, KEYS, do_minimize=True)
        text = record.render()
        assert record.sha == specimen_sha("asm", XOR_SPECIMEN.source)
        assert "vanilla-engine" in text and "minimized specimen" in text
        path = write_triage(record, tmp_path)
        assert path.is_file()
