"""Tests for the parallel campaign orchestrator (``repro.runner``).

The runner's contract: ordered results, a bit-identical serial fallback,
deterministic per-task seeding independent of worker count, and
overhead sweeps that protect each image once, in the dispatching
process.
"""

import json
import os
import random
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import pytest

from repro.attacks import run_campaign as attack_campaign
from repro.crypto import DeviceKeys
from repro.eval import overhead
from repro.eval.overhead import OverheadPoint, measure_many, measure_overhead
from repro.faults import run_campaign as fault_campaign
from repro.faults import sample_faults
from repro.isa import parse
from repro.runner import (atomic_write, available_cpus, campaign_record,
                          default_chunksize, resolve_jobs, run_tasks,
                          run_tasks_stored, task_rng, task_seed,
                          to_jsonable, write_campaign)
from repro.security.montecarlo import forgery_scaling, tamper_detection
from repro.sim.timing import TimingParams
from repro.transform import ProtectionProfile, transform
from repro.workloads import base as workloads_base
from repro.workloads import make_workload

KEYS = DeviceKeys.from_seed(0xFA)


def _square(_context, x):
    return x * x


def _add_context(context, x):
    return x + context


def _nested(context, task):
    """A task that dispatches a campaign of its own, as a DSE point does."""
    inner = run_tasks_stored(_add_context, [task, task],
                             context=lambda: 1000).results
    return context, inner


class _Context:
    """A weak-referenceable shared context."""

    def __init__(self, offset):
        self.offset = offset


def _add_offset(context, x):
    return x + context.offset


def _results(*args, **kwargs):
    """The results of one ``run_tasks`` stream, spans dropped."""
    return [result for result, _span in run_tasks(*args, **kwargs)]


class TestPool:
    def test_serial_matches_plain_loop(self):
        tasks = list(range(10))
        assert _results(_square, tasks, jobs=1) == \
            [t * t for t in tasks]

    def test_parallel_results_are_ordered(self):
        tasks = list(range(23))
        assert _results(_square, tasks, jobs=3) == \
            [t * t for t in tasks]

    def test_context_reaches_pool_workers(self):
        results = _results(_add_context, [1, 2, 3], jobs=2,
                           context=lambda: 100)
        assert results == [101, 102, 103]

    def test_serial_path_passes_the_context(self):
        results = _results(_add_context, [5, 6], jobs=1,
                           context=lambda: 1000)
        assert results == [1005, 1006]

    def test_without_a_factory_tasks_get_none(self):
        assert _results(lambda context, x: (context, x), [4]) == \
            [(None, 4)]

    def test_stream_is_lazy_and_spans_are_timed(self):
        calls = []

        def factory():
            calls.append(os.getpid())
            return 10

        stream = run_tasks(_add_context, [2, 3], context=factory)
        assert calls == []  # nothing runs before the first pull
        (first, span), (second, _) = list(stream)
        assert (first, second) == (12, 13)
        worker, start, end, counters = span
        assert worker == os.getpid() and start <= end and counters == {}

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_factory_runs_once_per_dispatch_in_this_process(self, jobs):
        calls = []

        def factory():
            calls.append(os.getpid())
            return 7

        assert _results(_add_context, list(range(9)), jobs=jobs,
                        context=factory) == list(range(7, 16))
        assert calls == [os.getpid()]
        assert _results(_add_context, [], jobs=jobs, context=factory) == []
        assert calls == [os.getpid()]  # an empty dispatch builds nothing

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_nested_dispatch_keeps_the_outer_context(self, jobs):
        outer = run_tasks_stored(_nested, [1, 2, 3, 4], jobs=jobs,
                                 context=lambda: "outer").results
        assert outer == [("outer", [1000 + task] * 2)
                         for task in (1, 2, 3, 4)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_runner_keeps_no_reference_to_the_context(self, jobs):
        refs = []

        def factory():
            value = _Context(5)
            refs.append(weakref.ref(value))
            return value

        assert _results(_add_offset, [1, 2, 3], jobs=jobs,
                        context=factory) == [6, 7, 8]
        assert run_tasks_stored(_add_offset, [4], jobs=jobs,
                                context=factory).results == [9]
        assert len(refs) == 2
        assert [ref() for ref in refs] == [None, None]

    def test_metrics_registry_only_when_asked(self):
        from repro.obs import hook
        assert hook.SIM is None
        seen = []

        def probe(_context, task):
            seen.append(hook.SIM)
            return task

        _results(probe, [1])
        _results(probe, [2], metrics=True)
        assert seen[0] is None and seen[1] is not None
        assert hook.SIM is None  # the serial path restores the sink

    def test_resolve_jobs(self):
        assert resolve_jobs(4) == 4
        assert resolve_jobs(None) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(0)

    def test_default_jobs_follow_scheduler_affinity(self):
        # os.cpu_count() reports the whole machine even when a cgroup
        # pins this process to fewer cores; the pool must size itself by
        # what it can actually use
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("platform has no scheduler affinity mask")
        assert available_cpus() == len(os.sched_getaffinity(0))
        assert resolve_jobs(None) == available_cpus()

    def test_default_chunksize(self):
        assert default_chunksize(0, 4) == 1
        assert default_chunksize(3, 4) == 1
        assert default_chunksize(160, 4) == 10

    def test_single_task_stays_in_process(self):
        # one task never pays pool startup; it gets the context in-process
        assert _results(_add_context, [7], jobs=8,
                        context=lambda: 0) == [7]

    def test_ctrl_c_interrupts_only_the_dispatching_process(self):
        # SIGINT to the whole process group (Ctrl-C) while one worker
        # runs a task and the other idles: the dispatcher raises
        # KeyboardInterrupt, and neither worker dies with a traceback
        snippet = textwrap.dedent("""
            import os, signal, sys, time
            from repro.runner import run_tasks

            leader = os.getpid()
            if os.getpgid(0) != leader:
                sys.exit("must lead its own process group")

            def task(_context, n):
                if n == 0:  # the other worker is idle by now
                    time.sleep(0.5)
                    os.killpg(leader, signal.SIGINT)
                    time.sleep(0.5)
                return n

            try:
                list(run_tasks(task, [0, 1], jobs=2))
            except KeyboardInterrupt:
                print("interrupted")
        """)
        src_dir = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run([sys.executable, "-c", snippet],
                              env={**os.environ, "PYTHONPATH": src_dir},
                              capture_output=True, text=True, timeout=60,
                              start_new_session=True)
        assert (proc.returncode, proc.stdout) == (0, "interrupted\n")
        assert proc.stderr == ""


class TestSeeding:
    def test_task_seed_is_deterministic(self):
        assert task_seed(2016, "forgery", 8, 0) == \
            task_seed(2016, "forgery", 8, 0)

    def test_task_seed_distinguishes_components(self):
        seeds = {task_seed(2016, "forgery", bits, batch)
                 for bits in range(8) for batch in range(8)}
        assert len(seeds) == 64
        assert task_seed(1, 2) != task_seed(12, "")

    def test_task_rng_streams_are_reproducible(self):
        a = task_rng(7, "x").random()
        b = task_rng(7, "x").random()
        assert a == b

    def test_sample_faults_draws_from_its_seed(self):
        image = transform(parse("main:\n    halt\n"), KEYS, nonce=1)
        by_seed = sample_faults(image, 100, per_model=4, seed=55)
        # a global draw in between must not disturb the private stream
        random.random()
        assert by_seed == sample_faults(image, 100, per_model=4, seed=55)
        # and a different seed draws a different population
        assert by_seed != sample_faults(image, 100, per_model=4, seed=56)


class TestCampaignEquivalence:
    def test_fault_campaign_parallel_matches_serial(self):
        workload = make_workload("crc32", "tiny")
        program = workload.compile().program
        serial, serial_summary = fault_campaign(
            program, KEYS, workload.expected_output, per_model=2, seed=9)
        parallel, parallel_summary = fault_campaign(
            program, KEYS, workload.expected_output, per_model=2, seed=9,
            jobs=2)
        assert [(r.model, r.outcome, r.description, r.status, r.detail)
                for r in serial] == \
               [(r.model, r.outcome, r.description, r.status, r.detail)
                for r in parallel]
        assert serial_summary.counts == parallel_summary.counts

    def test_attack_campaign_parallel_matches_serial(self):
        serial = attack_campaign(seed=1337)
        parallel = attack_campaign(seed=1337, jobs=2)
        assert [(r.attack, r.target, r.outcome, r.status, r.detail)
                for r in serial] == \
               [(r.attack, r.target, r.outcome, r.status, r.detail)
                for r in parallel]

    def test_montecarlo_parallel_is_jobs_independent(self):
        one, two, three = (forgery_scaling(bits_list=(4, 6),
                                           experiments=60, jobs=jobs)
                           for jobs in (1, 2, 3))
        assert one == two == three
        escape1, escape2, escape3 = (
            tamper_detection(bits=4, tampers=800, jobs=jobs)
            for jobs in (1, 2, 3))
        assert escape1 == escape2 == escape3


def _counting(fn, calls):
    def counted(*args, **kwargs):
        calls.append(fn)
        return fn(*args, **kwargs)
    return counted


class TestOverheadSweep:
    def test_workers_inherit_the_sweeps_build(self, monkeypatch):
        parent = os.getpid()
        calls = []
        real = overhead.transform

        def parent_only(*args, **kwargs):
            assert os.getpid() == parent, "a pool worker transformed"
            calls.append(parent)
            return real(*args, **kwargs)

        monkeypatch.setattr(overhead, "transform", parent_only)
        rows = measure_many(
            [OverheadPoint(workload="crc32", scale="tiny",
                           timing=TimingParams(icache_lines=lines))
             for lines in (8, 32, 128, 512)], jobs=2)
        assert len(rows) == 4
        assert len(calls) == 1
        # smaller caches can only be slower
        assert rows[0].sofia_cycles >= rows[3].sofia_cycles

    def test_two_profiles_build_two_images_compile_once(self,
                                                       monkeypatch):
        compiles, transforms = [], []
        monkeypatch.setattr(
            workloads_base, "compile_source",
            _counting(workloads_base.compile_source, compiles))
        monkeypatch.setattr(overhead, "transform",
                            _counting(overhead.transform, transforms))
        rows = measure_many([
            OverheadPoint(workload="crc32", scale="tiny"),
            OverheadPoint(workload="crc32", scale="tiny",
                          profile=ProtectionProfile(block_words=6))])
        assert (len(compiles), len(transforms)) == (1, 2)
        assert rows[0] != rows[1]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rows_match_measure_overhead(self, jobs):
        profiles = [ProtectionProfile(), ProtectionProfile(block_words=6)]
        rows = measure_many(
            [OverheadPoint(workload="crc32", scale="tiny", profile=profile)
             for profile in profiles], jobs=jobs)
        assert rows == [measure_overhead(make_workload("crc32", "tiny"),
                                         profile=profile)
                        for profile in profiles]


class TestExport:
    def test_campaign_json_round_trip(self, tmp_path):
        workload = make_workload("crc32", "tiny")
        path = tmp_path / "faults.json"
        results, _ = fault_campaign(
            workload.compile().program, KEYS, workload.expected_output,
            per_model=1, seed=3, export_path=path)
        record = json.loads(path.read_text())
        assert record["campaign"] == "fault-injection"
        assert record["num_results"] == len(results)
        assert record["parameters"]["per_model"] == 1
        first = record["results"][0]
        assert first["model"] == results[0].model
        assert first["outcome"] == results[0].outcome.value

    def test_to_jsonable_handles_repo_types(self):
        from repro.faults import CodeBitFlip, FaultOutcome
        value = to_jsonable({
            "fault": CodeBitFlip(5, address=8, bit=1),
            "outcome": FaultOutcome.DETECTED,
            "seq": (1, 2),
        })
        assert value["fault"]["address"] == 8
        assert value["outcome"] == "detected"
        assert value["seq"] == [1, 2]

    def test_campaign_record_shape(self, tmp_path):
        record = campaign_record("demo", {"seed": 1}, [1, 2, 3], jobs=2,
                                 elapsed_seconds=0.5)
        target = write_campaign(tmp_path / "demo.json", record)
        loaded = json.loads(target.read_text())
        assert loaded["jobs"] == 2
        assert loaded["elapsed_seconds"] == 0.5
        assert loaded["results"] == [1, 2, 3]

    def test_sets_serialize_canonically(self):
        assert to_jsonable({"models", "code", "skip"}) == \
            ["code", "models", "skip"]
        assert to_jsonable(frozenset([3, 1, 2])) == [1, 2, 3]
        # mixed types order by their canonical JSON form, not by hash
        assert to_jsonable({(1, 2), (0, 9)}) == [[0, 9], [1, 2]]

    def test_set_order_is_hash_seed_independent(self, tmp_path):
        # string set iteration follows the per-interpreter hash salt;
        # the export layer must not leak it into the JSON byte stream
        snippet = (
            "import json; from repro.runner import to_jsonable; "
            "print(json.dumps(to_jsonable("
            "{'alpha', 'beta', 'gamma', 'delta', 'epsilon'})))")
        src_dir = str(Path(__file__).resolve().parent.parent / "src")
        outputs = set()
        for hash_seed in ("0", "42"):
            proc = subprocess.run(
                [sys.executable, "-c", snippet],
                env={**os.environ, "PYTHONPATH": src_dir,
                     "PYTHONHASHSEED": hash_seed},
                capture_output=True, text=True, check=True)
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        assert json.loads(outputs.pop()) == \
            ["alpha", "beta", "delta", "epsilon", "gamma"]

    def test_atomic_write_replaces_or_leaves_old_content(self, tmp_path):
        target = tmp_path / "artifact.json"
        atomic_write(target, "first")
        assert target.read_text() == "first"
        # a writer that dies mid-call must leave the old content intact
        # at the final path, with no temp debris beside it
        with pytest.raises(TypeError):
            atomic_write(target, 0xBAD)  # not str: write() raises
        assert target.read_text() == "first"
        assert list(tmp_path.iterdir()) == [target]

    def test_atomic_write_makes_what_a_plain_write_makes(self, tmp_path):
        # the same bytes, text as UTF-8, and the same permission bits
        plain, atomic = tmp_path / "plain", tmp_path / "atomic"
        plain.write_text("caf\u00e9\n", encoding="utf-8")
        atomic_write(atomic, "caf\u00e9\n")
        assert atomic.read_bytes() == plain.read_bytes()
        assert atomic.stat().st_mode == plain.stat().st_mode
        atomic_write(atomic, b"\x00\xff")
        assert atomic.read_bytes() == b"\x00\xff"

    def test_failed_write_to_fresh_path_leaves_nothing(self, tmp_path):
        with pytest.raises(TypeError):
            atomic_write(tmp_path / "fresh.json", 0xBAD)
        assert list(tmp_path.iterdir()) == []


class TestCli:
    def test_attack_jobs_and_export(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "attack.json"
        assert main(["attack", "--jobs", "2", "--export", str(out)]) == 0
        matrix = capsys.readouterr().out
        assert "sofia" in matrix and "detected" in matrix
        record = json.loads(out.read_text())
        assert record["campaign"] == "attack-matrix"
        assert record["jobs"] == 2

    def test_experiments_jobs_flag(self, capsys):
        from repro.cli import main
        assert main(["experiments", "security", "--jobs", "2"]) == 0
        assert "Monte-Carlo" in capsys.readouterr().out
