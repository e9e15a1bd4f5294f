"""Kill/resume and shard-union equivalence for store-backed campaigns.

The durability contract under test: a campaign killed at an arbitrary
point and resumed over its store — or split across shards whose stores
are merged — emits artifacts byte-identical to an uninterrupted serial
run.  The SIGKILL cases run a campaign in a subprocess that kills itself
at a deterministic point: inside ``ResultStore.put`` after N persisted
results, or inside the task function of the Nth dispatched unit, when
every earlier unit must already be stored.  The shard cases split the
attack-synthesis and fuzz campaigns across invocations at mixed worker
counts.
"""

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import obs
from repro.attacksynth import run_attacksynth
from repro.crypto import DeviceKeys
from repro.dse import run_dse
from repro.faults import run_campaign as fault_campaign
from repro.fuzz import run_fuzz
from repro.obs import Telemetry, read_events, summarize
from repro.runner import (ResultStore, ShardSpec, merge_stores,
                          run_tasks_stored, task_key)
from repro.runner.pool import recording_interrupts
from repro.transform import ProtectionProfile
from repro.workloads import make_workload

KEYS = DeviceKeys.from_seed(0xFA)

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

#: runs a store-backed fault campaign, SIGKILLing the process after the
#: Nth persisted result — the deterministic mid-campaign crash
_KILLED_CAMPAIGN = textwrap.dedent("""
    import os, signal, sys
    from repro.runner.store import ResultStore

    kill_after = int(sys.argv[1])
    real_put = ResultStore.put
    puts = [0]

    def killing_put(self, key, value):
        real_put(self, key, value)
        puts[0] += 1
        if puts[0] >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)

    ResultStore.put = killing_put

    from repro.crypto import DeviceKeys
    from repro.faults import run_campaign
    from repro.workloads import make_workload

    workload = make_workload("crc32", "tiny")
    run_campaign(workload.compile().program, DeviceKeys.from_seed(0xFA),
                 workload.expected_output, per_model=2, seed=9,
                 store_dir=sys.argv[2], export_path=sys.argv[3])
""")


#: runs a store-backed campaign (``fault``: crc32-tiny at per_model=11,
#: 64 + 2 specimens in two lockstep groups; ``attacksynth``: three
#: programs, one unit each), SIGKILLing the process on entry to the Nth
#: call of its task function — a crash in the middle of execution
_KILLED_IN_TASK = textwrap.dedent("""
    import os, signal, sys

    campaign, kill_on, store_dir, export = sys.argv[1:]
    calls = [0]

    def killing(real):
        def task(*args, **kwargs):
            calls[0] += 1
            if calls[0] >= int(kill_on):
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args, **kwargs)
        return task

    if campaign == "fault":
        import repro.faults.campaign as module
        from repro.crypto import DeviceKeys
        from repro.workloads import make_workload

        module.run_fault_batch = killing(module.run_fault_batch)
        workload = make_workload("crc32", "tiny")
        module.run_campaign(workload.compile().program,
                            DeviceKeys.from_seed(0xFA),
                            workload.expected_output, per_model=11, seed=9,
                            store_dir=store_dir, export_path=export)
    else:
        import repro.attacksynth.campaign as module

        module._synth_task = killing(module._synth_task)
        module.run_attacksynth(3, seed=21, per_program=2,
                               store_dir=store_dir, export_path=export)
""")


#: runs a store-backed crc32-tiny fault campaign (per_model=2) with the
#: given seed, store and export, then prints how many golden runs it
#: recorded — a campaign in a process of its own
_COUNTED_CAMPAIGN = textwrap.dedent("""
    import sys
    from repro.crypto import DeviceKeys
    from repro.faults import run_campaign
    from repro.sim.batch import GoldenTrace
    from repro.workloads import make_workload

    seed, store_dir, export = sys.argv[1:]
    real_record = GoldenTrace.record
    recorded = []

    def counting(*args, **kwargs):
        recorded.append(args)
        return real_record(*args, **kwargs)

    GoldenTrace.record = counting
    workload = make_workload("crc32", "tiny")
    run_campaign(workload.compile().program, DeviceKeys.from_seed(0xFA),
                 workload.expected_output, per_model=2, seed=int(seed),
                 store_dir=store_dir, export_path=export)
    print(len(recorded))
""")


def _counted_campaign(seed, store_dir, export):
    """Run :data:`_COUNTED_CAMPAIGN` in a fresh process; its record
    count."""
    proc = subprocess.run(
        [sys.executable, "-c", _COUNTED_CAMPAIGN, str(seed),
         str(store_dir), str(export)],
        env={**os.environ, "PYTHONPATH": SRC_DIR},
        capture_output=True, text=True, check=True)
    return int(proc.stdout)


def _count_records(monkeypatch):
    """Count ``GoldenTrace.record`` calls for the rest of the test."""
    from repro.sim.batch import GoldenTrace
    real_record = GoldenTrace.record
    recorded = []

    def counting(*args, **kwargs):
        recorded.append(args)
        return real_record(*args, **kwargs)

    monkeypatch.setattr(GoldenTrace, "record", counting)
    return recorded


def _golden_entry(store_dir):
    """The stored bytes of the golden trace in the store at
    ``store_dir``."""
    from repro.sim.batch import GoldenTrace
    store = ResultStore(store_dir)
    [key] = [key for key in store.keys()
             if isinstance(store.get(key), GoldenTrace)]
    return store._path(key).read_bytes()


def _fault_campaign_store(store_dir, export_path, per_model=2, **kwargs):
    workload = make_workload("crc32", "tiny")
    return fault_campaign(workload.compile().program, KEYS,
                          workload.expected_output, per_model=per_model,
                          seed=9, store_dir=store_dir,
                          export_path=export_path, **kwargs)


def _killed_in_task(campaign, kill_on, store_dir, export):
    proc = subprocess.run(
        [sys.executable, "-c", _KILLED_IN_TASK, campaign, str(kill_on),
         str(store_dir), str(export)],
        env={**os.environ, "PYTHONPATH": SRC_DIR},
        capture_output=True, text=True)
    assert proc.returncode == -9, proc.stderr
    assert not export.exists()  # died before the export
    return ResultStore(store_dir)


class TestKillResume:
    @pytest.mark.parametrize("kill_after", [1, 7])
    def test_sigkilled_campaign_resumes_byte_identical(self, tmp_path,
                                                       kill_after):
        golden = tmp_path / "golden.json"
        _fault_campaign_store(tmp_path / "golden-store", golden)

        store_dir = tmp_path / "store"
        export = tmp_path / "resumed.json"
        proc = subprocess.run(
            [sys.executable, "-c", _KILLED_CAMPAIGN, str(kill_after),
             str(store_dir), str(export)],
            env={**os.environ, "PYTHONPATH": SRC_DIR},
            capture_output=True, text=True)
        assert proc.returncode == -9, proc.stderr
        assert not export.exists()  # died before the export
        partial = ResultStore(store_dir)
        assert len(partial) == kill_after  # atomic puts, no torn entry

        results, summary = _fault_campaign_store(store_dir, export)
        assert export.read_bytes() == golden.read_bytes()
        assert sum(n for per_model in summary.counts.values()
                   for n in per_model.values()) == len(results)

    def test_warm_store_rerun_executes_nothing(self, tmp_path,
                                               monkeypatch):
        export = tmp_path / "cold.json"
        _fault_campaign_store(tmp_path / "store", export)
        cold_bytes = export.read_bytes()

        import repro.faults.campaign as faults_campaign
        from repro.sim.batch import GoldenTrace

        def forbidden(*args, **kwargs):
            raise AssertionError("warm rerun must not simulate")

        monkeypatch.setattr(faults_campaign, "run_fault_batch", forbidden)
        monkeypatch.setattr(GoldenTrace, "record", forbidden)
        warm = tmp_path / "warm.json"
        _fault_campaign_store(tmp_path / "store", warm)
        assert warm.read_bytes() == cold_bytes

    def test_golden_run_is_recorded_once_and_only_when_needed(
            self, tmp_path, monkeypatch):
        from repro.sim import batch
        recorded = _count_records(monkeypatch)
        golden = tmp_path / "golden.json"
        _fault_campaign_store(tmp_path / "golden-store", golden,
                              per_model=11)
        assert len(recorded) == 1  # planning and forking share one trace
        # another campaign on the image, with a fresh store: the process
        # keeps the trace
        _fault_campaign_store(tmp_path / "other-store", None, per_model=3)
        assert len(recorded) == 1
        # and stores it as it stored it the first time, forks and all
        assert (_golden_entry(tmp_path / "other-store")
                == _golden_entry(tmp_path / "golden-store"))

        store_dir, export = tmp_path / "store", tmp_path / "final.json"
        _fault_campaign_store(store_dir, None, per_model=11,
                              shard=ShardSpec(index=1, count=2))
        assert len(recorded) == 1
        # from here on each campaign starts as a new process would, with
        # no trace kept: the store alone holds it
        batch._TRACES.clear()
        _fault_campaign_store(store_dir, None, per_model=11,
                              shard=ShardSpec(index=1, count=2))
        assert len(recorded) == 1  # a shard's rerun loads the trace
        batch._TRACES.clear()
        # the other half is missing: its groups fork the stored trace
        _fault_campaign_store(store_dir, export, per_model=11)
        assert len(recorded) == 1
        assert export.read_bytes() == golden.read_bytes()
        batch._TRACES.clear()
        _fault_campaign_store(store_dir, export, per_model=11)
        assert len(recorded) == 1

    def test_the_process_keeps_a_bounded_number_of_traces(self):
        from repro.sim import batch
        traces = [object() for _ in range(batch.TRACE_CACHE_ENTRIES + 1)]
        for index, trace in enumerate(traces):
            batch.keep_trace(str(index), trace)
        assert batch.cached_trace("0") is None  # the oldest went first
        assert [batch.cached_trace(str(index))
                for index in range(1, len(traces))] == traces[1:]

    def test_two_seeds_over_one_store_record_once(self, tmp_path):
        store_dir = tmp_path / "store"
        assert _counted_campaign(9, store_dir, tmp_path / "a.json") == 1
        assert _counted_campaign(10, store_dir, tmp_path / "b.json") == 0
        # the second seed, recorded afresh, exports the same bytes
        assert _counted_campaign(10, tmp_path / "fresh",
                                 tmp_path / "c.json") == 1
        assert ((tmp_path / "b.json").read_bytes()
                == (tmp_path / "c.json").read_bytes())

    def test_campaign_after_a_cache_hit_exports_fresh_bytes(
            self, tmp_path, monkeypatch):
        recorded = _count_records(monkeypatch)
        _fault_campaign_store(tmp_path / "first", None, per_model=11)
        export = tmp_path / "hit.json"
        workload = make_workload("crc32", "tiny")
        fault_campaign(workload.compile().program, KEYS,
                       workload.expected_output, per_model=2, seed=10,
                       store_dir=tmp_path / "second", export_path=export)
        assert len(recorded) == 1
        assert _counted_campaign(10, tmp_path / "fresh",
                                 tmp_path / "fresh.json") == 1
        assert export.read_bytes() == (tmp_path / "fresh.json").read_bytes()

    @pytest.mark.parametrize("change", [
        {"nonce": 0xFA18},
        {"profile": ProtectionProfile(mac_words=3)},
        {"keys": DeviceKeys.from_seed(0xFB)},
        {"max_instructions": 1_000_000},
    ], ids=["nonce", "profile", "keys", "budget"])
    def test_each_trace_input_gets_its_own_record(self, monkeypatch,
                                                  change):
        recorded = _count_records(monkeypatch)
        workload = make_workload("crc32", "tiny")
        program = workload.compile().program
        campaign = dict(keys=KEYS, golden_output=workload.expected_output,
                        per_model=1)
        fault_campaign(program, **campaign)
        fault_campaign(program, **campaign)
        assert len(recorded) == 1
        fault_campaign(program, **dict(campaign, **change))
        assert len(recorded) == 2

    def test_kill_inside_second_fault_group_keeps_the_first(self,
                                                            tmp_path):
        golden = tmp_path / "golden.json"
        _fault_campaign_store(tmp_path / "golden-store", golden,
                              per_model=11)
        store_dir, export = tmp_path / "store", tmp_path / "resumed.json"
        partial = _killed_in_task("fault", 2, store_dir, export)
        # the golden trace and the whole first group, nothing more
        assert len(partial) == 1 + 64
        _fault_campaign_store(store_dir, export, per_model=11)
        assert export.read_bytes() == golden.read_bytes()

    def test_kill_inside_third_program_keeps_the_first_two(self,
                                                           tmp_path):
        params = dict(seed=21, per_program=2)
        golden = tmp_path / "golden.json"
        run_attacksynth(3, export_path=golden, **params)
        store_dir, export = tmp_path / "store", tmp_path / "resumed.json"
        partial = _killed_in_task("attacksynth", 3, store_dir, export)
        assert len(partial) == 2
        report = run_attacksynth(3, store_dir=store_dir,
                                 export_path=export, **params)
        assert report.complete
        assert export.read_bytes() == golden.read_bytes()


def _fails_at_three(_context, task):
    if task == 3:
        raise RuntimeError("no result for task 3")
    return task * 2


def _interrupts_at_three(_context, task):
    if task == 3:
        raise KeyboardInterrupt
    return task * 2


class _Finalized:
    """Raises SIGINT from its finalizer, where Python prints the
    ``KeyboardInterrupt`` as "Exception ignored" and drops it."""

    def __del__(self):
        signal.raise_signal(signal.SIGINT)


def _swallows_interrupt_at_three(_context, task):
    if task == 3:
        _Finalized()  # dropped at once: its finalizer runs here
    return task * 2


class TestFailedTask:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_task_is_reported_after_earlier_units_are_stored(
            self, tmp_path, jobs):
        tasks = list(range(6))
        keys = [task_key("demo", {}, task) for task in tasks]
        telemetry = Telemetry(directory=tmp_path / "tel")
        with pytest.raises(RuntimeError, match="no result for task 3"):
            with obs.campaign(telemetry, "demo"):
                run_tasks_stored(_fails_at_three, tasks, keys, jobs=jobs,
                                 store=ResultStore(tmp_path / "store"))
        store = ResultStore(tmp_path / "store")
        assert sorted(store.keys()) == sorted(keys[:3])
        failed = [record for record in
                  read_events(tmp_path / "tel" / "events.jsonl")
                  if record["event"] == "task-failed"]
        assert [(r["index"], r["error"], r["key"]) for r in failed] == \
            [(3, "RuntimeError", keys[3])]
        last = list(read_events(tmp_path / "tel" / "events.jsonl"))[-1]
        assert (last["event"], last["status"]) == ("campaign-end", "failed")
        text, problems = summarize(tmp_path / "tel")
        assert problems == 0
        assert "task-failed      1" in text
        assert "status      failed" in text

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnraisableExceptionWarning")
    def test_interrupt_a_finalizer_swallowed_stops_the_dispatch(
            self, tmp_path):
        # the interrupt is dropped inside the fourth unit: that unit
        # finishes and is stored, and the dispatch stops right after it
        tasks = list(range(6))
        keys = [task_key("demo", {}, task) for task in tasks]
        telemetry = Telemetry(directory=tmp_path / "tel")
        with pytest.raises(KeyboardInterrupt):
            with recording_interrupts(), obs.campaign(telemetry, "demo"):
                run_tasks_stored(_swallows_interrupt_at_three, tasks, keys,
                                 store=ResultStore(tmp_path / "store"))
        store = ResultStore(tmp_path / "store")
        assert sorted(store.keys()) == sorted(keys[:4])
        events = list(read_events(tmp_path / "tel" / "events.jsonl"))
        assert (events[-1]["event"], events[-1]["status"]) == \
            ("campaign-end", "interrupted")

    def test_interrupt_ends_the_campaign_interrupted(self, tmp_path):
        # Ctrl-C inside the fourth unit: the three before it are stored,
        # and the campaign still ends, says so and writes its metrics
        tasks = list(range(6))
        keys = [task_key("demo", {}, task) for task in tasks]
        telemetry = Telemetry(directory=tmp_path / "tel")
        with pytest.raises(KeyboardInterrupt):
            with obs.campaign(telemetry, "demo"):
                run_tasks_stored(_interrupts_at_three, tasks, keys, jobs=1,
                                 store=ResultStore(tmp_path / "store"))
        store = ResultStore(tmp_path / "store")
        assert sorted(store.keys()) == sorted(keys[:3])
        events = list(read_events(tmp_path / "tel" / "events.jsonl"))
        assert (events[-1]["event"], events[-1]["status"]) == \
            ("campaign-end", "interrupted")
        assert (tmp_path / "tel" / "metrics.json").is_file()
        text, problems = summarize(tmp_path / "tel")
        assert problems == 0
        assert "status      interrupted" in text


class TestShardedAttacksynth:
    def test_three_way_split_at_mixed_jobs(self, tmp_path):
        params = dict(programs=3, seed=21, per_program=3)
        golden = tmp_path / "golden.json"
        golden_csv = tmp_path / "golden.csv"
        run_attacksynth(export_path=golden, csv_path=golden_csv, **params)

        job_mix = {1: dict(jobs=2), 2: dict(jobs=1), 3: dict(jobs=3)}
        for index in (1, 2, 3):
            export = tmp_path / f"shard{index}.json"
            report = run_attacksynth(
                store_dir=tmp_path / f"store{index}",
                shard=ShardSpec(index=index, count=3),
                export_path=export, **params, **job_mix[index])
            assert not report.complete
            assert not export.exists()  # incomplete runs never export

        copied, present = merge_stores(
            tmp_path / "merged",
            [tmp_path / f"store{i}" for i in (1, 2, 3)])
        assert present == 0  # round-robin slices are disjoint

        final = tmp_path / "final.json"
        final_csv = tmp_path / "final.csv"
        report = run_attacksynth(store_dir=tmp_path / "merged",
                                 export_path=final, csv_path=final_csv,
                                 **params)
        assert report.complete
        assert copied == len(report.programs)
        assert final.read_bytes() == golden.read_bytes()
        assert final_csv.read_bytes() == golden_csv.read_bytes()


class TestShardedFuzz:
    def test_shard_alternation_converges_to_serial_run(self, tmp_path):
        params = dict(seeds=20, batch=10, seed=7)
        golden = run_fuzz(**params)

        store_dir = tmp_path / "store"
        for _round in range(10):
            pending = False
            for index in (1, 2):
                report = run_fuzz(store_dir=store_dir,
                                  shard=ShardSpec(index=index, count=2),
                                  **params)
                pending = pending or report.pending
            if not pending:
                break
        else:
            pytest.fail("fuzz shards never reached a complete round")

        resumed = run_fuzz(store_dir=store_dir, **params)
        assert not resumed.pending
        assert resumed.specimens == golden.specimens
        assert resumed.coverage.summary() == golden.coverage.summary()
        assert resumed.corpus.shas() == golden.corpus.shas()
        assert [r.sha for r in resumed.failures] == \
            [r.sha for r in golden.failures]

    def test_pending_shard_persists_nothing(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        report = run_fuzz(seeds=20, batch=10, seed=7,
                          corpus_dir=corpus_dir,
                          store_dir=tmp_path / "store",
                          shard=ShardSpec(index=1, count=2))
        assert report.pending
        # a partial corpus would change the next invocation's steering
        assert not corpus_dir.exists()


class TestStoredDse:
    PROFILES = [ProtectionProfile(),
                ProtectionProfile(cipher="present-80", mac_words=1,
                                  renonce="fixed")]
    PARAMS = dict(seed=77, workloads=("crc32",), scale="tiny",
                  programs=1, per_model=1)

    def test_warm_resume_is_byte_identical_and_free(self, tmp_path):
        cold_json, cold_csv = tmp_path / "c.json", tmp_path / "c.csv"
        run_dse(self.PROFILES, store_dir=tmp_path / "store",
                export_path=cold_json, csv_path=cold_csv, **self.PARAMS)

        import repro.dse.campaign as dse_campaign
        real_dse_task = dse_campaign._dse_task

        def forbidden(*args, **kwargs):
            raise AssertionError("warm rerun must not evaluate points")

        dse_campaign._dse_task = forbidden
        try:
            warm_json, warm_csv = tmp_path / "w.json", tmp_path / "w.csv"
            report = run_dse(self.PROFILES, store_dir=tmp_path / "store",
                             export_path=warm_json, csv_path=warm_csv,
                             **self.PARAMS)
        finally:
            dse_campaign._dse_task = real_dse_task
        assert report.complete
        assert warm_json.read_bytes() == cold_json.read_bytes()
        assert warm_csv.read_bytes() == cold_csv.read_bytes()

    def test_sharded_sweep_waits_for_merge(self, tmp_path):
        export = tmp_path / "sharded.json"
        report = run_dse(self.PROFILES, store_dir=tmp_path / "s1",
                         shard=ShardSpec(index=1, count=2),
                         export_path=export, **self.PARAMS)
        assert not report.complete
        assert len(report.points) == 1  # its slice only
        assert not export.exists()
