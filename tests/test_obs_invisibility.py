"""Telemetry invisibility: exports are byte-identical with it on or off.

The observability layer's one hard guarantee (DESIGN.md "Observability"):
attaching a :class:`repro.obs.Telemetry` to a campaign must not change a
single exported byte, at any ``--jobs`` value.  Each campaign here runs
four times — telemetry off/on at jobs 1 and 4 — over a fresh result
store (store-backed exports are canonical: no wall-clock or worker-count
field), and every export must be byte-equal to every other.

Merged metric totals must also be deterministic: the counter sums from a
serial run and a 4-worker run of the same campaign are identical (the
fault campaign's lockstep groups, whose memos and golden blocks are per
group, depend only on the batch width, never on the worker count, and
whether a specimen rejoins the golden run depends only on the specimen
and the trace).  Nor do they depend on where a fault campaign found its
golden trace — recorded, kept by the process, or loaded from a store —
except for the two counters that say which.
"""

import pytest

from repro.crypto.keys import DeviceKeys
from repro.faults.campaign import run_campaign as run_fault_campaign
from repro.obs import Telemetry, campaign as obs_campaign
from repro.runner import ResultStore
from repro.sim import batch
from repro.workloads import make_workload

SEED = 0x0B5
KEY_SEED = 0x50F1A


def _variants():
    """(label, jobs, with_telemetry) — the four runs every test makes."""
    return [("j1-off", 1, False), ("j1-on", 1, True),
            ("j4-off", 4, False), ("j4-on", 4, True)]


def _run(tmp_path, label, with_telemetry, campaign_name, fn):
    """Run ``fn(telemetry, store_dir, export_path)``; return export bytes
    and the telemetry counter totals (or None).  Each run starts with no
    golden trace kept, as a fresh process would."""
    batch._TRACES.clear()
    export = tmp_path / f"{label}.json"
    store = tmp_path / f"store-{label}"
    telemetry = Telemetry() if with_telemetry else None
    with obs_campaign(telemetry, campaign_name, {"label": label}):
        fn(telemetry, str(store), str(export))
    counters = dict(telemetry.metrics.counters) if telemetry else None
    return export.read_bytes(), counters


class TestFaultInvisibility:
    @pytest.fixture(scope="class")
    def victim(self):
        workload = make_workload("crc32", "tiny")
        return (workload.compile().program, workload.expected_output,
                DeviceKeys.from_seed(KEY_SEED))

    def test_exports_and_merges(self, tmp_path, victim):
        program, golden, keys = victim
        exports, counters = {}, {}
        for label, jobs, with_telemetry in _variants():
            def fn(telemetry, store, export, jobs=jobs):
                run_fault_campaign(
                    program, keys, golden, per_model=2, seed=SEED,
                    jobs=jobs, export_path=export,
                    store_dir=store)
            exports[label], counters[label] = _run(
                tmp_path, label, with_telemetry, "fault", fn)
        assert len(set(exports.values())) == 1, \
            "fault export differs between telemetry/jobs variants"
        assert counters["j1-on"] == counters["j4-on"]
        # 6 models x 2 specimens: one lockstep group, one pool task
        assert counters["j1-on"]["tasks.completed"] == 1
        assert counters["j1-on"]["sim.lockstep.forks"] == 12
        assert counters["j1-on"]["sim.runs.fast"] > 0
        # convergence depends only on the specimen and the golden trace,
        # so its counters are among the jobs-invariant totals above
        assert counters["j1-on"]["faults.converged"] > 0
        assert counters["j1-on"]["faults.instructions_skipped"] > 0

    def test_counters_are_jobs_invariant_across_groups(self, tmp_path,
                                                       victim):
        # 6 models x 11 specimens: two lockstep groups (64 + 2), run in
        # one process at jobs 1 and in separate workers at jobs 4 — the
        # golden blocks one group predecodes or compiles must not reach
        # the other
        program, golden, keys = victim
        exports, counters = {}, {}
        for label, jobs in (("j1-on", 1), ("j4-on", 4)):
            def fn(telemetry, store, export, jobs=jobs):
                run_fault_campaign(
                    program, keys, golden, per_model=11, seed=SEED,
                    jobs=jobs, export_path=export,
                    store_dir=store)
            exports[label], counters[label] = _run(
                tmp_path, label, True, "fault", fn)
        assert exports["j1-on"] == exports["j4-on"]
        assert counters["j1-on"] == counters["j4-on"]
        assert counters["j1-on"]["tasks.completed"] == 2
        assert counters["j1-on"]["sim.lockstep.forks"] == 66

    def test_counters_do_not_depend_on_where_the_trace_came_from(
            self, tmp_path, victim):
        program, golden, keys = victim

        def counted(store):
            telemetry = Telemetry()
            with obs_campaign(telemetry, "fault"):
                run_fault_campaign(program, keys, golden, per_model=11,
                                   seed=SEED, store_dir=store)
            return dict(telemetry.metrics.counters)

        recorded = counted(tmp_path / "recorded")
        cached = counted(tmp_path / "cached")
        # a store holding the golden trace and no specimen, read by a
        # process that keeps no trace
        source = ResultStore(tmp_path / "recorded")
        loaded_store = ResultStore(tmp_path / "loaded")
        for key in source.keys():
            value = source.get(key)
            if isinstance(value, batch.GoldenTrace):
                loaded_store.put(key, value)
        assert len(loaded_store) == 1
        batch._TRACES.clear()
        loaded = counted(tmp_path / "loaded")

        assert recorded.pop("faults.golden_recorded") == 1
        assert cached.pop("faults.golden_reused") == 1
        assert loaded.pop("faults.golden_reused") == 1
        assert recorded == cached == loaded
        assert recorded["sim.lockstep.forks"] == 66


class TestAttacksynthInvisibility:
    def test_exports_and_merges(self, tmp_path):
        from repro.attacksynth import run_attacksynth
        exports, counters = {}, {}
        for label, jobs, with_telemetry in _variants():
            def fn(telemetry, store, export, jobs=jobs):
                run_attacksynth(
                    2, seed=SEED, per_program=2, key_seed=KEY_SEED,
                    jobs=jobs, export_path=export,
                    store_dir=store)
            exports[label], counters[label] = _run(
                tmp_path, label, with_telemetry, "attacksynth", fn)
        assert len(set(exports.values())) == 1, \
            "attacksynth export differs between telemetry/jobs variants"
        assert counters["j1-on"] == counters["j4-on"]
        assert counters["j1-on"]["tasks.completed"] == 2


class TestDseInvisibility:
    def test_exports_and_merges(self, tmp_path):
        from repro.dse import run_dse
        from repro.dse.grid import parse_profile_spec
        profiles = [parse_profile_spec("rectangle-80:mac64:sequential"),
                    parse_profile_spec("present-80:mac32:fixed")]
        exports, counters = {}, {}
        for label, jobs, with_telemetry in _variants():
            def fn(telemetry, store, export, jobs=jobs):
                run_dse(profiles, seed=SEED, key_seed=KEY_SEED,
                        workloads=("crc32",), scale="tiny", programs=1,
                        per_model=1, jobs=jobs,
                        export_path=export, store_dir=store)
            exports[label], counters[label] = _run(
                tmp_path, label, with_telemetry, "dse", fn)
        assert len(set(exports.values())) == 1, \
            "dse export differs between telemetry/jobs variants"
        assert counters["j1-on"] == counters["j4-on"]
        assert counters["j1-on"]["tasks.completed"] == len(profiles)
        # each point's own campaigns are dispatches nested in its task,
        # so their simulation counts into that task's span
        assert counters["j1-on"]["faults.golden_recorded"] == len(profiles)
        assert counters["j1-on"]["sim.runs.fast"] > 0
