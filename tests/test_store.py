"""Tests for the persistent result store (``repro.runner.store``).

The store's contract: content-addressed keys that move with the code
version, atomic durable puts, unreadable entries treated as missing,
conflict-refusing merges, and a ``run_tasks_stored`` seam whose warm
path does zero execution while staying indistinguishable from a plain
``[fn(task) for task in tasks]`` loop.
"""

import pickle

import pytest

from repro.runner import (ResultStore, ShardSpec, code_version,
                          merge_stores, parse_shard, run_tasks_stored,
                          shard_partition, stable_digest, task_key,
                          task_keys)


class TestCodeVersion:
    def test_stable_within_process(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "pinned-release-1")
        assert code_version() == "pinned-release-1"
        monkeypatch.delenv("REPRO_CODE_VERSION")
        assert code_version() != "pinned-release-1"


class TestTaskKey:
    def test_deterministic(self):
        a = task_key("fault", {"seed": 1}, {"bit": 3})
        b = task_key("fault", {"seed": 1}, {"bit": 3})
        assert a == b and len(a) == 64

    def test_sensitive_to_every_component(self):
        base = task_key("fault", {"seed": 1}, {"bit": 3})
        assert task_key("fuzz", {"seed": 1}, {"bit": 3}) != base
        assert task_key("fault", {"seed": 2}, {"bit": 3}) != base
        assert task_key("fault", {"seed": 1}, {"bit": 4}) != base
        assert task_key("fault", {"seed": 1}, {"bit": 3},
                        code="other") != base

    def test_set_valued_context_is_order_free(self):
        # sets serialize canonically, so the same logical context always
        # derives the same key regardless of hash-salted iteration order
        a = task_key("c", {"models": {"alpha", "beta", "gamma"}}, 0)
        b = task_key("c", {"models": {"gamma", "alpha", "beta"}}, 0)
        assert a == b

    def test_stable_digest_matches_across_shapes(self):
        assert stable_digest({"a": 1, "b": 2}) == \
            stable_digest({"b": 2, "a": 1})
        assert stable_digest([1, 2]) != stable_digest([2, 1])


class TestTaskKeys:
    """``task_keys`` serializes the context once; every key must stay
    byte-identical to :func:`task_key`'s."""

    TASKS = [0, "x", None, 2.5, [1, {"b": 2, "a": 1}],
             {"models": {"gamma", "alpha"}}, ("t", 1)]

    @pytest.mark.parametrize("context", [
        {}, {"seed": 1}, {"models": {"alpha", "beta", "gamma"}},
        {"nested": {"z": [1, 2], "a": {"q", "p"}}, "\u00e9": "\u2603"},
        [3, 1], None])
    def test_equal_to_task_key(self, context):
        assert task_keys("c", context, self.TASKS) == [
            task_key("c", context, task) for task in self.TASKS]
        assert task_keys("c", context, self.TASKS, code="pinned") == [
            task_key("c", context, task, code="pinned")
            for task in self.TASKS]

    def test_set_ordering_is_canonical(self):
        a = task_keys("c", {"models": {"alpha", "beta", "gamma"}},
                      [{"s": {"b", "a"}}])
        b = task_keys("c", {"models": {"gamma", "alpha", "beta"}},
                      [{"s": {"a", "b"}}])
        assert a == b == [task_key("c", {"models": {"beta", "gamma",
                                                    "alpha"}},
                                   {"s": {"a", "b"}})]

    def test_no_tasks_no_keys(self):
        assert task_keys("c", {"seed": 1}, []) == []

    @pytest.mark.parametrize("campaign", ["fault", "attacksynth", "fuzz",
                                          "dse"])
    def test_every_campaign_context(self, campaign, tmp_path, monkeypatch):
        # each campaign's real context and tasks, as it keys them
        import importlib
        package = "faults" if campaign == "fault" else campaign
        module = importlib.import_module(f"repro.{package}.campaign")
        calls = []

        def checked(name, context, tasks, **kwargs):
            keys = task_keys(name, context, tasks, **kwargs)
            assert keys == [task_key(name, context, task, **kwargs)
                            for task in tasks]
            calls.append(len(keys))
            return keys

        monkeypatch.setattr(module, "task_keys", checked)
        store_dir = tmp_path / "store"
        if campaign == "fault":
            from repro.crypto import DeviceKeys
            from repro.workloads import make_workload
            workload = make_workload("crc32", "tiny")
            module.run_campaign(workload.compile().program,
                                DeviceKeys.from_seed(0xFA),
                                workload.expected_output, per_model=2,
                                seed=9, store_dir=store_dir)
        elif campaign == "attacksynth":
            module.run_attacksynth(2, seed=21, per_program=2,
                                   store_dir=store_dir)
        elif campaign == "fuzz":
            module.run_fuzz(4, batch=2, seed=7, store_dir=store_dir)
        else:
            from repro.transform.profile import ProtectionProfile
            module.run_dse([ProtectionProfile(),
                            ProtectionProfile(cipher="present-80",
                                              mac_words=1,
                                              renonce="fixed")],
                           seed=77, workloads=("crc32",), scale="tiny",
                           programs=1, per_model=1, store_dir=store_dir)
        assert calls and all(calls)


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = task_key("demo", {}, 1)
        assert key not in store
        assert store.get(key, "absent") == "absent"
        store.put(key, {"value": 41})
        assert key in store
        assert store.get(key) == {"value": 41}
        assert list(store.keys()) == [key]
        assert len(store) == 1

    def test_stored_none_is_distinguished_from_absent(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = task_key("demo", {}, "none")
        store.put(key, None)
        run = run_tasks_stored(
            lambda _context, task: pytest.fail("cache miss"),
            ["none"], [key], store=store)
        assert run.hits == 1 and run.executed == 0
        assert run.results == [None]

    def test_corrupt_entry_counts_as_missing(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = task_key("demo", {}, 2)
        store.put(key, 99)
        path = store._path(key)
        path.write_bytes(pickle.dumps(99)[:3])  # torn copy
        assert store.get(key, "absent") == "absent"
        store.put(key, 99)  # rerun rewrites it
        assert store.get(key) == 99

    def test_put_leaves_no_temp_debris(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for index in range(10):
            store.put(task_key("demo", {}, index), index)
        leftovers = list((tmp_path / "store").rglob("*.tmp"))
        assert leftovers == []

    def test_stats_count_hits_misses_puts(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = task_key("demo", {}, 3)
        store.get(key)
        store.put(key, 1)
        store.get(key)
        assert store.stats.as_dict() == \
            {"hits": 1, "misses": 1, "puts": 1}


class TestMerge:
    def _filled(self, root, items):
        store = ResultStore(root)
        for task, value in items:
            store.put(task_key("demo", {}, task), value)
        return store

    def test_union_and_idempotence(self, tmp_path):
        self._filled(tmp_path / "a", [(1, "one"), (2, "two")])
        self._filled(tmp_path / "b", [(2, "two"), (3, "three")])
        copied, present = merge_stores(tmp_path / "m",
                                       [tmp_path / "a", tmp_path / "b"])
        assert (copied, present) == (3, 1)
        merged = ResultStore(tmp_path / "m")
        assert merged.get(task_key("demo", {}, 3)) == "three"
        # merging again copies nothing
        assert merge_stores(tmp_path / "m", [tmp_path / "a"]) == (0, 2)

    def test_conflicting_results_refuse_to_merge(self, tmp_path):
        self._filled(tmp_path / "a", [(1, "one")])
        self._filled(tmp_path / "b", [(1, "uno")])
        with pytest.raises(ValueError, match="conflicting"):
            merge_stores(tmp_path / "m", [tmp_path / "a", tmp_path / "b"])


def _double(_context, task):
    return task * 2


def _double_all(_context, tasks):
    return [t * 2 for t in tasks]


def _add(context, task):
    return context + task


class TestRunTasksStored:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_context_is_built_only_for_a_dispatch_that_runs(self,
                                                            tmp_path,
                                                            jobs):
        calls = []

        def factory():
            calls.append(len(calls))
            return 10

        tasks = list(range(4))
        keys = [task_key("demo", {}, t) for t in tasks]
        store = ResultStore(tmp_path / "store")
        cold = run_tasks_stored(_add, tasks, keys, jobs=jobs, store=store,
                                context=factory)
        assert cold.results == [10, 11, 12, 13]
        assert calls == [0]  # once per dispatch, not per task or worker
        warm = run_tasks_stored(_add, tasks, keys, jobs=jobs, store=store,
                                context=factory)
        assert warm.hits == 4 and calls == [0]  # a warm store: never

        partial = ResultStore(tmp_path / "partial")
        partial.put(keys[1], 11)
        partial.put(keys[3], 13)
        idle = run_tasks_stored(_add, tasks, keys, jobs=jobs,
                                store=partial, shard=ShardSpec(2, 2),
                                context=factory)
        assert (idle.executed, idle.skipped) == (0, 2)
        assert calls == [0]  # a shard owning no missing task: never
        busy = run_tasks_stored(_add, tasks, keys, jobs=jobs,
                                store=partial, shard=ShardSpec(1, 2),
                                context=factory)
        assert busy.results == [10, 11, 12, 13] and busy.executed == 2
        assert calls == [0, 1]

    def test_no_store_is_plain_execute(self):
        run = run_tasks_stored(_double, [1, 2, 3])
        assert run.results == [2, 4, 6]
        assert run.complete and run.executed == 3

    def test_cold_then_warm(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        tasks = [1, 2, 3]
        keys = [task_key("demo", {}, t) for t in tasks]
        cold = run_tasks_stored(_double, tasks, keys, store=store)
        assert (cold.hits, cold.executed) == (0, 3)
        executed = []

        def spy(context, task):
            executed.append(task)
            return _double(context, task)

        warm = run_tasks_stored(spy, tasks, keys,
                                store=ResultStore(tmp_path / "store"))
        assert warm.results == cold.results == [2, 4, 6]
        assert (warm.hits, warm.executed) == (3, 0)
        assert executed == []  # the warm path does zero work

    def test_partial_store_runs_only_missing(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        tasks = [1, 2, 3, 4]
        keys = [task_key("demo", {}, t) for t in tasks]
        store.put(keys[1], 4)
        store.put(keys[3], 8)
        executed = []

        def spy(context, task):
            executed.append(task)
            return _double(context, task)

        run = run_tasks_stored(spy, tasks, keys, store=store)
        assert run.results == [2, 4, 6, 8]
        assert executed == [1, 3]
        assert (run.hits, run.executed) == (2, 2)

    def test_width_groups_only_missing_tasks_in_order(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        tasks = list(range(10))
        keys = [task_key("demo", {}, t) for t in tasks]
        store.put(keys[2], 4)
        units = []

        def spy(context, unit):
            units.append(unit)
            return _double_all(context, unit)

        run = run_tasks_stored(spy, tasks, keys, width=4, store=store)
        assert units == [[0, 1, 3, 4], [5, 6, 7, 8], [9]]
        assert run.results == _double_all(None, tasks)
        assert run.executed == 9 and len(store) == 10

    def test_shard_executes_only_owned_missing(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        tasks = list(range(6))
        keys = [task_key("demo", {}, t) for t in tasks]
        shard = ShardSpec(index=2, count=3)
        run = run_tasks_stored(_double, tasks, keys, store=store,
                               shard=shard)
        assert not run.complete
        assert run.results == [None, 2, None, None, 8, None]
        assert (run.executed, run.skipped) == (2, 4)
        assert "owned by other shards" in run.summary()

    def test_shard_union_completes(self, tmp_path):
        tasks = list(range(7))
        keys = [task_key("demo", {}, t) for t in tasks]
        for index in (1, 2):
            run_tasks_stored(_double, tasks, keys,
                             store=ResultStore(tmp_path / f"s{index}"),
                             shard=ShardSpec(index=index, count=2))
        merge_stores(tmp_path / "m", [tmp_path / "s1", tmp_path / "s2"])
        final = run_tasks_stored(
            lambda _context, task: pytest.fail("merged store is complete"),
            tasks, keys, store=ResultStore(tmp_path / "m"))
        assert final.complete and final.hits == 7
        assert final.results == _double_all(None, tasks)

    def test_shard_without_store_is_an_error(self):
        with pytest.raises(ValueError, match="store"):
            run_tasks_stored(_double, [1], shard=ShardSpec(1, 2))

    def test_key_count_mismatch_is_an_error(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ValueError, match="keys"):
            run_tasks_stored(_double, [1, 2], [task_key("d", {}, 1)],
                             store=store)

    def test_execute_length_mismatch_is_an_error(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ValueError, match="results"):
            run_tasks_stored(lambda _context, unit: [], [1],
                             [task_key("d", {}, 1)], width=2, store=store)


class TestShardSpec:
    def test_parse(self):
        spec = parse_shard("2/3")
        assert (spec.index, spec.count) == (2, 3)
        assert spec.label == "2/3"

    @pytest.mark.parametrize("text", ["0/3", "4/3", "a/b", "2", "1/0"])
    def test_parse_rejects_bad_specs(self, text):
        with pytest.raises(ValueError):
            parse_shard(text)

    def test_partition_is_a_disjoint_cover(self):
        items = list(range(11))
        slices = [shard_partition(items, ShardSpec(i, 3))
                  for i in (1, 2, 3)]
        union = sorted(x for part in slices for x in part)
        assert union == items
        assert shard_partition(items, ShardSpec(1, 3)) == [0, 3, 6, 9]
