"""Tests for the persistent result store (``repro.runner.store``).

The store's contract: content-addressed keys that move with the code
version, atomic durable puts, unreadable entries treated as missing,
conflict-refusing merges, and a ``run_tasks_stored`` seam whose warm
path does zero execution while staying indistinguishable from a plain
``execute(tasks)`` call.
"""

import pickle

import pytest

from repro.runner import (ResultStore, ShardSpec, code_version,
                          merge_stores, parse_shard, run_tasks_stored,
                          shard_partition, stable_digest, task_key)


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
        run = run_tasks_stored(lambda tasks: [pytest.fail("cache miss")],
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


def _double_all(tasks):
    return [t * 2 for t in tasks]


class TestRunTasksStored:
    def test_no_store_is_plain_execute(self):
        run = run_tasks_stored(_double_all, [1, 2, 3])
        assert run.results == [2, 4, 6]
        assert run.complete and run.executed == 3

    def test_cold_then_warm(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        tasks = [1, 2, 3]
        keys = [task_key("demo", {}, t) for t in tasks]
        cold = run_tasks_stored(_double_all, tasks, keys, store=store)
        assert (cold.hits, cold.executed) == (0, 3)
        executed = []

        def spy(missing):
            executed.extend(missing)
            return _double_all(missing)

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

        def spy(missing):
            executed.extend(missing)
            return _double_all(missing)

        run = run_tasks_stored(spy, tasks, keys, store=store)
        assert run.results == [2, 4, 6, 8]
        assert executed == [1, 3]
        assert (run.hits, run.executed) == (2, 2)

    def test_shard_executes_only_owned_missing(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        tasks = list(range(6))
        keys = [task_key("demo", {}, t) for t in tasks]
        shard = ShardSpec(index=2, count=3)
        run = run_tasks_stored(_double_all, tasks, keys, store=store,
                               shard=shard)
        assert not run.complete
        assert run.results == [None, 2, None, None, 8, None]
        assert (run.executed, run.skipped) == (2, 4)
        assert "owned by other shards" in run.summary()

    def test_shard_union_completes(self, tmp_path):
        tasks = list(range(7))
        keys = [task_key("demo", {}, t) for t in tasks]
        for index in (1, 2):
            run_tasks_stored(_double_all, tasks, keys,
                             store=ResultStore(tmp_path / f"s{index}"),
                             shard=ShardSpec(index=index, count=2))
        merge_stores(tmp_path / "m", [tmp_path / "s1", tmp_path / "s2"])
        final = run_tasks_stored(
            lambda missing: pytest.fail("merged store must be complete"),
            tasks, keys, store=ResultStore(tmp_path / "m"))
        assert final.complete and final.hits == 7
        assert final.results == _double_all(tasks)

    def test_shard_without_store_is_an_error(self):
        with pytest.raises(ValueError, match="store"):
            run_tasks_stored(_double_all, [1], shard=ShardSpec(1, 2))

    def test_key_count_mismatch_is_an_error(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ValueError, match="keys"):
            run_tasks_stored(_double_all, [1, 2], [task_key("d", {}, 1)],
                             store=store)

    def test_execute_length_mismatch_is_an_error(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ValueError, match="results"):
            run_tasks_stored(lambda missing: [], [1],
                             [task_key("d", {}, 1)], store=store)


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
