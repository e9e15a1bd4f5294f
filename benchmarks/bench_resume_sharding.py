"""E19 — persistent-store resume and shard-union economics.

Acceptance gate for the result store (:mod:`repro.runner.store`): a warm
rerun of a store-backed campaign must replay entirely from cache — zero
tasks executed, store stats all hits — and finish in under 10% of the
cold run's wall-clock.  The shard rows show the other half of the
economics: ``n`` shards each pay roughly ``1/n`` of the cold executed
work, their merged store replays serially for free, and the final export
is byte-identical to the uninterrupted run at every split.

``test_resume_smoke`` is the cheap CI guard: identity + zero-work, no
timing.  The full gate (``test_warm_rerun_under_ten_percent``) prints
the E19 table with cold/warm wall-clock per campaign.
"""

import time

import repro.runner.store as store_module
import repro.sim.batch as batch
import repro.sim.fused as fused
from repro.attacksynth import run_attacksynth
from repro.crypto import DeviceKeys
from repro.faults import run_campaign as fault_campaign
from repro.runner import ResultStore, ShardSpec, merge_stores
from repro.workloads import make_workload

KEYS = DeviceKeys.from_seed(0xBEEF2016)
SEED = 77

WARM_FRACTION = 0.10  # warm rerun must cost < 10% of the cold run


def _fault_campaign(store_dir, export_path, per_model=24):
    workload = make_workload("crc32", "small")
    return fault_campaign(workload.compile().program, KEYS,
                          workload.expected_output, per_model=per_model,
                          seed=SEED, store_dir=store_dir,
                          export_path=export_path)


def _empty_process_caches(monkeypatch):
    """Give the next campaign the per-process caches of a fresh process.

    A campaign leaves the compiled region code (``sim/fused._CODE``),
    the store's source digest (``runner/store._CODE_VERSION``) and its
    golden traces (``sim/batch._TRACES``) behind.  A cold run that
    inherits them from an earlier campaign in this process
    (``test_resume_smoke`` runs the same workload) skips about 25 ms of
    work, and a warm rerun that inherits them from its own cold run
    skips the source hash a ``--resume`` rerun in a new process pays:
    both runs of a pair start empty so the ratio compares two fresh
    processes.
    """
    monkeypatch.setattr(fused, "_CODE", {})
    monkeypatch.setattr(store_module, "_CODE_VERSION", None)
    monkeypatch.setattr(batch, "_TRACES", {})


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def test_resume_smoke(tmp_path, monkeypatch):
    """CI smoke: warm rerun replays from cache only — zero simulation,
    neither a specimen nor the golden run."""
    store_dir = tmp_path / "store"
    cold = tmp_path / "cold.json"
    results, _ = _fault_campaign(store_dir, cold, per_model=4)

    store = ResultStore(store_dir)
    assert len(store) == len(results) + 1  # and the golden trace

    import repro.faults.campaign as faults_campaign
    from repro.sim.batch import GoldenTrace

    def forbidden(*args, **kwargs):
        raise AssertionError("warm rerun must not simulate")

    monkeypatch.setattr(faults_campaign, "run_fault_batch", forbidden)
    monkeypatch.setattr(GoldenTrace, "record", forbidden)
    warm = tmp_path / "warm.json"
    _fault_campaign(store_dir, warm, per_model=4)
    assert warm.read_bytes() == cold.read_bytes()


def test_warm_rerun_under_ten_percent(tmp_path, monkeypatch):
    """E19 gate: store-backed reruns cost < 10% of the cold campaign."""
    rows = []

    _empty_process_caches(monkeypatch)
    cold_json = tmp_path / "fault-cold.json"
    (results, _), t_cold = _timed(
        lambda: _fault_campaign(tmp_path / "fault-store", cold_json))
    warm_json = tmp_path / "fault-warm.json"
    _empty_process_caches(monkeypatch)
    _, t_warm = _timed(
        lambda: _fault_campaign(tmp_path / "fault-store", warm_json))
    assert warm_json.read_bytes() == cold_json.read_bytes()
    rows.append(("fault-injection", len(results), t_cold, t_warm))

    synth_cold = tmp_path / "synth-cold.json"
    params = dict(programs=4, seed=21, per_program=6)
    _empty_process_caches(monkeypatch)
    report, t_cold = _timed(lambda: run_attacksynth(
        store_dir=tmp_path / "synth-store", export_path=synth_cold,
        **params))
    synth_warm = tmp_path / "synth-warm.json"
    _empty_process_caches(monkeypatch)
    _, t_warm = _timed(lambda: run_attacksynth(
        store_dir=tmp_path / "synth-store", export_path=synth_warm,
        **params))
    assert synth_warm.read_bytes() == synth_cold.read_bytes()
    rows.append(("attack-synthesis", len(report.programs), t_cold,
                 t_warm))

    print(f"\n{'campaign':<18s} {'tasks':>6s} {'cold_s':>8s} "
          f"{'warm_s':>8s} {'warm/cold':>10s}")
    for name, tasks, cold_s, warm_s in rows:
        print(f"{name:<18s} {tasks:>6d} {cold_s:>8.3f} {warm_s:>8.3f} "
              f"{warm_s / cold_s:>9.1%}")

    for name, _tasks, cold_s, warm_s in rows:
        assert warm_s < WARM_FRACTION * cold_s, (
            f"{name}: warm rerun took {warm_s:.3f}s, "
            f">= {WARM_FRACTION:.0%} of the {cold_s:.3f}s cold run")


def test_shard_union_matches_serial(tmp_path):
    """E19 shard row: 3 shards' merged store exports byte-identically,
    each shard paying a ~1/3 slice of the cold work."""
    golden = tmp_path / "golden.json"
    results, _ = _fault_campaign(tmp_path / "golden-store", golden)

    shard_sizes = []
    for index in (1, 2, 3):
        store_dir = tmp_path / f"shard{index}"
        _fault_campaign_shard = lambda: fault_campaign(
            make_workload("crc32", "small").compile().program, KEYS,
            make_workload("crc32", "small").expected_output,
            per_model=24, seed=SEED, store_dir=store_dir,
            shard=ShardSpec(index=index, count=3))
        _fault_campaign_shard()
        shard_sizes.append(len(ResultStore(store_dir)))

    # every shard stores the golden trace beside its slice
    assert sum(shard_sizes) == len(results) + 3
    assert max(shard_sizes) - min(shard_sizes) <= 1  # balanced slices

    merge_stores(tmp_path / "merged",
                 [tmp_path / f"shard{i}" for i in (1, 2, 3)])
    final = tmp_path / "final.json"
    _fault_campaign(tmp_path / "merged", final)
    assert final.read_bytes() == golden.read_bytes()
