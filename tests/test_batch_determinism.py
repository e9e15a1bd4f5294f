"""Determinism contract of the lockstep fault campaign: byte-identical.

The fault campaign always runs its specimens in lockstep groups, and the
partition (the ``width`` units of :func:`repro.runner.run_tasks_stored`)
depends only on submission order and :data:`~repro.sim.batch.BATCH_WIDTH`,
so a campaign must be

* byte-identical to per-specimen :func:`~repro.faults.campaign.run_fault`
  runs — the store-backed export equals one built from ``run_fault``
  results, at ``--jobs 1`` and ``4``;
* independent of the grouping (width 1, 5 and 64 classify identically);
* independent of ``--jobs`` (serial vs process pool),

and the E18 export helpers must emit byte-for-byte pinned artifacts for
a fixed record — the goldens here are what the CI smoke re-derives.
"""

import json

import pytest

import repro.faults.campaign as fault_campaign
from repro.crypto import DeviceKeys
from repro.eval.export import BATCH_CSV_HEADER, record_json, write_csv
from repro.faults.campaign import run_campaign, run_fault, sample_faults
from repro.runner import campaign_record, run_tasks_stored, write_campaign
from repro.sim import SofiaMachine
from repro.transform import transform
from repro.workloads import make_workload

KEYS = DeviceKeys.from_seed(0xBEEF2016)
PER_MODEL = 3
SEED = 41
MAX_INSTRUCTIONS = 200_000
#: run_campaign's default per-binary nonce
NONCE = 0xFA17

_VICTIM = {}


def victim():
    if not _VICTIM:
        workload = make_workload("sort", "tiny")
        _VICTIM["workload"] = workload
        _VICTIM["program"] = workload.compile().program
    return _VICTIM["program"], _VICTIM["workload"].expected_output


def classify(**kwargs):
    program, golden = victim()
    results, summary = run_campaign(
        program, KEYS, golden, per_model=PER_MODEL, seed=SEED,
        max_instructions=MAX_INSTRUCTIONS, **kwargs)
    return ([(r.model, r.outcome, r.description, r.status, r.detail)
             for r in results], summary.counts)


def per_specimen_export(path):
    """The canonical fault export, built from one fresh ``run_fault``
    machine per specimen instead of the campaign's lockstep groups."""
    program, golden = victim()
    image = transform(program, KEYS, nonce=NONCE)
    baseline = SofiaMachine(image, KEYS).run(MAX_INSTRUCTIONS)
    faults = sample_faults(image, baseline.instructions,
                           per_model=PER_MODEL, seed=SEED)
    results = [run_fault(image, KEYS, fault, golden, MAX_INSTRUCTIONS)
               for fault in faults]
    parameters = {"nonce": NONCE, "per_model": PER_MODEL, "seed": SEED,
                  "max_instructions": MAX_INSTRUCTIONS,
                  "baseline_instructions": baseline.instructions}
    write_campaign(path, campaign_record("fault-injection", parameters,
                                         results))
    return path.read_bytes()


def units_of(items, width):
    """The units ``run_tasks_stored`` dispatches for ``items``."""
    units = []

    def record(_context, unit):
        units.append(unit)
        return unit

    run_tasks_stored(record, items, width=width)
    return units


class TestUnitPartition:
    def test_partition_depends_only_on_width(self):
        items = list(range(10))
        assert units_of(items, 4) == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        assert units_of(items, 1) == [[i] for i in items]
        assert units_of([], 4) == []

    def test_rejects_non_positive_width(self):
        with pytest.raises(ValueError):
            units_of([1], 0)


class TestCampaignDeterminism:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_store_export_equals_per_specimen_runs(self, tmp_path, jobs):
        program, golden = victim()
        path = tmp_path / "campaign.json"
        run_campaign(program, KEYS, golden, per_model=PER_MODEL, seed=SEED,
                     max_instructions=MAX_INSTRUCTIONS, export_path=path,
                     jobs=jobs,
                     store_dir=tmp_path / "store")
        assert path.read_bytes() == per_specimen_export(
            tmp_path / "per-specimen.json")

    @pytest.mark.parametrize("width", [1, 5, 64])
    def test_grouping_never_changes_results(self, monkeypatch, width):
        expected = classify()
        monkeypatch.setattr(fault_campaign, "BATCH_WIDTH", width)
        assert classify() == expected

    def test_any_jobs_is_byte_identical(self):
        assert classify() == classify(jobs=4)

    def test_export_is_jobs_free(self, tmp_path):
        program, golden = victim()

        def export(**kwargs):
            path = tmp_path / "campaign.json"
            run_campaign(program, KEYS, golden, per_model=PER_MODEL,
                         seed=SEED, max_instructions=MAX_INSTRUCTIONS,
                         export_path=path, **kwargs)
            record = json.loads(path.read_text())
            # jobs and wall-clock are the only legitimately volatile keys
            record.pop("jobs"), record.pop("elapsed_seconds")
            return json.dumps(record, sort_keys=True)

        assert export() == export(jobs=4)


# --- pinned E18 export goldens ---------------------------------------------

_E18_RECORD = {
    "experiment": "E18",
    "campaign": "batch-lockstep",
    "parameters": {"seed": 77, "per_model": 8, "width": 64,
                   "models": ["CodeBitFlip", "PCGlitch"]},
    "workloads": ["crc32", "sort"],
    "identical": True,
}

_E18_JSON_GOLDEN = """\
{
  "campaign": "batch-lockstep",
  "experiment": "E18",
  "identical": true,
  "parameters": {
    "models": [
      "CodeBitFlip",
      "PCGlitch"
    ],
    "per_model": 8,
    "seed": 77,
    "width": 64
  },
  "workloads": [
    "crc32",
    "sort"
  ]
}
"""

_E18_CSV_GOLDEN = """\
workload,specimens,scalar_specimens_per_s,batch_specimens_per_s,speedup,\
identical
crc32,16,10.0,50.0,5.0,1
sort,16,20.0,100.0,5.0,1
"""


class TestE18ExportGoldens:
    def test_json_golden(self, tmp_path):
        path = tmp_path / "e18.json"
        text = record_json(_E18_RECORD, path)
        assert text == _E18_JSON_GOLDEN
        assert path.read_text() == _E18_JSON_GOLDEN

    def test_csv_golden(self, tmp_path):
        rows = [
            {"workload": "crc32", "specimens": 16,
             "scalar_specimens_per_s": 10.0,
             "batch_specimens_per_s": 50.0, "speedup": 5.0,
             "identical": 1},
            {"workload": "sort", "specimens": 16,
             "scalar_specimens_per_s": 20.0,
             "batch_specimens_per_s": 100.0, "speedup": 5.0,
             "identical": 1},
        ]
        path = tmp_path / "e18.csv"
        text = write_csv(BATCH_CSV_HEADER, rows, path)
        assert text == _E18_CSV_GOLDEN
        assert path.read_text() == _E18_CSV_GOLDEN
