"""The three campaign workloads of the benchmark and their pinned pools.

A workload is a fixed *pool* of campaigns: one call of a public campaign
function (``run_fuzz``, ``faults.run_campaign``, ``run_attacksynth``)
per campaign seed, at ``--jobs 1`` and in-process.  ``run.py`` sweeps
the whole pool several times, each sweep in a fresh interpreter
(``sweep.py``) and in an order shuffled by ``--seed``, calling one
campaign only after the previous one returned (a closed loop).

``pin.py`` chooses each pool, the first ``pool_size`` admissible
campaign seeds counting up from ``pool_seed``, and pins every one's
canonical export digest in ``pinned.json``; the keys there *are* the
pool.  A digest that differs from the pinned one means a simulated
statistic changed, which no speed-up may do, so the run counts every
specimen as failed.

The ``why``, ``stresses`` and ``bypasses`` texts below are the record of
why each workload was chosen; ``pin.py`` copies ``why`` into
``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional

#: every campaign provisions the same device (a benchmark constant, not
#: a library default, so a change of default cannot move the inputs)
KEY_SEED = 0xBEEF2016

FUZZ_SPECIMENS = 20
FUZZ_BATCH = 10
FAULT_WORKLOAD = ("crc32", "small")
FAULT_PER_MODEL = 3
SYNTH_PROGRAMS = 4
SYNTH_PER_PROGRAM = 16


@dataclass
class Outcome:
    """What one campaign call produced, as the benchmark judges it."""

    specimens: int
    failed: int
    digest: Optional[str]
    #: host seconds inside the public campaign call only
    seconds: float
    #: may ``pin.py`` put this campaign into the pool?
    admissible: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    #: the specimen ``specimens_per_s`` counts
    specimen: str
    why: str
    stresses: str
    bypasses: str
    pool_seed: int
    pool_size: int
    #: builds the per-process context (keys, cipher, victim)
    prepare: Callable[[], Any]
    #: (context, campaign seed, scratch dir) -> Outcome
    campaign: Callable[[Any, int, Path], Outcome]


def json_digest(record: Dict) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _keys():
    """The provisioned device, with all three ciphers constructed (the
    first construction in a process builds RECTANGLE's lookup tables)."""
    from repro.crypto import DeviceKeys
    keys = DeviceKeys.from_seed(KEY_SEED)
    keys.encryption_cipher, keys.exec_mac_cipher, keys.mux_mac_cipher
    return keys


# -- fuzz -----------------------------------------------------------------

def _prepare_fuzz():
    import repro.fuzz  # noqa: F401  (the campaign module and its imports)
    return _keys()


def _fuzz(_keys_ctx, seed: int, _workdir: Path) -> Outcome:
    import repro.fuzz as fuzz
    start = time.perf_counter()
    report = fuzz.run_fuzz(FUZZ_SPECIMENS, seed=seed, batch=FUZZ_BATCH,
                           key_seed=KEY_SEED)
    seconds = time.perf_counter() - start
    # the report.json record plus the simulated totals behind it
    record = {
        "campaign": "fuzz",
        "parameters": {"seed": report.seed, "specimens": report.specimens,
                       "batches": report.batches},
        "corpus_size": len(report.corpus),
        "corpus": report.corpus.shas(),
        "coverage": report.coverage.summary(),
        "failures": [failure.sha for failure in report.failures],
        "divergences": report.divergences,
        "instructions": report.instructions,
    }
    return Outcome(report.specimens, len(report.failures),
                   json_digest(record), seconds)


# -- fault ----------------------------------------------------------------

def _prepare_fault():
    import repro.faults  # noqa: F401
    from repro.workloads import make_workload
    keys = _keys()
    victim = make_workload(*FAULT_WORKLOAD)
    return keys, victim.compile().program, list(victim.expected_output)


def _fault(ctx, seed: int, workdir: Path) -> Outcome:
    import repro.faults as faults
    keys, program, golden = ctx
    export = workdir / "fault.json"
    start = time.perf_counter()
    results, _summary = faults.run_campaign(
        program, keys, golden, per_model=FAULT_PER_MODEL, seed=seed,
        store_dir=workdir / "store", export_path=export)
    seconds = time.perf_counter() - start
    # every outcome class is a legitimate result; a fault specimen fails
    # only through the digest check
    return Outcome(len(results), 0, file_digest(export), seconds)


# -- attacksynth ------------------------------------------------------------

def _prepare_synth():
    import repro.attacksynth  # noqa: F401
    return _keys()


def _synth(_keys_ctx, seed: int, workdir: Path) -> Outcome:
    import repro.attacksynth as attacksynth
    from repro.attacksynth.model import OBS_LIMIT, TARGET_SOFIA
    export = workdir / "attacksynth.json"
    start = time.perf_counter()
    report = attacksynth.run_attacksynth(
        SYNTH_PROGRAMS, seed=seed, per_program=SYNTH_PER_PROGRAM,
        key_seed=KEY_SEED, store_dir=workdir / "store",
        export_path=export)
    seconds = time.perf_counter() - start
    failed = (len(report.missed) + len(report.benign_anomalies)
              + len(report.edge_anomalies) + len(report.plain_anomalies)
              + len(report.build_errors))
    digest = file_digest(export) if export.is_file() else None
    # an instance that runs out the SOFIA instruction budget (a bent edge
    # into code that keeps rewriting itself, so every block re-decrypts)
    # costs ~1 s where a typical one costs ~5 ms: one such campaign would
    # decide a whole run's rate, so pools leave them out
    budget_hit = any(result.outcomes.get(TARGET_SOFIA) == OBS_LIMIT
                     for program in report.programs
                     for result in program.instances)
    return Outcome(report.instances, failed, digest, seconds,
                   admissible=not budget_hit)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="fuzz",
        specimen="oracle specimen",
        why=("Many tiny generated asm/C specimens, each compiled, sealed "
             "and run on >=4 cold machines: stresses cc, isa, transform, "
             "crypto; bypasses sim dispatch. Pool seed 0x5EED00."),
        stresses="cc, isa, transform (layout + seal), crypto, machine "
                 "construction (cold front end)",
        bypasses="sim dispatch (about 150 simulated instructions per "
                 "specimen)",
        pool_seed=0x5EED00, pool_size=8,
        prepare=_prepare_fuzz, campaign=_fuzz),
    Workload(
        name="fault",
        specimen="fault specimen",
        why=("crc32-small protected once per campaign, then dozens of "
             "long faulted runs on one image: stresses sim dispatch; "
             "bypasses cc, transform, crypto. Pool seed 0xFA1700."),
        stresses="sim dispatch (engine + memory)",
        bypasses="cc, transform and crypto (one build per campaign, warm "
                 "front-end memos)",
        pool_seed=0xFA1700, pool_size=3,
        prepare=_prepare_fault, campaign=_fault),
    Workload(
        name="attacksynth",
        specimen="attack instance",
        why=("One transform per program, then many one-shot runs of "
             "mutated, resealed images on cold machines: stresses crypto, "
             "transform write mode, store puts; bypasses long dispatch. "
             "Pool seed 0xA77A00."),
        stresses="crypto (cold keystream per instance machine), transform "
                 "write mode (reseal), runner store put path",
        bypasses="sim dispatch (short one-shot runs)",
        pool_seed=0xA77A00, pool_size=16,
        prepare=_prepare_synth, campaign=_synth),
)}
