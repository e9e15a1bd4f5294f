"""The E17 design-space sweep: one campaign per profile grid point.

Each task of the sweep is one :class:`ProtectionProfile` and runs, inside
its worker, the full per-point evaluation **serially** (the grid itself is
what fans out across processes via :mod:`repro.runner`):

* the workload suite on both cores for cycle and code-size overheads
  (each workload compiles once per process, through its own memo),
* a scaled-down attack-synthesis campaign (E16 machinery) for the
  empirical detection rate against the profile's own §IV-A expectation,
* a fault-injection campaign (E11 machinery) for the guarantee boundary,
* the closed-form §IV-A forgery bounds at the profile's seal width.

Every per-point seed derives from the campaign seed plus the profile
label, so the sweep is deterministic at any ``--jobs`` value and the
JSON/CSV artifacts are byte-identical serial vs parallel (they carry no
wall-clock or worker-count fields).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..attacksynth.campaign import run_attacksynth
from ..crypto.keys import DEFAULT_KEY_SEED, DeviceKeys
from ..errors import ReproError
from ..eval.export import (DSE_CSV_HEADER, DSE_HW_CSV_HEADER,
                           record_json, write_csv)
from ..eval.overhead import measure_overhead
from ..faults.campaign import FaultOutcome
from ..faults.campaign import run_campaign as run_fault_campaign
from ..hwmodel.components import CYCLES_BUDGET
from ..hwmodel.profilecost import (ProfileHardware, UnrollSpec,
                                   legal_unrolls, profile_cost,
                                   resolve_unrolls)
from ..obs import phase as obs_phase
from ..runner import (ResultStore, ShardSpec, check_writable,
                      run_tasks_stored, task_keys, task_seed)
from ..security.bounds import cfi_attack_years, si_forgery_years
from ..transform.profile import ProtectionProfile
from ..workloads import make_workload
from .pareto import HW_SENSES, Objectives, pareto_mask

DEFAULT_SEED = 0xD5E17
DEFAULT_WORKLOADS: Tuple[str, ...] = ("crc32", "rle", "sort")
DEFAULT_SCALE = "tiny"
DEFAULT_PROGRAMS = 5
DEFAULT_PER_MODEL = 3


@dataclass
class DesignPointRow:
    """Everything the sweep measured for one design point (picklable)."""

    label: str
    cipher: str
    mac_bits: int
    renonce: str
    block_words: int
    schedule_stores: bool
    #: per-workload (workload, size_ratio, cycle_overhead) triples
    workload_rows: List[Tuple[str, float, float]] = field(
        default_factory=list)
    size_ratio: float = 0.0
    cycle_overhead: float = 0.0
    si_years: float = 0.0
    cfi_years: float = 0.0
    synth_instances: int = 0
    synth_attempts: int = 0
    synth_undetected: int = 0
    synth_expected: float = 0.0
    synth_consistent: bool = True
    synth_anomalies: int = 0
    fault_counts: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return (self.error is None and self.synth_consistent
                and self.synth_anomalies == 0)

    @property
    def detection_rate(self) -> Optional[float]:
        if not self.synth_attempts:
            return None
        return 1.0 - self.synth_undetected / self.synth_attempts

    @property
    def objectives(self) -> Objectives:
        """(cycle_overhead min, size_ratio min, si_years max)."""
        return (self.cycle_overhead, self.size_ratio, self.si_years)

    def to_record(self) -> Dict:
        return {
            "profile": self.label,
            "cipher": self.cipher,
            "mac_bits": self.mac_bits,
            "renonce": self.renonce,
            "block_words": self.block_words,
            "schedule_stores": self.schedule_stores,
            "workloads": [
                {"workload": name, "size_ratio": ratio,
                 "cycle_overhead": overhead}
                for name, ratio, overhead in self.workload_rows],
            "size_ratio": self.size_ratio,
            "cycle_overhead": self.cycle_overhead,
            "si_years": self.si_years,
            "cfi_years": self.cfi_years,
            "attacksynth": {
                "instances": self.synth_instances,
                "attempts": self.synth_attempts,
                "undetected": self.synth_undetected,
                "expected": self.synth_expected,
                "consistent": self.synth_consistent,
                "anomalies": self.synth_anomalies,
            },
            "faults": dict(sorted(self.fault_counts.items())),
            "error": self.error,
        }


@dataclass
class HwPointRow:
    """One (design point, unroll) hardware variant of the E20 front: the
    priced :class:`~repro.hwmodel.profilecost.ProfileHardware` and the
    measured objectives of its design point.

    Derived *after* the sweep by pure arithmetic on the profile
    (:func:`repro.hwmodel.profilecost.profile_cost`) — never stored, never
    keyed into the result store, so ``--hw`` on/off shares one cache and
    the hardware axes are byte-deterministic at any ``--jobs``.
    """

    hardware: ProfileHardware
    cycle_overhead: float
    si_years: float

    @property
    def label(self) -> str:
        return self.hardware.label

    @property
    def objectives(self) -> Objectives:
        """(cycle_overhead min, si_years max, area_delay min), on the
        exported (rounded) area-delay."""
        return (self.cycle_overhead, self.si_years,
                _round(self.hardware.area_delay))

    def to_record(self) -> Dict:
        hw = self.hardware
        return {
            "label": hw.label,
            "profile": hw.profile_label,
            "cipher": hw.cipher,
            "unroll": hw.unroll,
            "min_unroll": hw.min_unroll,
            "cipher_cycles": hw.cipher_cycles,
            "datapath_slices": hw.datapath_slices,
            "sofia_slices": hw.sofia_slices,
            "slices": hw.slices,
            "path_ns": _round(hw.critical_path_ns),
            "clock_mhz": _round(hw.clock_mhz),
            "area_delay": _round(hw.area_delay),
            "cycle_overhead": self.cycle_overhead,
            "si_years": self.si_years,
        }


def check_unroll_specs(profiles: Sequence[ProtectionProfile],
                        specs: Sequence[UnrollSpec]) -> None:
    """Reject an explicit unroll that no swept cipher can legally use."""
    for spec in specs:
        if not any(resolve_unrolls(profile, (spec,))
                   for profile in profiles):
            ranges = sorted({f"{profile.cipher} "
                             f"{legal_unrolls(profile).start}.."
                             f"{legal_unrolls(profile)[-1]}"
                             for profile in profiles})
            raise ValueError(
                f"unroll {spec} is not legal for any swept cipher "
                f"(fetch-sustaining ranges: {', '.join(ranges)})")


def _hw_point_rows(profiles: Sequence[ProtectionProfile],
                   points: Sequence["DesignPointRow"],
                   specs: Sequence[UnrollSpec]) -> "List[HwPointRow]":
    """Hardware variants of every measured point, in sweep order.

    A factor outside one cipher's legal range is skipped for that cipher
    only (a mixed grid may request ``13,16``); points that errored get no
    variants.
    """
    by_label = {profile.label: profile for profile in profiles}
    return [HwPointRow(profile_cost(by_label[point.label], unroll),
                       point.cycle_overhead, point.si_years)
            for point in points
            if point.error is None
            for unroll in resolve_unrolls(by_label[point.label], specs)]


def _round(value: float) -> float:
    """Stable rounding for exported floats (byte-deterministic JSON)."""
    return round(value, 6)


def _dse_task(context: tuple,
              task: Tuple[int, ProtectionProfile]) -> DesignPointRow:
    """Worker: evaluate one design point end to end."""
    key_seed, seed, workloads, programs, per_model = context
    _index, profile = task
    row = DesignPointRow(
        label=profile.label, cipher=profile.cipher,
        mac_bits=profile.mac_bits, renonce=profile.renonce,
        block_words=profile.block_words,
        schedule_stores=profile.schedule_stores,
        si_years=si_forgery_years(profile.mac_bits),
        cfi_years=cfi_attack_years(profile.mac_bits))
    try:
        keys = DeviceKeys.from_seed(key_seed).for_profile(profile)
        # -- workload suite: overheads at this design point ---------------
        ratios: List[float] = []
        overheads: List[float] = []
        for workload in workloads:
            measured = measure_overhead(workload, keys, profile=profile)
            ratios.append(measured.size_ratio)
            overheads.append(measured.cycle_overhead)
            row.workload_rows.append(
                (workload.name, _round(measured.size_ratio),
                 _round(measured.cycle_overhead)))
        row.size_ratio = _round(sum(ratios) / len(ratios))
        row.cycle_overhead = _round(sum(overheads) / len(overheads))

        # -- empirical detection: scaled-down attack synthesis ------------
        synth = run_attacksynth(
            programs, seed=task_seed(seed, "dse-synth", profile.label),
            key_seed=key_seed, profile=profile)
        bounds = synth.bounds()
        row.synth_instances = synth.instances
        row.synth_attempts = bounds.attempts
        row.synth_undetected = bounds.undetected
        row.synth_expected = bounds.expected
        row.synth_consistent = bounds.consistent
        row.synth_anomalies = (
            len(synth.missed) + len(synth.benign_anomalies)
            + len(synth.edge_anomalies) + len(synth.plain_anomalies)
            + len(synth.build_errors))

        # -- guarantee boundary: fault campaign on the first workload -----
        victim = workloads[0]
        _results, summary = run_fault_campaign(
            victim.compile().program, keys, victim.expected_output,
            per_model=per_model,
            seed=task_seed(seed, "dse-fault", profile.label),
            profile=profile)
        totals = {outcome.value: 0 for outcome in FaultOutcome}
        for per_model_counts in summary.counts.values():
            for outcome, count in per_model_counts.items():
                totals[outcome.value] += count
        row.fault_counts = totals
    except (ReproError, AssertionError, ValueError) as exc:
        row.error = f"{type(exc).__name__}: {exc}"
    return row


@dataclass
class DseReport:
    """The whole sweep, with the Pareto front computed over its points."""

    seed: int
    key_seed: int
    scale: str
    workloads: Tuple[str, ...]
    programs: int
    per_model: int
    points: List[DesignPointRow] = field(default_factory=list)
    #: unroll spec tuple when the hardware axes are on, ``None`` when off
    #: (``None`` keeps the exports byte-identical to pre-hardware runs)
    hw_unrolls: Optional[Tuple[UnrollSpec, ...]] = None
    #: hardware variants, one per (measured point, legal unroll)
    hw_points: List[HwPointRow] = field(default_factory=list)
    #: ``False`` for a sharded invocation that skipped grid points owned
    #: by other shards; exports wait for a merged store
    complete: bool = True

    @property
    def ok(self) -> bool:
        return bool(self.points) and all(p.ok for p in self.points)

    @property
    def hw(self) -> bool:
        """Are the hardware axes folded into this sweep?"""
        return self.hw_unrolls is not None

    def pareto_labels(self) -> List[str]:
        """Labels of the non-dominated design points, in sweep order."""
        measured = [p for p in self.points if p.error is None]
        mask = pareto_mask([p.objectives for p in measured])
        return [p.label for p, keep in zip(measured, mask) if keep]

    def hw_pareto_labels(self) -> List[str]:
        """Labels of the unified E17+hardware front, in sweep order.

        A 3-way front over (cycle overhead min, forgery bound max,
        area-delay min) across every (point, unroll) hardware variant.
        """
        mask = pareto_mask([row.objectives for row in self.hw_points],
                           HW_SENSES)
        return [row.label
                for row, keep in zip(self.hw_points, mask) if keep]

    def to_record(self) -> Dict:
        """Canonical JSON document (wall-clock- and jobs-free)."""
        record = {
            "experiment": "E17",
            "campaign": "dse",
            "parameters": {
                "seed": self.seed,
                "key_seed": self.key_seed,
                "scale": self.scale,
                "workloads": list(self.workloads),
                "programs": self.programs,
                "per_model": self.per_model,
            },
            "points": [p.to_record() for p in self.points],
            "pareto": self.pareto_labels(),
        }
        if self.hw_unrolls is not None:
            record["hw"] = {
                "cycles_budget": CYCLES_BUDGET,
                "unrolls": list(self.hw_unrolls),
                "points": [row.to_record() for row in self.hw_points],
                "pareto": self.hw_pareto_labels(),
            }
        return record

    def _csv_base(self, p: DesignPointRow, pareto: set) -> Dict:
        rate = p.detection_rate
        return {
            "profile": p.label, "cipher": p.cipher,
            "mac_bits": p.mac_bits, "renonce": p.renonce,
            "block_words": p.block_words,
            "schedule_stores": int(p.schedule_stores),
            "size_ratio": p.size_ratio,
            "cycle_overhead": p.cycle_overhead,
            "si_years": p.si_years,
            "cfi_years": p.cfi_years,
            "synth_attempts": p.synth_attempts,
            "synth_undetected": p.synth_undetected,
            "detection_rate": "" if rate is None else _round(rate),
            "expected_collisions": p.synth_expected,
            "consistent": int(p.synth_consistent),
            "fault_detected": p.fault_counts.get("detected", 0),
            "fault_sdc": p.fault_counts.get("sdc", 0),
            "pareto": int(p.label in pareto),
            "error": p.error or "",
        }

    def csv_rows(self) -> List[Dict]:
        pareto = set(self.pareto_labels())
        return [self._csv_base(p, pareto) for p in self.points]

    def hw_csv_rows(self) -> List[Dict]:
        """One CSV row per (point, unroll) variant, hardware columns on.

        Errored points (which have no hardware variants) still appear
        once, with the hardware columns empty, so the CSV never silently
        drops a grid point.
        """
        pareto = set(self.pareto_labels())
        hw_pareto = set(self.hw_pareto_labels())
        by_profile: Dict[str, List[HwPointRow]] = {}
        for row in self.hw_points:
            by_profile.setdefault(row.hardware.profile_label, []).append(row)
        rows = []
        for p in self.points:
            variants = by_profile.get(p.label, [])
            if not variants:
                rows.append(self._csv_base(p, pareto))
                continue
            # the hardware columns come from the export record (the
            # header picks them); the E17 columns win any shared key
            rows.extend({**variant.to_record(), **self._csv_base(p, pareto),
                         "hw_pareto": int(variant.label in hw_pareto)}
                        for variant in variants)
        return rows

    def render(self) -> str:
        pareto = set(self.pareto_labels())
        header = (f"{'profile':<38s} {'cyc ovh':>8s} {'size':>6s} "
                  f"{'forgery bound':>14s} {'det rate':>9s} "
                  f"{'faults det/sdc':>14s}  pareto")
        lines = [
            f"Design-space sweep (E17): {len(self.points)} points, "
            f"seed {self.seed:#x}",
            header, "-" * len(header)]
        for p in self.points:
            if p.error is not None:
                lines.append(f"{p.label:<38s} ERROR {p.error}")
                continue
            rate = p.detection_rate
            lines.append(
                f"{p.label:<38s} {p.cycle_overhead:>+7.1%} "
                f"{p.size_ratio:>5.2f}x {p.si_years:>12.3g}y "
                f"{'n/a' if rate is None else format(rate, '.4f'):>9s} "
                f"{p.fault_counts.get('detected', 0):>7d}/"
                f"{p.fault_counts.get('sdc', 0):<6d} "
                f"{'*' if p.label in pareto else ''}")
        lines.append("")
        lines.append(f"  Pareto front: {', '.join(sorted(pareto))}")
        if self.hw:
            hw_pareto = set(self.hw_pareto_labels())
            lines.append("")
            lines.append(
                f"Hardware axes (E20): unrolls="
                f"{','.join(str(u) for u in self.hw_unrolls)}, "
                f"one cipher op per {CYCLES_BUDGET} cycles")
            hw_header = (f"{'design point':<44s} {'slices':>7s} "
                         f"{'clock':>9s} {'c/op':>5s} "
                         f"{'area-delay':>12s}  hw-pareto")
            lines.append(hw_header)
            lines.append("-" * len(hw_header))
            for row in self.hw_points:
                record = row.to_record()
                lines.append(
                    f"{row.label:<44s} {record['slices']:>7d} "
                    f"{record['clock_mhz']:>5.1f} MHz "
                    f"{record['cipher_cycles']:>5d} "
                    f"{record['area_delay']:>12.1f} "
                    f"{'*' if row.label in hw_pareto else ''}")
            lines.append("")
            lines.append(f"  hw Pareto front: "
                         f"{', '.join(sorted(hw_pareto))}")
        return "\n".join(lines)


def run_dse(profiles: Sequence[ProtectionProfile], *,
            seed: int = DEFAULT_SEED,
            key_seed: int = DEFAULT_KEY_SEED,
            workloads: Sequence[str] = DEFAULT_WORKLOADS,
            scale: str = DEFAULT_SCALE,
            programs: int = DEFAULT_PROGRAMS,
            per_model: int = DEFAULT_PER_MODEL,
            jobs: Optional[int] = 1,
            export_path=None, csv_path=None,
            store_dir=None, shard: Optional[ShardSpec] = None,
            unrolls: Optional[Sequence[UnrollSpec]] = None) -> DseReport:
    """Sweep the profile list; one runner task per design point.

    ``unrolls`` folds the hardware axes in: every measured point gains
    one :class:`HwPointRow` per requested entry (``"min"`` is the
    per-cipher minimum fetch-sustaining factor), the report carries the
    unified 3-way E20 front (cycle overhead x forgery bound x
    area-delay), and the exports switch to the extended schema.
    Hardware costing is pure post-hoc arithmetic on the profile: it never
    enters the result-store keys (one store serves the hardware axes on
    and off), and with ``unrolls=None`` (axes off) the exports stay
    byte-identical to pre-hardware releases.

    ``store_dir`` caches each grid point's :class:`DesignPointRow` in a
    persistent :class:`~repro.runner.store.ResultStore` (keyed by code
    version + sweep context + profile), making large sweeps resumable;
    ``shard`` evaluates one deterministic ``i/n`` slice of the grid
    (requires a store) — exports wait for a merged store and are then
    byte-identical to an uninterrupted serial sweep.
    """
    if not profiles:
        raise ValueError("the sweep needs at least one profile")
    if not workloads:
        raise ValueError("the sweep needs at least one workload")
    if unrolls is not None:
        unrolls = tuple(unrolls)
        if not unrolls:
            raise ValueError("empty unroll list")
        check_unroll_specs(profiles, unrolls)
    check_writable(export_path, csv_path)
    report = DseReport(seed=seed, key_seed=key_seed, scale=scale,
                       workloads=tuple(workloads), programs=programs,
                       per_model=per_model)
    tasks = list(enumerate(profiles))
    store = ResultStore(store_dir) if store_dir is not None else None
    keys = None
    if store is not None:
        context = {"seed": seed, "key_seed": key_seed, "scale": scale,
                   "workloads": list(workloads), "programs": programs,
                   "per_model": per_model}
        keys = task_keys("dse", context, profiles)

    with obs_phase("execute"):
        run = run_tasks_stored(
            _dse_task, tasks, keys, jobs=jobs,
            context=lambda: (key_seed, seed,
                             tuple(make_workload(name, scale)
                                   for name in workloads),
                             programs, per_model),
            store=store, shard=shard)
    report.points = [point for point in run.results if point is not None]
    report.complete = run.complete
    if unrolls is not None:
        # post-hoc, simulation-free: the same cached rows serve hw on/off
        report.hw_unrolls = unrolls
        report.hw_points = _hw_point_rows(profiles, report.points, unrolls)
    if run.complete:
        with obs_phase("export"):
            if export_path is not None:
                record_json(report.to_record(), export_path)
            if csv_path is not None:
                if report.hw:
                    write_csv(DSE_HW_CSV_HEADER, report.hw_csv_rows(),
                              csv_path)
                else:
                    write_csv(DSE_CSV_HEADER, report.csv_rows(), csv_path)
    return report
