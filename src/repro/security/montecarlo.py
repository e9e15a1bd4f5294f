"""Empirical security experiments on truncated MACs (experiment E9).

The closed-form bounds assume the CBC-MAC output is uniform — an attacker
who enumerates candidate MAC values for a tampered block needs on average
``2^(n-1)`` trials.  These experiments validate that assumption at widths
small enough to brute-force (4..16 bits), and measure the probability that
a random tamper slips past an n-bit verification (expected ``2^-n``).

Both experiments take ``jobs`` and dispatch fixed-size batches through
:mod:`repro.runner` with per-task seeds derived by
:func:`repro.runner.task_seed`, so results are deterministic and the
same at every worker count, ``jobs=1`` included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..crypto.cbcmac import cbc_mac
from ..crypto.rectangle import Rectangle80
from ..errors import check_count
from ..obs import phase as obs_phase
from ..runner import run_tasks_stored, task_rng


def truncated_mac(cipher: Rectangle80, words: Sequence[int],
                  bits: int) -> int:
    """CBC-MAC truncated to its ``bits`` least-significant bits."""
    check_count("bits", bits, 1, 64)
    return cbc_mac(cipher, words) & ((1 << bits) - 1)


def forgery_trials(cipher: Rectangle80, words: Sequence[int],
                   bits: int) -> int:
    """Number of sequential online trials to forge an n-bit MAC.

    The attacker tampers the message and submits candidate MACs
    0, 1, 2, ... until the device accepts.  If the true MAC is uniform,
    the trial count is uniform on [1, 2^n] with mean 2^(n-1) + 0.5.
    """
    target = truncated_mac(cipher, words, bits)
    return target + 1  # candidates 0..target fail..succeed


@dataclass(frozen=True)
class ForgeryScaling:
    bits: int
    experiments: int
    mean_trials: float
    expected_trials: float

    @property
    def ratio(self) -> float:
        return self.mean_trials / self.expected_trials


def _forgery_batch(_context, task: Tuple[int, int, int, int]) -> int:
    """Total trials for one (bits, experiments) batch with a derived seed."""
    seed, bits, batch, experiments = task
    rng = task_rng(seed, "forgery", bits, batch)
    total = 0
    for _ in range(experiments):
        cipher = Rectangle80(rng.getrandbits(80))
        words = [rng.getrandbits(32) for _ in range(6)]
        total += forgery_trials(cipher, words, bits)
    return total


#: experiments per Monte-Carlo batch (fixed so the task decomposition —
#: and therefore the drawn population — is independent of the worker
#: count)
_BATCH = 50


def forgery_scaling(bits_list: Sequence[int] = (4, 6, 8, 10, 12),
                    experiments: int = 200,
                    seed: int = 2016,
                    jobs: Optional[int] = 1,
                    telemetry=None) -> List[ForgeryScaling]:
    """Mean trials-to-forge vs MAC width — should track 2^(n-1).

    ``telemetry`` (a :class:`repro.obs.Telemetry`, default ``None``)
    records the dispatch plan and per-batch spans — observationally only.
    A width outside 1..64 or fewer than one experiment raises
    :class:`~repro.errors.CampaignError`.
    """
    check_count("experiments", experiments, 1)
    for bits in bits_list:
        check_count("bits", bits, 1, 64)
    tasks = []
    for bits in bits_list:
        remaining = experiments
        batch = 0
        while remaining > 0:
            tasks.append((seed, bits, batch, min(_BATCH, remaining)))
            remaining -= _BATCH
            batch += 1
    with obs_phase(telemetry, "forgery-scaling"):
        totals = run_tasks_stored(_forgery_batch, tasks, jobs=jobs,
                                  telemetry=telemetry).results
    by_bits = {bits: 0 for bits in bits_list}
    for task, total in zip(tasks, totals):
        by_bits[task[1]] += total
    return [ForgeryScaling(
        bits=bits, experiments=experiments,
        mean_trials=by_bits[bits] / experiments,
        expected_trials=float(1 << (bits - 1)))
        for bits in bits_list]


@dataclass(frozen=True)
class TamperEscape:
    bits: int
    tampers: int
    undetected: int

    @property
    def escape_rate(self) -> float:
        return self.undetected / self.tampers

    @property
    def expected_rate(self) -> float:
        return 2.0 ** -self.bits


def _tamper_batch(cipher: Rectangle80,
                  task: Tuple[int, int, int, int]) -> int:
    """Undetected count for one batch of tampers with a derived seed."""
    seed, bits, batch, tampers = task
    rng = task_rng(seed, "tamper", bits, batch)
    undetected = 0
    for _ in range(tampers):
        words = [rng.getrandbits(32) for _ in range(6)]
        mac = truncated_mac(cipher, words, bits)
        tampered = list(words)
        tampered[rng.randrange(6)] ^= 1 << rng.randrange(32)
        if truncated_mac(cipher, tampered, bits) == mac:
            undetected += 1
    return undetected


def tamper_detection(bits: int = 8, tampers: int = 4000,
                     seed: int = 99, jobs: Optional[int] = 1,
                     telemetry=None) -> TamperEscape:
    """Fraction of random single-word tampers that pass n-bit verification.

    With an n-bit MAC an undetected tamper needs the tampered message to
    collide on the truncated MAC: probability 2^-n per attempt.  A width
    outside 1..64 or fewer than one tamper raises
    :class:`~repro.errors.CampaignError`.
    """
    check_count("bits", bits, 1, 64)
    check_count("tampers", tampers, 1)
    batch_size = _BATCH * 10
    tasks = []
    remaining, batch = tampers, 0
    while remaining > 0:
        tasks.append((seed, bits, batch, min(batch_size, remaining)))
        remaining -= batch_size
        batch += 1
    with obs_phase(telemetry, "tamper-detection"):
        undetected = sum(run_tasks_stored(
            _tamper_batch, tasks, jobs=jobs,
            context=lambda: Rectangle80(
                task_rng(seed, "tamper-key").getrandbits(80)),
            telemetry=telemetry).results)
    return TamperEscape(bits=bits, tampers=tampers, undetected=undetected)
