"""Materialize one attack instance per target and classify the outcome.

Classification is purely observational and identical for every target:

* ``detected``            — the machine pulled reset (SOFIA only; the
                            undefended cores have nothing to pull)
* ``crashed``             — illegal instruction / bus error trap: the
                            attack derailed execution with no guarantee
* ``survived-clean``      — ran to completion with observables identical
                            to the clean run (the attack had no effect)
* ``survived-divergent``  — ran to completion with *different*
                            observables: the attack changed behaviour
                            without being stopped — a success against
                            that target
* ``limit``               — exhausted the step budget

Observables are the program's externally visible behaviour (status,
console ints/text/words, actuator writes, exit code).  Registers, PC and
raw RAM are deliberately excluded — the protected layout legally changes
code addresses, which leak into ``ra`` and spilled return addresses
(same rule as the fuzzing oracle's cross-core axis).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..attacks.victim import UNLOCK_VALUE
from ..crypto.keys import DeviceKeys
from ..sim.result import ExecutionResult, Status
from ..sim.sofia import SofiaMachine
from ..transform.image import SofiaImage
from ..transform.renonce import reencrypt
from .model import (AttackInstance, OBS_CRASHED, OBS_DETECTED, OBS_LIMIT,
                    OBS_SURVIVED_CLEAN, OBS_SURVIVED_DIVERGENT)

#: step budgets; a clean run of a generated program takes well under a
#: thousand instructions, so these classify wandering post-attack runs
#: as ``limit`` quickly instead of simulating millions of steps
SOFIA_BUDGET = 200_000
PLAIN_BUDGET = 20_000

Observables = Tuple


def observables(result: ExecutionResult) -> Observables:
    """The externally visible behaviour of one run, as a comparable."""
    return (result.status.value,
            tuple(result.output_ints),
            result.output_text,
            tuple(result.mmio.words) if result.mmio else (),
            tuple(result.mmio.actuator) if result.mmio else (),
            result.exit_code)


def classify_result(result: ExecutionResult,
                    clean: Observables) -> str:
    """Map one run to its matrix cell."""
    if result.status is Status.RESET:
        return OBS_DETECTED
    if result.status is Status.TRAP:
        return OBS_CRASHED
    if result.status is Status.LIMIT:
        return OBS_LIMIT
    if observables(result) == clean:
        return OBS_SURVIVED_CLEAN
    return OBS_SURVIVED_DIVERGENT


def hijacked(result: ExecutionResult) -> bool:
    """Did the actuator receive the unlock value?"""
    return result.mmio is not None and UNLOCK_VALUE in result.mmio.actuator


def materialize_image(instance: AttackInstance, image: SofiaImage,
                      keys: DeviceKeys) -> SofiaImage:
    """The mutated image an instance runs against (the original is kept)."""
    base = image
    if instance.renonce is not None:
        base = reencrypt(image, keys, instance.renonce)
    if instance.writes:
        words = list(base.words)
        for address, word in instance.writes:
            words[(address - base.code_base) // 4] = word & 0xFFFFFFFF
        base = base.with_words(words)
    return base


def run_sofia_instance(instance: AttackInstance, image: SofiaImage,
                       keys: DeviceKeys, clean: Observables,
                       max_instructions: int = SOFIA_BUDGET
                       ) -> Tuple[str, bool, Optional[str], Optional[bool]]:
    """Run one instance on the SOFIA core.

    Returns ``(outcome, hijacked, violation_kind, edge_ok)`` where
    ``edge_ok`` (bend instances only) reports whether the *bent edge
    itself* passed the decrypt/verify front-end — a reset on the very
    first block traversal means it did not.
    """
    machine = SofiaMachine(materialize_image(instance, image, keys), keys)
    if instance.entry_pc is not None:
        machine.state.pc = instance.entry_pc
        if instance.prev_pc is not None:
            machine.prev_pc = instance.prev_pc
    result = machine.run(max_instructions=max_instructions)
    violation = result.violation.kind if result.violation else None
    edge_ok = None
    if instance.entry_pc is not None:
        edge_ok = not (result.status is Status.RESET
                       and result.blocks_executed == 1)
    return (classify_result(result, clean), hijacked(result), violation,
            edge_ok)


def run_plain_instance(instance: AttackInstance, make_machine,
                       clean: Observables,
                       max_instructions: int = PLAIN_BUDGET
                       ) -> Tuple[str, bool]:
    """Run the plaintext-analogue materialization on one undefended core.

    ``make_machine`` builds a fresh vanilla or ISR machine; the pokes go
    through ``Memory.poke_code`` — the same program-memory write surface
    the hand-written attack catalogue uses.
    """
    machine = make_machine()
    for address, word in instance.plain_writes:
        machine.memory.poke_code(address, word)
    if instance.plain_entry is not None:
        machine.state.pc = instance.plain_entry
    result = machine.run(max_instructions=max_instructions)
    return classify_result(result, clean), hijacked(result)
