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

A program's instances share its cipher work.  :func:`materialize_images`
builds every instance's mutated image up front, with one re-encryption
per new nonce, and :func:`prefill_front_ends` then computes the
keystream words and seals of each instance's first traversal of what it
mutated, bit-sliced across all the instances at once, into the
front-end memo planes their machines adopt.  Those are the values each
machine would compute itself, so the runs cannot tell; they just find
the work done.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..attacks.victim import UNLOCK_VALUE
from ..crypto.ctr import EdgeKeystream
from ..crypto.keys import DeviceKeys
from ..sim.result import ExecutionResult, Status
from ..sim.sofia import SofiaMachine
from ..transform.encrypt import _batch_macs, traversal_ciphertext
from ..transform.image import SofiaImage
from ..transform.profile import RESET_PREV_PC
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


def materialize_images(instances: Sequence[AttackInstance],
                       image: SofiaImage,
                       keys: DeviceKeys) -> List[SofiaImage]:
    """The mutated image each instance runs against (the original is
    kept).  Instances that renonce to the same nonce share one
    re-encryption, and with it the renonced image's front-end memo and
    verified-block plane."""
    renonced: Dict[int, SofiaImage] = {}
    images: List[SofiaImage] = []
    for instance in instances:
        base = image
        if instance.renonce is not None:
            base = renonced.get(instance.renonce)
            if base is None:
                base = renonced[instance.renonce] = reencrypt(
                    image, keys, instance.renonce)
        if instance.writes:
            words = list(base.words)
            for address, word in instance.writes:
                words[(address - base.code_base) // 4] = word & 0xFFFFFFFF
            base = base.with_words(words)
        images.append(base)
    return images


def materialize_image(instance: AttackInstance, image: SofiaImage,
                      keys: DeviceKeys) -> SofiaImage:
    """The mutated image one instance runs against (the original is kept)."""
    return materialize_images([instance], image, keys)[0]


def _first_traversals(instance: AttackInstance, image: SofiaImage,
                      clean_edges: Sequence[Tuple[int, int]]
                      ) -> List[Tuple[int, int]]:
    """The ``(prevPC, entry PC)`` traversals on which a run of
    ``instance`` first fetches what the instance changed: its bent edge,
    or the clean run's edges into each block it writes (the run equals
    the clean run up to that fetch)."""
    if instance.entry_pc is not None:
        prev_pc = (RESET_PREV_PC if instance.prev_pc is None
                   else instance.prev_pc)
        return [(prev_pc, instance.entry_pc)]
    written = {image.block_base_of(address)
               for address, _word in instance.writes}
    return [edge for edge in clean_edges
            if image.block_base_of(edge[1]) in written]


def prefill_front_ends(instances: Sequence[AttackInstance],
                       images: Sequence[SofiaImage], keys: DeviceKeys,
                       clean_edges: Sequence[Tuple[int, int]]) -> None:
    """Do the cipher work of every instance's first traversals at once.

    ``images`` are the instances' materialized images
    (:func:`materialize_images`) and ``clean_edges`` the clean run's
    verified edges, in first-traversal order.  Each first traversal
    (see :func:`_first_traversals`) gets its keystream words from one
    :meth:`~repro.crypto.ctr.EdgeKeystream.keystream_many` call per
    front-end memo and its seal from one bit-sliced CBC-MAC per (kind,
    length) group, written into the memo planes the instances' machines
    adopt.  These are the values each machine would compute itself on
    that traversal, so no run can tell; the machines then find their
    mutated blocks' cipher work done instead of paying it one scalar
    chain at a time.
    """
    # front-end memo -> (an image of it, its traversals)
    memos: Dict[int, Tuple[SofiaImage, list]] = {}
    for instance, image in zip(instances, images):
        memo = image.front_end_memo(keys, image.profile.mac_words)
        _image, fetched = memos.setdefault(id(memo), (image, []))
        for prev_pc, entry_pc in _first_traversals(instance, image,
                                                   clean_edges):
            traversal = traversal_ciphertext(image, prev_pc, entry_pc)
            if traversal is not None:
                fetched.append(traversal)
    # seal plane -> (seal width, its (kind, payload) lanes)
    seals: Dict[int, Tuple[Dict, int, list]] = {}
    for image, fetched in memos.values():
        memo = image.front_end
        mac_words = image.profile.mac_words
        stream = EdgeKeystream(keys.encryption_cipher, image.nonce,
                               cache=memo.keystream_for(keys, image.nonce))
        words = iter(stream.keystream_many(
            edge for _kind, _ciphertext, edges in fetched
            for edge in edges))
        plane = memo.seal_for(keys, mac_words)
        _plane, _width, lanes = seals.setdefault(id(plane),
                                                 (plane, mac_words, []))
        for kind, ciphertext, _edges in fetched:
            plain = [word ^ next(words) for word in ciphertext]
            lanes.append((kind, tuple(plain[mac_words:])))
    for plane, mac_words, lanes in seals.values():
        _batch_macs(keys, mac_words, lanes, plane)


def run_sofia_instance(instance: AttackInstance, mutated: SofiaImage,
                       keys: DeviceKeys, clean: Observables
                       ) -> Tuple[str, bool, Optional[str], Optional[bool]]:
    """Run one instance on the SOFIA core.

    ``mutated`` is the instance's materialized image
    (:func:`materialize_images` or :func:`materialize_image`).
    Returns ``(outcome, hijacked, violation_kind, edge_ok)`` where
    ``edge_ok`` (bend instances only) reports whether the *bent edge
    itself* passed the decrypt/verify front-end — a reset on the very
    first block traversal means it did not.
    """
    machine = SofiaMachine(mutated, keys)
    if instance.entry_pc is not None:
        machine.state.pc = instance.entry_pc
        if instance.prev_pc is not None:
            machine.prev_pc = instance.prev_pc
    result = machine.run(max_instructions=SOFIA_BUDGET)
    violation = result.violation.kind if result.violation else None
    edge_ok = None
    if instance.entry_pc is not None:
        edge_ok = not (result.status is Status.RESET
                       and result.blocks_executed == 1)
    return (classify_result(result, clean), hijacked(result), violation,
            edge_ok)


def run_plain_instance(instance: AttackInstance, make_machine,
                       clean: Observables) -> Tuple[str, bool]:
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
    result = machine.run(max_instructions=PLAIN_BUDGET)
    return classify_result(result, clean), hijacked(result)
