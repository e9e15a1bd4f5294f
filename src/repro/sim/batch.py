"""Bit-sliced batch simulation: the campaign strategies of experiment E18.

Campaign runs (fault injection, attack synthesis, DSE grid points) execute
thousands of *near-identical* specimens: each one replays the same clean
prefix of the same protected image before diverging — at a fault trigger,
a tampered block, a detection reset.  This module batches that common work
two ways:

**Bit-sliced front end** — :func:`warm_front_end` enumerates every sealed
static edge of the image (the per-word chaining scheme of
:func:`~repro.transform.encrypt.chain_prev_pcs`) and fills the machine's
per-edge keystream memo with one :func:`~repro.crypto.bitslice.encrypt_batch`
sweep (up to 64 counters per cipher pass), then batch-MACs every block's
plaintext payload into a shared seal memo — so the scalar run loop never
touches the cipher again.  Both memos are *pure*: keystream words depend
only on (cipher, nonce, edge) and seal values only on (keys, kind,
payload), so pre-warming and sharing them is observationally invisible
(the existing memoization cycle-neutrality tests gate exactly this).

**Lockstep leader** — :class:`LockstepLeader` runs the clean prefix once,
in stints, and :func:`fork_machine` peels a byte-exact specimen machine
off at each trigger point.  Soundness of stinted advancement: ``run()``
only ever stops at a block-commit boundary, overshooting its budget to
the *first boundary >= budget*; the boundary sequence of the
deterministic clean run is fixed, so advancing to ascending triggers
``t1 <= t2 <= ...`` visits exactly the states a fresh scalar
``run(max_instructions=t_i)`` would reach.  The leader stops advancing at
any terminal (non-LIMIT) status because re-running a halted machine
re-executes block payload — forks made after that point replicate the
terminal state, exactly like the scalar path.

Specimens resume on the fast engine, so every per-commit observable
(registers, PC, memory, cycles, I-cache stats) is byte-identical to a
fresh run — the batch differential suite and the W=1 == per-specimen
determinism tests gate this.

These are campaign strategies, not engines: the fault campaign always
runs its specimens through :class:`LockstepLeader` in groups of
:data:`BATCH_WIDTH`, and attack synthesis always warms the clean machine
with :func:`warm_front_end` and shares its memos with every instance
machine through :func:`adopt_caches`.
"""

from __future__ import annotations

from ..crypto.bitslice import WIDTH, batch_mac_stream, encrypt_batch
from ..crypto.ctr import pack_counter
from ..crypto.primitives import MASK32
from ..transform.encrypt import block_mac_cipher
from .result import Status
from .sofia import SofiaMachine
from .timing import DEFAULT_TIMING, TimingParams

#: specimens per lockstep chunk — one per bit-slice lane.
BATCH_WIDTH = WIDTH


def warm_front_end(machine: SofiaMachine) -> int:
    """Batch-fill ``machine``'s keystream and seal memos for every sealed
    static edge; returns the number of edges warmed.

    Images without block metadata (e.g. geometric ``--image`` mode) have
    no static edge list to enumerate and warm nothing — the scalar lazy
    path still works, it just pays per edge.
    """
    if machine._mac_cache is None:
        machine._mac_cache = {}
    image = machine.image
    if not image.blocks:
        return 0

    # -- keystream plane: every (prevPC, PC) pair a valid traversal uses
    bw = image.block_words
    pairs = []
    for block in image.blocks:
        base = block.base
        entries = block.entry_prev_pcs
        if block.kind == "exec":
            for prev in entries:
                pairs.append((prev, base))
            start = 1
        else:
            # mux entry words: path 1 chains M1e1 (base), path 2 M1e2
            # (base+4); interior words chain on their predecessor, with
            # index 2 on addr(M1e2) == base+4 — the generic rule already
            if entries:
                pairs.append((entries[0], base))
            if len(entries) > 1:
                pairs.append((entries[1], base + 4))
            start = 2
        for i in range(start, bw):
            pairs.append((base + 4 * (i - 1), base + 4 * i))
    cache = machine.keystream._cache
    todo = [pair for pair in dict.fromkeys(pairs) if pair not in cache]
    nonce = machine.keystream.nonce
    counters = [pack_counter(nonce, prev, pc) for prev, pc in todo]
    for pair, word in zip(todo, encrypt_batch(machine.keystream.cipher,
                                              counters)):
        cache[pair] = word & MASK32

    # -- seal plane: batch-MAC each block's plaintext payload (grouped by
    # kind and length so lanes line up), keyed the way unseal_block looks
    # them up on traversal
    mac_cache = machine._mac_cache
    groups = {}
    for block in image.blocks:
        payload = block.plain_payload
        if not payload or (block.kind, payload) in mac_cache:
            continue
        groups.setdefault((block.kind, len(payload)), set()).add(payload)
    mac_words = machine.profile.mac_words
    for (kind, _length), payloads in sorted(groups.items()):
        ordered = sorted(payloads)
        macs = batch_mac_stream(block_mac_cipher(machine.keys, kind),
                                ordered, mac_words)
        for payload, mac in zip(ordered, macs):
            mac_cache[(kind, payload)] = mac
    obs = machine._obs
    if obs is not None:
        obs.count("sim.batch.warms")
        obs.count("sim.batch.edges_warmed", len(todo))
    return len(todo)


def adopt_caches(machine: SofiaMachine, donor: SofiaMachine) -> None:
    """Seed a fresh machine's pure front-end memos from a warmed donor.

    Only memos whose values cannot differ between the two machines are
    shared: the keystream memo requires the same cipher *and* nonce
    (renonce'd images keep their own), the seal memo the same keys and
    profile.  The per-(edge, code) block cache is never shared — it
    depends on the image words, which is exactly what attack instances
    mutate.
    """
    if (donor.keystream.nonce == machine.keystream.nonce
            and donor.keystream.cipher is machine.keystream.cipher):
        machine.keystream._cache = donor.keystream._cache
    if donor.keys is machine.keys and donor.profile == machine.profile:
        if donor._mac_cache is None:
            donor._mac_cache = {}
        machine._mac_cache = donor._mac_cache


def fork_machine(source: SofiaMachine) -> SofiaMachine:
    """A byte-exact, independently runnable copy of ``source``.

    The architectural state (registers, PC, prevPC, code, RAM, MMIO logs,
    I-cache tags and stats, fault hooks) is copied; the pure keystream and
    seal memos are shared (additions are value-identical on every sharer,
    and a code write detaches a machine onto a fresh keystream); the
    block cache is copied, not shared — a specimen that tampers with code
    clears and repopulates *its own* copy from its own memory.
    """
    clone = SofiaMachine(source.image, source.keys, timing=source.timing,
                         memoize=source.memoize, profile=source.profile)
    clone.state.regs[:] = source.state.regs
    clone.state.pc = source.state.pc
    clone.prev_pc = source.prev_pc
    memory, donor = clone.memory, source.memory
    memory.code[:] = donor.code
    memory.ram[:] = donor.ram
    mmio, donor_mmio = memory.mmio, donor.mmio
    mmio.chars[:] = donor_mmio.chars
    mmio.ints[:] = donor_mmio.ints
    mmio.words[:] = donor_mmio.words
    mmio.actuator[:] = donor_mmio.actuator
    mmio.exit_code = donor_mmio.exit_code
    clone.icache._tags[:] = source.icache._tags
    clone.icache.stats.hits = source.icache.stats.hits
    clone.icache.stats.misses = source.icache.stats.misses
    clone.keystream._cache = source.keystream._cache
    clone._block_cache = dict(source._block_cache)
    clone._mac_cache = source._mac_cache
    clone.verify_skip_budget = source.verify_skip_budget
    clone.pending_fetch_restore = source.pending_fetch_restore
    return clone


class LockstepLeader:
    """One shared clean run; per-specimen machines fork off at triggers.

    ``fork_at`` must be called with non-decreasing trigger instruction
    counts (sort the specimens first); each call advances the leader by a
    stint and returns a fork whose state is byte-identical to a fresh
    scalar machine run for ``trigger`` instructions.
    """

    def __init__(self, image, keys, timing: TimingParams = DEFAULT_TIMING,
                 profile=None, warm: bool = True) -> None:
        self.machine = SofiaMachine(image, keys, timing=timing,
                                    profile=profile)
        if warm:
            warm_front_end(self.machine)
        self.executed = 0
        self.halted = False

    def fork_at(self, trigger: int) -> SofiaMachine:
        if not self.halted and trigger > self.executed:
            result = self.machine.run(max_instructions=trigger - self.executed)
            self.executed += result.instructions
            if result.status is not Status.LIMIT:
                # terminal state: re-running would re-execute the block,
                # so later forks replicate this state instead
                self.halted = True
        obs = self.machine._obs
        if obs is not None:
            obs.count("sim.lockstep.forks")
        return fork_machine(self.machine)
