"""The SOFIA machine: CFI decryption + SI verification in front of the core.

This simulates the hardware of paper Fig. 1: encrypted instructions are
fetched from program memory, decrypted with the control-flow-dependent CTR
keystream, the run-time CBC-MAC over the decrypted instructions is compared
against the decrypted MAC words, and the processor is reset before any
effect of a tampered block commits (the store-slot restriction guarantees
that in hardware; the functional simulator achieves the same by executing a
block's payload only after it verifies).

Entry classification implements §II-E's call-site convention via block
alignment (DESIGN.md): a transfer to ``base+0`` executes an execution
block, ``base+4`` selects multiplexor path 1 (fetch starts at ``M1e1`` and
skips ``M1e2``), ``base+8`` selects path 2 (fetch starts at ``M1e2``);
every other offset is an invalid entry and pulls reset.

Per-edge decrypt/verify results are memoized — a valid execution decrypts a
given (prevPC, entry) pair identically every time, so loops pay for the
cipher once.  A verified block is a pure function of the words at its
fetch addresses (plus keys, nonce and profile), so a write to program
memory drops exactly the edges whose blocks fetch the written word — the
next traversal of each re-decrypts and re-verifies, as hardware does on
every fetch.  Below it sit the pure keystream and seal memos, adopted
from the image's :class:`~repro.transform.image.FrontEndMemo` (filled by
``seal``): their values depend only on keys, nonce and edge or payload,
never on the code words, so they survive code writes and are shared by
every machine whose keys, nonce and seal width match the memo's tags.
The memo's block plane goes one step further: a block-cache miss fetches
the block's words and looks the edge and those words up there, so an
attack instance re-verifies only the blocks its mutation changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..crypto.ctr import EdgeKeystream
from ..crypto.keys import DeviceKeys
from ..errors import DecodingError, SimulationError
from ..isa.encoding import decode
from ..isa.instructions import Instruction
from ..obs import hook as obs_hook
from ..transform.encrypt import unseal_block
from ..transform.image import SofiaImage
from ..transform.profile import RESET_PREV_PC, store_forbidden_slots
from . import fused
from .cache import DirectMappedCache
from .core import CPUState, execute
from .engine import (compile_fetch_runs, predecode_payload, resolve_engine,
                     run_loop)
from .memory import Memory
from .result import ExecutionResult, Status, ViolationRecord
from .timing import DEFAULT_TIMING, TimingParams, instruction_cycles


@dataclass
class _VerifiedBlock:
    """Memoized outcome of decrypting + verifying one (edge, entry)."""

    ok: bool
    base: int
    kind: str                      # "exec" | "mux"
    fetch_addresses: Tuple[int, ...] = ()
    mac_slots: int = 0
    payload: Tuple[Tuple[Instruction, int, int], ...] = ()  # (instr, addr, slot)
    violation: Optional[ViolationRecord] = None
    decode_failure: Optional[Tuple[int, str]] = None  # (slot, reason)
    #: everything the cold tier needs per traversal, predecoded into one
    #: tuple on the block's first traversal (dies with the block on a
    #: write to any word it fetches); see ``SofiaMachine._predecode_block``
    predecoded: Optional[tuple] = None
    #: the hot tier's latest region containing this block
    #: (repro.sim.fused.Region), cached on every member block.  Regions
    #: bind no machine state: a machine whose block cache holds every
    #: member's payload adopts it (forks and golden-trace groups share the
    #: compiled code); a code write drops the blocks and, in the machine,
    #: every region entry inlining one of them.
    region: Optional[fused.Region] = None


class SofiaMachine:
    """Functional + cycle-accounting simulator of the SOFIA core."""

    def __init__(self, image: SofiaImage, keys: DeviceKeys,
                 timing: TimingParams = DEFAULT_TIMING,
                 memoize: bool = True,
                 engine: Optional[str] = None,
                 profile=None) -> None:
        self.image = image
        #: the design point every structural front-end check derives
        #: from (seal width, geometry, store slots) — never module
        #: constants.  Pass ``profile`` to model strict hardware whose
        #: check parameters are fused at provisioning; by default it is
        #: read from the image header, which models the paper's
        #: boot-configuration convention (ω lives in the binary too) but
        #: means a header tamper can *downgrade* the seal width — see
        #: DESIGN.md "Threat model and known limits".  The *cipher* is
        #: never taken from the image either way: the datapath is
        #: physical device hardware, so it comes with the provisioned
        #: ``keys`` (bind them with ``keys.for_profile(profile)`` when
        #: the device is provisioned for a design point).
        self.profile = profile if profile is not None else image.profile
        self.keys = keys
        self.timing = timing
        self.memoize = memoize
        self.engine = resolve_engine(engine)
        self.memory = Memory(image.words, code_base=image.code_base,
                             data=image.data, data_base=image.data_base)
        self.icache = DirectMappedCache(timing.icache_lines,
                                        timing.icache_line_words)
        # the pure keystream and seal memos come from the image's front-end
        # memo when it was computed under these keys, this nonce and this
        # seal width (a wrong-key device, a renonce'd image or strict
        # hardware with another width starts empty); a memo-less image
        # gets one attached here, so later machines on it share the work
        memo = image.front_end_memo(keys, self.profile.mac_words)
        self.keystream = EdgeKeystream(
            keys.encryption_cipher, image.nonce,
            cache=memo.keystream_for(keys, image.nonce))
        self._mac_cache = memo.seal_for(keys, self.profile.mac_words)
        #: (prev_pc, entry_pc, ciphertext words) -> verified block, shared
        #: with every machine of the memo under the same keys, profile,
        #: timing and image layout: a block is a pure function of them
        self._verified = memo.blocks_for(
            keys, image.nonce, self.profile, timing,
            (image.code_base, len(image.words), image.data_base,
             image.block_words))
        self.state = CPUState.reset(image.entry)
        self.prev_pc = RESET_PREV_PC
        self._block_cache: Dict[Tuple[int, int], _VerifiedBlock] = {}
        #: flat edge -> the entry of a region at that member, so the hot
        #: loop is a single dict probe (rebuilt lazily from the block
        #: memos; forks start empty but adopt the regions shared via the
        #: blocks)
        self._fused_edges: Dict[Tuple[int, int], Callable] = {}
        #: traversals per edge not yet compiled: an edge is interpreted by
        #: the predecoded cold tier until it reaches COMPILE_THRESHOLD
        #: (one-shot code never pays a source compile)
        self._fused_heat: Dict[Tuple[int, int], int] = {}
        self.memory.add_code_listener(self._on_code_write)
        #: fault-injection hooks (see repro.faults): a glitched comparator
        #: accepts this many failing MAC checks; a transient fetch glitch
        #: restores program memory after the next block traversal.
        self.verify_skip_budget = 0
        self.pending_fetch_restore: Optional[Tuple[int, int]] = None
        #: optional tracing hook, called as on_commit(pc, instr) after each
        #: committed instruction (see repro.sim.trace); a run with a hook
        #: is executed by the reference oracle
        self.on_commit = None
        #: telemetry sink captured once at construction (repro.obs.hook);
        #: ``None`` by default — every reporting site is a cold path
        #: guarded by one ``is not None`` check, the hot loops never look
        self._obs = obs_hook.SIM

    def _on_code_write(self, address: int) -> None:
        # per-block invalidation: every other block still reads the same
        # words, so its decrypt and verify stay valid — but regions
        # overlap, so every entry of every region that inlines a stale
        # block goes, whichever member edge it is registered under
        stale = {key for key, block in self._block_cache.items()
                 if address in block.fetch_addresses}
        if not stale:
            return
        for key in stale:
            del self._block_cache[key]
            self._fused_heat.pop(key, None)
        edges = self._fused_edges
        for key in [key for key, entry in edges.items()
                    if not stale.isdisjoint(entry.members)]:
            del edges[key]

    def verified_bases(self) -> set:
        """The bases of the blocks this machine verified and still holds
        (a code write drops the blocks that fetch the written word)."""
        return {block.base for block in self._block_cache.values()
                if block.ok}

    # -- the fetch/decrypt/verify unit -----------------------------------

    def _classify(self, entry_pc: int) -> Optional[Tuple[str, int, int]]:
        """Map an entry address to (kind, base, entry word index)."""
        offset = (entry_pc - self.image.code_base) % self.image.block_bytes
        if offset == 0:
            return "exec", entry_pc, 0
        if offset == 4:
            return "mux", entry_pc - 4, 0   # path 1 starts at M1e1
        if offset == 8:
            return "mux", entry_pc - 8, 1   # path 2 starts at M1e2
        return None

    def decrypt_and_verify(self, prev_pc: int, entry_pc: int) -> _VerifiedBlock:
        """The hardware pipeline front-end for one block traversal."""
        key = (prev_pc, entry_pc)
        cached = self._block_cache.get(key) if self.memoize else None
        if cached is not None:
            return cached
        block = self._decrypt_and_verify_uncached(prev_pc, entry_pc)
        if (not block.ok and block.violation is not None
                and block.violation.kind == "integrity"
                and self.verify_skip_budget > 0):
            # a glitched comparator accepts the failing check once; the
            # result is transient and deliberately not memoized
            self.verify_skip_budget -= 1
            return self._decrypt_and_verify_uncached(prev_pc, entry_pc,
                                                     force_accept=True)
        if self.memoize:
            self._block_cache[key] = block
        return block

    def _decrypt_and_verify_uncached(self, prev_pc: int, entry_pc: int,
                                     force_accept: bool = False
                                     ) -> _VerifiedBlock:
        # telemetry: each call is one block-memo miss; memo *hits* are
        # never counted here (the hit path is hot) — derive them as
        # blocks_executed - sim.frontend.decrypts
        obs = self._obs
        if obs is not None:
            obs.count("sim.frontend.decrypts")
        classified = self._classify(entry_pc)
        if classified is None:
            violation = ViolationRecord("invalid-entry", entry_pc, prev_pc,
                                        "entry offset is not 0, 4 or 8")
            return _VerifiedBlock(ok=False, base=entry_pc, kind="?",
                                  violation=violation)
        kind, base, entry_word = classified
        bw = self.image.block_words
        if kind == "exec":
            word_indices = list(range(bw))
        elif entry_word == 0:   # path 1: fetch M1e1, skip M1e2
            word_indices = [0] + list(range(2, bw))
        else:                   # path 2: fetch starts at M1e2
            word_indices = list(range(1, bw))

        addresses = []
        ciphertext = []
        try:
            for index in word_indices:
                address = base + 4 * index
                addresses.append(address)
                ciphertext.append(self.memory.fetch_word(address))
        except SimulationError as exc:
            violation = ViolationRecord("fetch-fault", entry_pc, prev_pc,
                                        str(exc))
            return _VerifiedBlock(ok=False, base=base, kind=kind,
                                  fetch_addresses=tuple(addresses),
                                  violation=violation)
        if force_accept or not self.memoize:
            # transient: a glitched comparator's one-shot acceptance, or
            # a machine that re-verifies every traversal
            return self._verify(prev_pc, entry_pc, kind, base, word_indices,
                                addresses, ciphertext, force_accept)
        # another machine may have verified these very words on this edge
        key = (prev_pc, entry_pc, tuple(ciphertext))
        block = self._verified.get(key)
        if block is None:
            block = self._verified[key] = self._verify(
                prev_pc, entry_pc, kind, base, word_indices, addresses,
                ciphertext, False)
        return block

    def _verify(self, prev_pc: int, entry_pc: int, kind: str, base: int,
                word_indices: List[int], addresses: List[int],
                ciphertext: List[int], force_accept: bool) -> _VerifiedBlock:
        """Decrypt, check and decode the fetched ``ciphertext`` of one
        block traversal."""
        obs = self._obs
        bw = self.image.block_words
        mac_words_count = self.profile.mac_count(kind)
        # decrypt: the entry word chains on the inbound edge; M2 of a mux
        # block always chains on addr(M1e2) = base+4 (Fig. 8); every other
        # word chains on its canonical predecessor word.
        if obs is not None:
            keystream_cached = self.keystream.cache_size()
            mac_cached = len(self._mac_cache)
        plaintext = []
        for position, index in enumerate(word_indices):
            address = base + 4 * index
            if position == 0:
                prev = prev_pc
            elif kind == "mux" and index == 2:
                prev = base + 4
            else:
                prev = base + 4 * (index - 1)
            plaintext.append(self.keystream.decrypt_word(
                ciphertext[position], prev, address))

        # in fetch order both block kinds present the stored seal first
        # (the entry's M1 copy, then M2..Mw), so the unseal split is
        # uniform; mac_slots counts the seal words occupying fetch slots.
        payload_words, stored, expected = unseal_block(
            kind, plaintext, self.keys, self.profile.mac_words,
            mac_cache=self._mac_cache)
        if obs is not None:
            # keystream/MAC memo misses show up as cache growth; hits =
            # lookups - misses (rates derived at `repro stats` time)
            obs.count("sim.keystream.words", len(word_indices))
            obs.count("sim.keystream.memo_misses",
                      self.keystream.cache_size() - keystream_cached)
            obs.count("sim.mac.memo_lookups")
            obs.count("sim.mac.memo_misses",
                      len(self._mac_cache) - mac_cached)
        mac_slots = self.profile.mac_words
        if expected != stored and not force_accept:
            run_hex = "".join(f"{w:08x}" for w in expected)
            stored_hex = "".join(f"{w:08x}" for w in stored)
            violation = ViolationRecord(
                "integrity", entry_pc, prev_pc,
                f"run-time MAC {run_hex} != stored {stored_hex}")
            return _VerifiedBlock(ok=False, base=base, kind=kind,
                                  fetch_addresses=tuple(addresses),
                                  mac_slots=mac_slots, violation=violation)

        # decode the verified payload
        capacity = bw - mac_words_count
        payload: List[Tuple[Instruction, int, int]] = []
        decode_failure = None
        for slot, word in enumerate(payload_words):
            address = base + 4 * (mac_words_count + slot)
            try:
                instr = decode(word, address)
            except DecodingError as exc:
                decode_failure = (slot, str(exc))
                break
            payload.append((instr, address, slot))

        # hardware store-slot check (paper §III: reset when a store is in a
        # forbidden slot) and the single-exit rule (CTIs only at the last
        # payload slot).
        forbidden = store_forbidden_slots(capacity)
        for instr, address, slot in payload:
            if instr.is_store and slot in forbidden:
                violation = ViolationRecord(
                    "store-slot", entry_pc, prev_pc,
                    f"store in payload slot {slot} at 0x{address:08x}")
                return _VerifiedBlock(ok=False, base=base, kind=kind,
                                      fetch_addresses=tuple(addresses),
                                      mac_slots=mac_slots,
                                      violation=violation)
            if instr.is_cti and slot != capacity - 1:
                violation = ViolationRecord(
                    "structure", entry_pc, prev_pc,
                    f"control transfer in mid-block slot {slot}")
                return _VerifiedBlock(ok=False, base=base, kind=kind,
                                      fetch_addresses=tuple(addresses),
                                      mac_slots=mac_slots,
                                      violation=violation)
        return _VerifiedBlock(ok=True, base=base, kind=kind,
                              fetch_addresses=tuple(addresses),
                              mac_slots=mac_slots, payload=tuple(payload),
                              decode_failure=decode_failure)

    # -- the machine loop ---------------------------------------------------

    def run(self, max_instructions: int = 50_000_000) -> ExecutionResult:
        engine = run_loop(self.engine, self.on_commit, self.memory.mmio)
        if engine == "reference":
            result = self._run_reference(max_instructions)
        else:
            result = self._run_fast(max_instructions)
        obs = self._obs
        if obs is not None:
            # run-level throughput counters, read off the finished
            # result and labelled by the loop that ran — the engine loops
            # themselves are untouched
            obs.count(f"sim.runs.{engine}")
            obs.count(f"sim.instructions.{engine}", result.instructions)
            obs.count(f"sim.cycles.{engine}", result.cycles)
            obs.count(f"sim.blocks.{engine}", result.blocks_executed)
        return result

    def _run_reference(self, max_instructions: int) -> ExecutionResult:
        """The oracle loop: one ``core.execute`` call per payload slot."""
        state = self.state
        timing = self.timing
        icache = self.icache
        mmio = self.memory.mmio
        block_bytes = self.image.block_bytes
        pc = state.pc
        prev_pc = self.prev_pc
        cycles = 0
        executed = 0
        blocks_executed = 0
        mac_fetch_cycles = 0
        status: Optional[Status] = None
        trap_reason = ""
        violation: Optional[ViolationRecord] = None

        while executed < max_instructions:
            block = self.decrypt_and_verify(prev_pc, pc)
            blocks_executed += 1
            # Fetch side of the bottleneck model: every word of the block
            # (MAC words included — they become pipeline nops) occupies one
            # fetch slot, plus line-fill penalties.
            fetch_cycles = len(block.fetch_addresses)
            for address in block.fetch_addresses:
                if not icache.access(address):
                    fetch_cycles += timing.icache_miss_penalty
            mac_fetch_cycles += timing.mac_word_cycles * block.mac_slots
            if not block.ok:
                cycles += fetch_cycles
                status = Status.RESET
                violation = block.violation
                break

            transferred = False
            exec_cycles = 0
            for instr, address, slot in block.payload:
                if (block.decode_failure is not None
                        and slot == block.decode_failure[0]):
                    break
                try:
                    outcome = execute(instr, state, self.memory, address)
                except SimulationError as exc:
                    status, trap_reason = Status.TRAP, str(exc)
                    break
                executed += 1
                exec_cycles += instruction_cycles(instr, timing,
                                                  outcome.branch_taken)
                if self.on_commit is not None:
                    self.on_commit(address, instr)
                if outcome.halted:
                    status = Status.HALT
                    break
                if mmio.exit_requested:
                    status = Status.EXIT
                    break
                if instr.is_cti:
                    prev_pc = address
                    pc = (outcome.next_pc if outcome.next_pc is not None
                          else block.base + block_bytes)
                    transferred = True
                    break
            # The block costs whichever side is the bottleneck: with a
            # high-CPI baseline (multi-cycle memory ops) the MAC words and
            # padding nops hide inside execution stalls — exactly why the
            # paper measures 13.7 % instead of a naive +2-words-per-6.
            cycles += max(fetch_cycles, exec_cycles)
            if self.pending_fetch_restore is not None:
                # transient fetch glitch: the corrupted word lived for one
                # block-traversal window; restore the stored ciphertext
                address, original = self.pending_fetch_restore
                self.pending_fetch_restore = None
                self.memory.poke_code(address, original)
            if status is not None:
                break
            if block.decode_failure is not None and not transferred:
                status = Status.TRAP
                trap_reason = (f"illegal instruction in verified block: "
                               f"{block.decode_failure[1]}")
                break
            if not transferred:
                # sequential fall-through into the next block
                prev_pc = block.base + block_bytes - 4
                pc = block.base + block_bytes

        self.state.pc = pc
        self.prev_pc = prev_pc
        return ExecutionResult(
            status=status if status is not None else Status.LIMIT,
            cycles=cycles, instructions=executed,
            exit_code=mmio.exit_code, mmio=mmio, violation=violation,
            trap_reason=trap_reason, icache=icache.stats,
            blocks_executed=blocks_executed,
            mac_fetch_cycles=mac_fetch_cycles)

    def _predecode_block(self, block: _VerifiedBlock) -> tuple:
        """Predecode one verified block for the cold tier.

        Returns ``(ok, n_fetch, fetch_runs, mac_cycles, steps,
        fallthrough_prev, fallthrough_pc, violation, trap_reason)`` — the
        whole per-traversal working set in one tuple, so
        :meth:`_interp_block` unpacks once instead of walking dataclass
        attributes.  The fetch addresses are collapsed into same-cache-line
        runs (one tag check per line instead of per word, with identical
        statistics).
        """
        icache = self.icache
        runs = compile_fetch_runs(block.fetch_addresses,
                                  icache.line_bytes.bit_length() - 1,
                                  icache.lines - 1,
                                  icache.lines.bit_length() - 1)
        steps = predecode_payload(block.payload, self.timing)
        block_bytes = self.image.block_bytes
        trap_reason = None
        if block.decode_failure is not None:
            trap_reason = (f"illegal instruction in verified block: "
                           f"{block.decode_failure[1]}")
        return (block.ok, len(block.fetch_addresses), runs,
                self.timing.mac_word_cycles * block.mac_slots, steps,
                block.base + block_bytes - 4, block.base + block_bytes,
                block.violation, trap_reason)

    def _run_fast(self, max_instructions: int) -> ExecutionResult:
        """The tiered loop: one call per hot region or cold block.

        Bit-identical to the reference oracle — same commit effects,
        same cycle, MAC-slot and I-cache accounting, same reset/trap
        points.  The decrypt/verify front end is shared (and memoized)
        with the reference engine.  Every handler speaks the protocol of
        :mod:`repro.sim.fused`: called with the instruction budget left,
        it returns the charges of the blocks it ran, the next edge (the
        terminal block's own edge with a terminal ``arg``) and ``arg``.
        While an edge is cold, the handler is one predecoded traversal
        (:meth:`_interp_block`); once it reaches
        :data:`repro.sim.fused.COMPILE_THRESHOLD`, a region of verified
        blocks grown from it (:func:`repro.sim.fused.grow_region`) is
        source-compiled into a single call that loops over them
        (:func:`repro.sim.fused.compile_sofia_block`) and registered
        under every member edge.  The budget is checked at every member
        boundary, as this loop checks it before every block (see the
        module docstring of :mod:`repro.sim.fused` for the exit rules and
        the trap-equivalence argument).  Runs only with no commit hook and
        the MMIO exit register clear (see :meth:`run`), so handlers fire
        no hook and poll the exit register only after stores.
        """
        state = self.state
        icache = self.icache
        memory = self.memory
        mmio = memory.mmio
        regs = state.regs
        ld = memory.load
        st = memory.store
        ram = memory.ram
        tags = icache._tags
        hits = 0
        misses = 0
        cycles = 0
        executed = 0
        blocks_executed = 0
        mac_fetch_cycles = 0
        status: Optional[Status] = None
        trap_reason = ""
        violation: Optional[ViolationRecord] = None
        get_edge = self._fused_edges.get
        key = (self.prev_pc, state.pc)
        # a transient fetch glitch (pending_fetch_restore) is armed before
        # the run: its first block then runs alone, through the cold path
        restore_check = self.pending_fetch_restore is not None

        while executed < max_instructions:
            fn = get_edge(key)
            if fn is None or restore_check:
                fn = self._edge_handler(key)
                restore_check = True
            n, cyc, h, mr, mc, nb, key, arg = fn(
                regs, ld, st, mmio, tags, ram, max_instructions - executed)
            blocks_executed += nb
            executed += n
            cycles += cyc
            hits += h
            misses += mr
            mac_fetch_cycles += mc
            if restore_check:
                restore_check = False
                if self.pending_fetch_restore is not None:
                    address, original = self.pending_fetch_restore
                    self.pending_fetch_restore = None
                    memory.poke_code(address, original)
            if arg is None:
                continue
            code, payload = arg
            if code == 2:
                status = Status.HALT
            elif code == 3:
                status = Status.EXIT
            elif code == 4:
                status = Status.TRAP
                trap_reason = payload
            else:
                status = Status.RESET
                violation = payload
            break
        # a terminal handler returns its block's own edge, leaving
        # pc/prev_pc at the block entry — exactly where the reference
        # loop leaves them
        self.prev_pc, self.state.pc = key
        icache.stats.hits += hits
        icache.stats.misses += misses
        return ExecutionResult(
            status=status if status is not None else Status.LIMIT,
            cycles=cycles, instructions=executed,
            exit_code=mmio.exit_code, mmio=mmio, violation=violation,
            trap_reason=trap_reason, icache=icache.stats,
            blocks_executed=blocks_executed,
            mac_fetch_cycles=mac_fetch_cycles)

    def _edge_handler(self, key: Tuple[int, int]):
        """Cold path of :meth:`_run_fast`: produce one edge's handler.

        Heat policy: the first ``COMPILE_THRESHOLD - 1`` traversals of an
        edge are executed by :meth:`_interp_block` — the predecoded cold
        tier — and only a genuinely hot edge pays the source compile of
        its region, so one-shot and lukewarm code never compiles at all.
        A block's latest region is cached on it; this machine adopts it
        when its own block cache holds every member's payload.  Transient
        blocks — a glitched comparator's one-shot force-accept, or any
        block on a ``memoize=False`` machine — are always interpreted and
        never reach the edge dict, preserving their
        re-verify-next-traversal semantics, and so are blocks that never
        verified or fail to decode.  While a fetch glitch is pending, the
        block runs alone on the cold tier, so the glitch is restored after
        exactly one block.
        """
        block = self._block_cache.get(key)
        if block is None:
            block = self.decrypt_and_verify(*key)
            if self._block_cache.get(key) is not block:
                return (lambda r, ld, st, mmio, tags, ram, budget,
                        _b=block, _k=key: self._interp_block(_b, _k))
        if self.pending_fetch_restore is None:
            region = block.region
            if region is not None and self._adopt(region):
                return self._fused_edges[key]
            heat = self._fused_heat.get(key, 0) + 1
            if (heat >= fused.COMPILE_THRESHOLD and block.ok
                    and block.decode_failure is None):
                return self._compile_region(key)
            self._fused_heat[key] = heat
        return (lambda r, ld, st, mmio, tags, ram, budget, _b=block,
                _k=key: self._interp_block(_b, _k))

    def _compile_region(self, key: Tuple[int, int]):
        """Grow, compile and adopt the region of hot edge ``key``; cache
        it on every member block.  Returns ``key``'s entry."""
        block_bytes = self.image.block_bytes
        members = fused.grow_region(self._block_cache, key, block_bytes)
        region = fused.compile_sofia_block(members, self.timing, self.icache,
                                           self.memory, block_bytes)
        for _key, member in members:
            member.region = region
        self._adopt(region)
        if self._obs is not None:
            self._obs.count("sim.fused_compile")
        return self._fused_edges[key]

    def _adopt(self, region) -> bool:
        """Register ``region``'s entries if this machine's block cache
        holds every member's payload (the very objects it was compiled
        from); False otherwise."""
        cache = self._block_cache
        for key, payload in region.members:
            block = cache.get(key)
            if block is None or block.payload is not payload:
                return False
        self._fused_edges.update(region.entries)
        heat = self._fused_heat
        for key in region.entries:
            heat.pop(key, None)
        return True

    def _interp_block(self, block: _VerifiedBlock, key: Tuple[int, int]):
        """The cold tier: one predecoded traversal of ``block``, entered
        on edge ``key``.

        Steps the block's predecoded payload (:meth:`_predecode_block`) and
        returns the same ``(n, cycles, hits, misses, mac_cycles, blocks,
        next_key, arg)`` a compiled region would, for one block.  The loop
        is specialized by step kind and skips every post-commit check an
        inert step provably cannot need.
        """
        predecoded = block.predecoded
        if predecoded is None:
            predecoded = block.predecoded = self._predecode_block(block)
        (ok, fetch_cycles, runs, mac_cycles, steps,
         fallthrough_prev, fallthrough_pc, block_violation,
         block_trap) = predecoded
        memory = self.memory
        mmio = memory.mmio
        regs = self.state.regs
        tags = self.icache._tags
        miss_penalty = self.timing.icache_miss_penalty
        hits = 0
        misses = 0
        for index, tag, count in runs:
            if tags[index] == tag:
                hits += count
            else:
                tags[index] = tag
                misses += 1
                hits += count - 1
                fetch_cycles += miss_penalty
        if not ok:
            return (0, fetch_cycles, hits, misses, mac_cycles, 1,
                    key, (5, block_violation))

        executed = 0
        exec_cycles = 0
        arg = None
        key2 = key
        for run_h, cyc_seq, cyc_taken, kind, address in steps:
            try:
                target = run_h(regs, memory, address)
            except SimulationError as exc:
                arg = (4, str(exc))
                break
            executed += 1
            if kind == 0:          # inert: target is always None
                exec_cycles += cyc_seq
                continue
            if kind == 1:          # store: may have set exit
                exec_cycles += cyc_seq
                if mmio.exit_code is not None:
                    arg = (3, None)
                    break
                continue
            if kind == 2:          # CTI: always ends the block
                if target is None:
                    exec_cycles += cyc_seq
                    key2 = (address, fallthrough_pc)
                else:
                    exec_cycles += cyc_taken
                    key2 = (address, target)
                break
            exec_cycles += cyc_seq  # halt
            arg = (2, None)
            break
        else:
            # ran off the payload end: decode-failure trap or sequential
            # fall-through into the next block
            if block_trap is not None:
                arg = (4, block_trap)
            else:
                key2 = (fallthrough_prev, fallthrough_pc)
        cycles = fetch_cycles if fetch_cycles > exec_cycles else exec_cycles
        return (executed, cycles, hits, misses, mac_cycles, 1, key2, arg)


def run_image(image: SofiaImage, keys: DeviceKeys,
              timing: TimingParams = DEFAULT_TIMING,
              max_instructions: int = 50_000_000,
              engine: Optional[str] = None) -> ExecutionResult:
    """Convenience one-shot runner."""
    return SofiaMachine(image, keys, timing, engine=engine).run(
        max_instructions)
