"""Block layout engine: rewrite a program into SOFIA blocks.

This is the compile-time half of the paper's architecture (§III,
"the assembly instructions are transformed to conform to the format
required by the CFI and SI mechanisms"):

1. **Chunking** — the canonical instruction stream is split into blocks.
   Every CFG leader (branch/call target, return point, entry) starts a
   block; control-transfer instructions are nop-padded into the final
   payload slot (control may only exit a block at its last word); stores
   are nop-deferred out of the slots that would reach the MA stage before
   verification (paper Fig. 6).
2. **Offset-0 forwarders** — fall-through edges and ``jr ra`` returns can
   only enter a block at its base word.  When their target needs a
   multiplexor entry, a forwarder execution block (a "thunk"/"landing
   pad") is spliced immediately before the target so the constrained edge
   lands at offset 0 and a jmp selects the proper multiplexor entry.
3. **Multiplexor trees** — every leader with two predecessors becomes a
   multiplexor block; more than two predecessors are funnelled through a
   binary tree of forwarder multiplexor blocks (paper Fig. 9).
4. **Placement & resolution** — blocks receive sequential 8-word-aligned
   base addresses (main sequence first, tree nodes appended); every edge
   is assigned a concrete entry address (``base`` for execution blocks,
   ``base+4``/``base+8`` for multiplexor paths 1/2) and all CTI operands,
   forwarder jumps and indirect-target symbols are resolved to those
   addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..cfg.builder import is_return
from ..cfg.graph import ControlFlowGraph
from ..errors import TransformError
from ..isa.instructions import Instruction, make_nop
from ..isa.program import CODE_BASE, AsmProgram, resolve_data_references
from .blocks import (Block, BlockKind, EdgeKey, EntryAssignment, Token,
                     is_offset0, token_sort_key)
from .profile import (RESET_PREV_PC, UNREACHABLE_PREV_PC,
                      ProtectionProfile, store_forbidden_slots)


@dataclass(frozen=True)
class LayoutStats:
    """Size accounting for the transformed binary."""

    source_instructions: int
    payload_instructions: int
    padding_nops: int
    exec_blocks: int
    mux_blocks: int
    tree_nodes: int
    offset0_forwarders: int
    code_bytes: int
    original_code_bytes: int

    @property
    def total_blocks(self) -> int:
        return self.exec_blocks + self.mux_blocks

    @property
    def expansion_ratio(self) -> float:
        if not self.original_code_bytes:
            return 0.0
        return self.code_bytes / self.original_code_bytes


@dataclass
class Layout:
    """The fully placed and resolved block program."""

    blocks: List[Block]
    assignments: Dict[EdgeKey, Tuple[Block, int]]
    block_of_instr: Dict[int, Tuple[Block, int]]
    leader_blocks: Dict[int, Block]
    overrides: Dict[str, int]
    entry_address: int
    profile: ProtectionProfile
    stats: LayoutStats

    def entry_prev_pcs(self, block: Block) -> List[int]:
        """prevPC value(s) sealing this block's entry word(s).

        Unreachable blocks (no inbound edges, and no physical predecessor
        that can fall through) are sealed with the sentinel prevPC so that
        *no* runtime edge decrypts them — sealing them with the physical
        predecessor's address would hand an attacker a valid edge into
        dead code (e.g. dormant diagnostics routines).
        """
        if block.entries:
            return [entry.prev_pc for entry in block.entries]
        if block.leader is None and block.seq > 0:
            previous = self.blocks[block.seq - 1]
            if previous.falls_through:
                # continuation block entered by physical fall-through
                return [previous.last_word_address]
        return [UNREACHABLE_PREV_PC]


def compute_leaders(cfg: ControlFlowGraph) -> set:
    """Instruction indices that may be entered from another block."""
    leaders = {cfg.entry}
    for edge in cfg.edges:
        if edge.kind != "fall":
            leaders.add(edge.dst)
    return leaders


def compute_pred_tokens(
    program: AsmProgram, cfg: ControlFlowGraph, leaders: set
) -> Dict[int, List[Token]]:
    """Inbound edge tokens per leader, deduplicated and ordered."""
    pmap = cfg.predecessor_map()
    preds: Dict[int, List[Token]] = {}
    for leader in leaders:
        tokens = set()
        for edge in pmap.get(leader, []):
            if edge.kind == "fall":
                tokens.add(("fall", leader))
            elif edge.kind == "reset":
                tokens.add(("reset",))
            elif edge.kind == "icall":
                tokens.add(("ind", edge.src, leader))
            elif edge.kind == "return":
                instr = program.instructions[edge.src]
                if is_return(instr):
                    tokens.add(("ret", edge.src))
                else:  # ret rewritten to a direct jmp by the transformer
                    tokens.add(("cti", edge.src))
            else:
                tokens.add(("cti", edge.src))
        preds[leader] = sorted(tokens, key=token_sort_key)
    return preds


def _can_hoist_over_store(candidate: Instruction,
                          store: Instruction) -> bool:
    """May ``candidate`` (textually after ``store``) execute before it?

    Conservative dependence test for the store-scheduling optimization:
    the candidate must be a plain ALU instruction (no memory access, no
    control transfer, no halt) and must not write a register the store
    reads (its base ``rs1`` or its data ``rs2``).  Stores write no
    registers, so the reverse direction is always safe.
    """
    spec = candidate.spec
    if spec.is_cti or spec.is_halt or spec.is_load or spec.is_store:
        return False
    reads = {store.rs1, store.rs2}
    return candidate.rd not in reads


class _Chunker:
    """Splits the instruction stream into blocks (step 1)."""

    def __init__(self, program: AsmProgram, leaders: set,
                 preds: Dict[int, List[Token]], profile: ProtectionProfile):
        self.program = program
        self.leaders = leaders
        self.preds = preds
        self.profile = profile
        self.blocks: List[Block] = []
        self.block_of_instr: Dict[int, Tuple[Block, int]] = {}
        self.leader_blocks: Dict[int, Block] = {}
        self._labels_by_index = program.labels_by_index()
        self._current: Optional[Block] = None
        self._consumed: set = set()

    def _capacity(self, kind: BlockKind) -> int:
        if kind is BlockKind.EXEC:
            return self.profile.exec_capacity
        return self.profile.mux_capacity

    def _open(self, start_index: int, leader: Optional[int]) -> None:
        labels = self._labels_by_index.get(start_index, [])
        if leader is not None:
            kind = (BlockKind.MUX if len(self.preds.get(leader, ())) > 1
                    else BlockKind.EXEC)
            block = Block(kind=kind, capacity=self._capacity(kind),
                          leader=leader, labels=labels,
                          mac_count=self.profile.mac_count(kind.value))
            self.leader_blocks[leader] = block
        else:
            block = Block(kind=BlockKind.EXEC,
                          capacity=self.profile.exec_capacity,
                          labels=labels,
                          mac_count=self.profile.exec_mac_words)
        self._current = block

    def _pad(self) -> None:
        self._current.payload.append(make_nop())
        self._current.source_indices.append(None)

    def _close(self, falls_through: bool) -> None:
        while len(self._current.payload) < self._current.capacity:
            self._pad()
        self._current.falls_through = falls_through
        self.blocks.append(self._current)
        self._current = None

    def _place(self, index: int, instr: Instruction) -> None:
        current = self._current
        spec = instr.spec
        if spec.is_cti:
            while len(current.payload) < current.capacity - 1:
                self._pad()
            current.payload.append(instr)
            current.source_indices.append(index)
            self.block_of_instr[index] = (current, current.capacity - 1)
            self._close(falls_through=spec.is_branch)
            return
        if spec.is_halt:
            slot = len(current.payload)
            current.payload.append(instr)
            current.source_indices.append(index)
            self.block_of_instr[index] = (current, slot)
            self._close(falls_through=False)
            return
        if spec.is_store:
            while (len(self._current.payload) in
                   store_forbidden_slots(self._current.capacity)):
                if (self.profile.schedule_stores
                        and self._hoist_for_store(index, instr)):
                    continue
                self._pad()
                if len(self._current.payload) >= self._current.capacity:
                    self._close(falls_through=True)
                    self._open(index, None)
        current = self._current
        slot = len(current.payload)
        current.payload.append(instr)
        current.source_indices.append(index)
        self.block_of_instr[index] = (current, slot)
        if len(current.payload) >= current.capacity:
            self._close(falls_through=True)

    def _hoist_for_store(self, store_index: int,
                         store: Instruction) -> bool:
        """Place the next independent instruction ahead of the store.

        Returns True when an instruction was hoisted (the store's slot
        advanced by one); False when no safe candidate exists and the
        caller must fall back to nop padding.
        """
        instructions = self.program.instructions
        candidate_index = store_index + 1
        while candidate_index in self._consumed:
            candidate_index += 1
        if candidate_index >= len(instructions):
            return False
        if candidate_index in self.leaders:
            return False  # never move code across a block entry
        candidate = instructions[candidate_index]
        if not _can_hoist_over_store(candidate, store):
            return False
        self._consumed.add(candidate_index)
        self._place(candidate_index, candidate)
        return True

    def run(self) -> None:
        for index, instr in enumerate(self.program.instructions):
            if index in self._consumed:
                continue  # already placed (hoisted ahead of a store)
            if index in self.leaders and self._current is not None:
                self._close(falls_through=True)
            if self._current is None:
                self._open(index, index if index in self.leaders else None)
            self._place(index, instr)
        if self._current is not None:
            raise TransformError(
                "program does not end with halt, jmp or ret")


def build_layout(program: AsmProgram, cfg: ControlFlowGraph,
                 profile: ProtectionProfile) -> Layout:
    """Run the full layout pipeline (chunk, forwarders, trees, resolve)."""
    leaders = compute_leaders(cfg)
    preds = compute_pred_tokens(program, cfg, leaders)

    chunker = _Chunker(program, leaders, preds, profile)
    chunker.run()
    blocks = chunker.blocks
    block_of_instr = chunker.block_of_instr
    leader_blocks = chunker.leader_blocks

    assignments: Dict[EdgeKey, Tuple[Block, int]] = {}
    forwarder_blocks: Dict[Token, Block] = {}
    next_fid = [0]

    def new_forwarder(kind: BlockKind, leader: int) -> Tuple[Block, Token]:
        fid = next_fid[0]
        next_fid[0] += 1
        capacity = (profile.exec_capacity if kind is BlockKind.EXEC
                    else profile.mux_capacity)
        payload = [make_nop()] * (capacity - 1) + [Instruction("jmp")]
        block = Block(kind=kind, capacity=capacity, payload=payload,
                      source_indices=[None] * capacity, is_forwarder=True,
                      mac_count=profile.mac_count(kind.value))
        token = ("tree", fid)
        block.out_edge = (token, leader)
        forwarder_blocks[token] = block
        return block, token

    # --- step 2: offset-0 forwarders (fall-through thunks, landing pads) ---
    offset0_count = 0
    inserts: Dict[int, Block] = {}  # position in `blocks` -> forwarder
    for leader in sorted(preds):
        tokens = preds[leader]
        if len(tokens) <= 1:
            continue
        constrained = [t for t in tokens if is_offset0(t)]
        if not constrained:
            continue
        if len(constrained) > 1:
            raise TransformError(
                f"leader {leader} has {len(constrained)} offset-0 "
                f"predecessors; the layout invariant allows at most one")
        token = constrained[0]
        forwarder, new_token = new_forwarder(BlockKind.EXEC, leader)
        forwarder.entries = [EntryAssignment(edge=(token, leader), slot=0)]
        assignments[(token, leader)] = (forwarder, 0)
        position = blocks.index(leader_blocks[leader])
        if position in inserts:
            raise TransformError(
                "two forwarders requested at the same position")
        inserts[position] = forwarder
        preds[leader] = [new_token if t == token else t for t in tokens]
        offset0_count += 1
    if inserts:
        rebuilt: List[Block] = []
        for position, block in enumerate(blocks):
            if position in inserts:
                rebuilt.append(inserts[position])
            rebuilt.append(block)
        blocks = rebuilt

    # --- step 3: entry assignment and multiplexor trees ---
    tree_nodes: List[Block] = []
    for leader in sorted(preds):
        tokens = preds[leader]
        block = leader_blocks[leader]
        if not tokens:
            block.entries = []
            continue
        if len(tokens) == 1:
            assert block.kind is BlockKind.EXEC
            assignments[(tokens[0], leader)] = (block, 0)
            block.entries = [EntryAssignment((tokens[0], leader), 0)]
            continue
        work = list(tokens)
        while len(work) > 2:
            first, second = work[0], work[1]
            node, node_token = new_forwarder(BlockKind.MUX, leader)
            assignments[(first, leader)] = (node, 0)
            assignments[(second, leader)] = (node, 1)
            node.entries = [EntryAssignment((first, leader), 0),
                            EntryAssignment((second, leader), 1)]
            tree_nodes.append(node)
            work = work[2:] + [node_token]
        assert block.kind is BlockKind.MUX
        assignments[(work[0], leader)] = (block, 0)
        assignments[(work[1], leader)] = (block, 1)
        block.entries = [EntryAssignment((work[0], leader), 0),
                         EntryAssignment((work[1], leader), 1)]

    # --- step 4a: placement ---
    blocks = blocks + tree_nodes
    for seq, block in enumerate(blocks):
        block.seq = seq
        block.base = CODE_BASE + profile.block_bytes * seq

    # --- step 4b: prevPC of every entry ---
    def token_prev_pc(token: Token, leader: int) -> int:
        kind = token[0]
        if kind == "reset":
            return RESET_PREV_PC
        if kind in ("cti", "ret", "ind"):
            return block_of_instr[token[1]][0].last_word_address
        if kind == "tree":
            return forwarder_blocks[token].last_word_address
        if kind == "fall":
            target_block = assignments[(token, leader)][0]
            if target_block.seq == 0:
                raise TransformError("fall-through into the first block")
            return blocks[target_block.seq - 1].last_word_address
        raise TransformError(f"unknown edge token {token!r}")

    for block in blocks:
        for entry in block.entries:
            entry.prev_pc = token_prev_pc(entry.edge[0], entry.edge[1])

    # --- step 4c: indirect-target overrides ---
    overrides: Dict[str, int] = {}
    for (token, leader), (target_block, slot) in assignments.items():
        if token[0] != "ind":
            continue
        site_index = token[1]
        site = program.instructions[site_index]
        address = target_block.entry_address(slot)
        for symbol in site.targets:
            if program.labels.get(symbol) != leader:
                continue
            existing = overrides.get(symbol)
            if existing is not None and existing != address:
                raise TransformError(
                    f"indirect target {symbol!r} is shared by multiple "
                    f"call sites; SOFIA requires one entry per caller")
            overrides[symbol] = address

    # --- step 4d: operand resolution ---
    data_addresses = resolve_data_references(program)
    for block in blocks:
        resolved: List[Instruction] = []
        for slot, instr in enumerate(block.payload):
            if block.is_forwarder and slot == block.capacity - 1:
                target_block, tslot = assignments[block.out_edge]
                resolved.append(Instruction(
                    "jmp", imm=target_block.entry_address(tslot)))
                continue
            if instr.symbol is None:
                resolved.append(instr)
                continue
            symbol = instr.symbol
            if instr.reloc:
                if symbol in data_addresses:
                    address = data_addresses[symbol]
                elif symbol in overrides:
                    address = overrides[symbol]
                else:
                    raise TransformError(
                        f"taking the address of code label {symbol!r} is "
                        f"only supported for .targets-annotated symbols "
                        f"(line {instr.line})")
                value = ((address >> 16) & 0xFFFF if instr.reloc == "hi"
                         else address & 0xFFFF)
                resolved.append(replace(instr, imm=value, symbol=None,
                                        reloc=None))
                continue
            leader = program.labels.get(symbol)
            if leader is None:
                raise TransformError(
                    f"undefined code label {symbol!r} (line {instr.line})")
            source_index = block.source_indices[slot]
            key = (("cti", source_index), leader)
            if key not in assignments:
                raise TransformError(
                    f"no entry assignment for edge {key!r} "
                    f"({instr.mnemonic} at line {instr.line})")
            target_block, tslot = assignments[key]
            resolved.append(replace(
                instr, imm=target_block.entry_address(tslot), symbol=None))
        block.payload = resolved

    entry_leader = cfg.entry
    entry_key = (("reset",), entry_leader)
    if entry_key not in assignments:
        raise TransformError("the reset edge was never assigned an entry")
    entry_block, entry_slot = assignments[entry_key]
    entry_address = entry_block.entry_address(entry_slot)

    stats = _compute_stats(program, blocks, tree_nodes, offset0_count,
                           profile)
    return Layout(blocks=blocks, assignments=assignments,
                  block_of_instr=block_of_instr,
                  leader_blocks=leader_blocks, overrides=overrides,
                  entry_address=entry_address, profile=profile,
                  stats=stats)


def _compute_stats(program: AsmProgram, blocks: List[Block],
                   tree_nodes: List[Block], offset0_count: int,
                   profile: ProtectionProfile) -> LayoutStats:
    payload = sum(len(b.payload) for b in blocks)
    source = len(program.instructions)
    return LayoutStats(
        source_instructions=source,
        payload_instructions=payload,
        padding_nops=payload - source,
        exec_blocks=sum(1 for b in blocks if b.kind is BlockKind.EXEC),
        mux_blocks=sum(1 for b in blocks if b.kind is BlockKind.MUX),
        tree_nodes=len(tree_nodes),
        offset0_forwarders=offset0_count,
        code_bytes=profile.block_bytes * len(blocks),
        original_code_bytes=4 * source,
    )
