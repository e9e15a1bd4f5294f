"""Block and edge model for the SOFIA layout engine.

Edges are identified by *tokens* describing where control comes from:

``("reset",)``            processor reset (enters the program entry)
``("cti", i)``            direct CTI at canonical instruction index ``i``
                          (branch taken, jmp, call, or a rewritten ret)
``("ret", i)``            a ``jr ra`` return at index ``i`` — constrained to
                          enter its target at block offset 0 (the hardware
                          return address is the next block's base)
``("fall", L)``           physical fall-through into leader ``L`` — likewise
                          constrained to offset 0
``("ind", i, L)``         indirect CTI at index ``i`` reaching leader ``L``
``("tree", f)``           the jmp of forwarder block ``f`` (mux-tree node,
                          fall-through thunk, or return landing pad)

An *edge key* pairs a token with the leader it enters: ``(token, leader)``.
Entry assignments map edge keys to a concrete (block, entry slot); the slot
determines both the branch-target address and the MAC word used as the
entry (paper §II-E): execution blocks are entered by targeting ``base+0``;
multiplexor path 1 targets ``base+4`` (fetch starts at ``M1e1``), path 2
targets ``base+8`` (fetch starts at ``M1e2``).

:data:`ENTRY_OFFSETS`, :func:`classify_offset` and :func:`fetch_indices`
are the single home of that convention: the layout's branch targets, the
simulated front-end, the offline verifier, the listing and the attack
enumerator all read it here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..isa.instructions import Instruction

Token = Tuple
EdgeKey = Tuple[Token, int]

#: Tokens that must enter their target block at offset 0.
OFFSET0_KINDS = ("fall", "ret")

#: Byte offset of each entry slot within a block, by block kind (§II-E).
ENTRY_OFFSETS: Dict[str, Tuple[int, ...]] = {"exec": (0,), "mux": (4, 8)}
_ENTRY_AT = {offset: (kind, slot) for kind, offsets in ENTRY_OFFSETS.items()
             for slot, offset in enumerate(offsets)}


def classify_offset(offset: int) -> Optional[Tuple[str, int]]:
    """``(kind, slot)`` of the entry at byte ``offset`` of a block, or
    ``None`` when no block kind is entered there (an invalid entry)."""
    return _ENTRY_AT.get(offset)


def fetch_indices(kind: str, slot: int, block_words: int) -> List[int]:
    """Word indices one traversal through entry ``slot`` fetches, in fetch
    order: every word of an execution block; for a multiplexor the
    entry's ``M1`` copy (``M1e1`` for path 1, ``M1e2`` for path 2) and
    then every word after the pair (paper Fig. 7)."""
    if kind == "exec":
        return list(range(block_words))
    return [slot] + list(range(2, block_words))


def token_sort_key(token: Token):
    """Deterministic ordering of edge tokens (reset first)."""
    rank = {"reset": 0, "fall": 1, "ret": 2, "cti": 3, "ind": 4, "tree": 5}
    return (rank.get(token[0], 9),) + tuple(
        x if isinstance(x, int) else str(x) for x in token[1:])


def is_offset0(token: Token) -> bool:
    """True when this edge arrives at the target's base word (offset 0)."""
    return token[0] in OFFSET0_KINDS


class BlockKind(enum.Enum):
    """The two SOFIA block types."""

    EXEC = "exec"
    MUX = "mux"

    @property
    def mac_words(self) -> int:
        """Seal words at the paper's design point (64-bit MAC).

        Blocks built under a non-default
        :class:`~repro.transform.profile.ProtectionProfile` carry their
        actual count in :attr:`Block.mac_count`; this property is the
        default for blocks constructed without one.
        """
        return 2 if self is BlockKind.EXEC else 3


@dataclass
class EntryAssignment:
    """One entry point of a block, bound to an inbound edge."""

    edge: EdgeKey
    slot: int  # 0 for exec; 0 (path 1) or 1 (path 2) for mux
    prev_pc: int = -1  # filled once bases are assigned


@dataclass(eq=False)
class Block:
    """One 8-word SOFIA block under construction.

    ``eq=False``: blocks are identity objects — two distinct all-nop
    forwarders must never compare equal.

    ``payload`` always ends up exactly ``capacity`` long (nop padded).
    ``leader`` is the canonical instruction index that starts the block, or
    ``None`` for continuation/forwarder blocks.  Forwarder blocks carry
    ``out_edge`` — the edge key their trailing jmp implements.
    """

    kind: BlockKind
    capacity: int
    leader: Optional[int] = None
    labels: List[str] = field(default_factory=list)
    payload: List[Instruction] = field(default_factory=list)
    source_indices: List[Optional[int]] = field(default_factory=list)
    entries: List[EntryAssignment] = field(default_factory=list)
    falls_through: bool = False
    is_forwarder: bool = False
    out_edge: Optional[EdgeKey] = None
    seq: int = -1
    base: int = -1
    #: seal words at the head of this block; -1 means the paper default
    #: for the kind (2 exec / 3 mux) — profile-driven layouts set it
    mac_count: int = -1

    @property
    def mac_words(self) -> int:
        """Seal words at the head of this block."""
        return self.kind.mac_words if self.mac_count < 0 else self.mac_count

    def entry_address(self, slot: int) -> int:
        """Branch-target address selecting entry ``slot`` (paper §II-E)."""
        if self.base < 0:
            raise ValueError("block has no base address yet")
        offsets = ENTRY_OFFSETS[self.kind.value]
        if not 0 <= slot < len(offsets):
            raise ValueError("execution blocks have a single entry"
                             if self.kind is BlockKind.EXEC
                             else "multiplexor blocks have two entries")
        return self.base + offsets[slot]

    def payload_word_index(self, payload_slot: int) -> int:
        """Word index of payload slot ``payload_slot`` within the block."""
        return self.mac_words + payload_slot

    def payload_address(self, payload_slot: int) -> int:
        return self.base + 4 * self.payload_word_index(payload_slot)

    @property
    def last_word_address(self) -> int:
        """Address of the final word — the prevPC of every outbound edge."""
        return self.base + 4 * (self.mac_words + self.capacity - 1)
