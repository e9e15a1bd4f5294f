"""Instruction-granularity control flow graph.

SOFIA enforces CFI at the finest possible granularity: the CFG's nodes are
*individual instructions* and its edges are the legal (prevPC -> PC)
transitions.  This module holds the graph container; :mod:`repro.cfg.builder`
constructs graphs from parsed programs.

Edge kinds:

``fall``    sequential fall-through
``taken``   conditional branch taken
``jump``    unconditional direct jump
``call``    direct call edge (caller -> callee entry)
``icall``   indirect call/jump edge (from a ``.targets`` annotation)
``return``  callee ``ret`` -> return point after a call site
``reset``   the virtual edge from processor reset to the program entry
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set

EDGE_KINDS = ("fall", "taken", "jump", "call", "icall", "return", "reset")

#: Node id used as the source of the reset edge.
RESET_NODE = -1


@dataclass(frozen=True)
class Edge:
    """One control-flow edge between instruction indices."""

    src: int
    dst: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in EDGE_KINDS:
            raise ValueError(f"unknown edge kind {self.kind!r}")


@dataclass
class ControlFlowGraph:
    """A precise instruction-level CFG over ``num_nodes`` instructions."""

    num_nodes: int
    entry: int
    edges: Set[Edge] = field(default_factory=set)

    def add_edge(self, src: int, dst: int, kind: str) -> None:
        if not (src == RESET_NODE or 0 <= src < self.num_nodes):
            raise ValueError(f"edge source {src} out of range")
        if not 0 <= dst < self.num_nodes:
            raise ValueError(f"edge destination {dst} out of range")
        self.edges.add(Edge(src, dst, kind))

    def successors(self, node: int) -> List[Edge]:
        return sorted((e for e in self.edges if e.src == node),
                      key=lambda e: (e.dst, e.kind))

    def predecessors(self, node: int) -> List[Edge]:
        return sorted((e for e in self.edges if e.dst == node),
                      key=lambda e: (e.src, e.kind))

    def predecessor_map(self) -> Dict[int, List[Edge]]:
        """dst -> inbound edges, for every node with at least one pred."""
        result: Dict[int, List[Edge]] = {}
        for edge in self.edges:
            result.setdefault(edge.dst, []).append(edge)
        for edges in result.values():
            edges.sort(key=lambda e: (e.src, e.kind))
        return result

    def successor_map(self) -> Dict[int, List[Edge]]:
        result: Dict[int, List[Edge]] = {}
        for edge in self.edges:
            result.setdefault(edge.src, []).append(edge)
        for edges in result.values():
            edges.sort(key=lambda e: (e.dst, e.kind))
        return result

    def reachable(self, start: Iterable[int] = ()) -> Set[int]:
        """Nodes reachable from ``start`` (default: the entry node)."""
        frontier = list(start) or [self.entry]
        succ = self.successor_map()
        seen: Set[int] = set()
        while frontier:
            node = frontier.pop()
            if node in seen or node == RESET_NODE:
                continue
            seen.add(node)
            frontier.extend(e.dst for e in succ.get(node, ()))
        return seen
