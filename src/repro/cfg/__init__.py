"""Instruction-granularity control flow graphs for SOFIA."""

from .._lazy import lazy_facade

lazy_facade(__name__, {
    "analysis": ("CFGStats", "fan_in", "multi_predecessor_nodes", "stats",
                 "unreachable_nodes"),
    "builder": ("build_cfg", "function_ranges", "is_return", "returns_of"),
    "graph": ("ControlFlowGraph", "Edge", "RESET_NODE"),
})

__all__ = [
    "ControlFlowGraph", "Edge", "RESET_NODE",
    "build_cfg", "function_ranges", "is_return", "returns_of",
    "CFGStats", "stats", "fan_in", "multi_predecessor_nodes",
    "unreachable_nodes",
]
