"""Instruction-granularity control flow graphs for SOFIA."""

from .._lazy import lazy_facade

lazy_facade(__name__, {
    "builder": ("build_cfg", "function_ranges", "is_return", "returns_of"),
    "graph": ("ControlFlowGraph", "Edge", "RESET_NODE"),
})
