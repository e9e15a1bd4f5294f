"""Processor simulation substrate (vanilla LEON3-like core + SOFIA core)."""

from .batch import BATCH_WIDTH, GoldenTrace
from .cache import CacheStats, DirectMappedCache
from .core import CPUState, ExecOutcome, execute, to_signed
from .engine import (DEFAULT_ENGINE, ENGINES, compile_handler, predecode,
                     resolve_engine)
from .fused import compile_sofia_block, compile_vanilla_run
from .memory import Memory, MMIODevice
from .result import ExecutionResult, Status, ViolationRecord
from .sofia import SofiaMachine
from .trace import TraceEntry, diff_traces, list_image, trace
from .timing import (DEFAULT_TIMING, LEON3_MINIMAL_TIMING, TimingParams,
                     cycle_costs, instruction_cycles)
from .vanilla import VanillaMachine

__all__ = [
    "CPUState", "ExecOutcome", "execute", "to_signed",
    "Memory", "MMIODevice",
    "DirectMappedCache", "CacheStats",
    "ExecutionResult", "Status", "ViolationRecord",
    "VanillaMachine", "SofiaMachine",
    "DEFAULT_ENGINE", "ENGINES", "resolve_engine",
    "BATCH_WIDTH", "GoldenTrace",
    "compile_sofia_block", "compile_vanilla_run",
    "compile_handler", "predecode",
    "TimingParams", "DEFAULT_TIMING", "LEON3_MINIMAL_TIMING",
    "instruction_cycles", "cycle_costs",
    "TraceEntry", "trace", "diff_traces",
    "list_image",
]
