"""Processor simulation substrate (vanilla LEON3-like core + SOFIA core)."""

from .._lazy import lazy_facade

lazy_facade(__name__, {
    "batch": ("BATCH_WIDTH", "GoldenTrace"),
    "cache": ("CacheStats", "DirectMappedCache"),
    "core": ("CPUState", "ExecOutcome", "execute", "to_signed"),
    "engine": ("DEFAULT_ENGINE", "ENGINES", "compile_handler", "predecode",
               "resolve_engine"),
    "fused": ("compile_sofia_block", "compile_vanilla_run"),
    "memory": ("Memory", "MMIODevice"),
    "result": ("ExecutionResult", "Status", "ViolationRecord"),
    "sofia": ("SofiaMachine",),
    "trace": ("TraceEntry", "list_image", "trace"),
    "timing": ("DEFAULT_TIMING", "LEON3_MINIMAL_TIMING", "TimingParams",
               "cycle_costs", "instruction_cycles"),
    "vanilla": ("VanillaMachine",),
})
