"""Evaluation harness: regenerates every paper table and figure."""

from .._lazy import lazy_facade

lazy_facade(__name__, {
    "experiments": ("AdpcmComparison", "BlockSizePoint", "CachePoint",
                    "FanInPoint", "PAPER_ADPCM", "SecurityExperiment",
                    "experiment_adpcm", "experiment_blocksize",
                    "experiment_cache", "experiment_muxtree",
                    "experiment_security", "experiment_table1",
                    "experiment_unroll", "experiment_workloads",
                    "render_blocksize", "render_cache", "render_muxtree",
                    "render_unroll"),
    "export": ("attacksynth_csv", "batch_csv", "blocksize_csv", "cache_csv",
               "dse_csv", "muxtree_csv", "overhead_csv", "record_json"),
    "overhead": ("OverheadPoint", "OverheadRow", "format_overhead_rows",
                 "measure_many", "measure_overhead"),
    "report": ("full_report", "write_report"),
})

__all__ = [
    "OverheadRow", "measure_overhead", "format_overhead_rows",
    "OverheadPoint", "measure_many",
    "experiment_table1", "experiment_adpcm", "experiment_security",
    "experiment_blocksize", "experiment_muxtree",
    "experiment_workloads", "experiment_unroll",
    "render_blocksize", "render_muxtree",
    "render_unroll", "AdpcmComparison", "SecurityExperiment",
    "BlockSizePoint", "FanInPoint", "PAPER_ADPCM",
    "full_report", "write_report",
    "experiment_cache", "render_cache", "CachePoint",
    "overhead_csv", "muxtree_csv", "blocksize_csv", "cache_csv",
    "attacksynth_csv", "dse_csv", "batch_csv", "record_json",
]
