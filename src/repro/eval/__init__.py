"""Evaluation harness: regenerates every paper table and figure."""

from .._lazy import lazy_facade

lazy_facade(__name__, {
    "experiments": ("AdpcmComparison", "BlockSizePoint", "CachePoint",
                    "FanInPoint", "PAPER_ADPCM", "SecurityExperiment",
                    "experiment_adpcm", "experiment_blocksize",
                    "experiment_cache", "experiment_muxtree",
                    "experiment_security", "experiment_workloads",
                    "render_blocksize", "render_cache", "render_muxtree",
                    "render_unroll"),
    "export": ("record_json", "write_csv"),
    "overhead": ("OverheadPoint", "OverheadRow", "format_overhead_rows",
                 "measure_many", "measure_overhead"),
    "report": ("full_report", "write_report"),
})
