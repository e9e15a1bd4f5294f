"""Benchmark workloads (minicc sources + Python golden models).

Each workload module defines ``make_<name>(scale)``; one table maps
every name to its factory, and :func:`make_workload` and
:func:`workload_names` read it.
"""

from typing import Callable, Dict, List

from .adpcm import make_adpcm
from .base import Workload, pcm_signal
from .controller import controller_reference, make_controller
from .crc32 import crc32_reference, make_crc32
from .dijkstra import dijkstra_reference, make_dijkstra
from .fir import fir_reference, make_fir
from .matmul import make_matmul
from .rle import make_rle, rle_decode, rle_encode
from .sort import make_sort

#: every workload by name: ``make_<name>(scale) -> Workload``
_WORKLOADS: Dict[str, Callable[[str], Workload]] = {
    "adpcm": make_adpcm,
    "controller": make_controller,
    "crc32": make_crc32,
    "dijkstra": make_dijkstra,
    "fir": make_fir,
    "matmul": make_matmul,
    "rle": make_rle,
    "sort": make_sort,
}


def workload_names() -> List[str]:
    return sorted(_WORKLOADS)


def make_workload(name: str, scale: str = "small") -> Workload:
    """Instantiate a workload by name at a given scale.

    Scales: ``tiny`` (unit tests), ``small`` (default benchmarks),
    ``medium`` (longer runs for overhead measurements).
    """
    try:
        factory = _WORKLOADS[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; "
                       f"known: {workload_names()}") from None
    return factory(scale)


def all_workloads(scale: str = "small") -> List[Workload]:
    return [make_workload(name, scale) for name in workload_names()]


__all__ = [
    "Workload", "make_workload", "all_workloads", "workload_names",
    "pcm_signal", "make_adpcm", "make_crc32", "crc32_reference",
    "make_fir", "fir_reference", "make_sort", "make_matmul",
    "make_dijkstra", "dijkstra_reference", "make_rle", "rle_encode",
    "rle_decode", "make_controller", "controller_reference",
]
