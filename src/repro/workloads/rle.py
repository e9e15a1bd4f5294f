"""Run-length encoding: compress, decompress, verify round trip.

Byte-stream processing with short data-dependent inner loops — the code
shape of embedded protocol/codec handlers.
"""

from __future__ import annotations

from typing import List

from .base import Workload, _LCG, format_int_array, scale_index

_SCALE_BYTES = (48, 256, 1024)
MAX_RUN = 255


def rle_encode(data: List[int]) -> List[int]:
    """(count, value) pairs, runs capped at MAX_RUN."""
    out = []
    i = 0
    while i < len(data):
        value = data[i]
        run = 1
        while (i + run < len(data) and data[i + run] == value
               and run < MAX_RUN):
            run += 1
        out.append(run)
        out.append(value)
        i += run
    return out


def rle_decode(pairs: List[int]) -> List[int]:
    out = []
    for i in range(0, len(pairs), 2):
        out.extend([pairs[i + 1]] * pairs[i])
    return out


def runs_data(count: int, seed: int) -> List[int]:
    """Byte data with a mix of runs and noise (compressible)."""
    rng = _LCG(seed)
    data: List[int] = []
    while len(data) < count:
        if rng.int_range(0, 9) < 6:
            value = rng.int_range(0, 255)
            run = rng.int_range(2, 12)
            data.extend([value] * run)
        else:
            data.append(rng.int_range(0, 255))
    return data[:count]


_C_TEMPLATE = """
// run-length encode + decode + verify
{data_def}
int packed[{pack_cap}];
int restored[{n}];

int encode(int n) {{
    int out = 0;
    int i = 0;
    while (i < n) {{
        int value = data[i];
        int run = 1;
        while (i + run < n && data[i + run] == value && run < {max_run}) {{
            run += 1;
        }}
        packed[out] = run;
        packed[out + 1] = value;
        out += 2;
        i += run;
    }}
    return out;
}}

int decode(int pairs) {{
    int out = 0;
    for (int i = 0; i < pairs; i += 2) {{
        int run = packed[i];
        int value = packed[i + 1];
        for (int k = 0; k < run; k += 1) {{
            restored[out] = value;
            out += 1;
        }}
    }}
    return out;
}}

int main() {{
    int n = {n};
    int packed_len = encode(n);
    int restored_len = decode(packed_len);
    int mismatches = 0;
    for (int i = 0; i < n; i += 1) {{
        if (restored[i] != data[i]) mismatches += 1;
    }}
    print_int(packed_len);
    print_int(restored_len);
    print_int(mismatches);
    return 0;
}}
"""


def make_rle(scale: str = "small") -> Workload:
    n = _SCALE_BYTES[scale_index(scale)]
    data = runs_data(n, seed=71)
    pairs = rle_encode(data)
    assert rle_decode(pairs) == data
    expected = [len(pairs), n, 0]
    source = _C_TEMPLATE.format(
        n=n, pack_cap=2 * n, max_run=MAX_RUN,
        data_def=format_int_array("data", data))
    return Workload(name="rle",
                    description="run-length encode/decode round trip",
                    c_source=source, expected_output=expected)
