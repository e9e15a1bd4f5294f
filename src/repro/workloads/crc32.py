"""CRC-32 (IEEE 802.3, bitwise) workload."""

from __future__ import annotations

from typing import List

from .base import Workload, _LCG, format_int_array, scale_index

_SCALE_BYTES = (32, 256, 1024)
POLY = 0xEDB88320


def crc32_reference(data: List[int]) -> int:
    """Bitwise CRC-32 over byte values, returned as a signed 32-bit int."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte & 0xFF
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ POLY
            else:
                crc >>= 1
    crc ^= 0xFFFFFFFF
    return crc - 0x100000000 if crc & 0x80000000 else crc


_C_TEMPLATE = """
// bitwise CRC-32 (IEEE polynomial)
{data_def}

int crc32(int n) {{
    int crc = -1;                 // 0xFFFFFFFF
    for (int i = 0; i < n; i += 1) {{
        crc ^= data[i] & 255;
        for (int bit = 0; bit < 8; bit += 1) {{
            int lsb = crc & 1;
            crc = (crc >> 1) & 2147483647;   // logical shift right by 1
            if (lsb) crc ^= {poly};
        }}
    }}
    return ~crc;
}}

int main() {{
    print_int(crc32({n}));
    return 0;
}}
"""


def make_crc32(scale: str = "small") -> Workload:
    n = _SCALE_BYTES[scale_index(scale)]
    rng = _LCG(77)
    data = [rng.int_range(0, 255) for _ in range(n)]
    poly_signed = POLY - 0x100000000  # fits minicc's signed literals
    source = _C_TEMPLATE.format(n=n, poly=poly_signed,
                                data_def=format_int_array("data", data))
    return Workload(name="crc32",
                    description="bitwise CRC-32 over a byte buffer",
                    c_source=source,
                    expected_output=[crc32_reference(data)])
