"""16-tap integer FIR filter workload."""

from __future__ import annotations

from typing import List

from .base import Workload, format_int_array, pcm_signal, scale_index

_SCALE_SAMPLES = (48, 300, 1500)
TAPS = [3, -1, 4, 1, -5, 9, 2, -6, 5, 3, -5, 8, 9, -7, 9, 3]


def fir_reference(samples: List[int], taps: List[int]) -> List[int]:
    """Direct-form FIR; output is >>6 scaled, same as the C code."""
    out = []
    n_taps = len(taps)
    for i in range(len(samples)):
        acc = 0
        for t in range(n_taps):
            if i - t >= 0:
                acc += taps[t] * samples[i - t]
        out.append(acc >> 6)
    return out


_C_TEMPLATE = """
// 16-tap direct-form FIR filter
{signal_def}
{taps_def}
int out[{n}];

int fir(int n, int ntaps) {{
    for (int i = 0; i < n; i += 1) {{
        int acc = 0;
        for (int t = 0; t < ntaps; t += 1) {{
            if (i - t >= 0) acc += taps[t] * signal[i - t];
        }}
        out[i] = acc >> 6;
    }}
    return 0;
}}

int main() {{
    int n = {n};
    fir(n, {ntaps});
    int checksum = 0;
    int peak = -2147483647;
    for (int i = 0; i < n; i += 1) {{
        checksum += out[i];
        if (out[i] > peak) peak = out[i];
    }}
    print_int(checksum);
    print_int(peak);
    print_int(out[n - 1]);
    return 0;
}}
"""


def make_fir(scale: str = "small") -> Workload:
    n = _SCALE_SAMPLES[scale_index(scale)]
    samples = pcm_signal(n, seed=404)
    out = fir_reference(samples, TAPS)
    expected = [sum(out), max(out), out[-1]]
    source = _C_TEMPLATE.format(
        n=n, ntaps=len(TAPS),
        signal_def=format_int_array("signal", samples),
        taps_def=format_int_array("taps", TAPS))
    return Workload(name="fir", description="16-tap integer FIR filter",
                    c_source=source, expected_output=expected)
