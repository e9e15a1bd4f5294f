"""IMA/DVI ADPCM codec — the paper's benchmark (MediaBench-I ADPCM).

The minicc program encodes a PCM buffer to 4-bit ADPCM codes, decodes them
back, and prints three checksums: the sum of code nibbles, the sum of
absolute reconstruction error, and the final predictor state.  The Python
reference implements the identical integer algorithm.
"""

from __future__ import annotations

from typing import List, Tuple

from .base import Workload, format_int_array, pcm_signal, scale_index

INDEX_TABLE = [-1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8]

STEPSIZE_TABLE = [
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31,
    34, 37, 41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143,
    157, 173, 190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544,
    598, 658, 724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707,
    1878, 2066, 2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871,
    5358, 5894, 6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899,
    15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767]

_SCALE_SAMPLES = (64, 400, 2000)


def encode(samples: List[int]) -> Tuple[List[int], int, int]:
    """Reference IMA ADPCM encoder; returns (codes, valpred, index)."""
    valpred = 0
    index = 0
    codes = []
    for sample in samples:
        step = STEPSIZE_TABLE[index]
        diff = sample - valpred
        sign = 8 if diff < 0 else 0
        if sign:
            diff = -diff
        delta = 0
        vpdiff = step >> 3
        if diff >= step:
            delta = 4
            diff -= step
            vpdiff += step
        step >>= 1
        if diff >= step:
            delta |= 2
            diff -= step
            vpdiff += step
        step >>= 1
        if diff >= step:
            delta |= 1
            vpdiff += step
        if sign:
            valpred -= vpdiff
        else:
            valpred += vpdiff
        valpred = max(-32768, min(32767, valpred))
        delta |= sign
        index += INDEX_TABLE[delta]
        index = max(0, min(88, index))
        codes.append(delta)
    return codes, valpred, index


def decode(codes: List[int]) -> List[int]:
    """Reference IMA ADPCM decoder."""
    valpred = 0
    index = 0
    out = []
    for delta in codes:
        step = STEPSIZE_TABLE[index]
        index += INDEX_TABLE[delta]
        index = max(0, min(88, index))
        sign = delta & 8
        delta_bits = delta & 7
        vpdiff = step >> 3
        if delta_bits & 4:
            vpdiff += step
        if delta_bits & 2:
            vpdiff += step >> 1
        if delta_bits & 1:
            vpdiff += step >> 2
        if sign:
            valpred -= vpdiff
        else:
            valpred += vpdiff
        valpred = max(-32768, min(32767, valpred))
        out.append(valpred)
    return out


_C_TEMPLATE = """
// IMA ADPCM encoder/decoder (MediaBench-I ADPCM workload)
{pcm_def}
int code[{n}];
int decoded[{n}];
{index_def}
{step_def}

int enc_valpred; int enc_index;
int dec_valpred; int dec_index;

int clamp16(int v) {{
    if (v > 32767) return 32767;
    if (v < -32768) return -32768;
    return v;
}}

int clamp_index(int v) {{
    if (v < 0) return 0;
    if (v > 88) return 88;
    return v;
}}

int adpcm_encode(int n) {{
    int i = 0;
    while (i < n) {{
        int step = stepsizeTable[enc_index];
        int diff = pcm[i] - enc_valpred;
        int sign = 0;
        if (diff < 0) {{ sign = 8; diff = -diff; }}
        int delta = 0;
        int vpdiff = step >> 3;
        if (diff >= step) {{ delta = 4; diff -= step; vpdiff += step; }}
        step >>= 1;
        if (diff >= step) {{ delta |= 2; diff -= step; vpdiff += step; }}
        step >>= 1;
        if (diff >= step) {{ delta |= 1; vpdiff += step; }}
        if (sign) enc_valpred -= vpdiff; else enc_valpred += vpdiff;
        enc_valpred = clamp16(enc_valpred);
        delta |= sign;
        enc_index = clamp_index(enc_index + indexTable[delta]);
        code[i] = delta;
        i += 1;
    }}
    return 0;
}}

int adpcm_decode(int n) {{
    int i = 0;
    while (i < n) {{
        int delta = code[i];
        int step = stepsizeTable[dec_index];
        dec_index = clamp_index(dec_index + indexTable[delta]);
        int sign = delta & 8;
        int bits = delta & 7;
        int vpdiff = step >> 3;
        if (bits & 4) vpdiff += step;
        if (bits & 2) vpdiff += step >> 1;
        if (bits & 1) vpdiff += step >> 2;
        if (sign) dec_valpred -= vpdiff; else dec_valpred += vpdiff;
        dec_valpred = clamp16(dec_valpred);
        decoded[i] = dec_valpred;
        i += 1;
    }}
    return 0;
}}

int main() {{
    int n = {n};
    adpcm_encode(n);
    adpcm_decode(n);
    int codesum = 0;
    int errsum = 0;
    for (int i = 0; i < n; i += 1) {{
        codesum += code[i];
        int e = pcm[i] - decoded[i];
        if (e < 0) e = -e;
        errsum += e;
    }}
    print_int(codesum);
    print_int(errsum);
    print_int(enc_valpred);
    print_int(dec_valpred);
    return 0;
}}
"""


def make_adpcm(scale: str = "small") -> Workload:
    n = _SCALE_SAMPLES[scale_index(scale)]
    samples = pcm_signal(n, seed=2016)
    codes, enc_valpred, _enc_index = encode(samples)
    decoded = decode(codes)
    expected = [
        sum(codes),
        sum(abs(s - d) for s, d in zip(samples, decoded)),
        enc_valpred,
        decoded[-1],
    ]
    source = _C_TEMPLATE.format(
        n=n,
        pcm_def=format_int_array("pcm", samples),
        index_def=format_int_array("indexTable", INDEX_TABLE),
        step_def=format_int_array("stepsizeTable", STEPSIZE_TABLE),
    )
    return Workload(name="adpcm",
                    description="IMA ADPCM encode+decode (MediaBench-I)",
                    c_source=source, expected_output=expected)
