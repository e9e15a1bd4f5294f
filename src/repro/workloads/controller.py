"""Safety-critical controller workload — the paper's motivating domain.

A bare-metal control loop of the kind SOFIA exists to protect (§I:
industrial/automotive control, §II-B2: actuator stores must never execute
from tampered code):

* a noisy sensor trace is filtered with a median-of-3 window,
* a PI controller drives the plant toward a setpoint with clamped output,
* out-of-range sensor readings trip a latched limp-home mode that forces
  the actuator to a safe value,
* every actuator command is range-checked before the store.

The Python reference implements the identical integer algorithm; the
program prints the actuator checksum, the final integral state, the
number of limp-mode ticks and the last command.
"""

from __future__ import annotations

from typing import List, Tuple

from .base import Workload, _LCG, format_int_array, scale_index

_SCALE_TICKS = (40, 200, 800)

SETPOINT = 5000
KP_NUM, KP_DEN = 3, 4        # Kp = 0.75
KI_NUM, KI_DEN = 1, 16       # Ki = 0.0625
OUT_MIN, OUT_MAX = 0, 9000
SENSOR_MIN, SENSOR_MAX = 0, 16000
SAFE_COMMAND = 1000


def sensor_trace(ticks: int, seed: int) -> List[int]:
    """Plant response with noise and two injected out-of-range spikes."""
    rng = _LCG(seed)
    value = 2000
    trace = []
    for t in range(ticks):
        value += (SETPOINT - value) // 6 + rng.int_range(-250, 250)
        sample = value
        if ticks >= 20 and t in (ticks // 3, ticks // 3 + 1):
            sample = SENSOR_MAX + 500  # sensor fault spike
        trace.append(sample)
    return trace


def median3(a: int, b: int, c: int) -> int:
    if a > b:
        a, b = b, a
    if b > c:
        b = c
    return max(a, b)


def _wrap32(v: int) -> int:
    v &= 0xFFFFFFFF
    return v - 0x100000000 if v & 0x80000000 else v


def _tdiv(a: int, b: int) -> int:
    """C division: truncate toward zero."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _tmod(a: int, b: int) -> int:
    """C remainder: sign of the dividend."""
    return a - b * _tdiv(a, b)


def controller_reference(trace: List[int]) -> Tuple[int, int, int, int]:
    integral = 0
    limp_ticks = 0
    limp = 0
    checksum = 0
    command = SAFE_COMMAND
    prev1 = prev2 = trace[0]
    for sample in trace:
        filtered = median3(prev2, prev1, sample)
        prev2, prev1 = prev1, sample
        if sample < SENSOR_MIN or sample > SENSOR_MAX:
            limp = 1
        if limp:
            limp_ticks += 1
            command = SAFE_COMMAND
        else:
            error = SETPOINT - filtered
            integral += error
            if integral > 200000:
                integral = 200000
            if integral < -200000:
                integral = -200000
            command = (_tdiv(KP_NUM * error, KP_DEN)
                       + _tdiv(KI_NUM * integral, KI_DEN))
            if command < OUT_MIN:
                command = OUT_MIN
            if command > OUT_MAX:
                command = OUT_MAX
        # exact C semantics: 32-bit wraparound, then truncating modulo
        checksum = _tmod(_wrap32(checksum * 31 + command), 1000000007)
    return checksum, integral, limp_ticks, command


_C_TEMPLATE = """
// median-filtered PI controller with latched limp-home mode
{trace_def}

int integral = 0;
int limp = 0;
int limp_ticks = 0;
int checksum = 0;
int command = {safe};

int median3(int a, int b, int c) {{
    if (a > b) {{ int t = a; a = b; b = t; }}
    if (b > c) b = c;
    if (a > b) return a;
    return b;
}}

int clamp(int v, int lo, int hi) {{
    if (v < lo) return lo;
    if (v > hi) return hi;
    return v;
}}

int step(int filtered) {{
    int error = {setpoint} - filtered;
    integral = clamp(integral + error, -200000, 200000);
    int out = ({kp_num} * error) / {kp_den}
            + ({ki_num} * integral) / {ki_den};
    return clamp(out, {out_min}, {out_max});
}}

int main() {{
    int n = {n};
    int prev1 = sensors[0];
    int prev2 = sensors[0];
    for (int t = 0; t < n; t++) {{
        int sample = sensors[t];
        int filtered = median3(prev2, prev1, sample);
        prev2 = prev1;
        prev1 = sample;
        if (sample < {sensor_min} || sample > {sensor_max}) limp = 1;
        if (limp) {{
            limp_ticks++;
            command = {safe};
        }} else {{
            command = step(filtered);
        }}
        checksum = (checksum * 31 + command) % 1000000007;
    }}
    print_int(checksum);
    print_int(integral);
    print_int(limp_ticks);
    print_int(command);
    return 0;
}}
"""


def make_controller(scale: str = "small") -> Workload:
    ticks = _SCALE_TICKS[scale_index(scale)]
    trace = sensor_trace(ticks, seed=86)
    expected = list(controller_reference(trace))
    source = _C_TEMPLATE.format(
        n=ticks, trace_def=format_int_array("sensors", trace),
        setpoint=SETPOINT, kp_num=KP_NUM, kp_den=KP_DEN,
        ki_num=KI_NUM, ki_den=KI_DEN, out_min=OUT_MIN, out_max=OUT_MAX,
        sensor_min=SENSOR_MIN, sensor_max=SENSOR_MAX, safe=SAFE_COMMAND)
    return Workload(name="controller",
                    description="median-filtered PI controller with "
                                "limp-home mode",
                    c_source=source, expected_output=expected)
