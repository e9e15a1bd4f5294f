"""Integer matrix-multiply workload (dense loop nest, branch-light)."""

from __future__ import annotations

from .base import Workload, _LCG, format_int_array, scale_index

_SCALE_DIMS = (4, 8, 16)


_C_TEMPLATE = """
// dense {dim}x{dim} integer matrix multiply
{a_def}
{b_def}
int c[{n}];

int matmul(int dim) {{
    for (int i = 0; i < dim; i += 1) {{
        for (int j = 0; j < dim; j += 1) {{
            int acc = 0;
            for (int k = 0; k < dim; k += 1) {{
                acc += a[i * dim + k] * b[k * dim + j];
            }}
            c[i * dim + j] = acc;
        }}
    }}
    return 0;
}}

int main() {{
    int dim = {dim};
    matmul(dim);
    int trace = 0;
    int checksum = 0;
    for (int i = 0; i < dim; i += 1) {{
        trace += c[i * dim + i];
        for (int j = 0; j < dim; j += 1) checksum ^= c[i * dim + j] + i - j;
    }}
    print_int(trace);
    print_int(checksum);
    return 0;
}}
"""


def make_matmul(scale: str = "small") -> Workload:
    dim = _SCALE_DIMS[scale_index(scale)]
    rng = _LCG(31)
    a = [rng.int_range(-50, 50) for _ in range(dim * dim)]
    b = [rng.int_range(-50, 50) for _ in range(dim * dim)]
    c = [0] * (dim * dim)
    for i in range(dim):
        for j in range(dim):
            acc = 0
            for k in range(dim):
                acc += a[i * dim + k] * b[k * dim + j]
            c[i * dim + j] = acc
    trace = sum(c[i * dim + i] for i in range(dim))
    checksum = 0
    for i in range(dim):
        for j in range(dim):
            checksum ^= (c[i * dim + j] + i - j) & 0xFFFFFFFF
    checksum &= 0xFFFFFFFF
    if checksum & 0x80000000:
        checksum -= 0x100000000
    source = _C_TEMPLATE.format(dim=dim, n=dim * dim,
                                a_def=format_int_array("a", a),
                                b_def=format_int_array("b", b))
    return Workload(name="matmul",
                    description=f"{dim}x{dim} integer matrix multiply",
                    c_source=source, expected_output=[trace, checksum])
