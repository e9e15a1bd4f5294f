"""E1 — Table I: hardware area and clock speed, Vanilla vs SOFIA.

Paper values: 5,889 slices @ 92.3 MHz vs 7,551 slices @ 50.1 MHz
(+28.2 % area, clock 84.6 % slower).
"""

from repro.hwmodel import (PAPER_UNROLL, leon3_components,
                           sofia_profile_components, table1, unroll_ablation)
from repro.transform.profile import DEFAULT_PROFILE


def test_table1_regeneration(benchmark):
    table = benchmark(table1)
    print()
    print(table.render())
    # exact reproduction of the published totals
    assert table.vanilla_slices == 5_889
    assert table.sofia.slices == 7_551
    assert round(table.vanilla_clock_mhz, 1) == 92.3
    assert round(table.sofia.clock_mhz, 1) == 50.1
    assert round(table.area_overhead, 3) == 0.282
    benchmark.extra_info["area_overhead"] = table.area_overhead
    benchmark.extra_info["clock_slowdown"] = table.clock_slowdown


def test_component_reports(benchmark):
    def render_both():
        sofia = sofia_profile_components(DEFAULT_PROFILE, PAPER_UNROLL)
        return ("\n".join(map(str, leon3_components())),
                "\n".join(map(str, sofia)))

    vanilla_text, sofia_text = benchmark(render_both)
    print()
    print(vanilla_text)
    print(sofia_text)
    assert "RECTANGLE" in sofia_text


def test_unroll_design_space(benchmark):
    points = benchmark(unroll_ablation)
    sustaining = [p for p in points if p.sustains_fetch]
    # the paper's unroll=13 is the fastest-clocking sustaining design
    best = max(sustaining, key=lambda p: p.clock_mhz)
    assert best.unroll == 13
