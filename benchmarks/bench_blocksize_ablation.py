"""E6 — Figs. 5/6: execution-block capacity vs the pipeline.

Fig. 5's 4-instruction blocks (6 words) fit entirely before the MA stage —
no store-slot restriction — but spend 2 MAC words per 4 instructions.
Fig. 6's 6-instruction blocks (8 words) amortize the MAC better at the
cost of forbidding stores in the first two slots.  The paper picks 8-word
blocks; this ablation shows why.
"""

from repro.eval import experiment_blocksize, render_blocksize
from repro.transform import ProtectionProfile, store_forbidden_slots


def test_store_restriction_geometry():
    fig5 = ProtectionProfile(block_words=6)
    fig6 = ProtectionProfile(block_words=8)
    assert fig5.exec_capacity == 4
    assert store_forbidden_slots(fig5.exec_capacity) == ()
    assert fig6.exec_capacity == 6
    assert store_forbidden_slots(fig6.exec_capacity) == (0, 1)
    assert store_forbidden_slots(fig6.mux_capacity) == (0,)


def test_blocksize_ablation(benchmark):
    points = benchmark.pedantic(
        experiment_blocksize,
        kwargs={"scale": "tiny", "block_words": (6, 8), "workload": "adpcm"},
        iterations=1, rounds=1)
    print()
    print(render_blocksize(points))
    small, large = points
    # 6-word blocks carry proportionally more MAC words -> bigger binary
    # relative to the payload they carry
    small_density = small.row.sofia_bytes / small.row.vanilla_bytes
    large_density = large.row.sofia_bytes / large.row.vanilla_bytes
    assert small_density > large_density * 0.95
    # both run correctly (measure_overhead verified golden outputs)
    assert small.row.cycle_overhead > 0
    assert large.row.cycle_overhead > 0


def test_blocksize_tradeoff_mac_amortization_vs_padding(benchmark):
    """The real Figs. 5/6 tension: larger blocks carry fewer MAC words per
    instruction but pad more (every CTI must land in the last slot, so a
    branchy program wastes more slots per block)."""
    points = benchmark.pedantic(
        experiment_blocksize,
        kwargs={"scale": "tiny", "block_words": (6, 8, 10),
                "workload": "fir"},
        iterations=1, rounds=1)
    print()
    print(render_blocksize(points))
    mac_words = [2 * p.row.blocks + p.row.mux_blocks for p in points]
    payload_insts = [p.row.vanilla_bytes // 4 for p in points]
    mac_density = [m / n for m, n in zip(mac_words, payload_insts)]
    padding = [p.row.padding_nops for p in points]
    # MAC amortization improves with block size...
    assert mac_density[0] > mac_density[-1]
    # ...while nop padding worsens — the opposing force
    assert padding[0] < padding[-1]
