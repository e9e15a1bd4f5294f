"""E12 (extension) — toolchain optimization ablation (paper §V).

The paper lists "toolchain optimizations to increase the software
performance" as future work.  This ablation measures one such
optimization: hoisting independent ALU instructions ahead of stores that
would otherwise need nop padding out of the forbidden slots.

Honest finding: the gain is small on compiler-generated code, because
padding is dominated by the *CTI-alignment* rule (every control transfer
must occupy the last payload slot), not by store deferrals — quantifying
where future toolchain work should actually go.
"""

from repro.crypto import DeviceKeys
from repro.isa import assemble
from repro.sim import SofiaMachine, VanillaMachine
from repro.transform import ProtectionProfile, transform, verify_image
from repro.workloads import all_workloads

KEYS = DeviceKeys.from_seed(0xE12)
SCHEDULED = ProtectionProfile(schedule_stores=True)


def test_store_scheduling_ablation(benchmark):
    def ablate():
        rows = []
        for workload in all_workloads("tiny"):
            program = workload.compile().program
            base = transform(program, KEYS, nonce=2)
            opt = transform(program, KEYS, nonce=2, profile=SCHEDULED)
            r_base = SofiaMachine(base, KEYS).run()
            r_opt = SofiaMachine(opt, KEYS).run()
            assert r_base.output_ints == r_opt.output_ints \
                == workload.expected_output
            rows.append((workload.name, base.stats.padding_nops,
                         opt.stats.padding_nops, r_base.cycles,
                         r_opt.cycles))
        return rows

    rows = benchmark.pedantic(ablate, iterations=1, rounds=1)
    print()
    print(f"{'workload':<10s} {'pad(base)':>10s} {'pad(opt)':>9s} "
          f"{'cyc(base)':>10s} {'cyc(opt)':>9s}")
    for name, pad_b, pad_o, cyc_b, cyc_o in rows:
        print(f"{name:<10s} {pad_b:>10d} {pad_o:>9d} {cyc_b:>10d} "
              f"{cyc_o:>9d}")
    # the optimization never hurts
    for _name, pad_b, pad_o, cyc_b, cyc_o in rows:
        assert pad_o <= pad_b
        assert cyc_o <= cyc_b
    # and helps at least one store-dense workload
    assert any(pad_o < pad_b for _n, pad_b, pad_o, _c, _c2 in rows)


def test_optimized_images_still_verify(benchmark):
    workload = all_workloads("tiny")[0]
    program = workload.compile().program

    def build_and_verify():
        image = transform(program, KEYS, nonce=3, profile=SCHEDULED)
        return verify_image(image, KEYS)

    findings = benchmark.pedantic(build_and_verify, iterations=1, rounds=1)
    assert findings == []


def test_padding_breakdown(benchmark):
    """Where do the nops actually come from? (motivates future work)"""
    def breakdown():
        out = {}
        for workload in all_workloads("tiny"):
            program = workload.compile().program
            plain = transform(program, KEYS, nonce=4)
            scheduled = transform(program, KEYS, nonce=4,
                                  profile=SCHEDULED)
            store_pad = (plain.stats.padding_nops
                         - scheduled.stats.padding_nops)
            out[workload.name] = (store_pad, plain.stats.padding_nops)
        return out

    data = benchmark.pedantic(breakdown, iterations=1, rounds=1)
    print()
    for name, (store_pad, total) in sorted(data.items()):
        share = store_pad / total if total else 0.0
        print(f"  {name:<10s} store-slot padding {store_pad:>4d} of "
              f"{total:>4d} nops ({share:.0%}); the rest is CTI alignment")
    # CTI alignment dominates everywhere — the headline finding
    for store_pad, total in data.values():
        assert store_pad <= total * 0.5
