#!/usr/bin/env python3
"""Design-space exploration: block size, cipher unrolling, security margin.

Three ablations around the paper's design choices:

* **block size** (Figs. 5/6) — 6-word blocks need no store-slot
  restriction but pay more MAC overhead per instruction; 8-word blocks
  amortize better at the cost of keeping stores out of the first slots;
* **cipher unrolling** (§III) — fewer unrolled rounds clock faster but
  cannot feed the fetch stage; 13 rounds/cycle is the minimum that
  sustains one 64-bit operation every two cycles;
* **MAC width** (§IV-A) — online forgery time doubles per MAC bit;

and the full E17 sweep: a :class:`ProtectionProfile` grid (cipher x
seal width x renonce policy) where every point rebuilds, re-attacks and
re-measures the whole stack, ending in a Pareto table of cost vs
security.  CLI equivalent: ``python -m repro dse --jobs 4 --export
dse.json --csv dse.csv``.
"""

from repro.dse import run_dse
from repro.eval import (experiment_blocksize, experiment_cache,
                        experiment_security, render_blocksize, render_cache,
                        render_unroll)
from repro.hwmodel import cipher_ablation, unroll_ablation
from repro.security import cfi_attack_years, si_forgery_years
from repro.transform import profile_grid


def main() -> None:
    print(render_blocksize(
        experiment_blocksize(scale="small", block_words=(6, 8))))
    print()

    points = unroll_ablation()
    shown = [p for p in points if p.unroll in (1, 6, 13, 26)]
    print(render_unroll(shown))
    chosen = next(p for p in points if p.unroll == 13)
    print(f"-> the paper's design point: unroll=13 "
          f"({chosen.clock_mhz:.1f} MHz, {chosen.cipher_cycles} cycles/op) "
          f"is the fastest-clocking design that sustains fetch.")
    print()

    print("cipher choice at the fetch-sustaining design point:")
    for choice in cipher_ablation():
        print(f"  {choice}")
    print("-> RECTANGLE's shallower round count wins the clock race — the")
    print("   rationale behind the paper's cipher selection ([35], [36]).")
    print()

    print(render_cache(experiment_cache(scale="tiny")))
    print("-> the overhead peaks at the crossover cache size where the")
    print("   vanilla working set fits but the ~2x protected one doesn't.")
    print()

    print("security margin vs MAC width (50 MHz core):")
    for bits in (16, 32, 48, 64):
        si = si_forgery_years(mac_bits=bits)
        cfi = cfi_attack_years(mac_bits=bits)
        print(f"  {bits:2d}-bit MAC: SI forgery {si:>12,.3g} years, "
              f"CFI attack {cfi:>12,.3g} years")
    print()
    print(experiment_security(experiments=100).render())
    print()

    # the E17 engine proper: every grid point is a full design point —
    # keys re-bound to its cipher, layout re-sized to its seal width,
    # attacks re-enumerated against its renonce surface (a tiny 2x2 grid
    # here; `repro dse` sweeps the full 12-point grid)
    grid = profile_grid(mac_bits=(32, 64), renonce=("sequential",))
    report = run_dse(grid, seed=0xE17, workloads=("crc32",),
                     scale="tiny", programs=1, per_model=1)
    print(report.render())
    print("-> the paper's point holds the security corner; the truncated")
    print("   32-bit seal buys code size at 2^-32 forgery odds — the")
    print("   trade the Pareto front makes explicit.")


if __name__ == "__main__":
    main()
