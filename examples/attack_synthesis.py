#!/usr/bin/env python3
"""Systematic attack synthesis with ``repro.attacksynth``.

Walks the subsystem end to end:

1. protect one program and enumerate its attack instances straight from
   the image's CFG/layout metadata — every instance carries an
   analytically *expected* verdict;
2. materialize and run single instances: a control-flow bend the
   hardware must reject, and a block replay that is provably benign;
3. forge a validly-MACed block with a mis-slotted store (the
   successful-forgery model) and watch the *structural* hardware check
   catch what MAC verification cannot;
4. run a small deterministic campaign over fuzz-generated programs and
   print the E16 detection matrix with the empirical-vs-analytic
   security-bound cross-check.

CLI equivalent of step 4: ``python -m repro attacksynth --programs 50
--jobs 2 --export synth.json``.
"""

from repro.attacksynth import (enumerate_instances, materialize_image,
                               run_attacksynth, run_sofia_instance,
                               sealed_edges)
from repro.attacksynth.campaign import _clean_sofia
from repro.attacksynth.classify import observables
from repro.core import build_assembly
from repro.crypto import DeviceKeys
from repro.isa.assembler import assemble
from repro.runner import task_rng
from repro.transform.transformer import transform

KEY_SEED = 0xA77
KEYS = DeviceKeys.from_seed(KEY_SEED)

VICTIM = """
main:
    li t0, 3
    li t1, 0
loop:
    addi t1, t1, 1
    blt t1, t0, loop
    li a1, 0xFFFF0004
    sw t1, 0(a1)
    halt
diag:
    addi t3, t3, 1
    halt
"""


def main() -> None:
    # -- 1: enumerate attacks against one protected program --------------
    program = build_assembly(VICTIM)
    exe = assemble(program)
    image = transform(program, KEYS, nonce=0x2016)
    clean, traversed, _edges = _clean_sofia(image, KEYS)
    instances = enumerate_instances(image, exe, KEYS, traversed,
                                    task_rng(1, "example"), KEY_SEED)
    print(f"{len(image.words)}-word image, "
          f"{len(sealed_edges(image))} sealed edges -> "
          f"{len(instances)} attack instances:")
    for family in sorted({i.family for i in instances}):
        count = sum(1 for i in instances if i.family == family)
        print(f"  {family:<18s} x{count}")
    print()

    # -- 2: one detected bend, one provably benign replay ----------------
    clean_obs = observables(clean)
    bend = next(i for i in instances
                if i.family == "bend" and i.expected == "detected")
    outcome, _, violation, _ = run_sofia_instance(
        bend, materialize_image(bend, image, KEYS), KEYS, clean_obs)
    print(f"bend     {bend.description}")
    print(f"         -> {outcome} ({violation} violation)")
    benign = next(i for i in instances if i.expected == "benign")
    outcome, _, _, _ = run_sofia_instance(
        benign, materialize_image(benign, image, KEYS), KEYS, clean_obs)
    print(f"replay   {benign.description}")
    print(f"         -> {outcome} (bit-identical run)")
    print()

    # -- 3: the successful-forgery model ---------------------------------
    forge = next(i for i in instances if i.family == "forge-store-slot")
    outcome, _, violation, _ = run_sofia_instance(
        forge, materialize_image(forge, image, KEYS), KEYS, clean_obs)
    print(f"forgery  {forge.description}")
    print(f"         -> {outcome}: the MAC verifies, the {violation} "
          f"check still resets")
    print()

    # -- 4: a campaign over fuzz-generated programs ----------------------
    report = run_attacksynth(programs=4, seed=0xE16,
                             export_path="attacksynth.json")
    print(report.render())
    assert report.ok, "an enumerated attack beat SOFIA — see the render"
    print("\nwrote attacksynth.json (byte-identical at any --jobs)")


if __name__ == "__main__":
    main()
