"""E8 (extension) — attack-detection matrix across defenses.

The qualitative claims of the paper's §I/§II rendered as a table: SOFIA
deterministically stops code injection, tampering, relocation and code
reuse; ISR baselines stop plaintext injection only probabilistically and
are defeated by relocation and reuse; the vanilla core is defenseless.
"""

from repro.attacks import ATTACKS, Outcome, format_matrix, run_campaign


def test_attack_matrix(benchmark):
    results = benchmark.pedantic(run_campaign, iterations=1, rounds=1)
    print()
    print(format_matrix(results))

    def outcome(target, attack):
        return next(r.outcome for r in results
                    if r.target == target and r.attack == attack)

    # SOFIA: everything detected, nothing hijacked
    for attack in ATTACKS:
        assert outcome("sofia", attack.name) is Outcome.DETECTED
    # vanilla: injection and reuse succeed
    for name in ("inject-code", "relocate-gadget", "stack-smash",
                 "pc-hijack"):
        assert outcome("vanilla", name) is Outcome.HIJACKED
    # ISR: relocation and code reuse defeat both schemes (§I's critique)
    for target in ("xor-isr", "ecb-isr"):
        for name in ("relocate-gadget", "stack-smash", "pc-hijack"):
            assert outcome(target, name) is Outcome.HIJACKED
        assert outcome(target, "inject-code") in (Outcome.CRASHED,
                                                  Outcome.CORRUPTED)


def test_detection_latency(benchmark, keys):
    """How quickly does SOFIA reset after a diverted edge? (cycles)"""
    from repro.attacks import build_targets, victim_program
    from repro.attacks.actions import attack_pc_hijack

    targets = build_targets(victim_program())
    sofia = next(t for t in targets if t.name == "sofia")

    def hijack_and_measure():
        machine = sofia.make()
        attack_pc_hijack(machine, sofia)
        return machine.run(max_instructions=10_000)

    result = benchmark(hijack_and_measure)
    assert result.detected
    # detection happens on the very first tampered block: within one
    # block traversal (8 fetch slots + miss penalty)
    assert result.blocks_executed == 1
    print(f"\nreset pulled after {result.cycles} cycles, "
          f"{result.instructions} instructions committed")
    assert result.instructions == 0


def test_attack_matrix_parallel_equivalence(benchmark):
    """``--jobs 4`` produces the identical E8 matrix, cell for cell."""
    serial = run_campaign(seed=1337)

    def parallel_campaign():
        return run_campaign(seed=1337, jobs=4)

    parallel = benchmark.pedantic(parallel_campaign,
                                  iterations=1, rounds=1)
    assert [(r.attack, r.target, r.outcome, r.status.value, r.detail)
            for r in serial] == \
           [(r.attack, r.target, r.outcome, r.status.value, r.detail)
            for r in parallel]
    assert format_matrix(serial) == format_matrix(parallel)
