"""E5 — Fig. 2: an invalid CFG edge causes a decryption error -> detection.

Fig. 2's claim at scale: for *every* block entry of a transformed program,
taking the edge from a wrong predecessor decrypts incorrectly and the
integrity check fires.  Also benchmarks the hardware front-end
(decrypt + verify) latency per block traversal.
"""

from repro.crypto import DeviceKeys
from repro.isa import parse
from repro.sim import SofiaMachine, Status
from repro.transform import transform
from repro.workloads import make_workload

VICTIM = """
main:
    li t0, 0
    li t1, 8
loop:
    addi t0, t0, 5
    addi t1, t1, -1
    bne t1, zero, loop
    call f
    li t2, 0xFFFF0004
    sw a0, 0(t2)
    halt
f:
    mv a0, t0
    ret
"""


def _all_valid_entries(image):
    """Every (offset-classifiable) entry address of every block."""
    entries = []
    for record in image.blocks:
        if record.kind == "exec":
            entries.append(record.base)
        else:
            entries.append(record.base + 4)
            entries.append(record.base + 8)
    return entries


def test_every_invalid_edge_is_detected(benchmark, keys):
    image = transform(parse(VICTIM), keys, nonce=0xF16)

    def sweep():
        detected = 0
        total = 0
        for entry in _all_valid_entries(image):
            machine = SofiaMachine(image, keys)
            # jump there straight from reset: for every entry other than
            # the program entry this is an invalid CFG edge
            machine.state.pc = entry
            result = machine.run(max_instructions=50_000)
            total += 1
            if entry == image.entry:
                assert result.ok, result.summary()
            else:
                detected += result.status is Status.RESET
        return detected, total

    detected, total = benchmark.pedantic(sweep, iterations=1, rounds=1)
    print(f"\ninvalid edges detected: {detected}/{total - 1} "
          f"(plus 1 legitimate reset edge)")
    assert detected == total - 1


def test_frontend_decrypt_verify_latency(benchmark, keys):
    workload = make_workload("crc32", scale="tiny")
    image = transform(workload.compile().program, keys, nonce=0xF2)
    machine = SofiaMachine(image, keys, memoize=False)
    from repro.transform.profile import RESET_PREV_PC

    block = benchmark(machine.decrypt_and_verify, RESET_PREV_PC, image.entry)
    assert block.ok


def test_detection_is_immediate_no_partial_effect(keys):
    """Tampered blocks must produce zero architectural side effects."""
    image = transform(parse(VICTIM), keys, nonce=0xF17)
    machine = SofiaMachine(image, keys)
    # corrupt the block containing the store to the console
    target = image.symbols["f"]
    machine.memory.poke_code(target + 12, 0xDEADBEEF)
    result = machine.run(max_instructions=50_000)
    assert result.status is Status.RESET
    assert result.output_ints == []  # the sw never committed
