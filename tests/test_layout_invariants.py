"""Layout invariants over the generated program space (ISSUE 4).

DESIGN.md promises four structural invariants of *every* transformed
image; the hand workloads exercise them on a handful of layouts, these
properties pin them across fuzz-generated programs (all shapes, both
block geometries):

* blocks are contiguous and block-size aligned, and the reset entry is a
  valid entry of a block of the matching kind;
* control-transfer instructions appear only in a block's final payload
  slot, and stores never occupy a slot that would reach the MA stage
  before verification;
* multiplexor entries live at offsets 4/8, execution entries at offset
  0, and nothing is sealed anywhere else;
* the interleaved MAC words cover exactly the decrypted payload along
  every sealed edge (the offline verifier re-derives every hardware
  check and finds nothing).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import DeviceKeys
from repro.fuzz import BLOCK_WORDS, SHAPES, Genome, generate
from repro.fuzz.oracle import build_program
from repro.isa.encoding import decode
from repro.transform.profile import ProtectionProfile, store_forbidden_slots
from repro.transform.transformer import transform
from repro.transform.verify import verify_image

KEYS = DeviceKeys.from_seed(0x50F1A)

MAX_EXAMPLES = 30


def genomes():
    return st.builds(
        Genome,
        shape=st.sampled_from(SHAPES),
        seed=st.integers(min_value=0, max_value=1 << 32),
        size=st.integers(min_value=1, max_value=3),
        block_words=st.sampled_from(BLOCK_WORDS),
        nonce=st.integers(min_value=1, max_value=0xFFFF))


def build_image(genome):
    program = build_program(generate(genome))
    return transform(program, KEYS, nonce=genome.nonce,
                     profile=ProtectionProfile(block_words=genome.block_words))


def decoded_payload(image, record):
    mac_count = image.block_words - record.capacity
    for slot, word in enumerate(record.plain_payload):
        address = record.base + 4 * (mac_count + slot)
        yield slot, decode(word, address)


@given(genome=genomes())
@settings(max_examples=MAX_EXAMPLES, deadline=None)
def test_blocks_are_aligned_and_contiguous(genome):
    image = build_image(genome)
    assert len(image.words) == image.num_blocks * image.block_words
    assert image.code_base % image.block_bytes == 0
    for index, record in enumerate(image.blocks):
        assert record.base == image.code_base + index * image.block_bytes
    entry_offset = (image.entry - image.code_base) % image.block_bytes
    entry_record = image.blocks[(image.entry - image.code_base)
                                // image.block_bytes]
    assert entry_offset in (0, 4, 8)
    assert entry_record.kind == ("exec" if entry_offset == 0 else "mux")


@given(genome=genomes())
@settings(max_examples=MAX_EXAMPLES, deadline=None)
def test_ctis_only_in_final_slots_and_stores_scheduled(genome):
    image = build_image(genome)
    for record in image.blocks:
        forbidden = store_forbidden_slots(record.capacity)
        for slot, instr in decoded_payload(image, record):
            if instr.is_cti:
                assert slot == record.capacity - 1, \
                    f"{instr.mnemonic} in mid-block slot {slot}"
            if instr.is_store:
                assert slot not in forbidden, \
                    f"store in forbidden slot {slot}"


@given(genome=genomes())
@settings(max_examples=MAX_EXAMPLES, deadline=None)
def test_sealed_entries_use_the_multiplexor_offsets(genome):
    image = build_image(genome)
    for record in image.blocks:
        if record.kind == "exec":
            # one sealed entry at offset 0 (real edge or the
            # unreachable-block sentinel)
            assert len(record.entry_prev_pcs) == 1
        else:
            # path 1 at base+4, path 2 at base+8, never anywhere else
            assert record.kind == "mux"
            assert len(record.entry_prev_pcs) == 2
        for prev in record.entry_prev_pcs:
            assert prev % 4 == 0


@given(genome=genomes())
@settings(max_examples=MAX_EXAMPLES, deadline=None)
def test_macs_cover_the_decrypted_payload_on_every_edge(genome):
    """The offline verifier re-derives every hardware check: each sealed
    edge decrypts to a payload whose CBC-MAC matches the interleaved MAC
    words, every direct CTI targets a valid entry of the matching block
    kind, and the reset entry is sound."""
    image = build_image(genome)
    assert verify_image(image, KEYS) == []


def test_mac_check_is_sensitive_to_a_single_bit():
    """Negative control: the MAC property above actually bites."""
    genome = Genome(shape="diamond", seed=7, size=2)
    image = build_image(genome)
    tampered = list(image.words)
    tampered[-1] ^= 1
    findings = verify_image(image.with_words(tampered), KEYS)
    assert any(finding.kind == "mac" for finding in findings)
