"""Sealing tests: MAC placement, keystream chaining, decryptability.

These tests re-derive the hardware's decryption procedure by hand from the
image and the keys, independent of the simulator — a cross-check that the
transformer and the SOFIA fetch unit implement the same convention.
"""

import pytest

from repro.crypto import DeviceKeys, EdgeKeystream, mac_words
from repro.isa import decode, parse
from repro.transform import (BlockKind, DEFAULT_PROFILE, ImageVerifier,
                             ProtectionProfile, block_plain_words, prepare,
                             transform, word_prev_pcs)
from repro.transform.blocks import classify_offset
from repro.transform.encrypt import traversal_edges
from repro.transform.profile import RESET_PREV_PC

KEYS = DeviceKeys.from_seed(555)
NONCE = 0x0D0A

SOURCE = """
main:
    li a0, 5
    beq a0, zero, join
    jmp join
join:
    call f
    halt
f:
    addi a0, a0, 1
    ret
"""

#: five predecessors of one leader: a two-level tree of mux forwarders
MUX_HEAVY = """
main:
    li a0, 3
    beq a0, zero, join
    bne a0, zero, join
    blt a0, zero, join
    bge a0, zero, join
    jmp join
join:
    halt
"""

#: two block sizes x two seal widths
GEOMETRIES = [ProtectionProfile(mac_words=mac, block_words=bw)
              for bw in (8, 6) for mac in (2, 1)]


@pytest.fixture(scope="module")
def built():
    program = parse(SOURCE)
    layout = prepare(program)
    image = transform(program, KEYS, nonce=NONCE)
    return layout, image


class TestPlainWords:
    def test_exec_block_layout(self, built):
        layout, _ = built
        block = next(b for b in layout.blocks if b.kind is BlockKind.EXEC)
        words = block_plain_words(block, KEYS)
        assert len(words) == DEFAULT_PROFILE.block_words
        payload = words[2:]
        assert mac_words(KEYS.exec_mac_cipher, payload) == (words[0], words[1])

    def test_mux_block_duplicates_m1(self, built):
        layout, _ = built
        block = next(b for b in layout.blocks if b.kind is BlockKind.MUX)
        words = block_plain_words(block, KEYS)
        assert words[0] == words[1]  # M1e1 == M1e2
        payload = words[3:]
        assert mac_words(KEYS.mux_mac_cipher, payload) == (words[0], words[2])

    def test_word_prev_pcs_exec_chain(self, built):
        layout, _ = built
        block = next(b for b in layout.blocks if b.kind is BlockKind.EXEC)
        prevs = word_prev_pcs(block, layout.entry_prev_pcs(block))
        # words 1.. chain on the previous word's address
        for j in range(1, DEFAULT_PROFILE.block_words):
            assert prevs[j] == block.base + 4 * (j - 1)

    def test_word_prev_pcs_mux_m2_rule(self, built):
        layout, _ = built
        block = next(b for b in layout.blocks if b.kind is BlockKind.MUX)
        prevs = word_prev_pcs(block, layout.entry_prev_pcs(block))
        # Fig. 8 footnote: M2 chains on addr(M1e2) on both paths
        assert prevs[2] == block.base + 4


class TestManualDecryption:
    def _decrypt_block(self, image, base, kind, entry_word, prev_pc):
        ks = EdgeKeystream(KEYS.encryption_cipher, NONCE)
        bw = image.block_words
        if kind == "exec":
            indices = list(range(bw))
        elif entry_word == 0:
            indices = [0] + list(range(2, bw))
        else:
            indices = list(range(1, bw))
        out = {}
        for position, j in enumerate(indices):
            addr = base + 4 * j
            if position == 0:
                prev = prev_pc
            elif kind == "mux" and j == 2:
                prev = base + 4
            else:
                prev = base + 4 * (j - 1)
            out[j] = ks.decrypt_word(image.word_at(addr), prev, addr)
        return out

    def test_entry_block_decrypts_with_reset_edge(self, built):
        _, image = built
        words = self._decrypt_block(image, image.entry, "exec", 0,
                                    RESET_PREV_PC)
        payload = [words[j] for j in range(2, image.block_words)]
        assert mac_words(KEYS.exec_mac_cipher, payload) == (words[0], words[1])
        # the first payload word is the first real instruction (li -> addi)
        assert decode(payload[0]).mnemonic in ("addi", "lui", "nop")

    def test_wrong_prev_pc_breaks_mac(self, built):
        _, image = built
        words = self._decrypt_block(image, image.entry, "exec", 0,
                                    RESET_PREV_PC + 8)
        payload = [words[j] for j in range(2, image.block_words)]
        assert mac_words(KEYS.exec_mac_cipher, payload) != (words[0], words[1])

    def test_both_mux_entries_decrypt(self, built):
        layout, image = built
        block = next(b for b in layout.blocks if b.kind is BlockKind.MUX)
        prevs = layout.entry_prev_pcs(block)
        for entry_word, prev in enumerate(prevs):
            words = self._decrypt_block(image, block.base, "mux",
                                        entry_word, prev)
            m1 = words[0] if entry_word == 0 else words[1]
            payload = [words[j] for j in range(3, image.block_words)]
            assert mac_words(KEYS.mux_mac_cipher, payload) == (m1, words[2])

    @pytest.mark.parametrize("profile", GEOMETRIES, ids=lambda p: p.label)
    @pytest.mark.parametrize("source", [SOURCE, MUX_HEAVY],
                             ids=["calls", "mux-heavy"])
    def test_traversals_match_manual_decryption(self, source, profile):
        """The shared traversal helper fetches the same words in the same
        order and decrypts them to the same plaintext as the hand-written
        reference, on every block and every sealed entry."""
        image = transform(parse(source), KEYS, nonce=NONCE, profile=profile)
        assert any(r.kind == "mux" for r in image.blocks)
        ks = EdgeKeystream(KEYS.encryption_cipher, NONCE)
        verifier = ImageVerifier(image, KEYS)
        for record in image.blocks:
            for slot, prev in enumerate(record.entry_prev_pcs):
                manual = list(self._decrypt_block(
                    image, record.base, record.kind, slot, prev).items())
                edges = traversal_edges(record.kind, record.base,
                                        image.block_words, slot, prev)
                shared = [((addr - record.base) // 4,
                           ks.decrypt_word(image.word_at(addr), edge, addr))
                          for edge, addr in edges]
                assert shared == manual
                assert verifier.decrypt_traversal(record, slot, prev) == [
                    (record.base + 4 * j, word) for j, word in manual]

    @pytest.mark.parametrize("profile", GEOMETRIES, ids=lambda p: p.label)
    def test_only_offsets_0_4_8_are_entries(self, profile):
        valid = {0: ("exec", 0), 4: ("mux", 0), 8: ("mux", 1)}
        for offset in range(0, profile.block_bytes, 4):
            assert classify_offset(offset) == valid.get(offset)

    @pytest.mark.parametrize("profile", GEOMETRIES, ids=lambda p: p.label)
    def test_entry_addresses_classify_back(self, profile):
        layout = prepare(parse(MUX_HEAVY), profile)
        slots = {BlockKind.EXEC: [0], BlockKind.MUX: [0, 1]}
        for block in layout.blocks:
            for slot in slots[block.kind]:
                offset = block.entry_address(slot) - block.base
                assert classify_offset(offset) == (block.kind.value, slot)
            with pytest.raises(ValueError):
                block.entry_address(len(slots[block.kind]))

    def test_ciphertext_differs_from_plaintext(self, built):
        layout, image = built
        plain_total = sum(
            sum(block_plain_words(b, KEYS)) for b in layout.blocks)
        assert plain_total != sum(image.words)


class TestStatsAndSymbols:
    def test_stats_accounting(self, built):
        layout, image = built
        stats = image.stats
        assert stats.code_bytes == image.code_size_bytes
        assert stats.payload_instructions == (
            stats.source_instructions + stats.padding_nops)
        assert stats.total_blocks == len(layout.blocks)
        assert stats.expansion_ratio > 1.0

    def test_symbols_exported(self, built):
        _, image = built
        assert "main" in image.symbols
        assert "f" in image.symbols
        assert image.symbols["main"] == image.code_base  # entry block base
