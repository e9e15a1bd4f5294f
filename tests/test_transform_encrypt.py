"""Sealing tests: MAC placement, keystream chaining, decryptability.

These tests re-derive the hardware's decryption procedure by hand from the
image and the keys, independent of the simulator — a cross-check that the
transformer and the SOFIA fetch unit implement the same convention.
"""

import pytest

from repro.crypto import DeviceKeys, EdgeKeystream, mac_words
from repro.isa import decode, parse
from repro.transform import (BlockKind, DEFAULT_PROFILE, block_plain_words,
                             prepare, transform, word_prev_pcs)
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
