"""Workload golden-model tests: every workload, both cores, tiny scale."""

import pytest

from repro import workloads
from repro.crypto import DeviceKeys
from repro.isa import assemble
from repro.sim import SofiaMachine, VanillaMachine
from repro.transform import transform
from repro.workloads import (all_workloads, crc32_reference, fir_reference,
                             make_workload, pcm_signal, workload_names)
from repro.workloads.adpcm import STEPSIZE_TABLE, decode, encode

KEYS = DeviceKeys.from_seed(606)


class TestRegistry:
    def test_workloads_registered(self):
        assert workload_names() == ["adpcm", "controller", "crc32",
                                    "dijkstra", "fir", "matmul", "rle",
                                    "sort"]

    def test_unknown_workload(self):
        with pytest.raises(KeyError, match="known: \\['adpcm'"):
            make_workload("doom")

    @pytest.mark.parametrize("name", workload_names())
    def test_name_resolves_to_its_own_factory(self, name):
        # one table maps each name to make_<name>: a swapped or stale
        # entry would hand back another program under this name
        workload = make_workload(name, "tiny")
        assert workload.name == name
        assert workload == getattr(workloads, f"make_{name}")("tiny")

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            make_workload("adpcm", scale="galactic")


class TestSignal:
    def test_pcm_signal_is_deterministic_and_bounded(self):
        a = pcm_signal(500, seed=1)
        b = pcm_signal(500, seed=1)
        assert a == b
        assert all(-32768 <= s <= 32767 for s in a)
        assert pcm_signal(500, seed=2) != a

    def test_signal_has_dynamics(self):
        samples = pcm_signal(2000)
        assert max(samples) > 8000 and min(samples) < -8000


class TestAdpcmReference:
    def test_stepsize_table_is_the_ima_table(self):
        assert len(STEPSIZE_TABLE) == 89
        assert STEPSIZE_TABLE[0] == 7 and STEPSIZE_TABLE[-1] == 32767

    def test_codes_are_nibbles(self):
        codes, _, _ = encode(pcm_signal(300))
        assert all(0 <= c <= 15 for c in codes)

    def test_decoder_tracks_the_signal(self):
        samples = pcm_signal(500)
        codes, _, _ = encode(samples)
        decoded = decode(codes)
        mean_err = sum(abs(a - b) for a, b in zip(samples, decoded)) / 500
        assert mean_err < 2500  # 4-bit ADPCM on a noisy triangle

    def test_silence_encodes_small(self):
        codes, valpred, _ = encode([0] * 50)
        assert abs(valpred) < 64


class TestCrcReference:
    def test_known_vector(self):
        # CRC-32("123456789") = 0xCBF43926
        value = crc32_reference([ord(c) for c in "123456789"])
        assert value & 0xFFFFFFFF == 0xCBF43926

    def test_matches_zlib(self):
        import zlib
        data = list(b"The quick brown fox jumps over the lazy dog")
        assert crc32_reference(data) & 0xFFFFFFFF == zlib.crc32(bytes(data))


class TestFirReference:
    def test_impulse_response_is_taps(self):
        from repro.workloads.fir import TAPS
        impulse = [64] + [0] * 20
        out = fir_reference(impulse, TAPS)
        assert out[:len(TAPS)] == [t * 64 >> 6 for t in TAPS]


@pytest.mark.parametrize("name", workload_names())
class TestEndToEnd:
    def test_vanilla_matches_golden(self, name):
        wl = make_workload(name, scale="tiny")
        exe = assemble(wl.compile().program)
        result = VanillaMachine(exe).run()
        assert result.ok, result.summary()
        assert result.output_ints == wl.expected_output
        assert result.exit_code == wl.expected_exit

    def test_sofia_matches_golden(self, name):
        wl = make_workload(name, scale="tiny")
        image = transform(wl.compile().program, KEYS, nonce=0xAB)
        result = SofiaMachine(image, KEYS).run()
        assert result.ok, result.summary()
        assert result.output_ints == wl.expected_output


class TestScales:
    def test_scales_grow(self):
        tiny = make_workload("crc32", "tiny")
        small = make_workload("crc32", "small")
        assert len(small.c_source) > len(tiny.c_source)

    def test_all_workloads_compile(self):
        for wl in all_workloads("tiny"):
            compiled = wl.compile()
            assert compiled.program.instructions
            assert wl.compile() is compiled  # memoized
