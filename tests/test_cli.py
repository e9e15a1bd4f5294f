"""CLI tests (direct main() invocation; the bad-count cases run the real
entry point in a subprocess, to see its exit code and stderr)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.attacksynth import run_attacksynth
from repro.cli import main
from repro.crypto.keys import DeviceKeys
from repro.errors import CampaignError
from repro.faults.campaign import run_campaign as run_fault_campaign
from repro.fuzz import run_fuzz
from repro.isa import parse

C_SOURCE = "int main() { print_int(11 * 3); return 0; }\n"

ASM_SOURCE = """
main:
    li t0, 0xFFFF0004
    li t1, 99
    sw t1, 0(t0)
    halt
"""


@pytest.fixture
def c_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(C_SOURCE)
    return str(path)


@pytest.fixture
def asm_file(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text(ASM_SOURCE)
    return str(path)


class TestCompileRun:
    def test_compile_to_stdout(self, c_file, capsys):
        assert main(["compile", c_file]) == 0
        out = capsys.readouterr().out
        assert ".entry __start" in out and "call main" in out

    def test_compile_to_file(self, c_file, tmp_path, capsys):
        out_file = tmp_path / "prog.s"
        assert main(["compile", c_file, "-o", str(out_file)]) == 0
        assert "main:" in out_file.read_text()

    def test_run_c(self, c_file, capsys):
        assert main(["run", c_file]) == 0
        assert capsys.readouterr().out.strip() == "33"

    def test_run_asm(self, asm_file, capsys):
        assert main(["run", asm_file]) == 0
        assert capsys.readouterr().out.strip() == "99"

    def test_compile_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int main() { return nope; }")
        assert main(["run", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent.c"]) == 1


class TestProtectFlow:
    def test_protect_then_run(self, c_file, tmp_path, capsys):
        image_path = str(tmp_path / "prog.sofia")
        assert main(["protect", c_file, "-o", image_path,
                     "--seed", "7", "--nonce", "99"]) == 0
        err = capsys.readouterr().err
        assert "verified OK" in err
        assert main(["run-protected", image_path, "--seed", "7"]) == 0
        assert capsys.readouterr().out.strip() == "33"

    def test_wrong_seed_fails_at_runtime(self, c_file, tmp_path, capsys):
        image_path = str(tmp_path / "prog.sofia")
        main(["protect", c_file, "-o", image_path, "--seed", "7"])
        capsys.readouterr()
        assert main(["run-protected", image_path, "--seed", "8"]) == 1
        assert "reset" in capsys.readouterr().err

    def test_protect_with_listing(self, asm_file, tmp_path, capsys):
        image_path = str(tmp_path / "prog.sofia")
        assert main(["protect", asm_file, "-o", image_path, "--list"]) == 0
        out = capsys.readouterr().out
        assert "MAC word" in out and "halt" in out

    def test_protect_custom_block_size(self, asm_file, tmp_path, capsys):
        image_path = str(tmp_path / "prog.sofia")
        assert main(["protect", asm_file, "-o", image_path,
                     "--block-words", "6"]) == 0
        assert main(["run-protected", image_path]) == 0

    def test_geometry_flags_and_profile_build_identical_images(
            self, asm_file, tmp_path, capsys):
        flags = tmp_path / "flags.sofia"
        spec = tmp_path / "spec.sofia"
        assert main(["protect", asm_file, "-o", str(flags),
                     "--block-words", "6", "--schedule-stores"]) == 0
        assert main(["protect", asm_file, "-o", str(spec),
                     "--profile", "bw6:sched"]) == 0
        assert flags.read_bytes() == spec.read_bytes()

    @pytest.mark.parametrize("geometry", [["--block-words", "4"],
                                          ["--profile", "bw4"]])
    def test_impossible_geometry_is_a_usage_error(self, asm_file, tmp_path,
                                                  capsys, geometry):
        image_path = tmp_path / "prog.sofia"
        assert main(["protect", asm_file, "-o", str(image_path)]
                    + geometry) == 2
        assert capsys.readouterr().err == (
            "error: block_words must be at least 5 for a 64-bit seal\n")
        assert not image_path.exists()

    def test_misaligned_image_header_is_an_image_error(self, asm_file,
                                                       tmp_path, capsys):
        image_path = tmp_path / "prog.sofia"
        assert main(["protect", asm_file, "-o", str(image_path)]) == 0
        blob = bytearray(image_path.read_bytes())
        blob[12:16] = (4).to_bytes(4, "big")  # the header's code_base
        image_path.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["run-protected", str(image_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not aligned" in err


class TestTools:
    def test_disasm(self, asm_file, capsys):
        assert main(["disasm", asm_file]) == 0
        out = capsys.readouterr().out
        assert "sw" in out and "halt" in out

    def test_trace(self, asm_file, capsys):
        assert main(["trace", asm_file, "--limit", "10"]) == 0
        out = capsys.readouterr().out
        assert "lui" in out or "addi" in out

    def test_experiments_table1(self, capsys):
        assert main(["experiments", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "28.2%" in out

    def test_experiments_unknown_name(self, capsys):
        assert main(["experiments", "nope"]) == 2

    def test_experiments_security(self, capsys):
        assert main(["experiments", "security"]) == 0
        assert "46,795" in capsys.readouterr().out

    def test_report_written(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert main(["report", "-o", str(out), "--scale", "tiny"]) == 0
        text = out.read_text()
        assert "Table I" in text and "E8" in text and "E11" in text


class TestAttackSynth:
    def test_small_campaign_with_exports(self, tmp_path, capsys):
        json_path = tmp_path / "synth.json"
        csv_path = tmp_path / "synth.csv"
        assert main(["attacksynth", "--programs", "2", "--seed", "11",
                     "--export", str(json_path),
                     "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "Attack synthesis (E16)" in out
        assert "SOFIA misses      0" in out
        assert "consistent" in out
        assert json_path.is_file()
        assert csv_path.read_text().startswith("family,target,")

    def test_jobs_determinism(self, tmp_path, capsys):
        paths = {}
        for jobs in ("1", "4"):
            paths[jobs] = (tmp_path / f"j{jobs}.json",
                           tmp_path / f"c{jobs}.csv")
            assert main(["attacksynth", "--programs", "3", "--seed", "11",
                         "--jobs", jobs,
                         "--export", str(paths[jobs][0]),
                         "--csv", str(paths[jobs][1])]) == 0
        capsys.readouterr()
        assert paths["1"][0].read_bytes() == paths["4"][0].read_bytes()
        assert paths["1"][1].read_bytes() == paths["4"][1].read_bytes()

    def test_zero_programs_is_an_error(self, capsys):
        assert main(["attacksynth", "--programs", "0"]) == 2
        assert "no attack instances" in capsys.readouterr().err

    def test_zero_per_program_budget_is_an_error(self, capsys):
        assert main(["attacksynth", "--programs", "2",
                     "--per-program", "0"]) == 2
        assert "no attack instances" in capsys.readouterr().err

    def test_corrupt_image_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.sofia"
        bad.write_bytes(b"not a sofia image")
        assert main(["attacksynth", "--image", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_image_file(self, capsys):
        assert main(["attacksynth", "--image", "/nonexistent.sofia"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_image_mode_rejects_campaign_flags(self, capsys):
        assert main(["attacksynth", "--image", "x.sofia",
                     "--baselines", "--jobs", "4"]) == 2
        err = capsys.readouterr().err
        assert "--baselines" in err and "--jobs" in err

    def test_image_mode_observational(self, asm_file, tmp_path, capsys):
        image_path = str(tmp_path / "prog.sofia")
        assert main(["protect", asm_file, "-o", image_path,
                     "--seed", "5"]) == 0
        capsys.readouterr()
        assert main(["attacksynth", "--image", image_path,
                     "--key-seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "source: image" in out and "unknown" in out


class TestFuzz:
    def test_fuzz_clean_campaign(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["fuzz", "--seeds", "30", "--seed", "9",
                     "--corpus", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "divergences 0" in out and "coverage:" in out
        assert (corpus / "coverage.json").is_file()
        assert (corpus / "report.json").is_file()
        assert not (corpus / "triage").exists()

    def test_fuzz_divergence_sets_exit_code(self, capsys, monkeypatch):
        import repro.sim.engine as engine

        monkeypatch.setitem(engine.SEMANTICS, "add", engine.Semantics(
            "(r[{rs1}] + r[{rs2}] + 1) & {M}"))
        assert main(["fuzz", "--seeds", "12", "--seed", "9"]) == 1
        assert "divergences" in capsys.readouterr().out


class TestBadCounts:
    """A count that would hang a campaign (an empty fuzz batch) or
    silently shrink or empty it (a negative count) is a usage error: exit
    2 with an ``error:`` line and no traceback, and the library raises
    the typed :class:`~repro.errors.CampaignError`."""

    CASES = [["fuzz", "--batch", "0"], ["fuzz", "--batch", "-1"],
             ["attacksynth", "--per-program", "-2"],
             ["fuzz", "--seeds", "-3"], ["fault", "--per-model", "-1"],
             ["attacksynth", "--programs", "-1"],
             ["dse", "--per-model", "-1"]]

    @pytest.mark.parametrize("argv", CASES, ids=" ".join)
    def test_cli_exits_2(self, argv):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "repro", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert done.returncode == 2
        assert "error:" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("campaign,args,kwargs", [
        (run_fuzz, (4,), {"batch": 0}), (run_fuzz, (-3,), {}),
        (run_attacksynth, (1,), {"per_program": -2}),
        (run_attacksynth, (-1,), {}),
    ], ids=["fuzz-batch-0", "fuzz-seeds-negative",
            "attacksynth-per-program-negative",
            "attacksynth-programs-negative"])
    def test_library_raises_a_typed_error(self, campaign, args, kwargs):
        with pytest.raises(CampaignError):
            campaign(*args, **kwargs)

    def test_fault_campaign_raises_a_typed_error(self):
        with pytest.raises(CampaignError, match="per_model"):
            run_fault_campaign(parse("main: halt\n"),
                               DeviceKeys.from_seed(1), [], per_model=-1)
