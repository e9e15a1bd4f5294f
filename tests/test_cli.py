"""CLI tests (direct main() invocation; the failure cases — bad counts,
unusable paths, Ctrl-C — run the real entry point in a subprocess, to
see its exit code and stderr)."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.attacksynth import run_attacksynth
from repro.cli import build_parser, main
from repro.crypto.ctr import EdgeKeystream, pack_counter
from repro.crypto.keys import DEFAULT_KEY_SEED, DeviceKeys
from repro.crypto.rectangle import Rectangle80
from repro.errors import CampaignError
from repro.faults.campaign import run_campaign as run_fault_campaign
from repro.fuzz import run_fuzz
from repro.isa import parse
from repro.obs import read_events
from repro.runner import ResultStore, merge_stores
from repro.security.montecarlo import (forgery_scaling, tamper_detection,
                                       truncated_mac)

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

C_SOURCE = "int main() { print_int(11 * 3); return 0; }\n"

ASM_SOURCE = """
main:
    li t0, 0xFFFF0004
    li t1, 99
    sw t1, 0(t0)
    halt
"""


def _repro(argv, cwd, timeout=120):
    """Run ``python -m repro argv`` in ``cwd``."""
    return subprocess.run([sys.executable, "-m", "repro", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=SRC_DIR))


def _assert_one_error(done, status):
    """Exit ``status`` with exactly one ``error:`` line, no traceback."""
    assert done.returncode == status, done.stderr
    assert len([line for line in done.stderr.splitlines()
                if "error:" in line]) == 1, done.stderr
    assert "Traceback" not in done.stderr


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

    @pytest.mark.parametrize("corpus", ["missing", "F"])
    def test_unusable_corpus_is_an_error(self, corpus, tmp_path, capsys):
        # a missing corpus, or a regular file, must not quietly become a
        # campaign over generated programs
        (tmp_path / "F").write_text("a regular file\n")
        assert main(["attacksynth", "--programs", "1", "--per-program", "1",
                     "--corpus", str(tmp_path / corpus)]) == 1
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == \
            f"error: no corpus directory at {tmp_path / corpus}\n"

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
    """A count that would hang a campaign (an empty fuzz batch), silently
    shrink or empty it (a negative count) or that no run can use (a MAC
    width past 64 bits, a nonce past 16 bits, an unknown experiment) is a
    usage error: exit 2 with one ``error:`` line and no traceback, and
    the library raises the typed :class:`~repro.errors.CampaignError`."""

    CASES = [["fuzz", "--batch", "0"], ["fuzz", "--batch", "-1"],
             ["attacksynth", "--per-program", "-2"],
             ["fuzz", "--seeds", "-3"], ["fault", "--per-model", "-1"],
             ["attacksynth", "--programs", "-1"],
             ["dse", "--per-model", "-1"],
             ["montecarlo", "--experiments", "-1"],
             ["montecarlo", "--experiments", "0"],
             ["montecarlo", "--tampers", "0"],
             ["montecarlo", "--bits", "0"], ["montecarlo", "--bits", "65"],
             ["protect", "prog.s", "-o", "prog.sofia", "--nonce", "70000"],
             ["protect", "prog.s", "-o", "prog.sofia", "--nonce", "-1"],
             ["experiments", "nope"], ["experiments", "table1", "nope"]]

    @pytest.mark.parametrize("argv", CASES, ids=" ".join)
    def test_cli_exits_2(self, argv, tmp_path):
        (tmp_path / "prog.s").write_text(ASM_SOURCE)
        done = _repro(argv, tmp_path, timeout=60)
        _assert_one_error(done, 2)
        assert not done.stdout  # rejected before any work
        assert not (tmp_path / "prog.sofia").exists()

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

    @pytest.mark.parametrize("call,match", [
        (lambda: forgery_scaling(experiments=0), "experiments"),
        (lambda: forgery_scaling(bits_list=(4, 0), experiments=1), "bits"),
        (lambda: tamper_detection(tampers=-1), "tampers"),
        (lambda: tamper_detection(bits=65, tampers=1), "bits"),
        (lambda: truncated_mac(Rectangle80(1), [0], 0), "bits"),
    ], ids=["forgery-experiments-0", "forgery-bits-0",
            "tamper-tampers-negative", "tamper-bits-65",
            "truncated-mac-bits-0"])
    def test_montecarlo_raises_a_typed_error(self, call, match):
        with pytest.raises(CampaignError, match=match):
            call()

    @pytest.mark.parametrize("nonce", [-1, 1 << 16])
    def test_nonce_message_names_the_range(self, nonce):
        with pytest.raises(ValueError) as caught:
            EdgeKeystream(Rectangle80(1), nonce)
        assert str(caught.value) == (f"nonce {nonce} is outside the 16-bit "
                                     f"range 0..0xffff")
        with pytest.raises(ValueError) as again:
            pack_counter(nonce, 0, 0)
        assert str(again.value) == str(caught.value)


class TestKeySeed:
    @pytest.mark.parametrize("command", ["attacksynth", "dse", "fault"])
    def test_campaigns_default_to_the_one_device_seed(self, command):
        args = build_parser().parse_args([command])
        assert args.key_seed == DEFAULT_KEY_SEED


class TestUnusablePaths:
    """A path option pointed under a regular file — an output, a store,
    a telemetry directory or an input — fails with one ``error:`` line
    and exit 1, never a traceback, whether it fails before the campaign
    or at its export."""

    DSE = ["dse", "--profiles", "present-80:mac32:fixed", "--workloads",
           "crc32", "--programs", "0", "--per-model", "0"]
    CASES = [
        ["fuzz", "--seeds", "2", "--corpus", "F/c"],
        ["fuzz", "--seeds", "2", "--resume", "F/s"],
        ["fuzz", "--seeds", "2", "--telemetry", "F/t"],
        ["fault", "--per-model", "0", "--export", "F/x.json"],
        ["fault", "--per-model", "0", "--resume", "F/s"],
        ["fault", "--per-model", "0", "--telemetry", "F/t"],
        ["attacksynth", "--programs", "1", "--per-program", "1",
         "--export", "F/x.json"],
        ["attacksynth", "--programs", "1", "--per-program", "1",
         "--csv", "F/x.csv"],
        ["attacksynth", "--programs", "1", "--resume", "F/s"],
        ["attacksynth", "--programs", "1", "--telemetry", "F/t"],
        ["attacksynth", "--image", "F/x.sofia"],
        DSE + ["--export", "F/x.json"], DSE + ["--csv", "F/x.csv"],
        DSE + ["--resume", "F/s"], DSE + ["--telemetry", "F/t"],
        ["attack", "--export", "F/a.json"],
        ["protect", "prog.s", "-o", "F/o.sofia"],
        ["montecarlo", "--experiments", "1", "--tampers", "1",
         "--telemetry", "F/t"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=" ".join)
    def test_cli_exits_1(self, argv, tmp_path):
        (tmp_path / "F").write_text("a regular file\n")
        (tmp_path / "prog.s").write_text(ASM_SOURCE)
        done = _repro(argv, tmp_path)
        _assert_one_error(done, 1)
        assert "Not a directory" in done.stderr

    @pytest.mark.parametrize("argv", [
        ["fault", "--per-model", "1"],
        ["attacksynth", "--programs", "1", "--per-program", "1"],
        DSE[:-4] + ["--programs", "1", "--per-model", "1"],
    ], ids=lambda argv: argv[0])
    def test_unusable_export_fails_before_the_campaign(self, argv,
                                                       tmp_path):
        # the export path is checked before the store is opened: nothing
        # is simulated, and nothing is stored, for an artifact that
        # cannot be written
        (tmp_path / "F").write_text("a regular file\n")
        done = _repro(argv + ["--resume", "S", "--export", "F/x.json"],
                      tmp_path)
        _assert_one_error(done, 1)
        assert done.stderr == "error: [Errno 20] Not a directory: " \
                              "'F/x.json'\n"
        assert not list(tmp_path.glob("S/**/*.pkl"))

    @pytest.mark.parametrize("campaign, option", [
        ("fault", "export_path"), ("attacksynth", "export_path"),
        ("attacksynth", "csv_path"), ("dse", "export_path"),
        ("dse", "csv_path")], ids="-".join)
    def test_library_campaign_checks_its_paths_first(self, campaign,
                                                     option, tmp_path):
        # the same check, made by the campaign function itself: a library
        # caller gets the error before anything is simulated or stored
        from repro.dse import run_dse
        from repro.dse.grid import parse_profile_spec
        from repro.workloads import make_workload
        (tmp_path / "F").write_text("a regular file\n")
        paths = {option: tmp_path / "F" / "x.out",
                 "store_dir": tmp_path / "S"}
        with pytest.raises(NotADirectoryError):
            if campaign == "fault":
                workload = make_workload("crc32", "tiny")
                run_fault_campaign(workload.compile().program,
                                   DeviceKeys.from_seed(1),
                                   workload.expected_output, per_model=1,
                                   **paths)
            elif campaign == "attacksynth":
                run_attacksynth(1, per_program=1, **paths)
            else:
                run_dse([parse_profile_spec("present-80:mac32:fixed")],
                        workloads=("crc32",), scale="tiny", programs=1,
                        per_model=1, **paths)
        assert not list(tmp_path.glob("S/**/*.pkl"))

    @pytest.mark.parametrize("option", ["export_path", "csv_path"])
    def test_image_sweep_checks_its_paths_first(self, option, tmp_path,
                                                monkeypatch):
        import repro.attacksynth.campaign as synth
        from repro.transform import transform
        image = transform(parse(ASM_SOURCE), DeviceKeys.from_seed(1),
                          nonce=7)

        def forbidden(*args, **kwargs):
            raise AssertionError("nothing may run before the path check")

        monkeypatch.setattr(synth, "SofiaMachine", forbidden)
        (tmp_path / "F").write_text("a regular file\n")
        with pytest.raises(NotADirectoryError):
            synth.run_attacksynth_image(
                image, **{option: tmp_path / "F" / "x.out"})


def _listing(root: Path):
    return sorted(str(path.relative_to(root)) for path in root.rglob("*"))


class TestMerge:
    def test_non_store_source_is_rejected_untouched(self, tmp_path):
        source = tmp_path / "notastore"
        source.mkdir()
        (source / "notes.txt").write_text("not a result store\n")
        before = _listing(source)
        done = _repro(["merge", "dest", "notastore"], tmp_path)
        _assert_one_error(done, 2)
        assert "notastore" in done.stderr
        with pytest.raises(ValueError, match="not a result store"):
            merge_stores(tmp_path / "lib-dest", [source])
        assert _listing(source) == before
        assert not (tmp_path / "dest").exists()
        assert not (tmp_path / "lib-dest").exists()

    def test_empty_store_merges(self, tmp_path):
        ResultStore(tmp_path / "empty")
        done = _repro(["merge", "dest", "empty"], tmp_path)
        assert done.returncode == 0, done.stderr
        assert "0 result(s) copied" in done.stderr
        assert len(ResultStore(tmp_path / "dest")) == 0


class TestCorruptStore:
    def test_truncated_entries_are_rewritten(self, tmp_path):
        # a torn copy of the golden-trace entry and of one specimen's:
        # the rerun treats both as missing, recomputes and rewrites them
        from repro.sim.batch import GoldenTrace
        argv = ["fault", "--per-model", "2", "--seed", "5", "--resume", "S"]
        done = _repro(argv + ["--export", "whole.json"], tmp_path)
        assert done.returncode == 0, done.stderr
        store = ResultStore(tmp_path / "S")
        entries = {key: store._path(key).read_bytes()
                   for key in store.keys()}
        [golden] = [key for key in entries
                    if isinstance(store.get(key), GoldenTrace)]
        specimen = next(key for key in entries if key != golden)
        for key in (golden, specimen):
            store._path(key).write_bytes(entries[key][:100])
        assert store.get(golden) is None and store.get(specimen) is None

        done = _repro(argv + ["--export", "again.json"], tmp_path)
        assert done.returncode == 0, done.stderr
        assert "error" not in done.stderr
        assert {key: store._path(key).read_bytes()
                for key in store.keys()} == entries
        assert ((tmp_path / "again.json").read_bytes()
                == (tmp_path / "whole.json").read_bytes())


#: runs ``repro`` through ``main`` with the attacksynth task of one
#: program index raising a simulator error, in whichever process runs it
_FAILING_SYNTH = textwrap.dedent("""
    import sys
    import repro.attacksynth.campaign as campaign
    from repro.cli import main
    from repro.errors import SimulationError

    fail_on, argv = int(sys.argv[1]), sys.argv[2:]
    real = campaign._synth_task

    def failing(context, task):
        if task[0] == fail_on:
            raise SimulationError(f"injected failure in program {fail_on}")
        return real(context, task)

    campaign._synth_task = failing
    sys.exit(main(argv))
""")


class TestFailingTask:
    """A task that raises inside a store-backed ``repro attacksynth``
    ends the campaign with exit 1 and one ``error:`` line; the programs
    before it are stored, and a rerun without the fault exports what an
    uninterrupted run does."""

    ARGV = ["attacksynth", "--programs", "4", "--seed", "3606",
            "--per-program", "6"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_task_exits_1_and_resumes(self, jobs, tmp_path):
        whole = _repro(self.ARGV + ["--export", "whole.json"], tmp_path)
        assert whole.returncode == 0, whole.stderr
        store = tmp_path / "S"
        argv = self.ARGV + ["--jobs", jobs, "--resume", str(store),
                            "--export", "resumed.json"]
        failed = subprocess.run(
            [sys.executable, "-c", _FAILING_SYNTH, "2", *argv],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=SRC_DIR))
        _assert_one_error(failed, 1)
        assert "error: injected failure in program 2" in failed.stderr
        assert not (tmp_path / "resumed.json").exists()
        assert len(ResultStore(store)) == 2  # the programs before it

        rerun = _repro(argv, tmp_path)
        assert rerun.returncode == 0, rerun.stderr
        assert ((tmp_path / "resumed.json").read_bytes()
                == (tmp_path / "whole.json").read_bytes())


#: runs ``repro fuzz`` through ``main`` and sends SIGINT to its own
#: process group, as Ctrl-C would, from inside the Nth specimen task of
#: the first process to get there (a pool worker at ``--jobs 2``)
_INTERRUPTED_FUZZ = textwrap.dedent("""
    import os, signal, sys
    import repro.fuzz.campaign as campaign
    from repro.cli import main

    leader = os.getpid()
    if os.getpgid(0) != leader:
        sys.exit("must lead its own process group")
    flag, interrupt_on, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    real, calls = campaign._fuzz_task, [0]

    def interrupting(*args):
        calls[0] += 1
        if calls[0] == interrupt_on:
            try:
                os.close(os.open(flag, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass  # another worker has interrupted already
            else:
                os.killpg(leader, signal.SIGINT)
        return real(*args)

    campaign._fuzz_task = interrupting
    sys.exit(main(argv))
""")


#: runs ``repro`` through ``main`` and raises SIGINT from a finalizer
#: inside the Nth fuzz specimen task, where Python prints the
#: ``KeyboardInterrupt`` as "Exception ignored" and drops it
_SWALLOWED_FUZZ = textwrap.dedent("""
    import signal, sys
    import repro.fuzz.campaign as campaign
    from repro.cli import main

    interrupt_on, argv = int(sys.argv[1]), sys.argv[2:]
    real, calls = campaign._fuzz_task, [0]

    class Finalized:
        def __del__(self):
            signal.raise_signal(signal.SIGINT)

    def interrupting(*args):
        calls[0] += 1
        if calls[0] == interrupt_on:
            Finalized()  # dropped at once: its finalizer runs here
        return real(*args)

    campaign._fuzz_task = interrupting
    sys.exit(main(argv))
""")


class TestInterrupt:
    """Ctrl-C in the middle of a dispatch exits 130 with one ``error:``
    line, ends the telemetry campaign ``interrupted``, keeps every result
    stored so far, and a ``--resume`` rerun writes the corpus an
    uninterrupted run writes."""

    FUZZ = ["fuzz", "--seeds", "150", "--seed", "11"]

    @pytest.fixture(scope="class")
    def golden(self, tmp_path_factory):
        corpus = tmp_path_factory.mktemp("golden") / "corpus"
        assert main(self.FUZZ + ["--corpus", str(corpus)]) == 0
        return corpus

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sigint_resumes_byte_identical(self, jobs, golden, tmp_path,
                                           capsys):
        store, tel = tmp_path / "store", tmp_path / "tel"
        corpus = tmp_path / "corpus"
        argv = self.FUZZ + ["--jobs", jobs, "--resume", str(store),
                            "--corpus", str(corpus)]
        done = subprocess.run(
            [sys.executable, "-c", _INTERRUPTED_FUZZ,
             str(tmp_path / "interrupted"), "10", *argv,
             "--telemetry", str(tel)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=SRC_DIR),
            start_new_session=True)
        assert done.returncode == 130, done.stderr
        assert done.stderr == "error: interrupted\n"
        assert not done.stdout and not corpus.exists()
        events = list(read_events(tel / "events.jsonl"))
        assert (events[-1]["event"], events[-1]["status"]) == \
            ("campaign-end", "interrupted")
        stored = len(list(ResultStore(store).keys()))
        assert stored == 9 if jobs == "1" else stored < 150

        assert main(argv) == 0
        capsys.readouterr()
        files = sorted(p.relative_to(golden) for p in golden.rglob("*"))
        assert sorted(p.relative_to(corpus)
                      for p in corpus.rglob("*")) == files
        for path in files:
            if (golden / path).is_file():
                assert (corpus / path).read_bytes() == \
                    (golden / path).read_bytes(), path

    def test_sigint_a_finalizer_swallows_still_interrupts(self, tmp_path):
        # the dropped interrupt stops the campaign after the unit it
        # landed in is stored, as an interrupt outside a finalizer would
        store, tel = tmp_path / "store", tmp_path / "tel"
        done = subprocess.run(
            [sys.executable, "-c", _SWALLOWED_FUZZ, "10", *self.FUZZ,
             "--resume", str(store), "--telemetry", str(tel)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=SRC_DIR))
        assert done.returncode == 130, done.stderr
        assert "Exception ignored" in done.stderr
        assert done.stderr.splitlines()[-1] == "error: interrupted"
        assert not done.stdout
        events = list(read_events(tel / "events.jsonl"))
        assert (events[-1]["event"], events[-1]["status"]) == \
            ("campaign-end", "interrupted")
        assert len(list(ResultStore(store).keys())) == 10
