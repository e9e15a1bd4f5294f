"""Command-line interface: ``python -m repro <command> ...``.

The toolchain workflow as a developer would drive it:

==================  ====================================================
``compile``         minicc C -> SRISC assembly
``run``             run a .c/.s program on the vanilla core
``protect``         transform+MAC+encrypt into a .sofia image (verified)
``run-protected``   run a .sofia image on the SOFIA core
``disasm``          disassemble a program (vanilla address space)
``trace``           per-instruction execution trace (vanilla core)
``attack``          run the attack campaign, print the E8 matrix
``attacksynth``     synthesize attacks against generated programs (E16)
``fuzz``            coverage-guided differential fuzzing campaign (E15)
``dse``             design-space sweep over protection profiles
                    (E17; ``--hw`` adds the hardware axes, E20)
``fault``           fault-injection campaign on a workload (E11)
``montecarlo``      truncated-MAC Monte-Carlo experiments (E9)
``merge``           union sharded campaign result stores (E19)
``stats``           summarize a ``--telemetry`` directory
``version``         print package version + store code digest
``experiments``     regenerate paper tables/figures (E1, E2, ...)
``report``          write the full E1–E11 evaluation report
==================  ====================================================

Keys are derived from ``--seed`` (a stand-in for device provisioning);
images embed their nonce and their :class:`ProtectionProfile`.
``protect``, ``attacksynth`` and ``dse`` accept profile specs like
``present-80:mac32:fixed`` (see
:func:`repro.transform.profile.parse_profile_spec`); ``run-protected``
provisions the device keys for the image's embedded profile.  The
campaign commands (``attack``, ``attacksynth``, ``dse``,
``experiments``, ``fault``, ``fuzz``, ``montecarlo``) accept ``--jobs
N`` to fan their campaigns across N worker processes via
:mod:`repro.runner` (``--jobs 0`` means one per CPU; the default of 1
runs the bit-identical serial path).  ``run`` and ``run-protected``
accept ``--engine reference`` to run the semantics oracle instead of the
default fast engine (:data:`repro.sim.engine.ENGINES`); results are
bit-identical either way.  ``dse --hw`` folds the profile-derived
hardware cost model (:mod:`repro.hwmodel.profilecost`) into the sweep —
``--unroll LIST`` picks the cipher unroll factors (default ``min``, each
cipher's fetch-sustaining minimum) — and the export becomes the unified
3-way Pareto over overhead, forgery bound and area-delay.

``fault``, ``fuzz``, ``attacksynth`` and ``dse`` also accept ``--resume
DIR`` — a persistent result store (:mod:`repro.runner.store`) that makes
the campaign incremental: kill it, rerun it, only unfinished tasks
execute, and the final artifacts are byte-identical to an uninterrupted
serial run — and ``--shard I/N`` (requires ``--resume``), which executes
one deterministic slice of the task list so N hosts can split a
campaign; ``repro merge`` unions the shard stores and a final
``--resume`` pass emits the serial-identical artifact.

Every campaign command (``fault``, ``fuzz``, ``attacksynth``, ``dse``,
``montecarlo``) accepts ``--telemetry DIR`` (structured JSONL events,
merged metrics, and a chrome-trace timeline under DIR — summarize with
``repro stats DIR``) and ``--progress`` (a throttled stderr heartbeat
with tasks/sec and ETA), opened with :func:`repro.obs.campaign`, which
makes it current for the campaign's dispatches.  Telemetry is strictly
observational: campaign artifacts are byte-identical with it on or off.
The global ``--quiet`` flag silences the informational ``#``-prefixed
stderr notes (errors and stdout artifacts are unaffected).

Every failure ends in one ``error: ...`` line on stderr and this exit
status (:func:`main` is the only place that prints it).  An unusable
``--export``/``--csv``/``-o`` path fails before any work, and a Ctrl-C
that a finalizer swallows still stops a campaign after its task:

====  ==============================================================
0     success
1     program, build or I/O error (assembly, compile, transform,
      image, unusable path), or a campaign finding (a divergence, an
      undetected attack or forgery, a failed verification)
2     bad usage: an argparse error, or a value or flag combination a
      command rejects
130   interrupted (Ctrl-C); telemetry records ``status=interrupted``
====  ==============================================================
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

from . import obs
from .crypto.keys import DEFAULT_KEY_SEED
from .errors import (CampaignError, ReproError, TransformError,
                     UsageError, check_count)
from .runner.export import atomic_write, check_writable
from .runner.pool import recording_interrupts
from .sim.engine import DEFAULT_ENGINE, ENGINES

if TYPE_CHECKING:
    from .transform.profile import ProtectionProfile

# Each handler imports the modules its command runs, so a call pays only
# for what it uses (``--help`` builds the parser and nothing else).


def _load_program(path: str, optimize: bool = False):
    """Compile or parse a source file by extension."""
    text = Path(path).read_text()
    if path.endswith(".c"):
        from .cc import compile_source
        return compile_source(text, optimize=optimize).program
    from .isa.assembler import parse
    return parse(text)


def _print_result(result) -> int:
    if result.output_ints:
        for value in result.output_ints:
            print(value)
    if result.output_text:
        print(result.output_text, end="")
    obs.note(f"# {result.summary()}")
    return 0 if result.ok else 1


def cmd_compile(args) -> int:
    from .cc import compile_source
    compiled = compile_source(Path(args.source).read_text())
    output = compiled.asm_text
    if args.output:
        atomic_write(args.output, output)
    else:
        print(output, end="")
    return 0


def cmd_run(args) -> int:
    from . import core
    program = _load_program(args.source, optimize=args.optimize)
    result = core.run_vanilla(core.link_vanilla(program),
                              max_instructions=args.max_instructions,
                              engine=args.engine)
    return _print_result(result)


def _profile_arg(spec: Optional[str], **geometry) -> ProtectionProfile:
    """The design point a ``--profile`` spec names; without a spec, the
    paper's design point at ``geometry`` (``protect``'s
    ``--block-words``/``--schedule-stores``).  Raises
    :class:`~repro.errors.UsageError` for a bad spec or an impossible
    geometry."""
    from .transform.profile import ProtectionProfile, parse_profile_spec
    try:
        if spec is None:
            return ProtectionProfile(**geometry)
        return parse_profile_spec(spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_protect(args) -> int:
    from . import core
    from .crypto.keys import DeviceKeys
    from .sim.trace import list_image
    from .transform.verify import verify_image
    if args.profile is not None and (args.block_words != 8
                                     or args.schedule_stores):
        raise UsageError("--profile already fixes the geometry; drop "
                         "--block-words/--schedule-stores (or fold them "
                         "into the spec as bw<N>/sched)")
    profile = _profile_arg(args.profile, block_words=args.block_words,
                           schedule_stores=args.schedule_stores)
    program = _load_program(args.source, optimize=args.optimize)
    keys = DeviceKeys.from_seed(args.seed).for_profile(profile)
    image = core.protect(program, keys, nonce=args.nonce, profile=profile)
    findings = verify_image(image, keys)
    if findings:
        raise TransformError("\n".join(["the sealed image fails "
                                        "verification:",
                                        *map(str, findings)]))
    if args.list:
        print(list_image(image, keys))
    atomic_write(args.output, image.to_bytes())
    stats = image.stats
    obs.note(f"# wrote {args.output}: {image.code_size_bytes} bytes, "
             f"{image.num_blocks} blocks "
             f"({stats.mux_blocks} mux, {stats.tree_nodes} tree), "
             f"expansion {stats.expansion_ratio:.2f}x, verified OK")
    return 0


def cmd_run_protected(args) -> int:
    from . import core
    from .crypto.keys import DeviceKeys
    from .transform.image import SofiaImage
    image = SofiaImage.from_bytes(Path(args.image).read_bytes())
    # provision the device for the image's embedded design point (the
    # cipher datapath is fixed at manufacturing; the operator running
    # this command is the provisioner)
    keys = DeviceKeys.from_seed(args.seed).for_profile(image.profile)
    result = core.run_protected(image, keys,
                                max_instructions=args.max_instructions,
                                engine=args.engine)
    return _print_result(result)


def cmd_disasm(args) -> int:
    from . import core
    from .isa.disassembler import dump
    program = _load_program(args.source)
    exe = core.link_vanilla(program)
    print(dump(exe.code_words, exe.code_base))
    return 0


def cmd_trace(args) -> int:
    from . import core
    from .sim.trace import trace
    from .sim.vanilla import VanillaMachine
    program = _load_program(args.source)
    machine = VanillaMachine(core.link_vanilla(program))
    for entry in trace(machine, max_instructions=args.limit):
        print(entry.render())
    return 0


def _jobs_arg(value: str) -> Optional[int]:
    """argparse type for ``--jobs``: a non-negative worker count, as the
    runner's ``jobs`` (``0``, one worker per CPU, becomes ``None``)."""
    jobs = int(value)
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"jobs must be >= 0 (0 = one per CPU), got {jobs}")
    return jobs or None


def _count_arg(minimum: int = 0, maximum: Optional[int] = None):
    """argparse type for a count of at least ``minimum`` and at most
    ``maximum`` (a negative count would silently shrink or empty a
    campaign, an empty batch would never finish one)."""
    def count(value: str) -> int:
        number = int(value)
        try:
            check_count("value", number, minimum, maximum)
        except CampaignError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return number
    return count


def _shard_arg(value: str):
    """argparse type for ``--shard``: a 1-based ``i/n`` spec."""
    from .runner import parse_shard
    try:
        return parse_shard(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _shard_note(args, progress: str) -> None:
    """Progress note for a sharded (incomplete) campaign invocation."""
    obs.note(f"# shard {args.shard.label}: {progress} into {args.resume}; "
             f"run the other shards, `repro merge` their stores, then "
             f"rerun with --resume only to emit the campaign artifacts")


def _campaign(args, name: str, **parameters):
    """Open campaign ``name``, observed by the telemetry this
    invocation's ``--telemetry``/``--progress`` ask for (unobserved
    when neither is given)."""
    telemetry = None
    if args.telemetry is not None or args.progress:
        telemetry = obs.Telemetry(directory=args.telemetry,
                                  progress=args.progress)
    return obs.campaign(telemetry, name, {**parameters, "jobs": args.jobs})


def cmd_attack(args) -> int:
    from .attacks import format_matrix, run_campaign
    results = run_campaign(seed=args.seed, jobs=args.jobs,
                           export_path=args.export)
    print(format_matrix(results))
    if args.export:
        obs.note(f"# wrote {args.export}")
    return 0


def cmd_attacksynth(args) -> int:
    from .attacksynth import run_attacksynth, run_attacksynth_image
    from .transform.image import SofiaImage
    profile = _profile_arg(args.profile)
    if args.image is not None:
        conflicts = [flag for flag, given in
                     (("--programs", args.programs is not None),
                      ("--corpus", args.corpus is not None),
                      ("--baselines", args.baselines),
                      ("--profile", args.profile is not None),
                      ("--jobs", args.jobs != 1),
                      ("--resume", args.resume is not None),
                      ("--shard", args.shard is not None),
                      ("--telemetry", args.telemetry is not None),
                      ("--progress", args.progress)) if given]
        if conflicts:
            raise UsageError(f"{', '.join(conflicts)} cannot be combined "
                             f"with --image (single-image mode is serial "
                             f"and observational)")
        image = SofiaImage.from_bytes(Path(args.image).read_bytes())
        report = run_attacksynth_image(
            image, seed=args.seed, per_program=args.per_program,
            key_seed=args.key_seed, export_path=args.export,
            csv_path=args.csv)
    else:
        programs = args.programs if args.programs is not None else 200
        with _campaign(args, "attacksynth", programs=programs,
                       seed=args.seed):
            report = run_attacksynth(
                programs, seed=args.seed, per_program=args.per_program,
                jobs=args.jobs, corpus_dir=args.corpus,
                include_baselines=args.baselines, key_seed=args.key_seed,
                profile=profile, export_path=args.export,
                csv_path=args.csv,
                store_dir=args.resume, shard=args.shard)
    if report.instances == 0 and report.complete:
        why = ("every program failed to build or run cleanly"
               if report.build_errors
               else "empty program set or zero per-program budget")
        raise UsageError("\n".join(
            [f"no attack instances enumerated ({why})",
             *(f"  {label}: {error}"
               for label, error in report.build_errors)]))
    print(report.render())
    if not report.complete:
        _shard_note(args, f"{len(report.programs)} program(s) evaluated")
        return 0 if report.ok else 1
    for path in (args.export, args.csv):
        if path:
            obs.note(f"# wrote {path}")
    return 0 if report.ok else 1


def cmd_dse(args) -> int:
    from .dse import resolve_profiles, run_dse
    from .dse.campaign import check_unroll_specs
    from .hwmodel.profilecost import parse_unroll_specs
    if args.unroll is not None and not args.hw:
        raise UsageError("--unroll needs --hw (it parameterizes the "
                         "hardware axes)")
    try:
        profiles = resolve_profiles(args.profiles, args.grid)
        unrolls = (parse_unroll_specs(args.unroll)
                   if args.unroll is not None else None)
        if unrolls is not None:
            check_unroll_specs(profiles, unrolls)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    workloads = ([w.strip() for w in args.workloads.split(",") if w.strip()]
                 if args.workloads else None)
    kwargs = {}
    if workloads:
        kwargs["workloads"] = workloads
    if args.hw:
        kwargs["hw"] = True
        kwargs["unrolls"] = unrolls
    with _campaign(args, "dse", profiles=len(profiles), seed=args.seed,
                   scale=args.scale):
        report = run_dse(profiles, seed=args.seed, key_seed=args.key_seed,
                         scale=args.scale, programs=args.programs,
                         per_model=args.per_model,
                         jobs=args.jobs, export_path=args.export,
                         csv_path=args.csv,
                         store_dir=args.resume, shard=args.shard, **kwargs)
    print(report.render())
    if not report.complete:
        _shard_note(args, f"{len(report.points)} design point(s) "
                          f"evaluated")
        return 0 if report.ok else 1
    for path in (args.export, args.csv):
        if path:
            obs.note(f"# wrote {path}")
    return 0 if report.ok else 1


def cmd_fuzz(args) -> int:
    from .fuzz import run_fuzz
    with _campaign(args, "fuzz", seeds=args.seeds, seed=args.seed,
                   batch=args.batch):
        report = run_fuzz(seeds=args.seeds, seed=args.seed,
                          batch=args.batch,
                          jobs=args.jobs,
                          corpus_dir=args.corpus,
                          time_budget=args.time_budget,
                          include_baselines=args.baselines,
                          store_dir=args.resume, shard=args.shard)
    print(report.render())
    if report.pending:
        _shard_note(args, f"{report.specimens} specimen(s) replayed or "
                          f"executed (sync point)")
        return 0 if report.ok else 1
    if args.corpus:
        obs.note(f"# wrote corpus + coverage + report under {args.corpus}")
    return 0 if report.ok else 1


def cmd_fault(args) -> int:
    from .crypto.keys import DeviceKeys
    from .faults import run_campaign as run_fault_campaign
    from .workloads import make_workload, workload_names
    profile = _profile_arg(args.profile)
    try:
        victim = make_workload(args.workload, args.scale)
    except KeyError:
        raise UsageError(f"unknown workload {args.workload!r}; "
                         f"known: {workload_names()}") from None
    keys = DeviceKeys.from_seed(args.key_seed)
    with _campaign(args, "fault", workload=args.workload, scale=args.scale,
                   per_model=args.per_model, seed=args.seed):
        results, summary = run_fault_campaign(
            victim.compile().program, keys, victim.expected_output,
            per_model=args.per_model, seed=args.seed,
            jobs=args.jobs, export_path=args.export,
            profile=profile,
            store_dir=args.resume, shard=args.shard)
    print(summary.render())
    if any(result is None for result in results):
        _shard_note(args, f"{sum(r is not None for r in results)} "
                          f"specimen(s) replayed or executed")
        return 0
    if args.export:
        obs.note(f"# wrote {args.export}")
    return 0


def cmd_montecarlo(args) -> int:
    from .security.montecarlo import forgery_scaling, tamper_detection
    with _campaign(args, "montecarlo", experiments=args.experiments,
                   tampers=args.tampers, seed=args.seed):
        scaling = forgery_scaling(experiments=args.experiments,
                                  seed=args.seed, jobs=args.jobs)
        escape = tamper_detection(bits=args.bits, tampers=args.tampers,
                                  seed=args.seed, jobs=args.jobs)
    print("Truncated-MAC Monte-Carlo (E9)")
    print(f"{'bits':>6s} {'mean trials':>14s} {'expected':>12s} "
          f"{'ratio':>7s}")
    for row in scaling:
        print(f"{row.bits:>6d} {row.mean_trials:>14.1f} "
              f"{row.expected_trials:>12.1f} {row.ratio:>7.3f}")
    print(f"tamper escape @ {escape.bits}-bit MAC: "
          f"{escape.undetected}/{escape.tampers} "
          f"({escape.escape_rate:.2e}, expected {escape.expected_rate:.2e})")
    return 0


def cmd_stats(args) -> int:
    from .obs import summarize
    try:
        text, problems = summarize(args.directory)
    except FileNotFoundError as exc:
        raise UsageError(str(exc)) from exc
    print(text)
    return 1 if problems else 0


def cmd_version(args) -> int:
    from . import __version__
    from .runner.store import code_version
    print(f"repro {__version__}")
    print(f"code {code_version()}")
    return 0


def cmd_merge(args) -> int:
    from .runner import merge_stores
    missing = [src for src in args.sources
               if not (Path(src) / "objects").is_dir()]
    if missing:
        raise UsageError(f"no such store: {', '.join(missing)}")
    try:
        copied, present = merge_stores(args.dest, args.sources)
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    obs.note(f"# merged {len(args.sources)} store(s) into {args.dest}: "
             f"{copied} result(s) copied, {present} already present")
    return 0


#: experiment name -> its printed artifact, given the ``repro.eval``
#: facade and ``--jobs``
_EXPERIMENTS = {
    "table1": lambda ev, jobs: ev.experiment_table1().render(),
    "adpcm": lambda ev, jobs: ev.experiment_adpcm("small").render(),
    "security": lambda ev, jobs: ev.experiment_security(
        100, jobs=jobs).render(),
    "blocksize": lambda ev, jobs: ev.render_blocksize(
        ev.experiment_blocksize("tiny", (6, 8), jobs=jobs)),
    "muxtree": lambda ev, jobs: ev.render_muxtree(
        ev.experiment_muxtree((1, 2, 4, 8))),
    "unroll": lambda ev, jobs: ev.render_unroll(ev.experiment_unroll()),
    "workloads": lambda ev, jobs: ev.format_overhead_rows(
        ev.experiment_workloads("tiny", jobs=jobs)),
}


def cmd_report(args) -> int:
    from .eval.report import write_report
    text = write_report(args.output, scale=args.scale)
    obs.note(f"# wrote {args.output} ({len(text.splitlines())} lines)")
    return 0


def cmd_experiments(args) -> int:
    from . import eval as evaluation
    names = args.names or sorted(_EXPERIMENTS)
    unknown = [name for name in names if name not in _EXPERIMENTS]
    if unknown:
        raise UsageError(f"unknown experiment {unknown[0]!r}; "
                         f"known: {sorted(_EXPERIMENTS)}")
    for name in names:
        print(f"==== {name} ====")
        print(_EXPERIMENTS[name](evaluation, args.jobs))
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SOFIA reproduction toolchain")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress informational '#' notes on stderr "
                             "(errors and stdout artifacts unaffected)")
    sub = parser.add_subparsers(dest="command", required=True)

    # the campaign flags, declared once: -j/--jobs for every campaign,
    # --telemetry/--progress for the observed ones, --resume/--shard
    # for the ones with a result store
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("-j", "--jobs", type=_jobs_arg, default=1,
                      help="worker processes (0 = one per CPU, 1 = serial)")
    observed = argparse.ArgumentParser(add_help=False, parents=[jobs])
    observed.add_argument("--telemetry", metavar="DIR", default=None,
                          help="record structured events, merged metrics "
                               "and a chrome-trace timeline under DIR "
                               "(strictly observational; see `repro stats "
                               "DIR`)")
    observed.add_argument("--progress", action="store_true",
                          help="throttled stderr heartbeat: tasks "
                               "done/total, tasks/sec, ETA (cache/shard "
                               "aware)")
    stored = argparse.ArgumentParser(add_help=False, parents=[observed])
    stored.add_argument("--resume", metavar="DIR", default=None,
                        help="persistent result store: load cached task "
                             "results from DIR and execute only the "
                             "missing ones (created if absent)")
    stored.add_argument("--shard", type=_shard_arg, default=None,
                        metavar="I/N",
                        help="execute one deterministic slice of the task "
                             "list: 1-based shard I of N (requires "
                             "--resume)")

    p = sub.add_parser("compile", help="minicc C -> SRISC assembly")
    p.add_argument("source")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="run on the vanilla core")
    p.add_argument("source")
    p.add_argument("--max-instructions", type=int, default=50_000_000)
    p.add_argument("-O", "--optimize", action="store_true",
                   help="enable the minicc peephole optimizer")
    p.add_argument("--engine", choices=ENGINES, default=None,
                   help=f"execution engine (default: {DEFAULT_ENGINE})")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("protect", help="build a SOFIA image")
    p.add_argument("source")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=1,
                   help="device-key provisioning seed")
    p.add_argument("--nonce", type=_count_arg(0, 0xFFFF), default=0x2016,
                   help="per-binary nonce (16 bits)")
    p.add_argument("--block-words", type=int, default=8)
    p.add_argument("--schedule-stores", action="store_true",
                   help="enable the store-scheduling optimization")
    p.add_argument("--profile", metavar="SPEC",
                   help="full design point (e.g. present-80:mac32:fixed); "
                        "supersedes --block-words/--schedule-stores")
    p.add_argument("-O", "--optimize", action="store_true",
                   help="enable the minicc peephole optimizer")
    p.add_argument("--list", action="store_true",
                   help="print the decrypted listing after building")
    p.set_defaults(func=cmd_protect)

    p = sub.add_parser("run-protected", help="run a .sofia image")
    p.add_argument("image")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--max-instructions", type=int, default=50_000_000)
    p.add_argument("--engine", choices=ENGINES, default=None,
                   help=f"execution engine (default: {DEFAULT_ENGINE})")
    p.set_defaults(func=cmd_run_protected)

    p = sub.add_parser("disasm", help="disassemble (vanilla layout)")
    p.add_argument("source")
    p.set_defaults(func=cmd_disasm)

    p = sub.add_parser("trace", help="per-instruction execution trace")
    p.add_argument("source")
    p.add_argument("--limit", type=int, default=200)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("attack", help="run the attack campaign (E8)",
                       parents=[jobs])
    p.add_argument("--seed", type=int, default=1337)
    p.add_argument("--export", metavar="FILE",
                   help="write the campaign results as JSON")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser(
        "attacksynth", help="enumerate+run synthesized attacks (E16)",
        parents=[stored])
    p.add_argument("--programs", type=_count_arg(), default=None,
                   help="fuzz-generated victim programs (default 200)")
    p.add_argument("--seed", type=int, default=0xA77AC2,
                   help="campaign seed (determines programs + sampling)")
    p.add_argument("--per-program", type=_count_arg(), default=None,
                   help="cap on attack instances per program")
    p.add_argument("--corpus", metavar="DIR",
                   help="draw victim programs from a fuzzing corpus")
    p.add_argument("--image", metavar="FILE",
                   help="attack one .sofia image instead of generated "
                        "programs (metadata-less, observational)")
    p.add_argument("--key-seed", type=int, default=DEFAULT_KEY_SEED,
                   help="device-key provisioning seed")
    p.add_argument("--export", metavar="FILE",
                   help="write the campaign record as canonical JSON")
    p.add_argument("--csv", metavar="FILE",
                   help="write the detection matrix as CSV")
    p.add_argument("--baselines", action="store_true",
                   help="also run the XOR/ECB ISR baseline machines")
    p.add_argument("--profile", metavar="SPEC",
                   help="seal the victims under this design point "
                        "(e.g. present-80:mac32:fixed)")
    p.set_defaults(func=cmd_attacksynth)

    p = sub.add_parser(
        "dse", help="design-space sweep over protection profiles (E17)",
        parents=[stored])
    p.add_argument("--profiles", metavar="SPECS",
                   help="comma-separated design points (e.g. "
                        "rectangle-80:mac64:sequential,present-80:mac32:"
                        "fixed); default: the full E17 grid")
    p.add_argument("--grid", metavar="AXES",
                   help="cartesian grid ciphers:mac_bits:renonce"
                        "[:block_words], e.g. rectangle-80,present-80:"
                        "32,64,96:sequential,fixed")
    p.add_argument("--seed", type=int, default=0xD5E17,
                   help="campaign seed (drives every per-point campaign)")
    p.add_argument("--key-seed", type=int, default=DEFAULT_KEY_SEED,
                   help="device-key provisioning seed")
    p.add_argument("--scale", default="tiny",
                   choices=("tiny", "small", "medium"),
                   help="workload scale for the overhead suite")
    p.add_argument("--workloads", metavar="NAMES",
                   help="comma-separated workload suite "
                        "(default: crc32,rle,sort)")
    p.add_argument("--programs", type=_count_arg(), default=5,
                   help="attack-synthesis victims per design point")
    p.add_argument("--per-model", type=_count_arg(), default=3,
                   help="fault specimens per model per design point")
    p.add_argument("--export", metavar="FILE",
                   help="write the sweep record as canonical JSON")
    p.add_argument("--csv", metavar="FILE",
                   help="write the Pareto table as CSV")
    p.add_argument("--hw", action="store_true",
                   help="fold the hardware axes in: per-point area/clock "
                        "from the profile cost model and the unified "
                        "3-way Pareto (E20)")
    p.add_argument("--unroll", metavar="LIST", default=None,
                   help="comma-separated cipher unroll factors and/or "
                        "'min' (requires --hw; default 'min' = each "
                        "cipher's fetch-sustaining minimum)")
    p.set_defaults(func=cmd_dse)

    p = sub.add_parser("fuzz",
                       help="coverage-guided differential fuzzing (E15)",
                       parents=[stored])
    p.add_argument("--seeds", type=_count_arg(), default=500,
                   help="number of specimens to run (default 500)")
    p.add_argument("--seed", type=int, default=0x5EED,
                   help="campaign seed (determines every specimen)")
    p.add_argument("--time-budget", type=float, default=None, metavar="SEC",
                   help="stop after SEC seconds (checked between batches; "
                        "makes the specimen count wall-clock dependent)")
    p.add_argument("--corpus", metavar="DIR",
                   help="persist corpus/coverage/triage under DIR "
                        "(an existing corpus there is extended)")
    p.add_argument("--batch", type=_count_arg(1), default=50,
                   help="specimens per scheduling round (default 50)")
    p.add_argument("--baselines", action="store_true",
                   help="also lockstep the XOR/ECB ISR baseline machines")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "fault", help="fault-injection campaign on a workload (E11)",
        parents=[stored])
    p.add_argument("--workload", default="crc32",
                   help="victim workload name (default crc32)")
    p.add_argument("--scale", default="tiny",
                   choices=("tiny", "small", "medium"))
    p.add_argument("--per-model", type=_count_arg(), default=25,
                   help="fault specimens per fault model (default 25)")
    p.add_argument("--seed", type=int, default=2016,
                   help="campaign seed (drives the fault sampler)")
    p.add_argument("--key-seed", type=int, default=DEFAULT_KEY_SEED,
                   help="device-key provisioning seed")
    p.add_argument("--export", metavar="FILE",
                   help="write the campaign record as canonical JSON")
    p.add_argument("--profile", metavar="SPEC",
                   help="seal the victim under this design point "
                        "(e.g. present-80:mac32:fixed)")
    p.set_defaults(func=cmd_fault)

    p = sub.add_parser(
        "montecarlo", help="truncated-MAC Monte-Carlo experiments (E9)",
        parents=[observed])
    p.add_argument("--experiments", type=_count_arg(1), default=200,
                   help="forgeries per MAC width (default 200)")
    p.add_argument("--tampers", type=_count_arg(1), default=4000,
                   help="random tampers for the escape-rate experiment")
    p.add_argument("--bits", type=_count_arg(1, 64), default=8,
                   help="MAC width for the escape-rate experiment")
    p.add_argument("--seed", type=int, default=2016)
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser(
        "merge", help="union sharded campaign result stores")
    p.add_argument("dest",
                   help="destination store directory (created if absent)")
    p.add_argument("sources", nargs="+", metavar="SOURCE",
                   help="shard store directories to union into DEST")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("experiments", help="regenerate paper artifacts",
                       parents=[jobs])
    p.add_argument("names", nargs="*",
                   help=f"subset of {sorted(_EXPERIMENTS)}")
    p.set_defaults(func=cmd_experiments)

    p = sub.add_parser("report", help="write the full evaluation report")
    p.add_argument("-o", "--output", default="sofia_report.txt")
    p.add_argument("--scale", default="tiny",
                   choices=("tiny", "small", "medium"))
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "stats", help="summarize a --telemetry directory")
    p.add_argument("directory",
                   help="directory written by a --telemetry campaign")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "version", help="print package version + store code digest")
    p.set_defaults(func=cmd_version)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command; the CLI's only error boundary.  Handlers raise,
    and every failure ends here in one ``error:`` line and the exit
    status of the module docstring's table."""
    args = build_parser().parse_args(argv)
    # reset per call: tests drive main() repeatedly in-process
    obs.set_quiet(args.quiet)
    try:
        if getattr(args, "shard", None) is not None and args.resume is None:
            raise UsageError("--shard needs --resume DIR: without a result "
                             "store the shard's results would be lost")
        # an unusable output path fails before any work is spent on it
        check_writable(*(getattr(args, name, None) or None
                         for name in ("export", "csv", "output")))
        with recording_interrupts():
            return args.func(args)
    except BrokenPipeError:
        # stdout closed early (e.g. `repro stats DIR | head`); point the
        # fd at devnull so interpreter shutdown doesn't re-raise
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except UsageError as exc:
        message, status = str(exc), 2
    except (ReproError, OSError) as exc:
        message, status = str(exc), 1
    except KeyboardInterrupt:
        message, status = "interrupted", 130
    print(f"error: {message}", file=sys.stderr)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
