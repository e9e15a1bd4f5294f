"""High-level façade over the SOFIA toolchain.

The three-step workflow a user of the real system would follow:

1. **Build** — compile C (or assemble hand-written assembly) into a parsed
   program.
2. **Protect** — transform + MAC + encrypt into a :class:`SofiaImage`
   bound to a device's keys and a fresh nonce.
3. **Run** — execute on the simulated SOFIA core (or the vanilla core for
   baseline comparisons).

>>> from repro import core
>>> keys = core.make_keys(seed=1)
>>> prog = core.build_assembly("main: li a0, 2\\n add a0, a0, a0\\n halt\\n")
>>> image = core.protect(prog, keys, nonce=7)
>>> core.run_protected(image, keys).ok
True
"""

from __future__ import annotations

from typing import Optional, Union

from .cc import CompiledProgram, compile_source
from .crypto.keys import DeviceKeys
from .errors import ReproError
from .isa.assembler import assemble, parse
from .isa.program import AsmProgram, Executable
from .sim.result import ExecutionResult
from .sim.sofia import SofiaMachine
from .sim.timing import DEFAULT_TIMING, TimingParams
from .sim.vanilla import VanillaMachine
from .transform.image import SofiaImage
from .transform.profile import DEFAULT_PROFILE, ProtectionProfile
from .transform.transformer import transform

ProgramLike = Union[AsmProgram, CompiledProgram, str]


def make_keys(seed: int) -> DeviceKeys:
    """Provision a deterministic device key set (tests/examples)."""
    return DeviceKeys.from_seed(seed)


def build_c(source: str) -> CompiledProgram:
    """Compile minicc C source."""
    return compile_source(source)


def build_assembly(source: str) -> AsmProgram:
    """Parse SRISC assembly source."""
    return parse(source)


def _as_program(program: ProgramLike) -> AsmProgram:
    if isinstance(program, AsmProgram):
        return program
    if isinstance(program, CompiledProgram):
        return program.program
    if isinstance(program, str):
        raise ReproError(
            "pass source through build_c()/build_assembly() first "
            "(ambiguous raw string)")
    raise ReproError(f"cannot build from {type(program).__name__}")


def link_vanilla(program: ProgramLike) -> Executable:
    """Assemble + link for the unprotected baseline core."""
    return assemble(_as_program(program))


def protect(program: ProgramLike, keys: DeviceKeys, nonce: int,
            profile: ProtectionProfile = DEFAULT_PROFILE) -> SofiaImage:
    """Transform a program into an encrypted, MACed SOFIA image.

    ``profile`` selects the design point (cipher, seal width, renonce
    policy, geometry); the default is the paper's.
    """
    return transform(_as_program(program), keys, nonce=nonce,
                     profile=profile)


def run_vanilla(executable: Executable,
                timing: TimingParams = DEFAULT_TIMING,
                max_instructions: int = 50_000_000,
                engine: Optional[str] = None) -> ExecutionResult:
    """Run an unprotected binary on the vanilla core.

    ``engine`` selects the execution engine (``"fast"`` by default,
    ``"reference"`` for the semantics-oracle loop; see
    :mod:`repro.sim.engine`).
    """
    return VanillaMachine(executable, timing, engine=engine).run(
        max_instructions)


def run_protected(image: SofiaImage, keys: DeviceKeys,
                  timing: TimingParams = DEFAULT_TIMING,
                  max_instructions: int = 50_000_000,
                  engine: Optional[str] = None) -> ExecutionResult:
    """Run a protected image on the SOFIA core."""
    return SofiaMachine(image, keys, timing, engine=engine).run(
        max_instructions)


def protect_and_run(program: ProgramLike, seed: int = 1, nonce: int = 1,
                    profile: ProtectionProfile = DEFAULT_PROFILE,
                    timing: TimingParams = DEFAULT_TIMING,
                    max_instructions: int = 50_000_000,
                    engine: Optional[str] = None) -> ExecutionResult:
    """One-call convenience: provision keys, protect, run."""
    keys = make_keys(seed).for_profile(profile)
    image = protect(program, keys, nonce, profile)
    return run_protected(image, keys, timing, max_instructions, engine=engine)
