"""repro — a functional reproduction of SOFIA (DATE 2016).

SOFIA ("Software and Control Flow Integrity Architecture", de Clercq et
al.) is a hardware security architecture that encrypts every instruction
with control-flow-dependent information (CFI) and verifies a CBC-MAC over
each block of instructions before they can take effect (SI).

This package rebuilds the whole system in Python:

* :mod:`repro.crypto`    — RECTANGLE-80, CTR keystream, CBC-MAC, keys
* :mod:`repro.isa`       — the SRISC ISA, assembler, disassembler
* :mod:`repro.cfg`       — instruction-granularity control flow graphs
* :mod:`repro.transform` — the SOFIA binary transformation toolchain
* :mod:`repro.sim`       — vanilla and SOFIA processor simulators
* :mod:`repro.cc`        — minicc, a C-subset compiler for workloads
* :mod:`repro.workloads` — ADPCM (the paper's benchmark) and friends
* :mod:`repro.baselines` — XOR-ISR and ECB-ISR comparison defenses
* :mod:`repro.attacks`   — injection/tamper/relocation/reuse campaign
* :mod:`repro.hwmodel`   — FPGA area/clock model (Table I)
* :mod:`repro.security`  — §IV-A bounds + Monte-Carlo experiments
* :mod:`repro.obs`       — campaign telemetry: events, metrics, traces
* :mod:`repro.eval`      — regenerates every table and figure

Quickstart::

    from repro import core
    keys = core.make_keys(seed=1)
    program = core.build_c("int main() { print_int(6 * 7); return 0; }")
    image = core.protect(program, keys, nonce=0x2016)
    result = core.run_protected(image, keys)
    assert result.output_ints == [42]
"""

from ._lazy import lazy_facade

lazy_facade(__name__, {
    "core": ("make_keys", "build_c", "build_assembly", "link_vanilla",
             "protect", "run_vanilla", "run_protected", "protect_and_run"),
    "errors": ("ReproError", "AssemblyError", "EncodingError",
               "DecodingError", "CompileError", "CFGError",
               "TransformError", "ImageError", "SimulationError"),
})

__version__ = "1.0.0"

# lazy_facade set __all__ from the map above
__all__ += ["core", "__version__"]
