#!/usr/bin/env python3
"""The paper's benchmark scenario: protect the MediaBench ADPCM codec.

Reproduces §IV-B end to end: compile the IMA ADPCM encoder/decoder with
minicc, run it on both cores, and print the three overhead metrics next to
the published numbers (code size, cycle overhead, total execution-time
overhead with the Table I clock ratio).
"""

from repro.eval import experiment_adpcm
from repro.hwmodel import table1
from repro.workloads import make_workload


def main() -> None:
    table = table1()
    print(table.render())
    print()

    workload = make_workload("adpcm", scale="small")
    print(f"workload: {workload.description}")
    print(f"golden output: {workload.expected_output}")
    print()

    comparison = experiment_adpcm(scale="small")
    print(comparison.render())
    row = comparison.measured

    print()
    print(f"details: {row.vanilla_bytes} -> {row.sofia_bytes} bytes, "
          f"{row.blocks} blocks ({row.mux_blocks} multiplexor, "
          f"{row.tree_nodes} tree nodes), {row.padding_nops} padding nops")
    print(f"instructions executed: {row.vanilla_instructions:,} vanilla, "
          f"{row.sofia_instructions:,} SOFIA")
    print()
    print("Reading: absolute overheads differ from the FPGA prototype "
          "(functional simulator, synthetic PCM input), but the shape "
          "holds: ~2x code, moderate extra cycles, and a total execution-"
          "time overhead dominated by the cipher's clock penalty.")


if __name__ == "__main__":
    main()
