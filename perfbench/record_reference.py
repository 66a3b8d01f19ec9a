#!/usr/bin/env python3
"""Record ``reference.json``: the gated metrics of every cell of the cell
workloads, keyed by benchmark, config and kernel digest, for the kernels
the given seeds generate.

    python3 perfbench/record_reference.py --seeds 0 1 2

Record only at a commit whose model output is known good (the golden
gate passes); the benchmark then fails any later run whose cells differ.
"""

from __future__ import annotations

import argparse
import json
import shutil

import gate
from run import isolate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    workdir = isolate()
    try:
        from workloads import CELL_SCALE, CELL_WORKLOADS, CONFIGS, make_kernels, simulate_cell

        cells = {}
        for seed in args.seeds:
            for benchmarks in CELL_WORKLOADS.values():
                for benchmark, kernel in make_kernels(benchmarks, CELL_SCALE, seed).items():
                    digest = gate.kernel_digest(kernel)
                    for config in CONFIGS:
                        key = gate.reference_key(benchmark, config, digest)
                        if key not in cells:
                            cells[key] = gate.metrics_of(simulate_cell(kernel, config))
            print(f"seed {seed}: {len(cells)} distinct cells so far", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    payload = {"metrics": list(gate.METRICS), "seeds": args.seeds, "cells": cells}
    with open(gate.REFERENCE_PATH, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
