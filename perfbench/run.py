#!/usr/bin/env python3
"""Repository benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload cells-translation --seed 0 \\
        --seconds 15 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
separate traced repetition with ``--trace 1``.  Diagnostics go to
standard error.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: environment variables that inject faults or turn on the sanitizer;
#: an inherited value would slow down or fail the measured runs
CLEARED_ENV = ("REPRO_FAULT", "REPRO_SANITIZE", "REPRO_SANITIZE_INJECT")


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum length of the timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def isolate() -> str:
    """Make this process hermetic; returns its private work directory.

    Every cache, checkpoint and temporary file of the run goes to the
    work directory under ``.perfbench/`` of the checkout, which the
    caller removes at the end, so no state leaks between runs.  Exits
    with status 2 when the checkout holds no simulator sources.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources under {src}", file=sys.stderr)
        sys.exit(2)
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    state = os.path.join(ROOT, ".perfbench")
    os.makedirs(state, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=state)
    os.environ["REPRO_CACHE_DIR"] = os.path.join(workdir, "graphs")
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    sys.path.insert(0, src)
    return workdir


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = isolate()
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    from workloads import WORKLOADS, Run

    run = Run(
        root=ROOT, workdir=workdir, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace),
    )
    try:
        result = WORKLOADS[args.workload](run, args.workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in run.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
