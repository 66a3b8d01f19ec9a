"""The benchmark's workloads.

Each workload prepares its inputs from the seed (untimed), measures its
set-up, runs its timed section for at least ``seconds`` and checks every
result.  ``trace=True`` additionally repeats the timed section once with
the layer wrappers installed and reports the per-layer metrics instead
of the end-to-end ones.

The simulator is driven only through its public API:
``repro.workloads.make_benchmark``, ``repro.system.build_gpu``,
``repro.experiments.configs.get_config``, ``GPU.run`` and
``repro.experiments.report.run_all`` / ``render_markdown``.

Host times are normalized to the reference host's speed (``pace.py``);
the raw times are printed to standard error.  Traced runs use raw times.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import gate
import layers
from pace import Pace

#: cell workloads: benchmarks simulated under each of ``CONFIGS``
CELL_WORKLOADS: Dict[str, Tuple[str, ...]] = {
    "cells-translation": ("atax", "nw"),
    "cells-datapath": ("gemm", "3dconv"),
}
CONFIGS = ("baseline", "partition_sharing")
CELL_SCALE = "small"
REPORT_SCALE = "micro"
#: supervised report workers; the core count of the reference host
REPORT_PARALLEL = 2
#: set-up is repeated this often per run and the median reported
SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro.experiments.report, repro.system; "
    "print(time.perf_counter() - t)"
)

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_txn_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)


class PeakMemory:
    """Peak resident memory of this process from :meth:`start` on, in MiB:
    its high-water mark, reset through ``/proc/self/clear_refs``.

    Child processes are not added.  A forked child (a supervised worker,
    or the ``git rev-parse`` behind a run manifest) shares the parent's
    pages and reports them as its own resident set, so adding it would
    count them twice.  Without ``/proc`` this is the lifetime peak.
    """

    def __init__(self) -> None:
        self._reset = False

    def start(self) -> None:
        try:
            with open("/proc/self/clear_refs", "w") as handle:
                handle.write("5")
            self._reset = True
        except OSError:
            self._reset = False

    def mib(self) -> float:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        if self._reset:
            with open("/proc/self/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak = int(line.split()[1])
        return peak / 1024.0


@dataclass
class Run:
    """One benchmark invocation: where it works and what it counted."""

    root: str
    workdir: str
    seed: int
    seconds: float
    trace: bool = False
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    memory: PeakMemory = field(default_factory=PeakMemory)
    pace: Pace = field(default_factory=Pace)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def note(self, message: str) -> None:
        print(f"perfbench: {message}", file=sys.stderr, flush=True)

    def report(self, metrics: Dict[str, float], units: Dict[str, str]) -> Dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": float(metrics[name]), "unit": units[name]} for name in units
            },
        }


def in_child(root: str, code: str) -> float:
    """Run ``code`` in a fresh interpreter that has ``src`` on its path;
    returns the number it prints last."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, check=True, capture_output=True, text=True, timeout=170,
    )
    return float(out.stdout.split()[-1])


def import_seconds(run: "Run", repeats: int = SETUP_REPEATS) -> float:
    """Median normalized time to import ``repro`` in a fresh interpreter
    (the host's pace is sampled in this process while the child runs)."""
    samples = []
    for _ in range(repeats):
        _, _, child_s = run.pace.measure(lambda: in_child(run.root, IMPORT_PROBE))
        samples.append(child_s * run.pace.factor)
    return statistics.median(samples)


def cycle_reduction_pct(run: Run, cycles, benchmarks) -> float:
    """The paper's headline, ``100 * (1 - geomean(ours / baseline))``
    over ``benchmarks``; ``cycles(benchmark, config)`` gives a cell's
    simulated cycles or ``None`` when the cell is missing."""
    logs = []
    for benchmark in benchmarks:
        base, ours = cycles(benchmark, "baseline"), cycles(benchmark, "partition_sharing")
        if base is None or ours is None:
            run.fail(f"no {benchmark} baseline/partition_sharing pair")
            continue
        logs.append(math.log(ours / base))
    return 100.0 * (1.0 - math.exp(sum(logs) / len(logs))) if logs else 0.0


def timed(operation) -> Tuple[float, object]:
    start = time.perf_counter()
    result = operation()
    return time.perf_counter() - start, result


def repeat_for(seconds: float, operation) -> list:
    """Call ``operation`` until ``seconds`` have passed (at least once)."""
    outcomes = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < seconds:
        outcomes.append(operation())
    return outcomes


def warm_graph_cache(root: str, scale: str, seed: int) -> float:
    """Generate the graph benchmarks once, so that their ``.npz`` graph
    is cached; returns that cold generation time.

    This runs in a child process, so that the generation's memory does
    not stay in this process's heap and high-water mark.
    """
    return in_child(root, (
        "import time; from repro.workloads import GRAPH_SPECS, make_benchmark; "
        "t = time.perf_counter(); "
        f"[make_benchmark(b, scale={scale!r}, seed={seed}) for b in GRAPH_SPECS]; "
        "print(time.perf_counter() - t)"
    ))


# ---------------------------------------------------------------------- #
# Cell workloads
# ---------------------------------------------------------------------- #
def make_kernels(benchmarks, scale: str, seed: int) -> Dict:
    import repro.workloads

    return {
        b: repro.workloads.make_benchmark(b, scale=scale, seed=seed) for b in benchmarks
    }


def simulate_cell(kernel, config: str):
    """One cell: a freshly built machine running ``kernel``."""
    from repro.experiments.configs import get_config
    from repro.system import build_gpu

    return build_gpu(get_config(config)).run(kernel)


def run_pass(run: Run, kernels: Dict) -> Dict:
    """Every kernel under each of ``CONFIGS``, each cell one operation;
    ``{"benchmark:config": RunResult}``."""
    results = {}
    for benchmark, kernel in kernels.items():
        for config in CONFIGS:
            key = f"{benchmark}:{config}"
            run.attempted += 1
            try:
                results[key] = simulate_cell(kernel, config)
            except Exception as exc:  # noqa: BLE001 -- a failed operation
                run.fail(f"{key} raised {exc!r}")
    return results


def run_cells(run: Run, workload: str) -> Dict:
    from repro.experiments.configs import get_config
    from repro.system import build_gpu

    benchmarks = CELL_WORKLOADS[workload]
    import_s = import_seconds(run)
    run.memory.start()

    def set_up() -> Dict:
        kernels = make_kernels(benchmarks, CELL_SCALE, run.seed)
        for _ in benchmarks:
            for config in CONFIGS:
                build_gpu(get_config(config))
        return kernels

    setups = [run.pace.measure(set_up) for _ in range(SETUP_REPEATS)]
    kernels = setups[-1][2]
    setup_s = import_s + statistics.median(normalized for _, normalized, _ in setups)
    reference = gate.recorded_reference(
        {b: gate.kernel_digest(k) for b, k in kernels.items()}, CONFIGS
    )

    passes = repeat_for(run.seconds, lambda: run.pace.measure(lambda: run_pass(run, kernels)))
    first = {key: gate.metrics_of(r) for key, r in passes[0][2].items()}

    def check(results: Dict) -> None:
        cells = {key: gate.metrics_of(r) for key, r in results.items()}
        for problem in gate.mismatches(cells, reference or first):
            run.fail(problem)

    for _, _, results in passes:
        check(results)
    raw_s = statistics.median(raw for raw, _, _ in passes)
    wall_s = statistics.median(normalized for _, normalized, _ in passes)
    first_pass = passes[0][2]
    run.note(
        f"raw pass seconds {[round(raw, 3) for raw, _, _ in passes]}, "
        f"pace sample ms {[round(m * 1e3, 3) for m in run.pace.medians]}"
    )

    if run.trace:
        instr = layers.Instrumentation(layers.new_recorder(), run.workdir)
        instr.install()
        try:
            kernels = set_up()
            traced_s, results = timed(lambda: run_pass(run, kernels))
        finally:
            instr.uninstall()
        check(results)
        values = instr.metrics({
            "experiments.ours_cycle_reduction_pct": cycle_reduction_pct(
                run,
                lambda b, c: getattr(first_pass.get(f"{b}:{c}"), "cycles", None),
                benchmarks,
            ),
            "trace.untraced_wall_s": raw_s,
            "trace.traced_wall_s": traced_s,
            "trace.overhead_frac": traced_s / raw_s - 1.0,
        })
        save_trace(run, workload, instr)
        return run.report(values, layers.UNITS)

    values = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "sim_txn_per_s": statistics.median(
            sum(r.l1_tlb_accesses for r in results.values()) / normalized
            for _, normalized, results in passes
        ),
        "peak_rss_mb": run.memory.mib(),
    }
    return run.report(values, dict(END_TO_END))


# ---------------------------------------------------------------------- #
# Report workload
# ---------------------------------------------------------------------- #
@dataclass
class ReportRep:
    wall: float
    normalized: float
    digest: str
    shape_checks: Tuple[int, int]
    cells: Dict[tuple, dict]
    simulated: int
    restored: int


def report_once(run: Run, checkpoint: str, resume: bool = False, recorder=None):
    """``run_all`` + ``render_markdown`` at micro scale; returns
    (wall seconds, reports, runner, markdown).  With a recorder, the
    sections, ``run_all`` and the rendering become spans."""
    from repro.experiments.report import render_markdown, run_all

    sections = layers.SectionClock(recorder) if recorder is not None else None
    start = time.perf_counter()
    frame = recorder.begin("experiments.run_all") if recorder is not None else None
    reports, runner = run_all(
        scale=REPORT_SCALE,
        seed=run.seed,
        parallel=REPORT_PARALLEL,
        checkpoint_path=checkpoint,
        resume=resume,
        progress=sections,
    )
    if recorder is not None:
        sections.close()
        recorder.end(frame)
        frame = recorder.begin("experiments.render")
    markdown = render_markdown(reports, REPORT_SCALE, runner)
    if recorder is not None:
        recorder.end(frame)
    return time.perf_counter() - start, reports, runner, markdown


def check_report(
    run: Run, checkpoint: str, wall, reports, runner, markdown, normalized: float = 0.0
) -> ReportRep:
    """Count the report's operations (its cells and the rendering) and
    gate them: FAILED cells or sections, and cells off the goldens."""
    from repro.engine.checkpoint import CheckpointStore

    cells = CheckpointStore(checkpoint, scale=REPORT_SCALE, seed=run.seed).load()
    run.attempted += runner.cells_simulated + runner.cells_restored + 1
    for key, failure in sorted(runner.failures.items(), key=lambda kv: repr(kv[0])):
        run.fail(f"cell {key[:2]} {failure.marker}")
    for report in reports:
        if report.failure is not None:
            run.fail(f"section {report.experiment_id} FAILED({report.failure})")
    plain = {
        f"{key[0]}:{key[1]}": gate.metrics_of(result)
        for key, result in cells.items()
        if not any(key[2:])
    }
    golden = gate.golden_reference(run.root, REPORT_SCALE, run.seed)
    for problem in gate.mismatches(plain, golden or {}):
        run.fail(problem)
    checks = [c for r in reports for c in r.checks]
    return ReportRep(
        wall=wall,
        normalized=normalized,
        digest=hashlib.sha256(markdown.encode()).hexdigest(),
        shape_checks=(sum(1 for c in checks if c.passed), len(checks)),
        cells=cells,
        simulated=runner.cells_simulated,
        restored=runner.cells_restored,
    )


def plain_cycles(cells: Dict[tuple, dict]):
    """``cycles(benchmark, config)`` over a checkpoint's plain cells (no
    trace recording, occupancy override or telemetry)."""
    plain = {tuple(key[:2]): result["cycles"] for key, result in cells.items() if not any(key[2:])}
    return lambda benchmark, config: plain.get((benchmark, config))


def run_report(run: Run, workload: str) -> Dict:
    from repro.workloads import BENCHMARKS

    graph_cold_s = warm_graph_cache(run.root, REPORT_SCALE, run.seed)
    setup_s = import_seconds(run)
    run.memory.start()
    paths = (os.path.join(run.workdir, f"report{i}.jsonl") for i in itertools.count())

    def write_once() -> ReportRep:
        path = next(paths)
        _, normalized, outcome = run.pace.measure(lambda: report_once(run, path))
        return check_report(run, path, *outcome, normalized=normalized)

    reps = repeat_for(run.seconds, write_once)
    first = reps[0]
    for rep in reps[1:]:
        if rep.digest != first.digest:
            run.fail("report differs between repetitions")
    raw_s = statistics.median(rep.wall for rep in reps)
    wall_s = statistics.median(rep.normalized for rep in reps)
    run.note(
        f"raw report seconds {[round(rep.wall, 3) for rep in reps]}, "
        f"pace sample ms {[round(m * 1e3, 3) for m in run.pace.medians]}"
    )

    # the read side of the checkpoint (untimed): a resumed report must
    # restore every simulated cell and render byte-identical markdown
    first_path = os.path.join(run.workdir, "report0.jsonl")
    resumed = check_report(run, first_path, *report_once(run, first_path, resume=True))
    if resumed.digest != first.digest:
        run.fail("resumed report differs from the simulated one")
    if resumed.restored != first.simulated:
        run.fail(f"resume restored {resumed.restored} of {first.simulated} cells")

    if run.trace:
        recorder = layers.new_recorder()
        instr = layers.Instrumentation(recorder, run.workdir)
        path = os.path.join(run.workdir, "traced.jsonl")
        instr.install()
        try:
            written = report_once(run, path, recorder=recorder)
            instr.collect()
            values = instr.metrics()
            traced_resume = report_once(run, path, resume=True, recorder=recorder)
            instr.collect()
        finally:
            instr.uninstall()
        load_s = recorder.total_s("checkpoint.load")
        traced = check_report(run, path, *written)
        traced_resume = check_report(run, path, *traced_resume)
        for rep in (traced, traced_resume):
            if rep.digest != first.digest:
                run.fail("traced report differs from the untraced one")
        values.update({
            "workloads.graph_cold_s": graph_cold_s,
            "runner.cells_simulated": traced.simulated,
            "runner.cells_restored": traced_resume.restored,
            "experiments.shape_checks_passed": traced.shape_checks[0],
            "experiments.shape_checks_total": traced.shape_checks[1],
            "experiments.ours_cycle_reduction_pct": cycle_reduction_pct(
                run, plain_cycles(first.cells), BENCHMARKS
            ),
            "checkpoint.bytes": os.path.getsize(path),
            "checkpoint.load_s": load_s,
            "checkpoint.resume_wall_s": resumed.wall,
            "trace.untraced_wall_s": raw_s,
            "trace.traced_wall_s": traced.wall,
            "trace.overhead_frac": traced.wall / raw_s - 1.0,
        })
        save_trace(run, workload, instr)
        return run.report(values, layers.UNITS)

    txns = sum(result["l1_tlb_accesses"] for result in first.cells.values())
    values = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "sim_txn_per_s": statistics.median(txns / rep.normalized for rep in reps),
        "peak_rss_mb": run.memory.mib(),
    }
    return run.report(values, dict(END_TO_END))


def save_trace(run: Run, workload: str, instr: layers.Instrumentation) -> None:
    """Write the traced run's spans next to the checkout's other run
    artifacts (``.perfbench/traces``)."""
    out = os.path.join(run.root, ".perfbench", "traces")
    os.makedirs(out, exist_ok=True)
    instr.rec.dump(os.path.join(out, f"{workload}-seed{run.seed}.json"))


WORKLOADS = {
    "cells-translation": run_cells,
    "cells-datapath": run_cells,
    "report-micro": run_report,
}
