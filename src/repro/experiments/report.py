"""Full-paper regeneration: run every table and figure, render a report.

``python -m repro.experiments.report [scale]`` reproduces Tables II/III
and Figs 2–6, 10–12 plus the large-page study, prints each alongside its
shape checks (the paper's qualitative claims), and can write the whole
thing as a markdown report (used to refresh EXPERIMENTS.md).

The report is the degraded surface of the supervised execution layer:
cells that fail terminally (livelock, timeout, crashed worker, bad
config) render as ``FAILED(<reason>)`` rows instead of aborting the
run, a whole experiment that cannot produce a result becomes a FAILED
section, and ``--checkpoint``/``--resume`` make an interrupted sweep
restartable without re-simulating completed cells.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..engine.errors import SimulationError, classify
from ..engine.faults import FaultPlan
from ..workloads import BENCHMARKS, SCALES
from . import (
    ablations,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig10,
    fig11,
    fig12,
    large_pages,
    oversubscription,
    tenancy,
    timeseries,
    zoo,
)
from .runner import ExperimentRunner, ShapeCheck, summarize_checks
from .tables import format_table3, run_table2, table3_checks


@dataclass
class ExperimentReport:
    """One regenerated experiment: id, table text, shape checks."""

    experiment_id: str
    title: str
    table: str
    checks: List[ShapeCheck]
    #: taxonomy tag when the whole experiment failed to produce a result
    failure: Optional[str] = None

    def render(self) -> str:
        lines = [f"## {self.experiment_id} — {self.title}", ""]
        lines.append("```")
        lines.append(self.table)
        lines.append("```")
        lines.append("")
        for check in self.checks:
            lines.append(f"- {check}")
        lines.append(f"- => {summarize_checks(self.checks)}")
        return "\n".join(lines)


def run_all(
    scale: str = "small",
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
    benchmarks: Optional[Tuple[str, ...]] = None,
    timeout: Optional[float] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    strict: bool = False,
    sanitize: Optional[str] = None,
    parallel: int = 1,
    runner: Optional[ExperimentRunner] = None,
) -> Tuple[List[ExperimentReport], ExperimentRunner]:
    """Regenerate every experiment.

    Returns (one report per figure/table, the runner used) — the runner
    exposes per-cell failures and checkpoint statistics for the caller.
    By default the run is non-strict: failed cells degrade to
    ``FAILED(<reason>)`` markers instead of raising.
    """

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    if runner is None:
        runner = ExperimentRunner(
            scale=scale,
            seed=seed,
            benchmarks=benchmarks or BENCHMARKS,
            timeout=timeout,
            checkpoint_path=checkpoint_path,
            resume=resume,
            fault_plan=fault_plan,
            strict=strict,
            sanitize=sanitize,
            parallel=parallel,
        )
    if runner.cells_restored:
        note(f"resumed {runner.cells_restored} cells from checkpoint")
    reports: List[ExperimentReport] = []

    def guarded(
        exp_id: str, title: str, produce: Callable[[], ExperimentReport]
    ) -> None:
        """Run one experiment; degrade to a FAILED section when the
        whole experiment (not just single cells) cannot complete."""
        note(exp_id)
        try:
            reports.append(produce())
        except SimulationError as exc:
            if runner.strict:
                raise
            tag = classify(exc)
            reports.append(
                ExperimentReport(
                    exp_id,
                    title,
                    f"FAILED({tag}): {str(exc).splitlines()[0]}",
                    [ShapeCheck("experiment produced a result", False, tag)],
                    failure=tag,
                )
            )

    guarded(
        "Table II",
        "Benchmarks",
        lambda: (
            lambda t2: ExperimentReport(
                "Table II", "Benchmarks", t2.format_table(), t2.shape_checks()
            )
        )(run_table2(scale, seed, strict=runner.strict)),
    )
    guarded(
        "Table III",
        "Baseline configuration",
        lambda: ExperimentReport(
            "Table III", "Baseline configuration", format_table3(),
            table3_checks(),
        ),
    )

    figures: List[Tuple[str, str, Callable]] = [
        ("Fig 2", "Baseline L1 TLB hit rates (64 vs 256 entries)", fig2.run),
        ("Fig 3", "Inter-TB translation reuse", fig3.run),
        ("Fig 4", "Intra-TB translation reuse", fig4.run),
        ("Fig 5", "Intra-TB reuse distance (with interference)", fig5.run),
        ("Fig 6", "Intra-TB reuse distance (interference removed)", fig6.run),
        ("Fig 10", "L1 TLB hit rates of the proposal", fig10.run),
        ("Fig 11", "Normalized execution time", fig11.run),
        ("Fig 12", "Comparison with TLB compression", fig12.run),
        ("Large pages", "2MB-page study (§V)", large_pages.run),
        ("Ext: oversubscription",
         "GPU memory oversubscription (motivating UVM scenario)",
         oversubscription.run),
        ("Ext: sharing ablation",
         "1-bit vs counter vs all-to-all set sharing (§IV-B discussion)",
         ablations.run_sharing_ablation),
        ("Ext: geometry sweep", "L1 TLB capacity scaling (§III-B)",
         ablations.run_geometry_sweep),
        ("Ext: warp scheduling",
         "translation-aware warp issue (future work)",
         ablations.run_warp_scheduler_ablation),
        ("Ext: warp reuse",
         "warp-granularity reuse share (future work)",
         ablations.run_warp_reuse),
        ("Ext: time-resolved",
         "L1 TLB miss rate over time (telemetry sampler)",
         timeseries.run),
        ("Ext: tenancy",
         "multi-tenant isolation & interference (partition modes)",
         tenancy.run),
        ("Ext: translation zoo",
         "registry-generated mechanism ablation (policy zoo)",
         zoo.run),
    ]
    for exp_id, title, run_fn in figures:
        guarded(
            exp_id,
            title,
            lambda run_fn=run_fn, exp_id=exp_id, title=title: (
                lambda result: ExperimentReport(
                    exp_id, title, result.format_table(),
                    result.shape_checks(),
                )
            )(run_fn(runner)),
        )
    runner.close()
    return reports, runner


def render_markdown(
    reports: List[ExperimentReport],
    scale: str,
    runner: Optional[ExperimentRunner] = None,
) -> str:
    total = sum(len(r.checks) for r in reports)
    passed = sum(sum(1 for c in r.checks if c.passed) for r in reports)
    header = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Regenerated by `python -m repro.experiments.report "
        f"{scale} --write`.",
        "",
        f"Workload scale: `{scale}` (synthetic traces; see DESIGN.md for "
        "the substitution table).  Absolute numbers are not expected to "
        "match the paper's gem5-gpu testbed; each experiment instead "
        "checks the paper's qualitative claims (\"shape checks\").",
        "",
        f"**Overall: {passed}/{total} shape checks hold.**",
        "",
    ]
    degraded = degradation_summary(reports, runner)
    if degraded:
        header.extend(degraded + [""])
    return "\n".join(header) + "\n\n" + "\n\n".join(r.render() for r in reports) + "\n"


def degradation_summary(
    reports: List[ExperimentReport],
    runner: Optional[ExperimentRunner] = None,
) -> List[str]:
    """Markdown lines describing everything that failed, or [] if clean."""
    lines: List[str] = []
    failed_experiments = [r for r in reports if r.failure is not None]
    cell_lines = runner.failure_summary() if runner is not None else []
    if not failed_experiments and not cell_lines:
        return lines
    lines.append("**Degraded run** — some cells/experiments failed and were")
    lines.append("skipped; everything else is reported normally:")
    lines.append("")
    for report in failed_experiments:
        lines.append(
            f"- experiment {report.experiment_id}: FAILED({report.failure})"
        )
    for cell in cell_lines:
        lines.append(f"- cell {cell}")
    return lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.report",
        description="regenerate every table/figure of the paper",
    )
    parser.add_argument("scale", nargs="?", default="small",
                        choices=sorted(SCALES))
    parser.add_argument("--write", action="store_true",
                        help="write EXPERIMENTS.md")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=None,
                        help="wall-clock seconds per cell (enables "
                             "subprocess supervision)")
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="append completed cells to this store")
    parser.add_argument("--resume", action="store_true",
                        help="preload the checkpoint instead of starting "
                             "fresh (requires --checkpoint)")
    parser.add_argument("--strict", action="store_true",
                        help="abort on the first failed cell instead of "
                             "degrading")
    parser.add_argument("--benchmarks", nargs="+", default=None,
                        choices=BENCHMARKS, metavar="BENCH",
                        help="restrict the sweep to these benchmarks")
    parser.add_argument("--sanitize", nargs="?", const="strict",
                        default=None, choices=["strict", "cheap", "off"],
                        help="runtime invariant checking for every cell "
                             "(bare flag means strict; 'off' overrides "
                             "REPRO_SANITIZE)")
    parser.add_argument("--parallel", type=int, default=1, metavar="N",
                        help="accepted for symmetry with compare; no "
                             "report section fans cells out, so the "
                             "report simulates in-process (default: 1)")
    return parser


def main(argv: List[str]) -> int:
    args = build_parser().parse_args(argv)
    if args.resume and not args.checkpoint:
        args.checkpoint = f".repro_checkpoint.{args.scale}.jsonl"
    reports, runner = run_all(
        args.scale,
        seed=args.seed,
        progress=lambda m: print(f"[running] {m}", flush=True),
        benchmarks=tuple(args.benchmarks) if args.benchmarks else None,
        timeout=args.timeout,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        fault_plan=FaultPlan.from_env(),
        strict=args.strict,
        sanitize=args.sanitize,
        parallel=max(1, args.parallel),
    )
    text = render_markdown(reports, args.scale, runner)
    print(text)
    if args.write:
        with open("EXPERIMENTS.md", "w") as handle:
            handle.write(text)
        manifest = runner.write_manifest("report", "EXPERIMENTS.md")
        print(f"wrote EXPERIMENTS.md (+ {manifest})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
