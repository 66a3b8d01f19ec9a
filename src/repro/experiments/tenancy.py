"""Multi-tenant isolation & interference matrix (ISSUE 7 extension).

The tenancy axis the paper's follow-up work opens (arXiv 2404.18361,
MIG-style co-residency): co-schedule 2+ kernels from the existing
generators under each partition mode and measure what co-residency does
to each tenant — per-tenant IPC, slowdown vs running the machine alone,
TLB cross-pollution, and Jain's fairness index.

Cells run through :func:`run_tenancy_cell`, which builds the machine
with :func:`repro.system.build_gpu` (``tenancy=spec``) on the simulator
:func:`repro.engine.supervision.cell_simulator` wires for every cell
(same telemetry/sanitizer wiring); solo baselines go through the shared
:class:`~repro.experiments.runner.ExperimentRunner` so they are memoized
and checkpointable like every other cell.  The tenancy composition is
folded into the recorded config hash
(:func:`repro.telemetry.manifest.config_hash` with ``tenancy=``), so a
multi-tenant cell can never collide with a single-tenant cache or golden
entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..arch.config import BASELINE_CONFIG, GPUConfig
from ..engine.supervision import CellSpec, cell_simulator, simulate_cell
from ..system import build_gpu
from ..telemetry.manifest import config_hash
from ..tenancy import PartitionMode, TenancyResult, TenancySpec
from .runner import ExperimentRunner, ShapeCheck

#: The report's tenant matrix: one heterogeneous mix (a TLB-thrashing
#: graph workload against a well-behaved dense kernel) across every
#: partition mode.  The CLI (`repro run --tenants ...`) exposes the full
#: tenant-count x mode x mix space.
REPORT_MIX: Tuple[str, ...] = ("bfs", "gemm")


def run_tenancy_cell(
    spec: TenancySpec,
    config: GPUConfig,
    config_tag: str = "tenancy",
    sanitize: Optional[str] = None,
    telemetry=None,
    solo_cycles: Optional[Dict[str, float]] = None,
) -> TenancyResult:
    """One tenancy cell with slowdowns filled from solo baselines.

    ``solo_cycles`` maps benchmark -> solo makespan; missing benchmarks
    are simulated here (unsanitized — the solo run only anchors the
    slowdown denominator).
    """
    label = f"tenancy:{'+'.join(spec.mix)}:{config_tag}"
    with cell_simulator(telemetry, sanitize, label) as sim:
        result = build_gpu(config, sim=sim, tenancy=spec).run_tenants()
    if solo_cycles is None:
        solo_cycles = {}
    for benchmark in set(spec.mix):
        if benchmark not in solo_cycles:
            solo = simulate_cell(
                CellSpec(
                    benchmark=benchmark,
                    config=config,
                    config_tag=config_tag,
                    scale=spec.scale,
                    seed=spec.seed,
                    sanitize="off",
                )
            )
            solo_cycles[benchmark] = solo.cycles
    result.apply_solo_baselines(solo_cycles)
    return result


@dataclass
class TenancyExperimentResult:
    """Per-mode tenancy results for the report table."""

    mix: Tuple[str, ...]
    results: Dict[str, TenancyResult]
    solo_cycles: Dict[str, float]
    failures: Dict[str, str] = field(default_factory=dict)
    scale: str = "small"

    def format_table(self) -> str:
        lines = [
            f"tenants: {' + '.join(self.mix)}",
            f"{'mode':12s} {'tenant':10s} {'ipc':>8s} {'slowdown':>9s} "
            f"{'l1 hit':>7s} {'fairness':>9s} {'x-evict':>8s}",
        ]
        for mode, result in self.results.items():
            for t in result.tenants:
                hit = t.l1_tlb_hit_rate
                lines.append(
                    f"{mode:12s} {t.benchmark:10s} {t.ipc:8.4f} "
                    f"{(t.slowdown if t.slowdown is not None else float('nan')):9.3f} "
                    f"{(hit if hit is not None else float('nan')):7.3f} "
                    f"{result.fairness_index:9.3f} "
                    f"{result.cross_tenant_evictions:8d}"
                )
        for mode, reason in sorted(self.failures.items()):
            lines.append(f"{mode:12s} FAILED({reason})")
        return "\n".join(lines)

    def shape_checks(self) -> List[ShapeCheck]:
        checks: List[ShapeCheck] = []
        exclusive = self.results.get(PartitionMode.EXCLUSIVE.value)
        shared = self.results.get(PartitionMode.SHARED_TLB.value)
        sub = self.results.get(PartitionMode.SUB_ENTRY.value)
        if exclusive is not None:
            checks.append(
                ShapeCheck(
                    "exclusive partitioning has zero cross-tenant evictions",
                    exclusive.cross_tenant_evictions == 0,
                    f"x-evict={exclusive.cross_tenant_evictions}",
                )
            )
        if shared is not None and self.scale != "micro":
            # micro footprints fit the shared L2 TLB without conflict;
            # the pollution signal only appears at calibrated scales
            checks.append(
                ShapeCheck(
                    "shared-TLB co-residency causes cross-tenant evictions",
                    shared.cross_tenant_evictions > 0,
                    f"x-evict={shared.cross_tenant_evictions}",
                )
            )
        if shared is not None and sub is not None:
            checks.append(
                ShapeCheck(
                    "sub-entry sharing fills without evicting "
                    "(arXiv 2404.18361 mechanism active)",
                    sub.combined.stats.get("l2_tlb", {}).get(
                        "sub_entry_fills", 0
                    ) > 0,
                    "l2 sub-entry fills="
                    f"{sub.combined.stats.get('l2_tlb', {}).get('sub_entry_fills', 0)}",
                )
            )
        for mode, result in self.results.items():
            slowdowns = [
                t.slowdown for t in result.tenants if t.slowdown is not None
            ]
            checks.append(
                ShapeCheck(
                    f"{mode}: co-resident tenants never finish faster than "
                    "their solo runs",
                    all(s >= 0.999 for s in slowdowns),
                    "slowdowns=" + ",".join(f"{s:.3f}" for s in slowdowns),
                )
            )
            fairness = result.fairness_index
            checks.append(
                ShapeCheck(
                    f"{mode}: Jain fairness within (0, 1]",
                    0.0 < fairness <= 1.0 + 1e-9,
                    f"J={fairness:.3f}",
                )
            )
        checks.append(
            ShapeCheck(
                "all partition modes produced a result",
                not self.failures,
                ",".join(sorted(self.failures)) or "ok",
            )
        )
        return checks


def run(
    runner: ExperimentRunner,
    config: GPUConfig = BASELINE_CONFIG,
    mix: Tuple[str, ...] = REPORT_MIX,
) -> TenancyExperimentResult:
    """The report section: one mix, every partition mode, plus solos."""
    solo_cycles: Dict[str, float] = {}
    for benchmark in dict.fromkeys(mix):  # unique, order-preserving
        solo = runner.run_config(benchmark, config, "baseline")
        solo_cycles[benchmark] = solo.cycles
    results: Dict[str, TenancyResult] = {}
    failures: Dict[str, str] = {}
    for mode in PartitionMode:
        spec = TenancySpec(
            mix=mix, mode=mode, scale=runner.scale, seed=runner.seed
        )
        tag = f"tenancy_{mode.value}"
        # tenancy cells run outside the memo; bind them for the manifest
        runner.bind(
            ("+".join(mix), tag), config_hash(config, tenancy=spec.describe())
        )
        try:
            results[mode.value] = run_tenancy_cell(
                spec,
                config,
                config_tag=tag,
                sanitize=runner.sanitize,
                solo_cycles=solo_cycles,
            )
        except Exception as exc:  # degrade this mode, keep the section
            from ..engine.errors import classify

            if runner.strict:
                raise
            failures[mode.value] = classify(exc)
    return TenancyExperimentResult(
        mix=mix,
        results=results,
        solo_cycles=solo_cycles,
        failures=failures,
        scale=runner.scale,
    )
