"""Tables II and III regeneration.

Table II lists the 10 benchmarks with their provenance (suite, input,
paper footprint) next to the synthetic generators' traced footprints.
Table III prints the simulated machine's configuration so it can be
checked line by line against the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..arch.config import BASELINE_CONFIG, GPUConfig
from ..engine.errors import SimulationError, classify
from ..translation.address import KB
from ..workloads import BENCHMARKS, TABLE2, cached_benchmark, traced_footprint_gb
from .runner import ShapeCheck


@dataclass
class Table2Result:
    traced_footprint_gb: Dict[str, float]
    failures: Dict[str, str] = field(default_factory=dict)

    def format_table(self) -> str:
        lines = [
            f"{'bench':9s} {'application':40s} {'suite':10s} {'input':9s} "
            f"{'paper GB':>9s} {'traced GB':>10s}"
        ]
        for name in BENCHMARKS:
            meta = TABLE2[name]
            if name in self.failures:
                traced = f"FAILED({self.failures[name]})"
            else:
                traced = f"{self.traced_footprint_gb.get(name, 0.0):10.4f}"
            lines.append(
                f"{name:9s} {meta.application:40s} {meta.suite:10s} "
                f"{meta.input_name:9s} {meta.paper_footprint_gb:9.2f} "
                f"{traced}"
            )
        return "\n".join(lines)

    def shape_checks(self) -> List[ShapeCheck]:
        footprints = self.traced_footprint_gb
        return [
            ShapeCheck(
                "all 10 Table II benchmarks generate non-empty traces",
                len(footprints) == len(BENCHMARKS)
                and all(v > 0 for v in footprints.values()),
                f"{len(footprints)} benchmarks"
                + (f", failed: {sorted(self.failures)}" if self.failures else ""),
            ),
            ShapeCheck(
                "every benchmark's traced footprint exceeds the 64-entry "
                "L1 TLB reach (TLB pressure is real at reduced scale)",
                bool(footprints)
                and all(
                    gb * (1 << 30) > 64 * 4096 for gb in footprints.values()
                ),
                f"min footprint "
                f"{min(footprints.values(), default=0.0) * 1024:.2f} MB",
            ),
        ]


def run_table2(
    scale: str = "small", seed: int = 0, strict: bool = True
) -> Table2Result:
    footprints: Dict[str, float] = {}
    failures: Dict[str, str] = {}
    for name in BENCHMARKS:
        try:
            footprints[name] = traced_footprint_gb(
                cached_benchmark(name, scale, seed)
            )
        except SimulationError as exc:
            if strict:
                raise
            failures[name] = classify(exc)
    return Table2Result(footprints, failures)


def format_table3(config: GPUConfig = BASELINE_CONFIG) -> str:
    """Table III: baseline configuration as the paper reports it."""
    rows = [
        ("GPU config", f"{config.num_sms} SMs, {config.clock_mhz}MHz"),
        (
            "Resource per SM",
            f"{config.shared_mem_per_sm // KB}KB Shared Memory, "
            f"{config.register_file_per_sm // KB}KB Register File, "
            f"Max {config.max_threads_per_sm} threads "
            f"({config.max_warps_per_sm} warps, {config.warp_size} "
            f"threads/warp)",
        ),
        (
            "L1",
            f"{config.l1_cache_bytes // KB}KB, {config.l1_cache_assoc}-way "
            f"L1, {config.line_bytes}B cacheline",
        ),
        (
            "L2 unified cache",
            f"{config.l2_slice_bytes // KB}KB/Memory Partition, "
            f"{config.num_partitions * config.l2_slice_bytes // KB}KB "
            f"Total, {config.line_bytes}B cacheline, "
            f"{config.l2_cache_assoc}-way associativity",
        ),
        (
            "Schedule",
            f"GTO warp scheduler, {config.tb_scheduler.value} TB scheduler",
        ),
        (
            "TLB config",
            f"L1: {config.l1_tlb_entries} entries, {config.l1_tlb_assoc}-way,"
            f" {config.l1_tlb_latency:.0f}-cycle lookup, SM private | "
            f"L2: {config.l2_tlb_entries} entries, {config.l2_tlb_assoc}-way,"
            f" {config.l2_tlb_latency:.0f}-cycle lookup, shared",
        ),
        (
            "Page table walk",
            f"{config.num_walkers} shared walkers, "
            f"{config.walk_latency:.0f}-cycle latency",
        ),
    ]
    width = max(len(r[0]) for r in rows)
    return "\n".join(f"{name:<{width}s} | {value}" for name, value in rows)


def table3_checks(config: GPUConfig = BASELINE_CONFIG) -> List[ShapeCheck]:
    """Verify the defaults match the paper's Table III numbers."""
    expected = {
        "16 SMs": config.num_sms == 16,
        "1400 MHz": config.clock_mhz == 1400,
        "2048 threads / 64 warps per SM": (
            config.max_threads_per_sm == 2048 and config.max_warps_per_sm == 64
        ),
        "L1 TLB 64-entry 4-way 1-cycle": (
            config.l1_tlb_entries == 64
            and config.l1_tlb_assoc == 4
            and config.l1_tlb_latency == 1.0
        ),
        "L2 TLB 512-entry 16-way 10-cycle": (
            config.l2_tlb_entries == 512
            and config.l2_tlb_assoc == 16
            and config.l2_tlb_latency == 10.0
        ),
        "8 walkers at 500 cycles": (
            config.num_walkers == 8 and config.walk_latency == 500.0
        ),
        "L2 cache 1536KB total (128KB x 12)": (
            config.num_partitions * config.l2_slice_bytes == 1536 * KB
        ),
    }
    return [ShapeCheck(desc, ok) for desc, ok in expected.items()]


@dataclass(frozen=True)
class Table3Result:
    """Table III as a report section: a configuration and its checks."""

    config: GPUConfig = BASELINE_CONFIG

    def format_table(self) -> str:
        return format_table3(self.config)

    def shape_checks(self) -> List[ShapeCheck]:
        return table3_checks(self.config)
