"""Turn-key machine assembly: ``GPUConfig`` → ready-to-run :class:`GPU`.

This is the main entry point of the library::

    from repro import build_gpu, BASELINE_CONFIG
    from repro.workloads import make_benchmark

    kernel = make_benchmark("bfs", scale="small")
    gpu = build_gpu(BASELINE_CONFIG)
    result = gpu.run(kernel)
    print(result.avg_l1_tlb_hit_rate, result.cycles)

``build_gpu`` wires the substrates (engine, translation, memory, arch)
to the paper's policies (core) according to the config.  It is the only
machine builder: a tenancy spec (``build_gpu(config, tenancy=spec)``)
swaps in the tenant-aware parts and leaves the rest of the wiring as is.
"""

from __future__ import annotations

from typing import List, Optional

from .arch.config import GPUConfig
from .arch.gpu import GPU
from .arch.sm import StreamingMultiprocessor
from .core.factory import build_l1_tlb
from .core.tb_scheduler import make_scheduler
from .engine.simulator import Simulator
from .memory.cache import Cache
from .memory.interconnect import Interconnect
from .memory.partition import PartitionedMemory
from .memory.subsystem import SMMemoryPath
from .translation.pagesize import geometry_for
from .translation.service import SharedTranslationService
from .translation.tlb import SetAssociativeTLB
from .translation.uvm import AllocationPolicy, UVMManager
from .translation.walker import WalkerPool


class MachineParts:
    """The parts of a machine that a tenancy spec may swap, in their
    stock one-address-space form.

    :func:`build_gpu` wires everything else once;
    :class:`repro.tenancy.machine.TenantParts` overrides only what a
    partition mode changes.
    """

    #: address spaces, one page table (``UVMManager``) each
    num_spaces = 1

    def __init__(self, config: GPUConfig) -> None:
        self.config = config

    def walk_target(self, uvms: List[UVMManager]):
        """What the walker pool resolves VPNs through: the one UVM."""
        (uvm,) = uvms
        return uvm

    def vpn_tag(self, space: int) -> int:
        """High VPN bits naming address space ``space`` (shootdowns)."""
        return 0

    def l2_tlb(self, stats) -> SetAssociativeTLB:
        config = self.config
        return SetAssociativeTLB(
            config.l2_tlb_entries,
            config.l2_tlb_assoc,
            config.l2_tlb_latency,
            stats=stats,
            name="l2_tlb",
        )

    def l1_tlb(self, stats, name: str) -> SetAssociativeTLB:
        return build_l1_tlb(self.config, stats=stats, name=name)

    def partitions(self, **kwargs) -> PartitionedMemory:
        return PartitionedMemory(**kwargs)

    def scheduler(self):
        return make_scheduler(self.config.tb_scheduler, self.config.num_sms)

    def machine(self, *parts) -> GPU:
        return GPU(*parts)

    def register_checkers(self, san, gpu: GPU) -> None:
        """Checkers beyond :func:`_register_checkers`' standard set."""


def build_gpu(
    config: GPUConfig,
    sim: Optional[Simulator] = None,
    record_tlb_trace: bool = False,
    tenancy=None,
) -> GPU:
    """Assemble a full GPU system from ``config``.

    ``record_tlb_trace=True`` makes every SM log its (tb_index, vpn) L1
    TLB access stream — used by the reuse-distance characterization
    (Fig 5) at the cost of memory proportional to the trace.

    ``tenancy`` (a :class:`~repro.tenancy.TenancySpec`) co-schedules the
    spec's tenants and returns a
    :class:`~repro.tenancy.MultiTenantGPU`; its partition mode picks the
    parts that differ (:class:`~repro.tenancy.machine.TenantParts`).
    """
    if tenancy is None:
        parts = MachineParts(config)
    else:
        from .tenancy.machine import TenantParts

        parts = TenantParts(tenancy, config)
    if sim is None:
        sim = Simulator()
    geometry = geometry_for(config.page_size)
    tracer = sim.tracer
    if tracer.enabled:
        # Register the fixed lanes up front so the viewer's lane order is
        # stable regardless of which component emits first.
        tracer.track("kernel")
        tracer.track("scheduler")
        tracer.track("L2 TLB")
        for walker_id in range(config.num_walkers):
            tracer.track(f"walker{walker_id}")
    clock = lambda: sim.queue.now  # noqa: E731 — cycle clock for untimed parts

    # Shared translation machinery (Fig 1 right-hand side): one page
    # table per address space, device memory split evenly among them.
    # Only mosaic records allocator counters; an unconditional group
    # would change every config's stats dump (golden identity).
    uvm_stats = (
        sim.stats.group("uvm")
        if config.allocation_policy is AllocationPolicy.MOSAIC
        else None
    )
    uvms = [
        UVMManager(
            geometry=geometry,
            policy=config.allocation_policy,
            far_fault_latency=config.far_fault_latency,
            gpu_memory_bytes=(
                config.gpu_memory_bytes // parts.num_spaces
                if config.gpu_memory_bytes is not None
                else None
            ),
            stats=uvm_stats,
        )
        for _ in range(parts.num_spaces)
    ]
    walkers = WalkerPool(
        parts.walk_target(uvms),
        num_walkers=config.num_walkers,
        walk_latency=config.walk_latency,
        stats=sim.stats.group("walkers"),
    )
    l2_tlb = parts.l2_tlb(sim.stats.group("l2_tlb"))
    translation = SharedTranslationService(
        sim, l2_tlb, walkers, port_interval=config.l2_tlb_port_interval
    )
    if tracer.enabled:
        l2_tlb.bind_tracer(tracer, clock, tracer.track("L2 TLB"))
        walkers.bind_tracer(
            tracer,
            tuple(
                tracer.track(f"walker{walker_id}")
                for walker_id in range(config.num_walkers)
            ),
        )

    # Shared data-memory system.
    interconnect = Interconnect(
        config.num_sms,
        traversal_latency=config.noc_latency,
        injection_interval=config.noc_injection_interval,
        stats=sim.stats.group("interconnect"),
    )
    partitions = parts.partitions(
        num_partitions=config.num_partitions,
        line_bytes=config.line_bytes,
        registry=sim.stats,
        l2_slice_bytes=config.l2_slice_bytes,
        l2_associativity=config.l2_cache_assoc,
        l2_latency=config.l2_cache_latency,
        dram_latency=config.dram_latency,
        dram_interval=config.dram_interval,
    )

    # Per-SM private structures.
    sms = []
    for sm_id in range(config.num_sms):
        l1_tlb = parts.l1_tlb(
            sim.stats.group(f"sm{sm_id}_l1tlb"), name=f"sm{sm_id}_l1tlb"
        )
        if tracer.enabled:
            l1_tlb.bind_tracer(tracer, clock, tracer.track(f"SM{sm_id} L1 TLB"))
        l1_cache = Cache(
            config.l1_cache_bytes,
            config.l1_cache_assoc,
            config.line_bytes,
            stats=sim.stats.group(f"sm{sm_id}_l1cache"),
            name=f"sm{sm_id}_l1cache",
        )
        memory_path = SMMemoryPath(
            sim,
            sm_id,
            l1_cache,
            interconnect,
            partitions,
            l1_latency=config.l1_cache_latency,
            stats=sim.stats.group(f"sm{sm_id}_mem"),
        )
        sms.append(
            StreamingMultiprocessor(
                sim,
                sm_id,
                config,
                geometry,
                l1_tlb,
                translation,
                memory_path,
                on_tb_finished=lambda sm, tb: None,  # GPU rebinds this
                record_tlb_trace=record_tlb_trace,
            )
        )

    if config.gpu_memory_bytes is not None:
        # TLB shootdown on page eviction: the victim's translation must
        # leave every TLB level before the page migrates to the host.
        # A UVM evicts in its own VPN space; the tag names that space so
        # only its entries die.
        def _shootdown_for(tag: int):
            def _shootdown(vpn: int) -> None:
                vpn |= tag
                l2_tlb.invalidate(vpn)
                for sm in sms:
                    sm.l1_tlb.invalidate(vpn)

            return _shootdown

        for space, uvm in enumerate(uvms):
            uvm.invalidate_hook = _shootdown_for(parts.vpn_tag(space))

    scheduler = parts.scheduler()
    scheduler.bind_telemetry(tracer, clock)
    if sim.sampler is not None:
        # occupancy is state, not a counter — sample it via a probe
        sim.sampler.add_probe(
            "resident_tbs", lambda: sum(len(sm.resident) for sm in sms)
        )
    gpu = parts.machine(
        sim, config, geometry, sms, scheduler, l2_tlb, walkers, partitions
    )
    if sim.sanitizer is not None:
        _register_checkers(sim, sms, l2_tlb, walkers, translation, scheduler, uvms)
        parts.register_checkers(sim.sanitizer, gpu)
    return gpu


def _register_checkers(sim, sms, l2_tlb, walkers, translation, scheduler, uvms) -> None:
    """Attach the sanitizer's component checkers to a built machine."""
    from .core.tb_scheduler import TLBAwareScheduler
    from .sanitizer import (
        DeadEntryChecker,
        LifecycleChecker,
        MosaicChecker,
        PartitionChecker,
        QueueChecker,
        StatusTableChecker,
        TLBChecker,
        WalkerChecker,
    )

    san = sim.sanitizer
    san.register(QueueChecker(sim.queue))
    san.register(TLBChecker(l2_tlb, registry=sim.stats))
    for sm in sms:
        san.register(TLBChecker(sm.l1_tlb, registry=sim.stats))
        if sm.l1_tlb.policy.tb_indexed:
            # TB-id-partitioned TLB (with or without a sharing register)
            san.register(PartitionChecker(sm.l1_tlb))
        if sm.l1_tlb.dead_filter is not None:
            san.register(DeadEntryChecker(sm.l1_tlb))
    san.register(WalkerChecker(walkers, translation))
    san.register(LifecycleChecker(sms).bind(san))
    if isinstance(scheduler, TLBAwareScheduler):
        san.register(StatusTableChecker(scheduler))
    for uvm in uvms:
        if uvm.mosaic is not None:
            san.register(MosaicChecker(uvm))


def run_kernel(
    config: GPUConfig,
    kernel,
    record_tlb_trace: bool = False,
    occupancy_override: Optional[int] = None,
):
    """One-shot convenience: build a GPU, run ``kernel``, return the
    :class:`~repro.arch.gpu.RunResult`."""
    gpu = build_gpu(config, record_tlb_trace=record_tlb_trace)
    return gpu.run(kernel, occupancy_override=occupancy_override)
