"""Multi-tenant machine assembly and the co-scheduling dispatch loop.

``build_tenant_gpu`` mirrors :func:`repro.system.build_gpu` component
for component, swapping in tenant-aware parts only where the partition
mode demands them:

========================  =====================  =====================
component                 exclusive              shared-tlb / sub-entry
========================  =====================  =====================
TB scheduler              per-tenant SM slices   one shared policy
L1 TLB                    stock (slice-private)  page / sub-entry format
L2 TLB                    tenant-sliced sets*    page / sub-entry format
memory partitions         NPS-style affinity*    line interleave
page tables               private per tenant     private per tenant
========================  =====================  =====================

(* with one tenant the stock component is used unchanged — the
one-tenant exclusive machine is assembled from exactly the same classes
as :func:`repro.system.build_gpu`, which is what makes its results
bit-identical to the single-tenant path.)

The shared modes' TLBs are stock VPN-indexed LRU TLBs (ASID-tagged
page entries, or :class:`~repro.translation.tlb.SubEntrySharedTLB`)
with a :class:`~repro.translation.tlb.TenantAccounting` attached.  They
replace the configured L1 mechanism, so those modes refuse a config
whose L1 TLB differs from the baseline's rather than drop it silently.

:class:`MultiTenantGPU` extends the dispatch loop to round-robin across
tenants' pending TB queues, asking the tenant-aware scheduler for a
placement *for that tenant*; with one tenant the call sequence collapses
to the single-tenant loop exactly.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from ..arch.config import GPUConfig
from ..arch.gpu import GPU, RunResult
from ..arch.sm import StreamingMultiprocessor
from ..core.factory import build_l1_tlb
from ..core.partitioned_tlb import TenantIndexPolicy
from ..core.tb_scheduler import ExclusiveTenantScheduler, SharedTenantScheduler
from ..engine.simulator import Simulator
from ..memory.cache import Cache
from ..memory.interconnect import Interconnect
from ..memory.partition import PartitionedMemory
from ..memory.subsystem import SMMemoryPath
from ..telemetry.tracer import CAT_KERNEL
from ..translation.pagesize import geometry_for
from ..translation.service import SharedTranslationService
from ..translation.tlb import SetAssociativeTLB, SubEntrySharedTLB, TenantAccounting
from ..translation.uvm import UVMManager
from ..translation.walker import WalkerPool
from .compose import compose_tenants
from .memory import TenantAffinityMemory
from .metrics import TenancyResult, TenantMetrics
from .router import ASIDRouter
from .tenant import (
    PPN_TAG_SHIFT,
    PartitionMode,
    TenancySpec,
    Tenant,
    check_shared_mode_config,
    vpn_tag_shift,
)


class _ComposedKernel:
    """Name-only stand-in for the combined run's "kernel" (result
    collection and the kernel-span tracer label need nothing else)."""

    __slots__ = ("name", "total_tbs")

    def __init__(self, name: str, total_tbs: int) -> None:
        self.name = name
        self.total_tbs = total_tbs


class MultiTenantGPU(GPU):
    """GPU whose dispatch loop co-schedules several tenants' TBs."""

    def __init__(
        self,
        sim: Simulator,
        config: GPUConfig,
        geometry,
        sms: List[StreamingMultiprocessor],
        scheduler,
        l2_tlb,
        walkers,
        partitions,
        tenants: List[Tenant],
        router: ASIDRouter,
        mode: PartitionMode,
    ) -> None:
        super().__init__(
            sim, config, geometry, sms, scheduler, l2_tlb, walkers, partitions
        )
        self.tenants = tenants
        self.router = router
        self.mode = mode
        self._tenant_pending: List[deque] = []
        self._tenant_remaining: List[int] = []
        self._tenant_finish: List[float] = []
        self._tb_tenant = {}
        self._rr_tenant = 0

    # ------------------------------------------------------------------ #
    # Launch / dispatch
    # ------------------------------------------------------------------ #
    def launch_tenants(self, occupancy_override: Optional[int] = None) -> None:
        """Queue every tenant's TBs and fill the SMs.

        Exclusive mode prepares each tenant's SM slice with that
        kernel's own occupancy; the shared modes prepare every SM with
        the most restrictive tenant's occupancy (co-resident kernels
        split SM resources, so the tightest bound governs).
        """
        if self._kernel is not None:
            raise RuntimeError("a kernel is already running")
        n = len(self.tenants)
        name = "+".join(t.kernel.name for t in self.tenants)
        total_tbs = sum(t.num_tbs for t in self.tenants)
        self._kernel = _ComposedKernel(name, total_tbs)
        occupancies = []
        for tenant in self.tenants:
            occ = tenant.kernel.occupancy(self.config)
            if occupancy_override is not None:
                occ = min(occ, occupancy_override)
            occupancies.append(occ)
        if isinstance(self.scheduler, ExclusiveTenantScheduler):
            for tid, tenant in enumerate(self.tenants):
                for sm_id in self.scheduler.sm_slice(tid):
                    self.sms[sm_id].prepare_kernel(occupancies[tid])
        else:
            shared_occ = min(occupancies)
            for sm in self.sms:
                sm.prepare_kernel(shared_occ)
        self._tenant_pending = [deque(t.kernel.tbs) for t in self.tenants]
        self._tenant_remaining = [t.num_tbs for t in self.tenants]
        self._tenant_finish = [self.sim.now] * n
        self._tb_tenant = {
            id(trace): tid
            for tid, tenant in enumerate(self.tenants)
            for trace in tenant.kernel.tbs
        }
        self._tbs_remaining = total_tbs
        self._rr_tenant = 0
        self._fill_sms(self.sim.now)

    def _fill_sms(self, now: float) -> None:
        """Round-robin across tenants with pending TBs; a tenant whose
        slice (or the shared pool) is full is skipped until a slot
        frees.  With one tenant this is the single-tenant fill loop."""
        n = len(self.tenants)
        tid = self._rr_tenant
        stalled = 0
        while stalled < n:
            pending = self._tenant_pending[tid]
            if not pending:
                tid = (tid + 1) % n
                stalled += 1
                continue
            sm = self.scheduler.select_sm_for(tid, self.sms)
            if sm is None:
                tid = (tid + 1) % n
                stalled += 1
                continue
            trace = pending.popleft()
            sm.dispatch_tb(trace, now, self._age)
            self._age += max(len(trace.warps), 1)
            stalled = 0
            tid = (tid + 1) % n
        self._rr_tenant = tid
        self._pending = self._tenant_pending[tid] if n == 1 else _AnyPending(
            self._tenant_pending
        )

    def _tb_finished(self, sm, tb) -> None:
        tid = self._tb_tenant[id(tb.trace)]
        self._tenant_remaining[tid] -= 1
        if self._tenant_remaining[tid] == 0:
            self._tenant_finish[tid] = self.sim.now
        super()._tb_finished(sm, tb)

    def _livelock_diagnostic(self) -> str:
        base = super()._livelock_diagnostic()
        per_tenant = ", ".join(
            f"t{tid}:{rem}" for tid, rem in enumerate(self._tenant_remaining)
        )
        return f"{base} | tenant TBs remaining [{per_tenant}]"

    # ------------------------------------------------------------------ #
    # Run + per-tenant result collection
    # ------------------------------------------------------------------ #
    def run_tenants(
        self, occupancy_override: Optional[int] = None
    ) -> TenancyResult:
        """Launch every tenant, run to completion, split the metrics."""
        start = self.sim.now
        self.launch_tenants(occupancy_override)
        self.sim.run()
        if self._tbs_remaining != 0:
            raise RuntimeError(
                f"simulation drained with {self._tbs_remaining} TBs unfinished"
            )
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.complete(
                CAT_KERNEL, self._kernel.name, start, self.sim.now - start,
                tracer.track("kernel"),
                {"tbs": self._kernel.total_tbs, "sms": len(self.sms)},
            )
        combined = self._collect(self._kernel)
        result = self._split_metrics(combined)
        self._kernel = None
        return result

    def _tenant_l1_tallies(self, tid: int) -> tuple:
        """(hits, accesses) attributable to tenant ``tid``'s L1 probes."""
        if isinstance(self.scheduler, ExclusiveTenantScheduler):
            sms = [self.sms[i] for i in self.scheduler.sm_slice(tid)]
            return (
                sum(sm.l1_tlb_hits for sm in sms),
                sum(sm.l1_tlb_accesses for sm in sms),
            )
        hits = accesses = 0
        for sm in self.sms:
            acct = sm.l1_tlb.accounting
            if acct is not None:
                hits += acct.hits[tid]
                accesses += acct.accesses[tid]
        return hits, accesses

    def cross_tenant_evictions(self) -> int:
        """Total cross-tenant displacements across every shared TLB."""
        total = 0
        for tlb in [self.l2_tlb] + [sm.l1_tlb for sm in self.sms]:
            if tlb.accounting is not None:
                total += tlb.accounting.cross_tenant_evictions
        return total

    def _split_metrics(self, combined: RunResult) -> TenancyResult:
        per_tenant = []
        for tid, tenant in enumerate(self.tenants):
            finish = self._tenant_finish[tid]
            transactions = tenant.kernel.total_transactions()
            hits, accesses = self._tenant_l1_tallies(tid)
            per_tenant.append(
                TenantMetrics(
                    asid=tenant.asid,
                    benchmark=tenant.benchmark,
                    tbs=tenant.num_tbs,
                    transactions=transactions,
                    finish_cycle=finish,
                    ipc=transactions / finish if finish > 0 else 0.0,
                    l1_tlb_hits=hits,
                    l1_tlb_accesses=accesses,
                    far_faults=(
                        tenant.uvm.fault_count if tenant.uvm is not None else 0
                    ),
                )
            )
        result = TenancyResult(
            mode=self.mode.value,
            combined=combined,
            tenants=per_tenant,
            cross_tenant_evictions=self.cross_tenant_evictions(),
        )
        if len(self.tenants) > 1:
            # surface the isolation metrics through the stats registry /
            # telemetry dump — only in the genuinely multi-tenant case so
            # the one-tenant stats dump stays identical to single-tenant
            group = self.sim.stats.group("tenancy")
            group.counter("cross_tenant_evictions").value = (
                result.cross_tenant_evictions
            )
            group.counter("fairness_millis").value = int(
                result.fairness_index * 1000
            )
            combined.stats = self.sim.stats.dump()
        return result


class _AnyPending:
    """Truthiness/len view over all tenants' pending queues, so the base
    class's refill scheduling (``if self._pending``) keeps working."""

    __slots__ = ("_queues",)

    def __init__(self, queues: List[deque]) -> None:
        self._queues = queues

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues)

    def __bool__(self) -> bool:
        return any(self._queues)


def _shared_tlb(
    mode: PartitionMode,
    num_entries: int,
    associativity: int,
    latency: float,
    tag_shift: int,
    num_tenants: int,
    stats,
    name: str,
) -> SetAssociativeTLB:
    """A shared-mode TLB: the mode's entry format (ASID-tagged pages or
    per-ASID sub-entries) with tenant accounting attached."""
    if mode is PartitionMode.SUB_ENTRY:
        tlb = SubEntrySharedTLB(
            num_entries, associativity, latency, tag_shift,
            stats=stats, name=name,
        )
    else:
        tlb = SetAssociativeTLB(
            num_entries, associativity, latency, stats=stats, name=name
        )
    tlb.attach_accounting(TenantAccounting(num_tenants, tag_shift, stats=tlb.stats))
    return tlb


def build_tenant_gpu(
    spec: TenancySpec,
    config: GPUConfig,
    sim: Optional[Simulator] = None,
    record_tlb_trace: bool = False,
    tenants: Optional[List[Tenant]] = None,
) -> MultiTenantGPU:
    """Assemble a multi-tenant GPU for ``spec`` (mirrors ``build_gpu``).

    ``tenants`` overrides the composed workloads (tests use this to
    inject hand-built kernels); by default the spec's mix is composed
    through the workload registry.
    """
    check_shared_mode_config(spec.mode, config)
    if sim is None:
        sim = Simulator()
    if tenants is None:
        tenants = compose_tenants(spec)
    n = len(tenants)
    mode = spec.mode
    geometry = geometry_for(config.page_size)
    v_shift = vpn_tag_shift(geometry.offset_bits)
    asid_byte_shift = PPN_TAG_SHIFT + geometry.offset_bits
    tracer = sim.tracer
    if tracer.enabled:
        tracer.track("kernel")
        tracer.track("scheduler")
        tracer.track("L2 TLB")
        for walker_id in range(config.num_walkers):
            tracer.track(f"walker{walker_id}")
    clock = lambda: sim.queue.now  # noqa: E731 — cycle clock for untimed parts

    # Private translation per tenant, one router facing the walkers.
    per_tenant_memory = (
        config.gpu_memory_bytes // n
        if config.gpu_memory_bytes is not None
        else None
    )
    uvms = []
    for tenant in tenants:
        uvm = UVMManager(
            geometry=geometry,
            policy=config.allocation_policy,
            far_fault_latency=config.far_fault_latency,
            gpu_memory_bytes=per_tenant_memory,
        )
        tenant.uvm = uvm
        uvms.append(uvm)
    router = ASIDRouter(uvms, v_shift)
    walkers = WalkerPool(
        router,
        num_walkers=config.num_walkers,
        walk_latency=config.walk_latency,
        stats=sim.stats.group("walkers"),
    )

    # Shared L2 TLB, per partition mode.
    l2_sets = config.l2_tlb_entries // config.l2_tlb_assoc
    if mode is not PartitionMode.EXCLUSIVE:
        l2_tlb = _shared_tlb(
            mode, config.l2_tlb_entries, config.l2_tlb_assoc,
            config.l2_tlb_latency, v_shift, n,
            stats=sim.stats.group("l2_tlb"), name="l2_tlb",
        )
    elif n > 1:
        l2_tlb = SetAssociativeTLB(
            config.l2_tlb_entries, config.l2_tlb_assoc, config.l2_tlb_latency,
            policy=TenantIndexPolicy(l2_sets, n, v_shift),
            stats=sim.stats.group("l2_tlb"), name="l2_tlb",
        )
    else:
        # one-tenant exclusive: the stock L2, bit-identical wiring
        l2_tlb = SetAssociativeTLB(
            config.l2_tlb_entries, config.l2_tlb_assoc, config.l2_tlb_latency,
            stats=sim.stats.group("l2_tlb"), name="l2_tlb",
        )
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

    # Shared data-memory system; NPS-style affinity under exclusive.
    interconnect = Interconnect(
        config.num_sms,
        traversal_latency=config.noc_latency,
        injection_interval=config.noc_injection_interval,
        stats=sim.stats.group("interconnect"),
    )
    partition_kwargs = dict(
        num_partitions=config.num_partitions,
        line_bytes=config.line_bytes,
        registry=sim.stats,
        l2_slice_bytes=config.l2_slice_bytes,
        l2_associativity=config.l2_cache_assoc,
        l2_latency=config.l2_cache_latency,
        dram_latency=config.dram_latency,
        dram_interval=config.dram_interval,
    )
    if mode is PartitionMode.EXCLUSIVE and n > 1:
        partitions = TenantAffinityMemory(n, asid_byte_shift, **partition_kwargs)
    else:
        partitions = PartitionedMemory(**partition_kwargs)

    # Per-SM private structures.
    sms = []
    for sm_id in range(config.num_sms):
        stats = sim.stats.group(f"sm{sm_id}_l1tlb")
        if mode is PartitionMode.EXCLUSIVE:
            l1_tlb = build_l1_tlb(config, stats=stats, name=f"sm{sm_id}_l1tlb")
        else:
            l1_tlb = _shared_tlb(
                mode, config.l1_tlb_entries, config.l1_tlb_assoc,
                config.l1_tlb_latency, v_shift, n,
                stats=stats, name=f"sm{sm_id}_l1tlb",
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
        # TLB shootdown on page eviction, re-tagged into the evicting
        # tenant's VPN space so only that tenant's entries die.
        def _make_shootdown(asid: int):
            tag = asid << v_shift

            def _shootdown(local_vpn: int) -> None:
                vpn = tag | local_vpn
                l2_tlb.invalidate(vpn)
                for sm in sms:
                    sm.l1_tlb.invalidate(vpn)

            return _shootdown

        for asid, uvm in enumerate(uvms):
            uvm.invalidate_hook = _make_shootdown(asid)

    if mode is PartitionMode.EXCLUSIVE:
        scheduler = ExclusiveTenantScheduler(n, config.num_sms, config.tb_scheduler)
    else:
        scheduler = SharedTenantScheduler(config.num_sms, config.tb_scheduler)
    scheduler.bind_telemetry(tracer, clock)
    if sim.sampler is not None:
        sim.sampler.add_probe(
            "resident_tbs", lambda: sum(len(sm.resident) for sm in sms)
        )
    gpu = MultiTenantGPU(
        sim, config, geometry, sms, scheduler, l2_tlb, walkers, partitions,
        tenants=tenants, router=router, mode=mode,
    )
    if sim.sanitizer is not None:
        from ..sanitizer import TenantIsolationChecker
        from ..system import _register_checkers

        _register_checkers(sim, sms, l2_tlb, walkers, translation, scheduler)
        sim.sanitizer.register(TenantIsolationChecker(gpu))
    return gpu
