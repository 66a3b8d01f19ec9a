"""Multi-tenant machine parts and the co-scheduling dispatch loop.

:func:`repro.system.build_gpu` is the only machine builder.  Given a
:class:`~repro.tenancy.tenant.TenancySpec` it wires the machine with a
:class:`TenantParts`, which swaps in tenant-aware parts only where the
partition mode demands them:

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
as the single-tenant machine, which is what makes its results
bit-identical to it.)

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
from ..core.partitioned_tlb import TenantIndexPolicy
from ..core.tb_scheduler import ExclusiveTenantScheduler, SharedTenantScheduler
from ..engine.simulator import Simulator
from ..system import MachineParts
from ..translation.pagesize import geometry_for
from ..translation.tlb import SetAssociativeTLB, SubEntrySharedTLB, TenantAccounting
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

    __slots__ = ("name", "num_tbs")

    def __init__(self, name: str, num_tbs: int) -> None:
        self.name = name
        self.num_tbs = num_tbs


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
        return self._split_metrics(self._finish_run(start))

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


class TenantParts(MachineParts):
    """The parts a :class:`TenancySpec` swaps into
    :func:`repro.system.build_gpu`: one page table per tenant behind an
    :class:`ASIDRouter`, the partition mode's TLBs, memory affinity and
    scheduler, and a :class:`MultiTenantGPU` to run them."""

    def __init__(self, spec: TenancySpec, config: GPUConfig) -> None:
        check_shared_mode_config(spec.mode, config)
        super().__init__(config)
        self.mode = spec.mode
        self.tenants = compose_tenants(spec)
        self.num_spaces = len(self.tenants)
        offset_bits = geometry_for(config.page_size).offset_bits
        self.v_shift = vpn_tag_shift(offset_bits)
        self.asid_byte_shift = PPN_TAG_SHIFT + offset_bits
        self.router: Optional[ASIDRouter] = None

    @property
    def _sliced(self) -> bool:
        """Exclusive mode with tenants to slice storage between."""
        return self.mode is PartitionMode.EXCLUSIVE and self.num_spaces > 1

    def walk_target(self, uvms) -> ASIDRouter:
        for tenant, uvm in zip(self.tenants, uvms):
            tenant.uvm = uvm
        self.router = ASIDRouter(uvms, self.v_shift)
        return self.router

    def vpn_tag(self, space: int) -> int:
        return space << self.v_shift

    def _shared_tlb(self, num_entries, associativity, latency, stats, name):
        """A shared-mode TLB: the mode's entry format (ASID-tagged pages
        or per-ASID sub-entries) with tenant accounting attached."""
        if self.mode is PartitionMode.SUB_ENTRY:
            tlb = SubEntrySharedTLB(
                num_entries, associativity, latency, self.v_shift,
                stats=stats, name=name,
            )
        else:
            tlb = SetAssociativeTLB(
                num_entries, associativity, latency, stats=stats, name=name
            )
        tlb.attach_accounting(
            TenantAccounting(self.num_spaces, self.v_shift, stats=tlb.stats)
        )
        return tlb

    def l2_tlb(self, stats) -> SetAssociativeTLB:
        config = self.config
        if self.mode is not PartitionMode.EXCLUSIVE:
            return self._shared_tlb(
                config.l2_tlb_entries, config.l2_tlb_assoc,
                config.l2_tlb_latency, stats, "l2_tlb",
            )
        if not self._sliced:
            return super().l2_tlb(stats)
        return SetAssociativeTLB(
            config.l2_tlb_entries, config.l2_tlb_assoc, config.l2_tlb_latency,
            policy=TenantIndexPolicy(
                config.l2_tlb_entries // config.l2_tlb_assoc,
                self.num_spaces,
                self.v_shift,
            ),
            stats=stats, name="l2_tlb",
        )

    def l1_tlb(self, stats, name: str) -> SetAssociativeTLB:
        if self.mode is PartitionMode.EXCLUSIVE:
            return super().l1_tlb(stats, name)
        config = self.config
        return self._shared_tlb(
            config.l1_tlb_entries, config.l1_tlb_assoc,
            config.l1_tlb_latency, stats, name,
        )

    def partitions(self, **kwargs):
        if self._sliced:
            return TenantAffinityMemory(
                self.num_spaces, self.asid_byte_shift, **kwargs
            )
        return super().partitions(**kwargs)

    def scheduler(self):
        config = self.config
        if self.mode is PartitionMode.EXCLUSIVE:
            return ExclusiveTenantScheduler(
                self.num_spaces, config.num_sms, config.tb_scheduler
            )
        return SharedTenantScheduler(config.num_sms, config.tb_scheduler)

    def machine(self, *parts) -> MultiTenantGPU:
        return MultiTenantGPU(
            *parts, tenants=self.tenants, router=self.router, mode=self.mode
        )

    def register_checkers(self, san, gpu: MultiTenantGPU) -> None:
        from ..sanitizer import TenantIsolationChecker

        san.register(TenantIsolationChecker(gpu))
