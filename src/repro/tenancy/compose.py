"""Tenant-aware workload composition.

``compose_tenants`` turns a :class:`~repro.tenancy.tenant.TenancySpec`
into concrete :class:`~repro.tenancy.tenant.Tenant` objects: each
benchmark is built through the existing generator registry and then
*relocated* into its tenant's private address space by adding
``asid << ADDRESS_SPACE_BITS`` to every transaction address.

Relocation is the whole isolation mechanism: downstream components (SMs,
TLBs, walkers, memory partitions) never learn about tenants explicitly —
the ASID rides in the high address bits and the tenant-aware index
policies/routers split it back out.  Tenant 0 is relocated by zero, i.e.
returned untouched, which keeps the one-tenant case on the exact
single-tenant address stream.
"""

from __future__ import annotations

from typing import List

from ..arch.kernel import Kernel, MemoryInstruction, TBTrace, WarpTrace
from ..workloads.registry import cached_benchmark
from .tenant import ADDRESS_SPACE_BITS, TenancySpec, Tenant


def relocate_kernel(kernel: Kernel, asid: int) -> Kernel:
    """Rebuild ``kernel`` with every transaction address offset into the
    tenant's address space.  ASID 0 returns the kernel unchanged (same
    object — relocation by zero must not perturb anything)."""
    if asid == 0:
        return kernel
    offset = asid << ADDRESS_SPACE_BITS
    tbs = [
        TBTrace(
            tb.tb_index,
            [
                WarpTrace(
                    [
                        MemoryInstruction(
                            instr.compute_gap,
                            tuple(addr + offset for addr in instr.transactions),
                            instr.is_write,
                        )
                        for instr in warp.instructions
                    ]
                )
                for warp in tb.warps
            ],
        )
        for tb in kernel.tbs
    ]
    return Kernel(
        name=kernel.name,
        threads_per_tb=kernel.threads_per_tb,
        tbs=tbs,
        registers_per_thread=kernel.registers_per_thread,
        shared_mem_per_tb=kernel.shared_mem_per_tb,
        warp_size=kernel.warp_size,
    )


def compose_tenants(spec: TenancySpec) -> List[Tenant]:
    """Build and relocate one kernel per tenant in ``spec.mix``."""
    tenants = []
    for asid, benchmark in enumerate(spec.mix):
        kernel = cached_benchmark(benchmark, spec.scale, spec.seed)
        tenants.append(
            Tenant(asid=asid, benchmark=benchmark,
                   kernel=relocate_kernel(kernel, asid))
        )
    return tenants
