"""Multi-tenant MIG-style co-scheduling, per-tenant translation, and
isolation metrics (DESIGN.md §12).

The machine comes from the one builder, :func:`repro.system.build_gpu`;
a spec only swaps in the tenant-aware parts
(:class:`~repro.tenancy.machine.TenantParts`).

Quickstart::

    from repro import build_gpu
    from repro.tenancy import TenancySpec, PartitionMode
    from repro.experiments.configs import get_config

    spec = TenancySpec(mix=("bfs", "gemm"), mode=PartitionMode.SUB_ENTRY)
    gpu = build_gpu(get_config("baseline"), tenancy=spec)
    result = gpu.run_tenants()
    for t in result.tenants:
        print(t.benchmark, t.ipc, t.l1_tlb_hit_rate)
    print(result.fairness_index, result.cross_tenant_evictions)
"""

from .compose import compose_tenants, relocate_kernel
from .machine import MultiTenantGPU
from .memory import TenantAffinityMemory
from .metrics import TenancyResult, TenantMetrics, jain_fairness
from .router import ASIDRouter
from .tenant import (
    ADDRESS_SPACE_BITS,
    PARTITION_MODES,
    PPN_TAG_SHIFT,
    PartitionMode,
    TenancySpec,
    Tenant,
    expand_mix,
    parse_partition_mode,
    vpn_tag_shift,
)

__all__ = [
    "ADDRESS_SPACE_BITS",
    "ASIDRouter",
    "MultiTenantGPU",
    "PARTITION_MODES",
    "PPN_TAG_SHIFT",
    "PartitionMode",
    "TenancyResult",
    "TenancySpec",
    "Tenant",
    "TenantAffinityMemory",
    "TenantMetrics",
    "compose_tenants",
    "expand_mix",
    "jain_fairness",
    "parse_partition_mode",
    "relocate_kernel",
    "vpn_tag_shift",
]
