"""Multi-tenant MIG-style co-scheduling, per-tenant translation, and
isolation metrics (DESIGN.md §12).

Quickstart::

    from repro.tenancy import TenancySpec, PartitionMode, build_tenant_gpu
    from repro.experiments.configs import get_config

    spec = TenancySpec(mix=("bfs", "gemm"), mode=PartitionMode.SUB_ENTRY)
    gpu = build_tenant_gpu(spec, get_config("baseline"))
    result = gpu.run_tenants()
    for t in result.tenants:
        print(t.benchmark, t.ipc, t.l1_tlb_hit_rate)
    print(result.fairness_index, result.cross_tenant_evictions)
"""

from .compose import compose_tenants, relocate_kernel
from .machine import MultiTenantGPU, build_tenant_gpu
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
    "build_tenant_gpu",
    "compose_tenants",
    "expand_mix",
    "jain_fairness",
    "parse_partition_mode",
    "relocate_kernel",
    "vpn_tag_shift",
]
