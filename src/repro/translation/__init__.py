"""Address-translation substrate: TLBs, page table, walkers, UVM."""

from .address import (
    GB,
    GEOMETRY_2M,
    GEOMETRY_4K,
    KB,
    MB,
    PAGE_2M,
    PAGE_4K,
    PageGeometry,
)
from .compression import CompressedTLB, ContiguityTLB
from .page_table import PageTable, WalkOutcome
from .pagesize import (
    FragmentationReport,
    MosaicAllocator,
    fragmentation_from_addresses,
    geometry_for,
)
from .registry import (
    ZOO_SPECS,
    Component,
    PolicyRegistry,
    default_registry,
    resolve_spec,
    zoo_matrix,
)
from .service import SharedTranslationService
from .tlb import (
    DeadEntryFilter,
    IndexPolicy,
    SetAssociativeTLB,
    SubEntrySharedTLB,
    TenantAccounting,
    TLBProbeResult,
    VPNIndexPolicy,
)
from .uvm import AllocationPolicy, UVMManager
from .walker import WalkerPool

__all__ = [
    "AllocationPolicy",
    "Component",
    "CompressedTLB",
    "ContiguityTLB",
    "DeadEntryFilter",
    "FragmentationReport",
    "MosaicAllocator",
    "PolicyRegistry",
    "ZOO_SPECS",
    "GB",
    "GEOMETRY_2M",
    "GEOMETRY_4K",
    "IndexPolicy",
    "KB",
    "MB",
    "PAGE_2M",
    "PAGE_4K",
    "PageGeometry",
    "PageTable",
    "SetAssociativeTLB",
    "SharedTranslationService",
    "SubEntrySharedTLB",
    "TLBProbeResult",
    "TenantAccounting",
    "UVMManager",
    "VPNIndexPolicy",
    "WalkOutcome",
    "WalkerPool",
    "default_registry",
    "fragmentation_from_addresses",
    "geometry_for",
    "resolve_spec",
    "zoo_matrix",
]
