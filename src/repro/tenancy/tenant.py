"""Tenant model: address-space ids, partition modes, tenancy specs.

A *tenant* is one kernel with its own page table and address-space id
(ASID), co-resident on the GPU with other tenants — the MIG/SR-IOV
instance model of the AMD Instinct partitioning guide and the
sub-entry-sharing follow-up paper (arXiv 2404.18361).

Address-space layout
--------------------
Tenant isolation is carried in the addresses themselves: tenant ``t``'s
kernel is relocated by ``t << ADDRESS_SPACE_BITS`` at compose time, so
every virtual byte address, VPN, and (after the ASID router re-tags it)
PPN identifies its owner in the high bits.  Tenant 0's offset is zero,
which is what makes the one-tenant exclusive configuration *bit*-identical
to the single-tenant machine — the ``tenancy-identity`` metamorphic suite
enforces that.

* byte addresses: ASID at bit ``ADDRESS_SPACE_BITS`` (48)
* VPNs: ASID at bit ``48 - page offset bits`` (36 for 4 KB pages)
* PPNs: ASID at bit ``PPN_TAG_SHIFT`` (42 — above the 40-bit frame-hash
  range of the fragmented allocator, so tags never collide with frames)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..arch.config import BASELINE_CONFIG, GPUConfig
from ..arch.kernel import Kernel
from ..engine.errors import ConfigError
from ..translation.uvm import UVMManager

#: Bit position of the ASID tag in byte addresses.  48 bits of private
#: virtual address space per tenant covers every generator footprint.
ADDRESS_SPACE_BITS = 48

#: Bit position of the ASID tag in physical frame numbers.  The
#: fragmented allocator hashes frames into 40 bits; 42 leaves headroom.
PPN_TAG_SHIFT = 42


def vpn_tag_shift(offset_bits: int) -> int:
    """Bit position of the ASID tag in VPNs for a page geometry."""
    return ADDRESS_SPACE_BITS - offset_bits


class PartitionMode(enum.Enum):
    """How tenants share (or don't) SMs, TLBs, and memory partitions.

    Modeled on the MIG / AMD SPX-vs-CPX axis:

    * ``EXCLUSIVE`` — MIG/SPX-style spatial isolation: disjoint SM
      slices, tenant-sliced L2 TLB sets, NPS-style memory-partition
      affinity.  Strict: the sanitizer's ``tenant.cross_tlb`` invariant
      holds.
    * ``SHARED_TLB`` — CPX-style temporal sharing: all SMs and TLB sets
      shared; ASID-tagged entries compete and cross-evict.
    * ``SUB_ENTRY`` — shared SMs plus the sub-entry-sharing TLB of
      arXiv 2404.18361: co-tenant translations of one base page share a
      single tag + LRU slot.
    """

    EXCLUSIVE = "exclusive"
    SHARED_TLB = "shared-tlb"
    SUB_ENTRY = "sub-entry"


#: CLI spellings, in the order the help text shows them.
PARTITION_MODES: Tuple[str, ...] = tuple(m.value for m in PartitionMode)


def parse_partition_mode(name: str) -> PartitionMode:
    try:
        return PartitionMode(name)
    except ValueError:
        raise ConfigError(
            f"unknown partition mode {name!r}; choose from {PARTITION_MODES}"
        ) from None


#: L1 TLB fields the shared modes' own TLBs cannot honour
_SHARED_MODE_L1_FIELDS = (
    "l1_tlb_mode",
    "l1_tlb_compression",
    "l1_tlb_dead_entry",
    "l1_tlb_replacement",
)


def check_shared_mode_config(mode: PartitionMode, config: GPUConfig) -> None:
    """Refuse an L1 TLB mechanism a shared partition mode would drop.

    ``shared-tlb`` and ``sub-entry`` build their own tenant-shared L1
    TLBs, so a config that asks for partitioning, compression, dead-entry
    protection or another replacement order would otherwise run (and be
    reported) under its name without any of it.
    """
    if mode is PartitionMode.EXCLUSIVE:
        return
    changed = [
        name
        for name in _SHARED_MODE_L1_FIELDS
        if getattr(config, name) != getattr(BASELINE_CONFIG, name)
    ]
    if changed:
        raise ConfigError(
            f"partition mode {mode.value!r} builds its own shared L1 TLB "
            f"and cannot honour {', '.join(changed)}; use a config with "
            f"the baseline L1 TLB or --partition-mode exclusive",
            field=changed[0],
        )


@dataclass
class Tenant:
    """One co-resident tenant: relocated kernel + private translation.

    Built by :func:`repro.tenancy.compose.compose_tenants`; the ``uvm``
    (own page table + demand paging) is attached when the machine is
    assembled.
    """

    asid: int
    benchmark: str
    kernel: Kernel
    uvm: Optional[UVMManager] = None

    @property
    def num_tbs(self) -> int:
        return len(self.kernel.tbs)


@dataclass(frozen=True)
class TenancySpec:
    """A tenancy scenario: which workloads co-run and how they share.

    ``mix`` lists one benchmark name per tenant (ASID = position).
    """

    mix: Tuple[str, ...]
    mode: PartitionMode = PartitionMode.EXCLUSIVE
    scale: str = "small"
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= len(self.mix) <= 8:
            raise ConfigError(
                f"tenant count must be 1..8, got {len(self.mix)}"
            )

    @property
    def num_tenants(self) -> int:
        return len(self.mix)

    def describe(self) -> dict:
        """JSON-compatible composition record (manifest hashing, CLI)."""
        return {
            "tenants": list(range(self.num_tenants)),
            "mix": list(self.mix),
            "mode": self.mode.value,
            "scale": self.scale,
            "seed": self.seed,
        }


def expand_mix(
    benchmark: str,
    tenants: int,
    mix: Optional[List[str]] = None,
) -> Tuple[str, ...]:
    """Resolve the CLI's ``--tenants N [--tenant-mix a,b,...]`` to one
    benchmark per tenant: an explicit mix is cycled to length ``N``;
    otherwise every tenant runs ``benchmark``."""
    if tenants <= 0:
        raise ConfigError(f"--tenants must be positive, got {tenants}")
    if mix:
        return tuple(mix[i % len(mix)] for i in range(tenants))
    return (benchmark,) * tenants
