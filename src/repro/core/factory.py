"""Factories mapping a :class:`~repro.arch.config.GPUConfig` to the
concrete L1 TLB and sharing-register objects each SM gets."""

from __future__ import annotations

from typing import Optional

from ..arch.config import CompressionKind, GPUConfig, L1TLBMode, SharingPolicyKind
from ..engine.stats import StatGroup
from ..translation.compression import CompressedTLB, ContiguityTLB
from ..translation.tlb import (
    DeadEntryFilter,
    IndexPolicy,
    SetAssociativeTLB,
    VPNIndexPolicy,
)
from .partitioned_tlb import TBIDIndexPolicy
from .set_sharing import (
    AllToAllSharingRegister,
    CounterSharingRegister,
    SharingRegister,
)


def build_sharing_register(config: GPUConfig) -> SharingRegister:
    """Sharing register per the configured policy variant."""
    capacity = config.max_tbs_per_sm
    if config.sharing_policy is SharingPolicyKind.ONE_BIT:
        return SharingRegister(capacity)
    if config.sharing_policy is SharingPolicyKind.COUNTER:
        return CounterSharingRegister(capacity, config.sharing_counter_threshold)
    if config.sharing_policy is SharingPolicyKind.ALL_TO_ALL:
        return AllToAllSharingRegister(capacity)
    raise ValueError(f"unknown sharing policy {config.sharing_policy!r}")


def _l1_policy(config: GPUConfig, granularity: int = 1) -> IndexPolicy:
    """The L1 index policy: VPN bits, or TB ids (with the configured
    sharing register under ``PARTITIONED_SHARING``)."""
    mode = config.l1_tlb_mode
    num_sets = config.l1_tlb_entries // config.l1_tlb_assoc
    if mode is L1TLBMode.BASELINE:
        return VPNIndexPolicy(num_sets, granularity=granularity)
    if mode is L1TLBMode.PARTITIONED:
        return TBIDIndexPolicy(num_sets, granularity=granularity)
    if mode is L1TLBMode.PARTITIONED_SHARING:
        return TBIDIndexPolicy(
            num_sets,
            sharing=build_sharing_register(config),
            granularity=granularity,
        )
    raise ValueError(f"unknown L1 TLB mode {mode!r}")


def build_l1_tlb(
    config: GPUConfig, stats: Optional[StatGroup] = None, name: str = "l1_tlb"
) -> SetAssociativeTLB:
    """Construct one SM's L1 TLB from its parts.

    The entry format picks the class (per-page, stride ranges or
    subregion-contiguity bitmaps); the index policy and the replacement
    order are constructor arguments; a dead-entry filter is attached on
    top.  Large-reach formats group ``compression_max_ratio`` VPNs per
    set so coalescible pages share one.
    """
    cls = SetAssociativeTLB
    granularity = 1
    format_args = {}
    if config.l1_tlb_compression:
        cls = (
            ContiguityTLB
            if config.compression_kind is CompressionKind.CONTIGUITY
            else CompressedTLB
        )
        granularity = config.compression_max_ratio
        format_args = dict(
            max_ratio=config.compression_max_ratio,
            decompression_latency=config.compression_latency,
        )
    tlb = cls(
        config.l1_tlb_entries,
        config.l1_tlb_assoc,
        config.l1_tlb_latency,
        policy=_l1_policy(config, granularity),
        stats=stats,
        name=name,
        replacement=config.l1_tlb_replacement.value,
        **format_args,
    )
    if config.l1_tlb_dead_entry:
        # GPUConfig.__post_init__ already refused dead-entry + compression,
        # so the filter only ever sees per-page storage.
        tlb.attach_dead_filter(
            DeadEntryFilter(config.dead_entry_threshold, stats=tlb.stats)
        )
    return tlb
