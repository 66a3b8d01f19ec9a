"""Tests for the turn-key system assembly (repro.system)."""

import pytest

from repro import BASELINE_CONFIG, L1TLBMode, build_gpu
from repro.core.partitioned_tlb import TBIDIndexPolicy
from repro.core.factory import build_l1_tlb, build_sharing_register
from repro.core.set_sharing import (
    AllToAllSharingRegister,
    CounterSharingRegister,
    SharingRegister,
)
from repro.arch.config import SharingPolicyKind
from repro.experiments.configs import CONFIGS
from repro.translation.address import PAGE_2M
from repro.translation.compression import CompressedTLB, ContiguityTLB
from repro.translation.registry import ZOO_SPECS, resolve_spec
from repro.translation.tlb import SetAssociativeTLB, VPNIndexPolicy

_PAGE, _STRIDE, _CONTIG = SetAssociativeTLB, CompressedTLB, ContiguityTLB
_VPN, _TBID = VPNIndexPolicy, TBIDIndexPolicy

#: the parts build_l1_tlb must assemble for every named config, every
#: zoo spec and two extra registry specs (FIFO has no named config):
#: (format class, policy type, policy granularity, sharing register
#: type, dead filter attached, replacement)
L1_WIRING = {
    "baseline": (_PAGE, _VPN, 1, None, False, "lru"),
    "l1_256": (_PAGE, _VPN, 1, None, False, "lru"),
    "sched": (_PAGE, _VPN, 1, None, False, "lru"),
    "partition": (_PAGE, _TBID, 1, None, False, "lru"),
    "partition_sharing": (_PAGE, _TBID, 1, SharingRegister, False, "lru"),
    "compression": (_STRIDE, _VPN, 2, None, False, "lru"),
    "comp_ours": (_STRIDE, _TBID, 2, SharingRegister, False, "lru"),
    "huge_baseline": (_PAGE, _VPN, 1, None, False, "lru"),
    "huge_ours": (_PAGE, _TBID, 1, SharingRegister, False, "lru"),
    "dead_entry": (_PAGE, _VPN, 1, None, True, "lru"),
    "contiguity": (_CONTIG, _VPN, 8, None, False, "lru"),
    "mosaic": (_CONTIG, _VPN, 8, None, False, "lru"),
    "zoo_baseline": (_PAGE, _VPN, 1, None, False, "lru"),
    "zoo_dead_entry": (_PAGE, _VPN, 1, None, True, "lru"),
    "zoo_contiguity": (_CONTIG, _VPN, 8, None, False, "lru"),
    "zoo_frag": (_CONTIG, _VPN, 8, None, False, "lru"),
    "zoo_mosaic": (_CONTIG, _VPN, 8, None, False, "lru"),
    "repl=fifo": (_PAGE, _VPN, 1, None, False, "fifo"),
    "tlb=partitioned,repl=fifo,compress=contiguity": (
        _CONTIG, _TBID, 8, None, False, "fifo",
    ),
}


def _wired_config(name):
    if name in CONFIGS:
        return CONFIGS[name]
    return resolve_spec(ZOO_SPECS.get(name, name))


class TestFactory:
    def test_baseline_tlb(self):
        tlb = build_l1_tlb(BASELINE_CONFIG)
        assert type(tlb) is SetAssociativeTLB
        assert tlb.num_entries == 64

    def test_wiring_table_covers_every_config_and_spec(self):
        assert set(CONFIGS) | set(ZOO_SPECS) <= set(L1_WIRING)

    @pytest.mark.parametrize("name", sorted(L1_WIRING))
    def test_l1_wiring(self, name):
        fmt, policy, granularity, sharing, dead, replacement = L1_WIRING[name]
        tlb = build_l1_tlb(_wired_config(name))
        assert type(tlb) is fmt
        assert type(tlb.policy) is policy
        assert tlb.policy.granularity == granularity
        if sharing is None:
            assert tlb.sharing is None
        else:
            assert type(tlb.sharing) is sharing
        assert (tlb.dead_filter is not None) is dead
        assert tlb.replacement == replacement
        assert tlb.accounting is None

    def test_partitioned_sharing_tlb(self):
        cfg = BASELINE_CONFIG.replace(
            l1_tlb_mode=L1TLBMode.PARTITIONED_SHARING
        )
        tlb = build_l1_tlb(cfg)
        assert isinstance(tlb.sharing, SharingRegister)

    def test_sharing_register_variants(self):
        for kind, cls in [
            (SharingPolicyKind.ONE_BIT, SharingRegister),
            (SharingPolicyKind.COUNTER, CounterSharingRegister),
            (SharingPolicyKind.ALL_TO_ALL, AllToAllSharingRegister),
        ]:
            cfg = BASELINE_CONFIG.replace(sharing_policy=kind)
            assert type(build_sharing_register(cfg)) is cls


class TestBuildGPU:
    def test_structure_matches_config(self):
        gpu = build_gpu(BASELINE_CONFIG)
        assert len(gpu.sms) == 16
        assert gpu.l2_tlb.num_entries == 512
        assert gpu.walkers.num_walkers == 8
        assert gpu.partitions.num_partitions == 12

    def test_each_sm_gets_private_structures(self):
        gpu = build_gpu(BASELINE_CONFIG)
        tlbs = {id(sm.l1_tlb) for sm in gpu.sms}
        caches = {id(sm.memory.l1) for sm in gpu.sms}
        assert len(tlbs) == 16
        assert len(caches) == 16

    def test_shared_structures_are_shared(self):
        gpu = build_gpu(BASELINE_CONFIG)
        services = {id(sm.translation) for sm in gpu.sms}
        assert len(services) == 1

    def test_huge_page_geometry_propagates(self):
        gpu = build_gpu(BASELINE_CONFIG.replace(page_size=PAGE_2M))
        assert gpu.geometry.page_size == PAGE_2M
        assert gpu.walkers.uvm.geometry.page_size == PAGE_2M

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            BASELINE_CONFIG.replace(l1_tlb_entries=63)
        with pytest.raises(ValueError):
            BASELINE_CONFIG.replace(num_sms=0)
