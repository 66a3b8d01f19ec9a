"""Cross-model equivalence properties between TLB variants.

These pin down the design's degenerate cases: a partitioned TLB whose
single resident TB owns every set makes the same hit/miss decisions as
the baseline VPN-indexed TLB, and a compressed TLB with ratio 1 behaves
like an uncompressed one.  Regressions in the index-policy or storage
hooks show up here first.
"""

from hypothesis import given, settings, strategies as st

from repro.core.partitioned_tlb import TBIDIndexPolicy
from repro.translation.compression import CompressedTLB
from repro.translation.tlb import SetAssociativeTLB

access_streams = st.lists(
    st.integers(min_value=0, max_value=2000), min_size=1, max_size=400
)


def run_stream(tlb, vpns, tb_id=None):
    outcomes = []
    for vpn in vpns:
        result = tlb.probe(vpn, tb_id)
        if not result.hit:
            tlb.insert(vpn, vpn + 1, tb_id)
        outcomes.append(result.hit)
    return outcomes


@given(access_streams)
@settings(max_examples=40)
def test_partitioned_with_occupancy_one_matches_baseline(vpns):
    """One TB owning all 16 sets spreads by vpn%16 — exactly the baseline
    indexing — so hit/miss sequences must be identical."""
    baseline = SetAssociativeTLB(64, 4, 1.0)
    partitioned = SetAssociativeTLB(64, 4, 1.0, policy=TBIDIndexPolicy(16))
    partitioned.configure_occupancy(1)
    assert run_stream(baseline, vpns) == run_stream(partitioned, vpns, tb_id=0)


@given(access_streams)
@settings(max_examples=40)
def test_compressed_ratio_one_matches_uncompressed(vpns):
    """With max_ratio=1 no coalescing is possible: the compressed TLB
    must make the same hit/miss decisions as the plain one."""
    plain = SetAssociativeTLB(64, 4, 1.0)
    compressed = CompressedTLB(64, 4, 1.0, max_ratio=1)
    assert run_stream(plain, vpns) == run_stream(compressed, vpns)


@given(access_streams)
@settings(max_examples=40)
def test_compression_never_reduces_hits(vpns):
    """With identity-contiguous mappings, coalescing strictly adds reach:
    the compressed TLB's hit count must be >= the plain TLB's."""
    plain = SetAssociativeTLB(64, 4, 1.0)
    compressed = CompressedTLB(64, 4, 1.0, max_ratio=8)
    plain_hits = sum(run_stream(plain, vpns))
    comp_hits = sum(run_stream(compressed, vpns))
    assert comp_hits >= plain_hits


@given(access_streams, st.integers(min_value=1, max_value=16))
@settings(max_examples=40)
def test_partitioned_occupancy_never_leaks_between_tbs(vpns, occupancy):
    """Whatever the occupancy, a TB never hits on a page only another TB
    inserted (sharing disabled)."""
    tlb = SetAssociativeTLB(64, 4, 1.0, policy=TBIDIndexPolicy(16))
    tlb.configure_occupancy(occupancy)
    run_stream(tlb, vpns, tb_id=0)
    other = occupancy  # a TB id in a different slot when occupancy < 16
    if occupancy < 16:
        fresh = SetAssociativeTLB(64, 4, 1.0, policy=TBIDIndexPolicy(16))
        fresh.configure_occupancy(occupancy)
        run_stream(fresh, vpns, tb_id=0)
        for vpn in set(vpns):
            assert not fresh.contains(vpn, tb_id=1 % occupancy) or occupancy == 1


def test_parallel_sweep_digest_matches_sequential():
    """Fixed-seed full-simulation digest: a sweep fanned out over
    parallel supervised workers must produce byte-identical per-cell
    stats JSON to the same sweep run sequentially in-process — the
    end-to-end determinism contract the parallel runner promises."""
    import json

    from repro.experiments.runner import ExperimentRunner

    cells = [
        ("bfs", "baseline"),
        ("bfs", "partition"),
        ("bfs", "partition_sharing"),
    ]

    def digest(parallel):
        runner = ExperimentRunner(scale="micro", seed=0, parallel=parallel)
        runner.prefetch(cells)
        return {
            f"{bench}:{cfg}": json.dumps(
                runner.run(bench, cfg).to_dict(), sort_keys=True
            )
            for bench, cfg in cells
        }

    assert digest(1) == digest(3)
