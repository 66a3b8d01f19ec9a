"""Tests for the 10 benchmark generators (micro scale for speed)."""

import numpy as np
import pytest

from repro.arch.config import GPUConfig
from repro.arch.kernel import validate_kernel
from repro.characterization import intra_tb_intensity, tb_page_profiles
from repro.translation.address import PAGE_4K
from repro.workloads import (
    BENCHMARKS,
    TABLE2,
    generate_power_law_graph,
    get_scale,
    make_benchmark,
    traced_footprint_bytes,
)

SCALE = "micro"


@pytest.fixture(scope="module")
def kernels():
    return {name: make_benchmark(name, scale=SCALE) for name in BENCHMARKS}


class TestRegistry:
    def test_all_table2_benchmarks_exist(self):
        assert set(TABLE2) == set(BENCHMARKS)
        assert len(BENCHMARKS) == 10

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError):
            make_benchmark("nope")

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            get_scale("huge")


class TestGeneratedKernels:
    def test_kernels_validate(self, kernels):
        for kernel in kernels.values():
            validate_kernel(kernel)

    def test_kernels_deterministic(self):
        k1 = make_benchmark("bfs", scale=SCALE, seed=3)
        k2 = make_benchmark("bfs", scale=SCALE, seed=3)
        assert [list(tb.addresses()) for tb in k1.tbs] == [
            list(tb.addresses()) for tb in k2.tbs
        ]

    def test_seed_changes_graph_traces(self):
        k1 = make_benchmark("bfs", scale=SCALE, seed=0)
        k2 = make_benchmark("bfs", scale=SCALE, seed=1)
        assert [list(tb.addresses()) for tb in k1.tbs] != [
            list(tb.addresses()) for tb in k2.tbs
        ]

    def test_footprints_positive(self, kernels):
        for name, kernel in kernels.items():
            assert traced_footprint_bytes(kernel) > 0, name

    def test_transactions_line_aligned(self, kernels):
        for name, kernel in kernels.items():
            for addr in kernel.addresses():
                assert addr % 128 == 0, name

    def test_occupancy_schedulable(self, kernels):
        cfg = GPUConfig()
        for name, kernel in kernels.items():
            assert kernel.occupancy(cfg) >= 1, name

    def test_scales_order_sizes(self):
        micro = make_benchmark("gemm", scale="micro")
        tiny = make_benchmark("gemm", scale="tiny")
        assert tiny.total_transactions() >= micro.total_transactions()


class TestStructuralShape:
    def test_gemm_has_high_intra_tb_reuse(self, kernels):
        profiles = tb_page_profiles(kernels["gemm"])
        mean = sum(intra_tb_intensity(p) for p in profiles) / len(profiles)
        assert mean > 0.8

    def test_nw_is_compute_heavy(self, kernels):
        nw = kernels["nw"]
        gaps = [
            i.compute_gap
            for tb in nw.tbs for w in tb.warps for i in w.instructions
        ]
        assert max(gaps) >= 100.0

    def test_graph_kernels_are_divergent(self, kernels):
        """Neighbour gathers should produce multi-transaction instructions."""
        bfs = kernels["bfs"]
        multi = sum(
            1
            for tb in bfs.tbs for w in tb.warps for i in w.instructions
            if len(i.transactions) > 1
        )
        assert multi > 0

    def test_matvec_has_flood_instructions(self, kernels):
        atax = kernels["atax"]
        widths = [
            len(i.transactions)
            for tb in atax.tbs for w in tb.warps for i in w.instructions
        ]
        assert max(widths) == 32

    def test_benchmarks_touch_multiple_arrays(self, kernels):
        for name, kernel in kernels.items():
            regions = {
                addr >> 28 for addr in kernel.addresses()
            }
            assert len(regions) >= 2, name


class TestPowerLawGraph:
    def test_csr_valid(self):
        g = generate_power_law_graph(2000, edges_per_node=4, seed=1)
        g.validate()
        assert g.num_nodes == 2000

    def test_degrees_are_skewed(self):
        g = generate_power_law_graph(5000, edges_per_node=4, seed=1)
        degrees = sorted(g.degrees(), reverse=True)
        # Power law: the top node's degree dwarfs the median.
        assert degrees[0] > 10 * degrees[len(degrees) // 2]

    def test_undirected_symmetry(self):
        g = generate_power_law_graph(500, edges_per_node=3, seed=2)
        edges = set()
        for v in range(g.num_nodes):
            for u in g.neighbors(v):
                edges.add((v, int(u)))
        for v, u in edges:
            assert (u, v) in edges

    def test_too_small_graph_rejected(self):
        with pytest.raises(ValueError):
            generate_power_law_graph(4, edges_per_node=8)

    def test_deterministic_generation(self):
        g1 = generate_power_law_graph(1000, 4, seed=9)
        g2 = generate_power_law_graph(1000, 4, seed=9)
        assert (g1.col_idx == g2.col_idx).all()
        assert (g1.row_ptr == g2.row_ptr).all()


class TestGraphCache:
    def test_torn_cache_entry_is_regenerated(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        fresh = make_benchmark("bfs", scale=SCALE, seed=5)
        (entry,) = tmp_path.glob("*.npz")
        blob = entry.read_bytes()
        entry.write_bytes(blob[: len(blob) // 2])  # torn write

        again = make_benchmark("bfs", scale=SCALE, seed=5)
        assert [list(tb.addresses()) for tb in again.tbs] == [
            list(tb.addresses()) for tb in fresh.tbs
        ]
        with np.load(entry) as data:  # rewritten whole
            assert data["row_ptr"].shape[0] == int(data["num_nodes"]) + 1
        assert (tmp_path / (entry.name + ".invalid")).exists()
