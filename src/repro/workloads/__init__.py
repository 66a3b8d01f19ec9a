"""Synthetic trace generators for the paper's 10 benchmarks (Table II)."""

from .base import SCALES, AddressSpace, Scale, TraceBuilder, get_scale
from .graph import CSRGraph, cached_power_law_graph, generate_power_law_graph
from .graph_kernels import SPECS as GRAPH_SPECS
from .graph_kernels import make_graph_kernel
from .polybench import MV_SPECS, make_3dconv, make_gemm, make_matvec
from .registry import (
    BENCHMARKS,
    TABLE2,
    KERNEL_MEMO_SIZE,
    BenchmarkMeta,
    cached_benchmark,
    make_benchmark,
    register_benchmark,
    traced_footprint_bytes,
    traced_footprint_gb,
    unregister_benchmark,
)
from .rodinia import make_nw

__all__ = [
    "AddressSpace",
    "BENCHMARKS",
    "BenchmarkMeta",
    "CSRGraph",
    "GRAPH_SPECS",
    "KERNEL_MEMO_SIZE",
    "MV_SPECS",
    "SCALES",
    "Scale",
    "TABLE2",
    "TraceBuilder",
    "cached_benchmark",
    "cached_power_law_graph",
    "generate_power_law_graph",
    "get_scale",
    "make_3dconv",
    "make_benchmark",
    "make_gemm",
    "make_graph_kernel",
    "make_matvec",
    "make_nw",
    "register_benchmark",
    "traced_footprint_bytes",
    "traced_footprint_gb",
    "unregister_benchmark",
]
