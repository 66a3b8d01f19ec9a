"""Benchmark registry (paper Table II).

``make_benchmark(name, scale)`` builds any of the 10 benchmarks.  The
paper's suites/inputs/footprints are recorded here so the Table II
regeneration can print the paper's values next to the synthetic
generators' actual traced footprints.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from ..arch.kernel import Kernel, validate_kernel
from ..engine.errors import WorkloadError
from ..translation.address import GB, PAGE_4K
from .graph_kernels import make_graph_kernel
from .polybench import make_3dconv, make_gemm, make_matvec
from .rodinia import make_nw

#: Paper order (Table II).
BENCHMARKS: Tuple[str, ...] = (
    "bfs", "color", "mis", "nw", "pagerank",
    "3dconv", "atax", "bicg", "gemm", "mvt",
)


@dataclass(frozen=True)
class BenchmarkMeta:
    """Table II row: provenance of the original benchmark."""

    name: str
    application: str
    suite: str
    input_name: str
    paper_footprint_gb: float


TABLE2: Dict[str, BenchmarkMeta] = {
    "bfs": BenchmarkMeta("bfs", "Breadth-First Search", "Rodinia",
                         "citation", 107.48),
    "color": BenchmarkMeta("color", "Graph coloring centrality", "Pannotia",
                           "citation", 12.89),
    "mis": BenchmarkMeta("mis", "Maximal independent set", "Pannotia",
                         "citation", 8.44),
    "nw": BenchmarkMeta("nw", "Needleman-Wunsch", "Rodinia", "suite", 0.72),
    "pagerank": BenchmarkMeta("pagerank", "Page rank", "Pannotia",
                              "citation", 14.70),
    "3dconv": BenchmarkMeta("3dconv", "3D Convolution", "PolyBench",
                            "suite", 21.32),
    "atax": BenchmarkMeta("atax", "Matrix Transpose and Vector Multiplication",
                          "PolyBench", "suite", 4.51),
    "bicg": BenchmarkMeta("bicg", "BiCG Sub Kernel of BiCGStab Linear Solver",
                          "PolyBench", "suite", 3.76),
    "gemm": BenchmarkMeta("gemm", "Matrix Multiply", "PolyBench",
                          "suite", 18.28),
    "mvt": BenchmarkMeta("mvt", "Matrix Vector Product and Transpose",
                         "PolyBench", "suite", 4.38),
}

_FACTORIES: Dict[str, Callable[[str, int], Kernel]] = {}


#: kernels :data:`cached_benchmark` keeps; the least recently used one
#: is dropped first, so a long-lived process (the sweep daemon) stays
#: bounded while a report's ten benchmarks all fit
KERNEL_MEMO_SIZE = 16


class KernelMemo:
    """:func:`make_benchmark` memoized per (benchmark, scale, seed).

    A kernel is a pure function of that triple and no run writes to it,
    so every cell of a sweep can share one.  Supervised workers fork
    from the parent and inherit whatever it already generated.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        #: kernels generated through the memo (its misses)
        self.generated = 0
        self._kernels: "OrderedDict[Tuple[str, str, int], Kernel]" = (
            OrderedDict()
        )

    def __call__(self, name: str, scale: str, seed: int) -> Kernel:
        key = (name, scale, seed)
        kernel = self._kernels.pop(key, None)
        if kernel is None:
            # looked up as a module global at call time, so a wrapped
            # make_benchmark (a profiler's counter) sees each generation
            kernel = make_benchmark(name, scale=scale, seed=seed)
            self.generated += 1
        self._kernels[key] = kernel
        while len(self._kernels) > self.size:
            self._kernels.popitem(last=False)
        return kernel

    def forget(self, name: str) -> None:
        """Drop ``name``'s kernels (its generator was re-registered)."""
        for key in [key for key in self._kernels if key[0] == name]:
            del self._kernels[key]


cached_benchmark = KernelMemo(KERNEL_MEMO_SIZE)


def register_benchmark(
    name: str,
    factory: Callable[[str, int], Kernel],
    meta: BenchmarkMeta = None,
) -> None:
    """Register a benchmark generator under ``name``.

    Raises :class:`~repro.engine.errors.WorkloadError` if ``name`` is
    already taken — silently overwriting an earlier generator would make
    runs irreproducible (which factory produced the golden?).
    """
    if name in _FACTORIES:
        raise WorkloadError(
            f"benchmark {name!r} is already registered; pick a distinct "
            f"name or unregister_benchmark({name!r}) first"
        )
    _FACTORIES[name] = factory
    cached_benchmark.forget(name)
    if meta is not None:
        TABLE2[name] = meta


def unregister_benchmark(name: str) -> None:
    """Remove a registered benchmark (no-op if absent)."""
    _FACTORIES.pop(name, None)
    cached_benchmark.forget(name)


for _name, _factory in (
    ("bfs", lambda scale, seed: make_graph_kernel("bfs", scale, seed)),
    ("color", lambda scale, seed: make_graph_kernel("color", scale, seed)),
    ("mis", lambda scale, seed: make_graph_kernel("mis", scale, seed)),
    ("pagerank", lambda scale, seed: make_graph_kernel("pagerank", scale, seed)),
    ("nw", lambda scale, seed: make_nw(scale, seed)),
    ("3dconv", lambda scale, seed: make_3dconv(scale, seed)),
    ("atax", lambda scale, seed: make_matvec("atax", scale, seed)),
    ("bicg", lambda scale, seed: make_matvec("bicg", scale, seed)),
    ("gemm", lambda scale, seed: make_gemm(scale, seed)),
    ("mvt", lambda scale, seed: make_matvec("mvt", scale, seed)),
):
    register_benchmark(_name, _factory)
del _name, _factory


def make_benchmark(name: str, scale: str = "small", seed: int = 0) -> Kernel:
    """Build a benchmark kernel trace by Table II name.

    Raises :class:`~repro.engine.errors.WorkloadError` (a ``ValueError``
    subclass) for unknown names and trace-validation failures, so
    supervised sweeps classify workload problems distinctly.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise WorkloadError(
            f"unknown benchmark {name!r}; choose from {BENCHMARKS}"
        ) from None
    try:
        kernel = factory(scale, seed)
        validate_kernel(kernel)
    except WorkloadError:
        raise
    except ValueError as exc:
        raise WorkloadError(
            f"benchmark {name!r} at scale {scale!r} produced an invalid "
            f"trace: {exc}"
        ) from exc
    return kernel


def traced_footprint_bytes(kernel: Kernel) -> int:
    """Bytes of distinct 4 KB pages the traced TBs actually touch."""
    pages = {addr // PAGE_4K for addr in kernel.addresses()}
    return len(pages) * PAGE_4K


def traced_footprint_gb(kernel: Kernel) -> float:
    return traced_footprint_bytes(kernel) / GB
