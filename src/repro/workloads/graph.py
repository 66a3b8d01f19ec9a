"""Synthetic power-law graph in CSR form.

Stand-in for the coPapersCiteseer citation graph the paper feeds bfs,
color, mis, and pagerank (DESIGN.md substitution table).  A
preferential-attachment process produces the skewed degree distribution
(hubs) that drives the graph benchmarks' TLB behaviour: neighbour
accesses concentrate on hub property pages (intra-TB reuse) while
spreading over the whole id range (large reuse distances).
"""

from __future__ import annotations

import contextlib
import io
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class CSRGraph:
    """Compressed-sparse-row undirected graph."""

    num_nodes: int
    row_ptr: np.ndarray   # int64, len = num_nodes + 1
    col_idx: np.ndarray   # int32, len = num_edges (directed arcs)

    @property
    def num_arcs(self) -> int:
        return int(self.col_idx.shape[0])

    def degree(self, v: int) -> int:
        return int(self.row_ptr[v + 1] - self.row_ptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        return self.col_idx[self.row_ptr[v]: self.row_ptr[v + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.row_ptr)

    def validate(self) -> None:
        if self.row_ptr.shape[0] != self.num_nodes + 1:
            raise ValueError("row_ptr length mismatch")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != self.num_arcs:
            raise ValueError("row_ptr endpoints inconsistent")
        if np.any(np.diff(self.row_ptr) < 0):
            raise ValueError("row_ptr not monotonic")
        if self.num_arcs and (
            self.col_idx.min() < 0 or self.col_idx.max() >= self.num_nodes
        ):
            raise ValueError("col_idx out of range")


def generate_power_law_graph(
    num_nodes: int, edges_per_node: int = 8, seed: int = 0
) -> CSRGraph:
    """Barabási–Albert preferential attachment, undirected CSR output.

    Each new node attaches to ``edges_per_node`` existing nodes chosen
    proportionally to degree (repeated-endpoint sampling), yielding a
    power-law degree distribution with hubs among the low node ids —
    the same skew a citation graph shows.
    """
    if num_nodes <= edges_per_node:
        raise ValueError(
            f"need more than {edges_per_node} nodes, got {num_nodes}"
        )
    rng = np.random.default_rng(seed)
    m = edges_per_node
    # Repeated-endpoint pool: every edge contributes both endpoints, so
    # sampling uniformly from the pool is degree-proportional sampling.
    pool = np.empty(2 * m * (num_nodes + 1), dtype=np.int64)
    fill = 0
    src_list = []
    dst_list = []
    # Seed ring over the first m nodes.
    for i in range(m):
        j = (i + 1) % m
        src_list.append(i)
        dst_list.append(j)
        pool[fill] = i
        pool[fill + 1] = j
        fill += 2
    for v in range(m, num_nodes):
        picks = pool[rng.integers(0, fill, size=m)]
        for u in np.unique(picks):
            src_list.append(v)
            dst_list.append(int(u))
            pool[fill] = v
            pool[fill + 1] = u
            fill += 2
    src = np.asarray(src_list, dtype=np.int64)
    dst = np.asarray(dst_list, dtype=np.int64)
    # Relabel nodes with a random permutation: citation-graph node ids do
    # not correlate with degree, so hubs must not cluster at low ids
    # (which preferential attachment would otherwise produce).
    perm = rng.permutation(num_nodes).astype(np.int64)
    src = perm[src]
    dst = perm[dst]
    # Undirected: mirror every edge, then build CSR with bincount/argsort.
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    order = np.argsort(all_src, kind="stable")
    all_src = all_src[order]
    all_dst = all_dst[order]
    counts = np.bincount(all_src, minlength=num_nodes)
    row_ptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    graph = CSRGraph(num_nodes, row_ptr, all_dst.astype(np.int32))
    graph.validate()
    return graph


#: bump whenever :func:`generate_power_law_graph` changes its output
GENERATOR_VERSION = 1


def _cache_dir() -> Path:
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        return Path(root)
    return Path.home() / ".cache" / "repro"


def cached_power_law_graph(
    num_nodes: int, edges_per_node: int = 8, seed: int = 0
) -> CSRGraph:
    """Disk-cached :func:`generate_power_law_graph`.

    All four graph benchmarks at one scale share one graph, and separate
    processes (pytest, benchmarks, examples) reuse it via an ``.npz``
    cache keyed by (generator version, nodes, edges-per-node, seed),
    read and written through the storage shim.  An entry that fails to
    decode or validate (torn write, bit rot) is moved aside as
    ``.invalid`` and regenerated.
    """
    from ..engine.atomic import atomic_write
    from ..engine.storage import get_storage

    storage = get_storage()
    name = f"powerlaw_v{GENERATOR_VERSION}_n{num_nodes}_m{edges_per_node}"
    path = str(_cache_dir() / f"{name}_s{seed}.npz")
    try:
        with np.load(io.BytesIO(storage.read_bytes(path, "graph"))) as data:
            graph = CSRGraph(
                int(data["num_nodes"]), data["row_ptr"], data["col_idx"]
            )
        graph.validate()
        return graph
    except OSError:
        pass  # missing or unreadable: regenerate
    except (ValueError, KeyError, EOFError, zipfile.BadZipFile):
        with contextlib.suppress(OSError):
            storage.replace(path, path + ".invalid", "graph")
    graph = generate_power_law_graph(num_nodes, edges_per_node, seed)
    buffer = io.BytesIO()
    np.savez(
        buffer,
        num_nodes=np.int64(graph.num_nodes),
        row_ptr=graph.row_ptr,
        col_idx=graph.col_idx,
    )
    with contextlib.suppress(OSError):
        # the cache is an optimization only; never fail the build over it
        atomic_write(path, buffer.getvalue(), layer="graph")
    return graph
