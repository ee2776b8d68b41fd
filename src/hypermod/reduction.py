"""Graph reductions of a hypergraph.

Two expansions are provided. The plain clique expansion gives every pair of
nodes inside a hyperedge the full hyperedge weight, which inflates node
degrees by a factor of (degree - 1) per hyperedge. The degree-preserving
expansion divides each hyperedge weight by (degree - 1) instead, so row sums
of the resulting adjacency equal the weighted hypergraph node degrees. The
associated random-walk transition matrix (pick an incident hyperedge
proportional to weight, then a different member uniformly) is exposed for
verification.

Both reductions are H diag(s) H^T with a zero diagonal, for the n x m
incidence H and a per-hyperedge scale s. Hyperedges are split by size:

- small ones go through a sparse product, which costs the sum of their
  squared sizes (Σδ²), plus the handling of each output entry;
- the largest ones, when their Σδ² is predicted to cost more, go through
  one dense BLAS product, which costs n² multiply-adds per hyperedge,
  built a block of rows at a time.

The split is chosen per call from that predicted cost; with no hyperedge
above the cutoff only the sparse product runs. A ``ReducedGraph`` has one
of two layouts. The sparse product alone gives CSR with sorted indices.
The split build writes its row blocks into one n x n float64 array (8·n²
bytes) when a per-row bound predicts at least 2/3 fill, where a CSR entry
would cost 12 bytes, and n is at most ``DENSE_NODE_LIMIT``; otherwise it
scans the blocks into CSR with no n x n temporary. The output is
combinatorial in hyperedge size, so a dense copy is refused above
``DENSE_NODE_LIMIT`` nodes.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy import sparse

from .hypergraph import Hypergraph, degrees

__all__ = [
    "DENSE_NODE_LIMIT",
    "ReducedGraph",
    "clique_reduce",
    "degree_preserving_reduce",
    "random_walk_matrix",
]

DENSE_NODE_LIMIT = 20_000


def _row_sums(dense: np.ndarray) -> np.ndarray:
    """Sums of each row's nonzero cells in column order, added exactly as
    CSR ``sum(axis=1)`` adds the stored entries: one ``reduceat`` per block
    of ``_BLOCK_CELLS`` cells, which no row spans, so blocks change no bits."""
    sums = np.zeros(dense.shape[0])
    rows = max(1, _BLOCK_CELLS // max(1, dense.shape[1]))
    for r0 in range(0, dense.shape[0], rows):
        block = dense[r0 : r0 + rows]
        nonzero = block != 0.0
        counts = np.count_nonzero(nonzero, axis=1)
        starts = np.cumsum(counts) - counts
        filled = counts > 0
        sums[r0 : r0 + rows][filled] = np.add.reduceat(block[nonzero], starts[filled])
    return sums


class ReducedGraph:
    """Symmetric weighted adjacency with cached degrees.

    ``node_degrees`` are exact row sums, taken here for either layout, and
    ``total_weight_2m`` their total. Hypergraph reductions produce a zero
    diagonal; aggregated graphs built during optimization keep
    intra-cluster weight as self-loops.

    The layout is a sparse matrix, kept as sorted CSR with no stored zero
    (a CSR argument is sorted and cleared of zeros in place), or an n x n
    array, kept as ``dense``; ``dense`` is None for CSR. ``adjacency`` is
    CSR for both: a dense layout builds it on first read and caches it,
    so code that reads the graph through its methods never builds it.
    Dense row sums have the bits of that CSR's ``sum(axis=1)``.
    """

    def __init__(self, adjacency):
        if isinstance(adjacency, np.ndarray):
            self.dense = adjacency
            node_degrees = _row_sums(adjacency)
        else:
            adjacency = adjacency.tocsr()
            adjacency.sort_indices()
            adjacency.eliminate_zeros()
            self.dense = None
            self.adjacency = adjacency
            node_degrees = np.asarray(adjacency.sum(axis=1)).ravel()
        self.n = adjacency.shape[0]
        self.node_degrees = node_degrees
        self.total_weight_2m = float(node_degrees.sum())

    @cached_property
    def adjacency(self):
        adjacency = sparse.csr_matrix(self.dense)
        adjacency.sort_indices()
        return adjacency

    @cached_property
    def self_loops(self):
        if self.dense is not None:
            return self.dense.diagonal()
        return self.adjacency.diagonal()

    def submatrix(self, nodes):
        """Adjacency among ``nodes`` (indices or a mask) in this layout."""
        if self.dense is not None:
            return self.dense[np.ix_(nodes, nodes)]
        return self.adjacency[nodes][:, nodes]

    def to_dense(self) -> np.ndarray:
        """A new dense copy of the adjacency."""
        if self.n > DENSE_NODE_LIMIT:
            raise ValueError(
                f"refusing dense form for {self.n} nodes (limit {DENSE_NODE_LIMIT})"
            )
        if self.dense is not None:
            return self.dense.copy()
        return self.adjacency.toarray()

    def __repr__(self):
        dense = self.dense
        nnz = self.adjacency.nnz if dense is None else np.count_nonzero(dense)
        return (
            f"ReducedGraph(n={self.n}, nnz={nnz},"
            f" total_weight_2m={self.total_weight_2m:g})"
        )


# Hyperedges of at most this many nodes always take the sparse product.
_SPARSE_MAX_SIZE = 64
# Predicted CPU costs relative to one multiply-add of the sparse product on a
# near-full output (about 15 ns, output handling included; 2-core x86-64,
# OpenBLAS 0.3): a BLAS multiply-add takes about 0.075 ns, and scanning one
# dense cell into CSR about 7 ns.
_GEMM_COST = 0.005
_SCAN_COST = 0.5
# Dense cells per row block of the split build and of dense row sums (2 MB).
_BLOCK_CELLS = 1 << 18


def _dense_edges(delta: np.ndarray, n: int):
    """Mask of the hyperedges to sum by one BLAS product, or None.

    Moving the k largest hyperedges to the dense product saves their sparse
    cost, the sum of their squared sizes, and costs n*n*k BLAS
    multiply-adds plus one scan of all n*n dense cells. The k with the
    largest predicted saving wins. A cut never splits a size class, keeps
    every hyperedge of at most ``_SPARSE_MAX_SIZE`` nodes sparse and moves
    at most n hyperedges, so the dense factor is never larger than an n x n
    output.
    """
    if delta.size == 0 or delta.max() <= _SPARSE_MAX_SIZE:
        return None
    order = np.sort(delta)[::-1]
    cut = order > _SPARSE_MAX_SIZE
    cut[:-1] &= order[:-1] > order[1:]
    cut[n:] = False
    k = np.arange(1, order.size + 1)
    saving = np.cumsum(order.astype(np.float64) ** 2) - float(n) * n * (
        _GEMM_COST * k + _SCAN_COST
    )
    candidates = np.flatnonzero(cut & (saving > 0))
    if candidates.size == 0:
        return None
    best = candidates[np.argmax(saving[candidates])]
    return delta >= order[best]


def _expand(g: Hypergraph, edge_scale: np.ndarray) -> ReducedGraph:
    """H diag(edge_scale) H^T with the diagonal removed."""
    H = g.incidence()
    Hs = H.copy()
    Hs.data = Hs.data * edge_scale[Hs.indices]
    large = _dense_edges(g.edge_degrees, g.n)
    if large is not None:
        return _expand_split(g, Hs, edge_scale, large)
    prod = Hs @ H.T
    return ReducedGraph(prod - sparse.diags(prod.diagonal()))


def _expand_split(g: Hypergraph, Hs, edge_scale: np.ndarray, large: np.ndarray):
    """``_expand`` with the ``large`` hyperedges summed by BLAS.

    Rows are built one block at a time: the sparse product of the block's
    rows over the small hyperedges, densified, plus the BLAS product of the
    block's rows of the dense large-edge incidence with all of it. A per-row
    bound on the entries picks the layout. At 2/3 fill or more, and at most
    ``DENSE_NODE_LIMIT`` nodes, the blocks are written into one n x n array.
    There the sparse products of all blocks run first, then the BLAS
    products, and only then does ``ReducedGraph`` sum the rows: BLAS threads
    left idle between two calls spin, so a single-threaded step run between
    them costs twice its time in CPU. Otherwise each block is scanned
    straight into CSR arrays sized by the bound, and no n x n temporary is
    formed. Both layouts store the same values.
    """
    n = g.n
    H = g.incidence()
    small_left = Hs[:, ~large].tocsr()
    small_right = H[:, ~large].T.tocsr()
    dense = H[:, large].toarray()
    dense_scale = edge_scale[large]

    # Row i has at most min(n - 1, sum over its edges of (size - 1)) entries.
    bound = np.minimum(n - 1, H @ (g.edge_degrees - 1.0)).astype(np.int64)
    capacity = int(bound.sum())
    rows = max(1, _BLOCK_CELLS // n)
    blocks = [(r0, min(n, r0 + rows)) for r0 in range(0, n, rows)]
    if 3 * capacity >= 2 * n * n and n <= DENSE_NODE_LIMIT:
        out = np.empty((n, n))
        for r0, r1 in blocks:
            (small_left[r0:r1] @ small_right).toarray(out=out[r0:r1])
        for r0, r1 in blocks:
            out[r0:r1] += (dense[r0:r1] * dense_scale) @ dense.T
        np.fill_diagonal(out, 0.0)
        return ReducedGraph(out)
    index_dtype = np.int32 if capacity < 2**31 else np.int64
    data = np.empty(capacity)
    indices = np.empty(capacity, dtype=index_dtype)
    indptr = np.zeros(n + 1, dtype=index_dtype)
    columns = np.broadcast_to(np.arange(n, dtype=index_dtype), (rows, n)).copy()
    end = 0
    for r0, r1 in blocks:
        block = (small_left[r0:r1] @ small_right).toarray()
        block += (dense[r0:r1] * dense_scale) @ dense.T
        block[np.arange(r1 - r0), np.arange(r0, r1)] = 0.0
        mask = block != 0.0
        start, end = end, end + int(np.count_nonzero(mask))
        data[start:end] = block[mask]
        indices[start:end] = columns[: r1 - r0][mask]
        indptr[r0 + 1 : r1 + 1] = start + np.cumsum(np.count_nonzero(mask, axis=1))
    # Shrinking in place releases the unused tail without a second copy.
    data.resize(end, refcheck=False)
    indices.resize(end, refcheck=False)
    return ReducedGraph(sparse.csr_matrix((data, indices, indptr), shape=(n, n)))


def clique_reduce(g: Hypergraph) -> ReducedGraph:
    """Clique expansion: every in-edge pair gets the hyperedge weight."""
    return _expand(g, g.weights)


def degree_preserving_reduce(g: Hypergraph) -> ReducedGraph:
    """Expansion scaled per hyperedge by 1/(degree - 1).

    Row sums of the result equal the weighted hypergraph node degrees
    (checked to 1e-9 relative). Requires every hyperedge to have at least
    two nodes, i.e. a preprocessed hypergraph.

    Hyperedges of size δ up to a cutoff are summed by a sparse product
    costing Σδ² over them; larger ones, when present, by one BLAS product
    costing n² multiply-adds each, built one block of rows at a time. The
    cutoff (never below 65 nodes) is chosen per call from those two
    predicted costs. With no hyperedge above it the result is exactly the
    sparse product's, as CSR; otherwise entries differ from it only by
    summation order, and a result predicted to be at least 2/3 full is kept
    as a dense n x n array (8·n² bytes), with the same values and degrees
    that CSR would hold.
    """
    delta = g.edge_degrees
    if int(delta.min()) < 2:
        raise ValueError(
            "degree-preserving reduction needs every hyperedge degree >= 2;"
            " run preprocess() first"
        )
    reduced = _expand(g, g.weights / (delta - 1.0))
    expected = degrees(g).node_degrees
    if not np.allclose(reduced.node_degrees, expected, rtol=1e-9, atol=1e-12):
        raise RuntimeError(
            "row sums of the degree-preserving reduction drifted from the"
            " hypergraph node degrees"
        )
    return reduced


def random_walk_matrix(g: Hypergraph):
    """Row-stochastic transition matrix of the hypergraph random walk.

    Step from node i: choose an incident hyperedge proportional to weight,
    then one of its other members uniformly. That is D⁻¹A, for A the
    degree-preserving reduction and D the weighted node degrees. Returns a
    CSR matrix whose rows sum to 1.
    """
    d = degrees(g).node_degrees
    if np.any(d <= 0):
        raise ValueError("isolated node: every node must belong to a hyperedge")
    walk = degree_preserving_reduce(g).adjacency
    walk.data /= np.repeat(d, np.diff(walk.indptr))
    return walk

