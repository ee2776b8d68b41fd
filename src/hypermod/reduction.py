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
incidence H, read as its transpose ``rows``, and a per-hyperedge scale s.
Hyperedges are split by size, per call, from two predicted costs:

- the rows of the small hyperedges go through a sparse product, which
  costs the sum of their squared sizes (Σδ²), plus the handling of each
  output entry;
- those with δ > 64 and δ² > 0.005·n², when their Σδ² is predicted to
  cost more, go through one dense BLAS product, which costs n²
  multiply-adds per hyperedge, built a block of rows at a time.

With no large hyperedge the sparse product is the whole result, as CSR
with sorted indices. Otherwise only the upper triangle is computed: row
block r0:r1 takes both products against columns r0:n alone, so entries
differ from the plain product only by summation order. When a per-row
bound predicts at least 2/3 fill, where a CSR entry would cost 12 bytes,
and n is at most ``DENSE_NODE_LIMIT``, the blocks are written, transposed,
into the strict lower triangle of one n x n float64 array (8·n² bytes),
then copied onto the upper one a row block at a time. Else they are
scanned into the strict upper triangle U as CSR, with no n x n
temporary, and the result is U + Uᵀ; forming that sum holds U, Uᵀ and
the result at once, about twice the result's own bytes (README
"Memory"). Both layouts hold the same bits, and both are exactly
symmetric. The output is combinatorial in hyperedge size, so a dense
copy is refused above ``DENSE_NODE_LIMIT`` nodes. Before either build,
both reductions check that the row sums fit a float64.

The degree-preserving reduction is linear in the weights: on the dense
layout IRMM keeps ``stage_basis``, the upper row blocks of a scaled
reduction that the same writer puts into an earlier reduction's lower
triangle, and ``combine_basis`` adds them to a multiple of that reduction
in its own buffer.
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


# Dense cells per row block of the split build and of dense row sums
# (2 MB of float64).
_BLOCK_CELLS = 1 << 18


def row_blocks(n: int):
    """Yield (start, stop) of consecutive row blocks that cover the rows
    of an n x n array: at most ``_BLOCK_CELLS`` cells each, or one row
    where a row alone holds more."""
    step = max(1, _BLOCK_CELLS // max(1, n))
    for r0 in range(0, n, step):
        yield r0, min(n, r0 + step)


def _row_sums(dense: np.ndarray) -> np.ndarray:
    """Sums of each row's nonzero cells in column order, added exactly as
    CSR ``sum(axis=1)`` adds the stored entries: one ``reduceat`` per row
    block, which no row spans, so blocks change no bits."""
    sums = np.zeros(dense.shape[0])
    for r0, r1 in row_blocks(dense.shape[0]):
        block = dense[r0:r1]
        nonzero = block != 0.0
        counts = np.count_nonzero(nonzero, axis=1)
        starts = np.cumsum(counts) - counts
        filled = counts > 0
        sums[r0:r1][filled] = np.add.reduceat(block[nonzero], starts[filled])
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


def _dense_edges(delta: np.ndarray, n: int):
    """Mask of the hyperedges to sum by one BLAS product, or None.

    A hyperedge of size d moved there saves d*d sparse multiply-adds for
    n*n BLAS ones, and all k moved share one scan of the n*n dense cells.
    So those with d*d > ``_GEMM_COST``*n*n move, never those of at most
    ``_SPARSE_MAX_SIZE`` nodes, and of more than n such hyperedges only
    those above the (n+1)-th largest size, so no size class is split; and
    they move only if their Σd² exceeds n*n*(``_GEMM_COST``*k + ``_SCAN_COST``).
    These are the costs of both triangles; building one about halves the
    sparse and the BLAS side alike.
    """
    large = delta > max(_SPARSE_MAX_SIZE, np.sqrt(_GEMM_COST) * n)
    if np.count_nonzero(large) > n:
        large &= delta > np.partition(delta, delta.size - n - 1)[delta.size - n - 1]
    squares = delta[large].astype(np.float64) ** 2
    if squares.sum() <= float(n) * n * (_GEMM_COST * squares.size + _SCAN_COST):
        return None
    return large


def _operands(g: Hypergraph, edge_scale: np.ndarray):
    """The operands of H diag(edge_scale) H^T, split as the module docstring
    describes: (left, right, dense, dense_scale); first ``ValueError`` if
    the row sums, Σ_e s_e·(δ_e - 1)·δ_e in all, would total more than the
    largest float64.

    The rows of the small hyperedges (all of them when none is large) are
    the sparse product's right factor, and their transpose, a new CSR
    scaled in place, its left one. ``dense`` is the n x k incidence of the
    k large hyperedges and ``dense_scale`` their scales, both None when no
    hyperedge is large.
    """
    n, delta = g.n, g.edge_degrees
    # No BLAS dot: its threads, woken on a path with no GEMM, would spin.
    with np.errstate(over="ignore"):
        total = float((edge_scale * (delta - 1.0) * delta).sum())
    largest = float(np.finfo(np.float64).max)
    if not total <= largest:
        raise ValueError(
            f"weighted node degrees total {total!r}, beyond the largest"
            f" float64, {largest!r}; rescale the weights"
        )
    large = _dense_edges(delta, n)
    right = g.rows if large is None else g.rows[~large]
    left = right.T.tocsr()
    left.data *= (edge_scale if large is None else edge_scale[~large])[left.indices]
    if large is None:
        return left, right, None, None
    return left, right, g.rows[large].T.toarray(), edge_scale[large]


def _write_lower(left, right, dense, dense_scale, out) -> None:
    """Write the upper triangle's row blocks r0:r1, the products of the
    operands of ``_operands`` against columns r0:n, transposed into the
    strict lower triangle of the n x n ``out``, touching no other cell:
    block cell (i, j), j > i, lands on out[r0 + j, r0 + i].

    The sparse product of every block is written first, then the BLAS
    product of every block added: BLAS threads left idle between two calls
    spin, so a single-threaded step run between them costs twice its time
    in CPU. Each product is released before the next is formed.
    """
    n = out.shape[0]
    for r0, r1 in row_blocks(n):
        block, h = (left[r0:r1] @ right[:, r0:]).toarray(), r1 - r0
        out[r1:, r0:r1] = block[:, h:].T
        np.copyto(out[r0:r1, r0:r1].T, block[:, :h], where=~np.tri(h, dtype=bool))
    for r0, r1 in row_blocks(n):
        block, h = (dense[r0:r1] * dense_scale) @ dense[r0:].T, r1 - r0
        out[r1:, r0:r1] += block[:, h:].T
        corner = out[r0:r1, r0:r1].T
        np.add(corner, block[:, :h], out=corner, where=~np.tri(h, dtype=bool))


def _mirror(out: np.ndarray) -> None:
    """Copy the strict upper triangle of ``out`` onto the strict lower one,
    a row block at a time, and zero the diagonal."""
    n = out.shape[0]
    for r0, r1 in row_blocks(n):
        out[r0:r1, :r0] = out[:r0, r0:r1].T
        corner = out[r0:r1, r0:r1]
        np.copyto(corner, corner.T, where=np.tri(r1 - r0, k=-1, dtype=bool))
    np.fill_diagonal(out, 0.0)


def _expand(g: Hypergraph, edge_scale: np.ndarray) -> ReducedGraph:
    """H diag(edge_scale) H^T with the diagonal removed, split as the
    module docstring describes, from the operands of ``_operands``.

    The dense build writes every block with ``_write_lower``, mirrors the
    lower triangle and only then lets ``ReducedGraph`` sum the rows, so
    that no single-threaded step runs between two BLAS calls.
    """
    n = g.n
    left, right, dense, dense_scale = _operands(g, edge_scale)
    if dense is None:
        prod = left @ right
        # Every node in a hyperedge has a stored diagonal entry, so zeroing
        # only theirs inserts none; ``ReducedGraph`` drops the zeros.
        edged = np.flatnonzero(np.diff(left.indptr))
        prod[edged, edged] = 0.0
        return ReducedGraph(prod)

    # Row i has at most min(n - 1, sum over its edges of (size - 1)) entries.
    bound = np.minimum(n - 1, g.rows.T @ (g.edge_degrees - 1.0)).astype(np.int64)
    if 3 * int(bound.sum()) >= 2 * n * n and n <= DENSE_NODE_LIMIT:
        out = np.empty((n, n))
        _write_lower(left, right, dense, dense_scale, out)
        _mirror(out.T)
        return ReducedGraph(out)
    # Row i of the strict upper triangle U has at most n - 1 - i entries.
    capacity = int(np.minimum(bound, np.arange(n - 1, -1, -1)).sum())
    index_dtype = np.int32 if capacity < 2**31 else np.int64
    data = np.empty(capacity)
    indices = np.empty(capacity, dtype=index_dtype)
    indptr = np.zeros(n + 1, dtype=index_dtype)
    columns = np.arange(n, dtype=index_dtype)
    end = 0
    for r0, r1 in row_blocks(n):
        block = (left[r0:r1] @ right[:, r0:]).toarray()
        block += (dense[r0:r1] * dense_scale) @ dense[r0:].T
        # Row r0 + i keeps columns j > r0 + i.
        mask = np.triu(block != 0.0, 1)
        start, end = end, end + int(np.count_nonzero(mask))
        data[start:end] = block[mask]
        indices[start:end] = np.broadcast_to(columns[r0:], mask.shape)[mask]
        indptr[r0 + 1 : r1 + 1] = start + np.cumsum(np.count_nonzero(mask, axis=1))
    # Shrinking in place releases the unused tail without a second copy.
    data.resize(end, refcheck=False)
    indices.resize(end, refcheck=False)
    upper = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
    return ReducedGraph(upper + upper.T)


def clique_reduce(g: Hypergraph) -> ReducedGraph:
    """Clique expansion: every in-edge pair gets the hyperedge weight;
    ``ValueError`` if the row sums would total more than the largest float64."""
    return _expand(g, g.weights)


def _edge_scale(g: Hypergraph) -> np.ndarray:
    """Each hyperedge's weight / (degree - 1); ``ValueError`` for a
    hyperedge of fewer than two nodes or a scale below the smallest normal
    float64."""
    delta = g.edge_degrees
    if int(delta.min()) < 2:
        raise ValueError(
            "degree-preserving reduction needs every hyperedge degree >= 2;"
            " run preprocess() first"
        )
    scale = g.weights / (delta - 1.0)
    # A subnormal scale rounds by more than the degree check allows.
    smallest, tiny = float(scale.min()), float(np.finfo(np.float64).tiny)
    if smallest < tiny:
        raise ValueError(
            f"hyperedge weight / (degree - 1) = {smallest!r} lies below the"
            f" smallest normal float64, {tiny!r}; rescale the weights"
        )
    return scale


def _check_degrees(reduced: ReducedGraph, g: Hypergraph) -> ReducedGraph:
    """``reduced``, once its row sums match the node degrees of ``g`` to
    1e-9 relative; ``RuntimeError`` otherwise."""
    expected = degrees(g).node_degrees
    if not np.allclose(reduced.node_degrees, expected, rtol=1e-9, atol=0.0):
        raise RuntimeError(
            "row sums of the degree-preserving reduction drifted from the"
            " hypergraph node degrees"
        )
    return reduced


def degree_preserving_reduce(g: Hypergraph) -> ReducedGraph:
    """Expansion scaled per hyperedge by 1/(degree - 1).

    Row sums of the result equal the weighted hypergraph node degrees
    (checked to 1e-9 relative, at any weight scale). Requires every
    hyperedge to have at least two nodes, i.e. a preprocessed hypergraph,
    every weight / (degree - 1) to be a normal float64, at least
    ``np.finfo(float).tiny``, and the weighted node degrees to total at most
    ``np.finfo(float).max``, which ``_operands`` checks for both reductions;
    raises ``ValueError`` otherwise. The build and its two layouts are
    those of the module docstring.
    """
    return _check_degrees(_expand(g, _edge_scale(g)), g)


def stage_basis(graph: ReducedGraph, g: Hypergraph, factor: float):
    """``factor`` times the degree-preserving reduction of ``g``, kept for
    ``combine_basis``; ``graph`` must be that of the same hyperedges under
    other positive weights, on the dense layout, and is used up.

    ``g`` gets the checks of ``degree_preserving_reduce``. ``_write_lower``
    writes the reduction's upper row blocks, transposed, into the strict
    lower triangle of ``graph``, which only repeats its upper one, as
    ``_expand`` writes them into a new array, so every cell has the bits of
    ``degree_preserving_reduce(g)`` and no second n x n array is held while
    the operands are. Returns one array per ``row_blocks(n)`` block r0:r1,
    its rows' columns r0:n scaled by ``factor``, with zeros on and below the
    diagonal: about 4·n² bytes.
    """
    scale = _edge_scale(g)
    out, n = graph.dense, graph.n
    # The operands live only in this call, not beside the blocks below.
    _write_lower(*_operands(g, scale), out)
    blocks = []
    for r0, r1 in row_blocks(n):
        block = np.empty((r1 - r0, n - r0))
        np.multiply(out[r0:, r0:r1].T, factor, out=block)
        block[:, : r1 - r0][np.tri(r1 - r0, dtype=bool)] = 0.0
        blocks.append(block)
    return blocks


def combine_basis(graph: ReducedGraph, basis, alpha: float, g: Hypergraph):
    """``alpha`` times the dense ``graph`` plus the row blocks of a
    ``stage_basis`` result, formed in the buffer of ``graph``, which is used
    up; the new graph's row sums must match the node degrees of ``g`` as
    ``degree_preserving_reduce`` checks them.

    Only numpy elementwise operations: a BLAS call would wake threads that
    then spin through the Louvain run that follows.
    """
    out = graph.dense
    for (r0, r1), block in zip(row_blocks(graph.n), basis):
        rect = out[r0:r1, r0:]
        rect *= alpha
        rect += block
    _mirror(out)
    return _check_degrees(ReducedGraph(out), g)


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

