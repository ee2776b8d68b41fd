"""Modularity of a reduced graph under the degree-preserving null model.

The expected weight between nodes i and j is k_i * k_j / 2m, where k are
adjacency row sums and 2m their total. When the adjacency is the
degree-preserving reduction, the k_i coincide with the weighted hypergraph
node degrees, so this is the hypergraph analogue of the configuration
model. Modularity is evaluated through per-cluster sufficient statistics
(total degree and internal weight); the quadratic double-sum form is never
materialized.
"""

from __future__ import annotations

import heapq

import numpy as np

# Rows with at most this many stored entries are scanned with Python scalars
# in ``ModularityContext.neighbor_cluster_weights``; longer rows take numpy.
SHORT_ROW = 128

# ``_partition_sums`` sums short rows this many at a time, so that its
# temporaries stay within _BLOCK_ROWS * SHORT_ROW = 2**18 entries.
_BLOCK_ROWS = 2048

__all__ = [
    "Partition",
    "ModularityContext",
    "modularity",
    "same_clustering",
]


def _canonical_labels(labels):
    """Relabel to dense ids 0..c-1 in order of first appearance."""
    labels = np.asarray(labels, dtype=np.int64)
    uniq, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[order] = np.arange(uniq.size)
    return rank[inverse]


class Partition:
    """Assignment of every node to one of c clusters with dense ids 0..c-1."""

    def __init__(self, assignment):
        assignment = np.asarray(assignment, dtype=np.int64).copy()
        if assignment.ndim != 1 or assignment.size == 0:
            raise ValueError("assignment must be a nonempty 1-d array")
        if assignment.min() < 0:
            raise ValueError("cluster ids must be nonnegative")
        sizes = np.bincount(assignment)
        if np.any(sizes == 0):
            raise ValueError("cluster ids must be dense (no empty id below the max)")
        self.assignment = assignment
        self.c = int(sizes.size)
        self.cluster_sizes = sizes

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        """Build a partition from arbitrary labels, densified by first appearance."""
        return cls(_canonical_labels(labels))

    def clusters(self):
        """List of node-index arrays, one per cluster id."""
        order = np.argsort(self.assignment, kind="stable")
        bounds = np.cumsum(self.cluster_sizes)[:-1]
        return np.split(order, bounds)

    def __len__(self):
        return self.assignment.size

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return np.array_equal(self.assignment, other.assignment)

    def __repr__(self):
        return f"Partition(n={len(self)}, c={self.c})"


def same_clustering(a: Partition, b: Partition) -> bool:
    """True when two partitions are identical up to cluster relabeling."""
    if len(a) != len(b):
        return False
    return np.array_equal(
        _canonical_labels(a.assignment), _canonical_labels(b.assignment)
    )


def _row_sums(indptr, data):
    """``np.add.reduce`` of every row of a CSR whose rows have at most
    ``SHORT_ROW`` entries, bit for bit.

    Rows are grouped by length and each group is summed as one 2-D gather
    along axis 1, which runs the same pairwise summation over each row as
    a 1-D reduce. Empty rows sum to 0.0.
    """
    lengths = np.diff(indptr)
    sums = np.zeros(lengths.size)
    order = np.argsort(lengths, kind="stable")
    cuts = np.flatnonzero(np.diff(lengths[order])) + 1
    for rows in np.split(order, cuts):
        length = int(lengths[rows[0]])
        if length:
            sums[rows] = data[indptr[rows, None] + np.arange(length)].sum(axis=1)
    return sums


def _partition_sums(adjacency, labels, nslots):
    """Per-cluster degree and internal-weight sums.

    Each row's total and the sum of its in-cluster entries are reduced as
    ``np.add.reduce`` reduces them: a row of more than ``SHORT_ROW``
    entries by one reduce each, shorter rows ``_BLOCK_ROWS`` at a time by
    ``_row_sums``. The row sums are then added per cluster in row order
    starting from 0.0 by one bincount, so the fully-internal case
    reproduces the degree sum bit for bit; this is what makes the
    one-cluster modularity land on exactly 0.
    """
    indptr, indices, data = adjacency.indptr, adjacency.indices, adjacency.data
    lengths = np.diff(indptr)
    row_tot = np.zeros(lengths.size)
    row_in = np.zeros(lengths.size)
    long = np.flatnonzero(lengths > SHORT_ROW)
    for i, lo, hi in zip(
        long.tolist(), indptr[long].tolist(), indptr[long + 1].tolist()
    ):
        row = data[lo:hi]
        row_tot[i] = np.add.reduce(row)
        row_in[i] = np.add.reduce(row[labels[indices[lo:hi]] == labels[i]])
    short = np.flatnonzero((lengths > 0) & (lengths <= SHORT_ROW))
    for b0 in range(0, short.size, _BLOCK_ROWS):
        rows = short[b0 : b0 + _BLOCK_ROWS]
        count = lengths[rows]
        local = np.concatenate(([0], np.cumsum(count)))
        pos = np.repeat(indptr[rows] - local[:-1], count) + np.arange(local[-1])
        vals = data[pos]
        row_tot[rows] = _row_sums(local, vals)
        inside = np.flatnonzero(
            labels[indices[pos]] == np.repeat(labels[rows], count)
        )
        row_in[rows] = _row_sums(np.searchsorted(inside, local), vals[inside])
    sigma_in = np.bincount(labels, weights=row_in, minlength=nslots)
    sigma_tot = np.bincount(labels, weights=row_tot, minlength=nslots)
    return sigma_in, sigma_tot


def modularity(graph, partition: Partition) -> float:
    """Modularity of a partition, recomputed from scratch.

    ``graph`` may be a ReducedGraph or a ModularityContext. The normalizer
    2m is the total adjacency weight re-accumulated from the cluster sums,
    which keeps the single-cluster value at exactly 0.
    """
    if isinstance(graph, ModularityContext):
        graph = graph.graph
    adjacency = graph.adjacency
    if len(partition) != adjacency.shape[0]:
        raise ValueError("partition does not cover the graph's nodes")
    sigma_in, sigma_tot = _partition_sums(
        adjacency, partition.assignment, partition.c
    )
    two_m = np.add.reduce(sigma_tot)
    if two_m <= 0:
        raise ValueError("graph has no edge weight")
    frac = sigma_tot / two_m
    return float(np.add.reduce(sigma_in / two_m - frac * frac))


class ModularityContext:
    """Mutable cluster statistics supporting incremental move evaluation.

    Tracks, for one ReducedGraph and a current assignment, each cluster's
    total degree and internal weight. The owning optimizer mutates it via
    :meth:`move`; reads are safe between mutations.
    """

    def __init__(self, graph, partition: Partition | None = None):
        adjacency = graph.adjacency
        self.graph = graph
        self._indptr = adjacency.indptr
        self._indices = adjacency.indices
        self._data = adjacency.data
        self.two_m = graph.total_weight_2m
        self.degrees = graph.node_degrees
        self.self_loops = graph.self_loops
        if partition is None:
            # Singleton start: one cluster slot per node.
            self.assignment = np.arange(graph.n)
            self.sigma_tot = self.degrees.astype(np.float64).copy()
            self.sigma_in = self.self_loops.astype(np.float64).copy()
            self.sizes = np.ones(graph.n, dtype=np.int64)
        else:
            if len(partition) != graph.n:
                raise ValueError("partition does not cover the graph's nodes")
            self.assignment = partition.assignment.copy()
            self.sigma_in, self.sigma_tot = _partition_sums(
                adjacency, self.assignment, partition.c
            )
            self.sizes = partition.cluster_sizes.copy()
        self._empty_ids: list[int] = []

    def neighbor_cluster_weights(self, node):
        """Clusters adjacent to ``node`` and the edge weight into each.

        The node's self-loop is excluded, and so is a cluster whose weights
        sum to zero. A row of at most ``SHORT_ROW`` stored entries gives a
        dict {cluster id: weight} accumulated with Python scalars; a longer
        row gives (cluster ids ascending, weights) arrays from one bincount.
        Both forms add each cluster's weights in row order starting from
        0.0, so their sums are bit-identical.
        """
        lo, hi = self._indptr.item(node), self._indptr.item(node + 1)
        cols = self._indices[lo:hi]
        if hi - lo <= SHORT_ROW:
            acc = {}
            get = acc.get
            labels = self.assignment.take(cols).tolist()
            vals = self._data[lo:hi].tolist()
            if self.self_loops.item(node):
                for col, c, w in zip(cols.tolist(), labels, vals):
                    if col != node:
                        acc[c] = get(c, 0.0) + w
            else:
                # A zero self-loop adds 0.0, which leaves every sum as it is.
                for c, w in zip(labels, vals):
                    acc[c] = get(c, 0.0) + w
            if 0.0 in acc.values():
                acc = {c: w for c, w in acc.items() if w}
            return acc
        vals = self._data[lo:hi]
        other = cols != node
        if not other.all():
            cols = cols[other]
            vals = vals[other]
        if cols.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.empty(0)
        sums = np.bincount(self.assignment[cols], weights=vals)
        cand = np.flatnonzero(sums)
        return cand, sums[cand]

    @staticmethod
    def _weight_to(neighbors, cluster):
        """Weight into ``cluster`` from a ``neighbor_cluster_weights`` result."""
        if isinstance(neighbors, dict):
            return neighbors.get(cluster, 0.0)
        cand, weights = neighbors
        pos = np.searchsorted(cand, cluster)
        if pos < cand.size and cand[pos] == cluster:
            return float(weights[pos])
        return 0.0

    def gain_of_move(self, node, frm, to) -> float:
        """Modularity change of moving ``node`` from cluster ``frm`` to ``to``."""
        if self.assignment[node] != frm:
            raise ValueError(f"node {node} is not in cluster {frm}")
        if frm == to:
            return 0.0
        neighbors = self.neighbor_cluster_weights(node)
        s_frm = self._weight_to(neighbors, frm)
        s_to = self._weight_to(neighbors, to)
        k = self.degrees[node]
        two_m = self.two_m
        tot_frm_without = self.sigma_tot[frm] - k
        return float(
            2.0 * (s_to - s_frm) / two_m
            - 2.0 * k * (self.sigma_tot[to] - tot_frm_without) / (two_m * two_m)
        )

    def move(self, node, to, s_frm=None, s_to=None) -> None:
        """Reassign ``node`` to cluster ``to`` and update the sums.

        ``s_frm``/``s_to`` may pass precomputed neighbor weights into the
        source and target clusters to avoid a second row scan.
        """
        frm = self.assignment[node]
        if frm == to:
            return
        if s_frm is None or s_to is None:
            neighbors = self.neighbor_cluster_weights(node)
            s_frm = self._weight_to(neighbors, frm)
            s_to = self._weight_to(neighbors, to)
        k = self.degrees[node]
        loop = self.self_loops[node]
        self.sigma_tot[frm] -= k
        self.sigma_in[frm] -= 2.0 * s_frm + loop
        self.sigma_tot[to] += k
        self.sigma_in[to] += 2.0 * s_to + loop
        self.assignment[node] = to
        self.sizes[frm] -= 1
        self.sizes[to] += 1
        if self.sizes[frm] == 0:
            heapq.heappush(self._empty_ids, int(frm))

    def first_empty_cluster(self) -> int:
        """Lowest currently empty cluster id, or -1 when none exists."""
        heap = self._empty_ids
        while heap and self.sizes[heap[0]] != 0:
            heapq.heappop(heap)
        return heap[0] if heap else -1

    def modularity(self) -> float:
        """Modularity of the current assignment from the tracked sums."""
        frac = self.sigma_tot / self.two_m
        return float(
            np.add.reduce(self.sigma_in) / self.two_m - np.add.reduce(frac * frac)
        )
