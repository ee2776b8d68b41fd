"""Modularity of a reduced graph under the degree-preserving null model.

The expected weight between nodes i and j is k_i * k_j / 2m, where k are
adjacency row sums and 2m their total. When the adjacency is the
degree-preserving reduction, the k_i coincide with the weighted hypergraph
node degrees, so this is the hypergraph analogue of the configuration
model. Modularity is evaluated through per-cluster sufficient statistics
(internal weight and total degree), both read off ``aggregate``: the c x c
cluster matrix Mᵀ·(A·M) for the one-hot membership M, whose diagonal and
row sums they are, and Louvain's coarse graph. The quadratic double-sum
form is never materialized.

Louvain's local moving is ``ModularityContext.local_moving``. A move's
gain reads only the node's weight into each cluster, self-loop excluded,
and the clusters' total degrees, so a context drops the self-loops from
its rows once, when it is built. A CSR row of at most ``SHORT_ROW``
(128) stored entries besides the self-loop is summed entry by entry into
a dict {cluster: weight}, so its visit costs time in its length, not in
n. Any other row is binned by one bincount (a dense row against the whole
assignment, with no index gather), whose nonzero sums are the clusters
the row touches: at most ``SHORT_ROW`` of them are read into a dict, and
more are scored as one array taken at their ids, so a visit scores only
the clusters its row touches. Both forms add each cluster's weights in
row order starting from 0.0 (a dense row adds exact zeros between them),
leave out the clusters whose weights sum to zero, evaluate the same gain
expression with the same operations and break ties toward the lowest
cluster id, so they choose the same moves bit for bit.

A sweep skips the visits that cannot move a node (the revisit rule). A
visit that moves nothing records how far the node's gains would have to
rise before one could pass ``MIN_GAIN``. Each later move raises a bound on
that rise by the moved node's weight to the node and its degree, and the
node is visited again once the bound reaches the record, which already
covers every empty cluster. A skipped visit would have moved nothing, so
the moves are those of a loop that visits every node in every sweep (the
proof is in ``local_moving``).
"""

from __future__ import annotations

import heapq

import numpy as np
from scipy import sparse

from .hypergraph import int64_array
from .reduction import ReducedGraph

# Most candidate clusters a visit scores with Python scalars, in the dict
# form (see the module docstring).
SHORT_ROW = 128
# Smallest gain that justifies a move (floating-point noise floor).
MIN_GAIN = 1e-9
# Margin by which local moving's revisit bound stays clear of MIN_GAIN: far
# above the rounding of one gain (a few ulps of values of size at most 4).
SLACK = 1e-12

__all__ = [
    "Partition",
    "ModularityContext",
    "aggregate",
    "modularity",
]


def _canonical_labels(labels):
    """Relabel to dense ids 0..c-1 in order of first appearance, comparing
    the labels by their own values (0.2 and 0.7 stay distinct)."""
    uniq, first, inverse = np.unique(
        np.asarray(labels), return_index=True, return_inverse=True
    )
    order = np.argsort(first, kind="stable")
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[order] = np.arange(uniq.size)
    return rank[inverse]


class Partition:
    """Assignment of every node to one of c clusters with dense ids 0..c-1."""

    def __init__(self, assignment):
        assignment = int64_array(np.array(assignment), "cluster ids must be integers")
        if assignment.ndim != 1 or assignment.size == 0:
            raise ValueError("assignment must be a nonempty 1-d array")
        if assignment.min() < 0:
            raise ValueError("cluster ids must be nonnegative")
        # A largest id of at least n leaves an id empty: reject it before
        # bincount allocates one count per id.
        sizes = np.bincount(assignment) if assignment.max() < assignment.size else None
        if sizes is None or np.any(sizes == 0):
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


def membership(labels, c):
    """The n x c one-hot membership matrix M of ``labels`` (CSR, float ones)."""
    n = labels.size
    return sparse.csr_matrix((np.ones(n), labels, np.arange(n + 1)), shape=(n, c))


def cluster_matrix(adjacency, labels, c):
    """The c x c cluster matrix Mᵀ·(A·M): CSR for a sparse A, an array for
    a dense one.

    M is the ``membership`` of ``labels``. Entry (a, b) is the total
    adjacency weight from cluster a to cluster b, so the diagonal holds
    each cluster's internal weight and the row sums its volume. A sparse A
    is multiplied as A·M first, which keeps it in CSR without a copy. A
    dense A is read only by the sparse Mᵀ, as Mᵀ·(Mᵀ·A)ᵀ, which equals
    Mᵀ·A·M because A is symmetric.
    """
    member = membership(labels, c)
    if isinstance(adjacency, np.ndarray):
        member_t = member.T.tocsr()
        return member_t @ (member_t @ adjacency).T
    return member.T.tocsr() @ (adjacency @ member)


def aggregate(graph: ReducedGraph, partition: Partition) -> ReducedGraph:
    """Collapse clusters into super-nodes, keeping self-loops.

    The result is the cluster matrix Mᵀ·(A·M). Its self-loops and degrees
    are the clusters' internal weights and total degrees, the sums that
    ``modularity`` and ``ModularityContext`` read, so modularity of the
    aggregate under the identity partition equals the fine graph's
    modularity under ``partition``. With one cluster both sums are the
    single stored value, which puts the one-cluster modularity at exactly 0.
    """
    adjacency = graph.dense if graph.dense is not None else graph.adjacency
    return ReducedGraph(cluster_matrix(adjacency, partition.assignment, partition.c))


def modularity(graph, partition: Partition) -> float:
    """Modularity of a partition of a ReducedGraph, recomputed from scratch.

    The normalizer 2m is the total adjacency weight re-accumulated from the
    cluster volumes, which keeps the single-cluster value at exactly 0.
    Raises ``ValueError`` when the graph's 2m is not finite.
    """
    if len(partition) != graph.n:
        raise ValueError("partition does not cover the graph's nodes")
    if not np.isfinite(graph.total_weight_2m):
        raise ValueError(
            f"total edge weight 2m = {graph.total_weight_2m!r} is not finite"
        )
    clusters = aggregate(graph, partition)
    sigma_tot = clusters.node_degrees
    two_m = np.add.reduce(sigma_tot)
    if two_m <= 0:
        raise ValueError("graph has no edge weight")
    frac = sigma_tot / two_m
    return float(np.add.reduce(clusters.self_loops / two_m - frac * frac))


class ModularityContext:
    """Mutable cluster statistics supporting incremental move evaluation.

    Tracks, for one ReducedGraph and a current assignment, each cluster's
    total degree and size, and the empty cluster ids.
    :meth:`local_moving` mutates it through :meth:`move`; reads are safe
    between mutations.
    """

    def __init__(self, graph, partition: Partition | None = None):
        # Only aggregated levels have self-loops and pay for a copy without
        # them; a CSR difference stores no zero, so no diagonal entry is left.
        self._dense = graph.dense
        if self._dense is None:
            adjacency = graph.adjacency
            if graph.self_loops.any():
                adjacency = adjacency - sparse.diags(graph.self_loops)
            self._indptr = adjacency.indptr
            self._indices = adjacency.indices
            self._data = adjacency.data
        elif graph.self_loops.any():
            self._dense = self._dense.copy()
            np.fill_diagonal(self._dense, 0.0)
        self.two_m = graph.total_weight_2m
        self.degrees = graph.node_degrees
        if partition is None:
            # Singleton start: one cluster slot per node.
            self.assignment = np.arange(graph.n)
            self.sigma_tot = self.degrees.astype(np.float64).copy()
            self.sizes = np.ones(graph.n, dtype=np.int64)
        else:
            if len(partition) != graph.n:
                raise ValueError("partition does not cover the graph's nodes")
            self.assignment = partition.assignment.copy()
            self.sigma_tot = aggregate(graph, partition).node_degrees
            self.sizes = partition.cluster_sizes.copy()
        self._empty_ids: list[int] = []

    def row(self, node):
        """Column ids and weights of ``node``'s row, self-loop excluded.

        A dense layout's row covers every column; its ids are None.
        """
        if self._dense is not None:
            return None, self._dense[node]
        lo, hi = self._indptr.item(node), self._indptr.item(node + 1)
        return self._indices[lo:hi], self._data[lo:hi]

    def neighbor_cluster_weights(self, node):
        """Edge weight from ``node`` into each cluster, self-loop excluded.

        A CSR row of at most ``SHORT_ROW`` stored entries gives a dict
        {cluster id: weight}, summed entry by entry (``ReducedGraph``
        stores no zero, so no weight is 0). Any other row is binned by one
        bincount, long enough to hold the node's own cluster, and ``ids``
        are the ascending ids of its nonzero sums: at most ``SHORT_ROW`` of
        them give the dict, in id order; more give ``(sums, ids)``.
        """
        cols, weights = self.row(node)
        if cols is not None and cols.size <= SHORT_ROW:
            acc = {}
            get = acc.get
            for c, w in zip(self.assignment.take(cols).tolist(), weights.tolist()):
                acc[c] = get(c, 0.0) + w
            return acc
        labels = self.assignment if cols is None else self.assignment.take(cols)
        own = self.assignment.item(node)
        sums = np.bincount(labels, weights=weights, minlength=own + 1)
        # Several times cheaper than np.flatnonzero on a row this short.
        ids = (sums != 0.0).nonzero()[0]
        if ids.size <= SHORT_ROW:
            return dict(zip(ids.tolist(), sums.take(ids).tolist()))
        return sums, ids

    def move(self, node, to) -> None:
        """Move ``node`` to cluster ``to``; update cluster totals and sizes."""
        frm = self.assignment[node]
        k = self.degrees[node]
        self.sigma_tot[frm] -= k
        self.sigma_tot[to] += k
        self.assignment[node] = to
        sizes = self.sizes
        sizes[frm] -= 1
        sizes[to] += 1
        if sizes[frm] == 0:
            heapq.heappush(self._empty_ids, int(frm))

    def first_empty_cluster(self) -> int:
        """Lowest currently empty cluster id, or -1 when none exists."""
        heap = self._empty_ids
        while heap and self.sizes[heap[0]] != 0:
            heapq.heappop(heap)
        return heap[0] if heap else -1

    def local_moving(self, order) -> int:
        """Sweep nodes in ``order`` until a full pass accepts no move;
        returns the move count.

        Candidate targets are the clusters adjacent to the node plus, when
        the node is not alone, the lowest empty cluster (letting a badly
        placed node step out of an overgrown cluster). The best gain wins
        if it exceeds ``MIN_GAIN``; equal gains go to the lowest cluster id
        (an array row's ids ascend and its ``argmax`` takes the first
        maximum, and its spare cluster is scored by the scalar loop).

        A node is revisited only when the moves since its last visit could
        have lifted one of its gains above ``MIN_GAIN`` (weights and degrees
        are nonnegative). Moving u (degree k) from cluster a to c gains
        2(w_c - s_a)/2m - 2k(tot_c - tot_a + k)/(2m)², with w_c and s_a u's
        weight into c and into a, self-loop excluded.

        - A move of another node v (degree k_v, weight A_uv to u) changes
          each w_c - s_a by at most 2·A_uv and each tot_c - tot_a by at most
          2·k_v, so each gain of u by at most 4·A_uv/2m + 4k·k_v/(2m)².
          ``drift[u]`` sums 4·A_uv/2m and ``moved`` sums k_v over the moves
          so far, so the growth of u's ``reach`` since a visit bounds the
          rise of each of its gains.
        - A cluster that u was not adjacent to at the visit had w_c = 0 and
          tot_c ≥ 0, so a gain of at most V = 2k(tot_a - k)/(2m)² - 2·s_a/2m,
          the gain toward a cluster with no weight and total 0. That covers
          the clusters that become adjacent later, and every spare, old or
          new: an empty cluster's total is 0 up to the rounding its last
          node left behind, so no new lowest empty cluster unlocks a move.

        A visit that moves nothing stores ``limit[u]`` = its reach +
        ``MIN_GAIN`` - max(its gains, V) - ``SLACK``, and u is skipped while
        its reach stays below that. ``SLACK`` covers the rounding of the
        gains and of an empty cluster's total, so a skipped visit would have
        moved nothing: the moves, and the sweep that ends the call, are
        those of visiting every node in every sweep.
        """
        assignment = self.assignment
        degrees = self.degrees
        sigma_tot = self.sigma_tot
        sizes = self.sizes
        two_m = self.two_m
        two_m_sq = two_m * two_m
        tot_of = sigma_tot.item
        # The revisit rule's state, for this call only: 4/2m · each node's
        # weight to the nodes that moved, their total degree, and the reach
        # at which each node must be visited again (-inf: at once).
        drift = np.zeros(assignment.size)
        moved = 0.0
        limit = np.full(assignment.size, -np.inf)
        spare = self.first_empty_cluster()
        total = 0
        order = order.tolist()
        while True:
            moves = 0
            for u in order:
                k = degrees.item(u)
                reach = drift.item(u) + 4.0 * k * moved / two_m_sq
                if reach < limit.item(u):
                    continue
                neighbors = self.neighbor_cluster_weights(u)
                a = assignment.item(u)
                k2 = 2.0 * k
                tot_a_without = tot_of(a) - k
                best, best_gain = -1, MIN_GAIN
                if isinstance(neighbors, dict):
                    adjacent = bool(neighbors)
                    s_a = neighbors.pop(a, 0.0)
                    scalar = neighbors
                    top = -np.inf
                else:
                    sums, ids = neighbors
                    s_a = sums.item(a)
                    # The node's own cluster scores -2k²/(2m)² ≤ 0, below
                    # MIN_GAIN, so it may stay among the ids.
                    gains = (
                        2.0 * (sums.take(ids) - s_a) / two_m
                        - k2 * (sigma_tot.take(ids) - tot_a_without) / two_m_sq
                    )
                    i = int(gains.argmax())
                    top = gains.item(i)
                    adjacent = True
                    if top > MIN_GAIN:
                        best, best_gain = ids.item(i), top
                    scalar = {}
                if adjacent and spare >= 0 and sizes.item(a) > 1:
                    scalar[spare] = 0.0
                for c, w in scalar.items():
                    gain = (
                        2.0 * (w - s_a) / two_m
                        - k2 * (tot_of(c) - tot_a_without) / two_m_sq
                    )
                    if gain > top:
                        top = gain
                    if gain > best_gain or (gain == best_gain and c < best):
                        best, best_gain = c, gain
                if best < 0:
                    far = k2 * tot_a_without / two_m_sq - 2.0 * s_a / two_m
                    limit[u] = (MIN_GAIN - max(top, far) - SLACK) + reach
                    continue
                self.move(u, best)
                moves += 1
                moved += k
                limit[u] = -np.inf
                cols, weights = self.row(u)
                if cols is None:
                    drift += (4.0 / two_m) * weights
                else:
                    drift[cols] += (4.0 / two_m) * weights
                spare = self.first_empty_cluster()
            total += moves
            if moves == 0:
                return total
