"""Greedy two-phase Louvain optimizer for (reduced) weighted graphs.

Phase one (``ModularityContext.local_moving``) repeatedly sweeps the
nodes, moving each to the neighboring cluster with the largest positive
modularity gain (ties to the lowest cluster id, zero-gain moves rejected).
Phase two collapses clusters into super-nodes, keeping intra-cluster
weight as self-loops, and repeats on the aggregated graph until a pass
accepts no move. The hierarchy is rerun from its flattened partition only
when a coarse level moved a node.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .modularity import (
    MIN_GAIN,
    ModularityContext,
    Partition,
    aggregate,
    cluster_matrix,
    modularity,
)
from .reduction import ReducedGraph

__all__ = [
    "LouvainConfig",
    "ClusterResult",
    "louvain",
    "flatten",
]

# Cap on aggregation levels per hierarchy and on hierarchy reruns.
MAX_PASSES = 50
# Range of the total weight 2m that Louvain accepts. Gains divide by (2m)²,
# and local moving forms 4·k·K/(2m)² for degree sums k, K that start at most
# 2m. With 2⁻⁵¹⁰ ≤ 2m ≤ 2⁵¹⁰, (2m)² ≥ 2⁻¹⁰²⁰ is a normal float (2⁻¹⁰²² is
# the least), not a zero or a subnormal that loses bits, and 4·(2m)² ≤ 2¹⁰²²
# is finite (below 2¹⁰²⁴), not an inf that turns gains into NaN.
_MIN_2M, _MAX_2M = 2.0**-510, 2.0**510


@dataclass(frozen=True)
class LouvainConfig:
    """Node visit order of the optimizer.

    seed/shuffle: ascending index unless shuffle is set, in which case a
    seeded permutation is drawn per pass.
    """

    seed: int = 0
    shuffle: bool = False

    def __post_init__(self):
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(
                f"seed must be non-negative and integral, got {self.seed!r}"
            )


@dataclass
class ClusterResult:
    """A partition of a reduced graph and how it was reached.

    partition: the clustering of the input graph's nodes.
    modularity: Q of ``partition`` on ``graph``, recomputed from scratch.
    graph: the reduced graph that was clustered (for irmm, the final
    round's combined graph: the reduction of that round's weights, up to
    rounding).
    levels: one partition per level that moved a node, finest first (the
    singletons or a recut alone when none moved); each level partitions
    the previous level's clusters, and ``flatten(levels) == partition``.
    iterations/converged/trace: reweighting rounds run, whether the
    weights settled, and one ``IrmmIteration`` per round (a single
    Louvain run reports 1, True and an empty trace).
    weights: the hyperedge weights after irmm's last update, one step
    past the weights of ``graph`` (irmm only; None otherwise).
    """

    partition: Partition
    modularity: float
    graph: ReducedGraph
    levels: list[Partition]
    iterations: int = 1
    converged: bool = True
    trace: list = field(default_factory=list)
    weights: np.ndarray | None = None


def flatten(levels: list[Partition]) -> Partition:
    """Compose per-level partitions into a partition of the original nodes."""
    if not levels:
        raise ValueError("no levels to flatten")
    acc = levels[0].assignment
    for level in levels[1:]:
        acc = level.assignment[acc]
    return Partition(acc)


_RECUT_SIZE_LIMIT = 12


def _best_bisection(block, k, two_m, current):
    """Exhaustively score all two-way splits of one node subset.

    ``block`` is the dense adjacency among the subset, ``k`` its degrees.
    Row ``bits`` of the 0/1 side matrix puts node i on the first side when
    bit i is set; the highest-index node is always on the second side, so
    each split appears once and row 0 leaves the subset whole. A split
    scores the subset's contribution to modularity: sum of
    sigma_in/2m - (sigma_tot/2m)^2 over the two parts. Returns (gain, side)
    for the best split other than row 0, where gain is its score minus
    that of row ``current``.
    """
    size = k.size
    rows = np.arange(1 << (size - 1))
    first = ((rows[:, None] >> np.arange(size)) & 1).astype(float)
    second = 1.0 - first
    in1 = ((first @ block) * first).sum(axis=1)
    in2 = ((second @ block) * second).sum(axis=1)
    tot1 = first @ k
    tot2 = second @ k
    scores = (in1 + in2) / two_m - (tot1 * tot1 + tot2 * tot2) / (two_m * two_m)
    best = 1 + int(np.argmax(scores[1:]))
    return scores[best] - scores[current], first[best].astype(bool)


def _recut_small_clusters(graph, partition):
    """Strictly improving re-bisection of a small cluster or cluster pair.

    Greedy node moves can overshoot into configurations no single move can
    leave; for a cluster, alone or with an adjacent one (read off the
    cluster matrix), of at most ``_RECUT_SIZE_LIMIT`` nodes, the exact
    two-way split is cheap to enumerate. Returns the improved partition or
    None.

    Pairs with no edge between them cannot win. Split a into (a1, a2) and
    b into (b1, b2), with degrees x, u, y, v and cut weights e_a, e_b inside
    a and b, all over 2m. Then (a1 ∪ b1, a2 ∪ b2) gains g = 2(x − v)(u − y)
    − e_a − e_b over (a, b), a alone gains g_a = 2xu − e_a, and b alone
    g_b = 2yv − e_b. If g ≥ g_a and g ≥ g_b, then yv ≥ xy + uv and
    xu ≥ xy + uv, so xyuv ≥ (xy + uv)² ≥ 4xyuv and one of x, y, u, v is 0.
    With positive degrees one cluster then stays whole, say u = 0, and
    g = g_b − 2xy < g_b. So g is below a gain the loop tries.
    """
    clusters = partition.clusters()
    # Only clusters below the limit can take part in a pair.
    labels = partition.assignment
    small = partition.cluster_sizes[labels] < _RECUT_SIZE_LIMIT
    between = sparse.csr_matrix(
        cluster_matrix(graph.submatrix(small), labels[small], partition.c)
    )

    best_gain, best_recut = MIN_GAIN, None
    for a, members_a in enumerate(clusters):
        row = between.indices[between.indptr[a] : between.indptr[a + 1]]
        for b in [a] + np.sort(row[row > a]).tolist():
            # a's nodes come first, so row 0 (a alone) or the row with
            # a's bits set (a pair) is the current configuration.
            members = members_a if b == a else np.concatenate([members_a, clusters[b]])
            if not 2 <= members.size <= _RECUT_SIZE_LIMIT:
                continue
            current = 0 if b == a else (1 << members_a.size) - 1
            block = graph.submatrix(members)
            if sparse.issparse(block):
                block = block.toarray()
            gain, side = _best_bisection(
                block, graph.node_degrees[members], graph.total_weight_2m, current
            )
            if gain > best_gain:
                best_gain, best_recut = gain, (members, side)

    if best_recut is None:
        return None
    members, side = best_recut
    labels = partition.assignment.copy()
    labels[members[side]] = partition.c
    labels[members[~side]] = partition.c + 1
    return Partition.from_labels(labels)


def _one_hierarchy(graph, init, cfg, rng):
    """One full local-moving + aggregation hierarchy.

    ``init`` optionally seeds the first local-moving phase with an existing
    partition of the fine graph. Returns one partition per level that
    moved a node, finest first: empty when the first phase moves nothing.
    """
    levels: list[Partition] = []
    current = graph
    for _ in range(MAX_PASSES):
        ctx = ModularityContext(current, init)
        init = None
        order = np.arange(current.n)
        if cfg.shuffle:
            rng.shuffle(order)
        if not ctx.local_moving(order):
            break
        part = Partition.from_labels(ctx.assignment)
        levels.append(part)
        if part.c == current.n:
            break
        current = aggregate(current, part)
    return levels


def louvain(graph: ReducedGraph, config: LouvainConfig | None = None) -> ClusterResult:
    """Maximize modularity of ``graph``; the cluster count is discovered.

    A hierarchy whose coarse levels moved is rerun from its flattened
    result (nodes regain mobility that aggregation froze); at a full stall
    small clusters are tested for strictly improving bisections, until
    nothing changes. Deterministic for a fixed config: with shuffle off the
    sweeps visit nodes in ascending order, otherwise in a permutation drawn
    from the seeded generator. The reported modularity is recomputed from
    scratch on the input graph.
    """
    cfg = config if config is not None else LouvainConfig()
    if graph.n == 0:
        raise ValueError("empty graph")
    if graph.total_weight_2m <= 0:
        raise ValueError("graph has no edge weight")
    if not _MIN_2M <= graph.total_weight_2m <= _MAX_2M:
        raise ValueError(
            f"total edge weight 2m = {graph.total_weight_2m!r} lies outside"
            " [2**-510, 2**510], where gains stay finite; rescale the weights"
        )

    rng = np.random.default_rng(cfg.seed)
    levels = _one_hierarchy(graph, None, cfg, rng) or [Partition(np.arange(graph.n))]
    for _ in range(MAX_PASSES):
        # With one level, the hierarchy ended on a fine-level sweep that
        # accepted no move. A rerun would start from that partition with the
        # same sums up to rounding, and a context built from a partition has
        # no empty cluster as a spare: it could only retry that sweep's moves.
        if len(levels) > 1:
            relevels = _one_hierarchy(graph, flatten(levels), cfg, rng)
            if relevels:
                levels = relevels
                continue
        recut = _recut_small_clusters(graph, flatten(levels))
        if recut is None:
            break
        levels = _one_hierarchy(graph, recut, cfg, rng) or [recut]

    flat = flatten(levels)
    return ClusterResult(flat, modularity(graph, flat), graph, levels)
