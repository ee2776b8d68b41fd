"""Greedy two-phase Louvain optimizer for (reduced) weighted graphs.

Phase one repeatedly sweeps the nodes, moving each to the neighboring
cluster with the largest positive modularity gain (ties to the lowest
cluster id, zero-gain moves rejected). Phase two collapses clusters into
super-nodes, keeping intra-cluster weight as self-loops, and repeats on
the aggregated graph until a pass accepts no move.

A node visit costs time in its row length, not in n: a row of at most
``modularity.SHORT_ROW`` (128) stored entries is accumulated into a dict
and scored with Python scalars, and a longer row is binned with numpy and
scored as one array. Both paths add each cluster's weights in row order,
evaluate the same gain expression, and break ties toward the lowest
cluster id, so the partitions do not depend on which path a row takes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .modularity import ModularityContext, Partition, cluster_matrix, modularity
from .reduction import ReducedGraph

__all__ = [
    "LouvainConfig",
    "ClusterResult",
    "louvain",
    "flatten",
    "aggregate",
]

# Smallest gain that justifies a move (floating-point noise floor).
MIN_GAIN = 1e-9
# Cap on aggregation levels per hierarchy and on hierarchy reruns.
MAX_PASSES = 50


@dataclass(frozen=True)
class LouvainConfig:
    """Node visit order of the optimizer.

    seed/shuffle: ascending index unless shuffle is set, in which case a
    seeded permutation is drawn per pass.
    """

    seed: int = 0
    shuffle: bool = False


@dataclass
class ClusterResult:
    """A partition of a reduced graph and how it was reached.

    partition: the clustering of the input graph's nodes.
    modularity: Q of ``partition`` on ``graph``, recomputed from scratch.
    graph: the reduced graph that was clustered (for irmm, the final
    round's degree-preserving reduction).
    levels: per-level partitions, finest first; each level partitions the
    previous level's clusters, and ``flatten(levels) == partition``.
    iterations/converged/trace: reweighting rounds run, whether the
    weights settled, and one ``IrmmIteration`` per round (a single
    Louvain run reports 1, True and an empty trace).
    weights: the final hyperedge weights (irmm only; None otherwise).
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


def aggregate(graph: ReducedGraph, partition: Partition) -> ReducedGraph:
    """Collapse clusters into super-nodes, keeping self-loops.

    The result is the cluster matrix Mᵀ·(A·M) from which modularity and
    ``ModularityContext`` read their cluster sums, so its self-loops and
    degrees are those sums bit for bit, and modularity of the aggregate
    under the identity partition equals the fine graph's modularity under
    ``partition``.
    """
    return ReducedGraph(
        cluster_matrix(graph.adjacency, partition.assignment, partition.c)
    )


def _local_moving(ctx: ModularityContext, order, min_gain) -> int:
    """Sweep nodes until a full pass accepts no move; returns move count.

    Candidate targets are the clusters adjacent to the node plus, when the
    node is not alone, the lowest empty cluster (letting a badly placed
    node step out of an overgrown cluster). The best gain wins if it
    exceeds ``min_gain``; equal gains go to the lowest cluster id.

    Each visit makes one ``ctx.neighbor_cluster_weights`` call. For a row
    of at most ``SHORT_ROW`` entries it returns a dict, and the visit scores
    every candidate with Python scalars in a loop that keeps the highest
    gain and, among equal gains, the lowest cluster id. A longer row gets
    ascending id and weight arrays: one vectorized gain expression and
    ``argmax`` (the first maximum, so again the lowest id) pick among the
    adjacent clusters, and the spare cluster is then scored by the scalar
    loop. Both paths sum each cluster's weights in row order starting from
    0.0 and evaluate the gain with the same operations in the same order,
    so they choose the same moves bit for bit.
    """
    assignment = ctx.assignment
    degrees = ctx.degrees
    sigma_tot = ctx.sigma_tot
    sizes = ctx.sizes
    two_m = ctx.two_m
    two_m_sq = two_m * two_m
    tot_of = sigma_tot.item
    total = 0
    order = order.tolist()
    while True:
        moves = 0
        for u in order:
            neighbors = ctx.neighbor_cluster_weights(u)
            a = assignment.item(u)
            k = degrees.item(u)
            k2 = 2.0 * k
            tot_a_without = tot_of(a) - k
            best, best_gain, s_to = -1, min_gain, 0.0
            if isinstance(neighbors, dict):
                if not neighbors:
                    continue
                s_a = neighbors.pop(a, 0.0)
                scalar = neighbors
            else:
                cand, weights = neighbors
                if cand.size == 0:
                    continue
                s_a = ctx._weight_to(neighbors, a)
                other = cand != a
                cand = cand[other]
                weights = weights[other]
                if cand.size:
                    gains = (
                        2.0 * (weights - s_a) / two_m
                        - k2 * (sigma_tot[cand] - tot_a_without) / two_m_sq
                    )
                    i = int(np.argmax(gains))
                    if gains[i] > min_gain:
                        best, best_gain = int(cand[i]), gains[i]
                        s_to = float(weights[i])
                scalar = {}
            if sizes.item(a) > 1:
                spare = ctx.first_empty_cluster()
                if spare >= 0:
                    scalar[spare] = 0.0
            for c, w in scalar.items():
                gain = (
                    2.0 * (w - s_a) / two_m
                    - k2 * (tot_of(c) - tot_a_without) / two_m_sq
                )
                if gain > best_gain or (gain == best_gain and c < best):
                    best, best_gain, s_to = c, gain, w
            if best >= 0:
                ctx.move(u, best, s_frm=s_a, s_to=s_to)
                moves += 1
        total += moves
        if moves == 0:
            return total


_RECUT_SIZE_LIMIT = 12


def _best_bisection(block, k, two_m, skip_side=None):
    """Exhaustively score all two-way splits of one node subset.

    ``block`` is the dense adjacency among the subset, ``k`` its degrees.
    Returns (score, side) for the best bisection, where score is the
    subset's contribution to modularity: sum of sigma_in/2m - (sigma_tot/2m)^2
    over the two parts. ``skip_side`` marks a configuration to ignore.
    """
    size = k.size
    shifts = np.arange(size)
    best_score = -np.inf
    best_side = None
    for bits in range(1, 1 << (size - 1)):
        # Highest-index node pinned to one side: each split appears once.
        side = ((bits >> shifts) & 1).astype(bool)
        if skip_side is not None and (
            np.array_equal(side, skip_side) or np.array_equal(~side, skip_side)
        ):
            continue
        in1 = block[np.ix_(side, side)].sum()
        in2 = block[np.ix_(~side, ~side)].sum()
        tot1 = k[side].sum()
        tot2 = k[~side].sum()
        score = (in1 + in2) / two_m - (tot1 * tot1 + tot2 * tot2) / (two_m * two_m)
        if score > best_score:
            best_score = score
            best_side = side.copy()
    return best_score, best_side


def _recut_small_clusters(graph, partition, min_gain, max_size=_RECUT_SIZE_LIMIT):
    """Strictly improving re-bisection of a small cluster or cluster pair.

    Greedy node moves can overshoot into configurations no single move can
    leave; for unions of at most ``max_size`` nodes the exact two-way
    split is cheap to enumerate. Returns the improved partition or None.
    Large clusters are left to the move phases, so this costs nothing on
    big graphs.
    """
    adjacency = graph.adjacency
    node_degrees = graph.node_degrees
    two_m = graph.total_weight_2m
    clusters = partition.clusters()
    sigma_tot = np.array([node_degrees[c].sum() for c in clusters])

    best_gain = min_gain
    best_recut = None

    def consider(members, current_side, current_score):
        nonlocal best_gain, best_recut
        block = adjacency[members][:, members].toarray()
        k = node_degrees[members]
        score, side = _best_bisection(block, k, two_m, skip_side=current_side)
        if side is not None and score - current_score > best_gain:
            best_gain = score - current_score
            best_recut = (members, side)

    for a, members_a in enumerate(clusters):
        if 2 <= members_a.size <= max_size:
            block = adjacency[members_a][:, members_a].toarray()
            unsplit = (
                block.sum() / two_m - (sigma_tot[a] / two_m) ** 2
            )
            consider(members_a, None, unsplit)
        for b in range(a + 1, partition.c):
            members_b = clusters[b]
            size = members_a.size + members_b.size
            if size < 2 or size > max_size:
                continue
            members = np.concatenate([members_a, members_b])
            current_side = np.zeros(size, dtype=bool)
            current_side[: members_a.size] = True
            block = adjacency[members][:, members].toarray()
            in_a = block[: members_a.size, : members_a.size].sum()
            in_b = block[members_a.size :, members_a.size :].sum()
            current = (in_a + in_b) / two_m - (
                sigma_tot[a] ** 2 + sigma_tot[b] ** 2
            ) / (two_m * two_m)
            consider(members, current_side, current)

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
    partition of the fine graph. Returns the levels and the total number of
    accepted moves.
    """
    levels: list[Partition] = []
    current = graph
    total = 0
    for _ in range(MAX_PASSES):
        ctx = ModularityContext(current, init)
        init = None
        order = np.arange(current.n)
        if cfg.shuffle:
            rng.shuffle(order)
        accepted = _local_moving(ctx, order, MIN_GAIN)
        total += accepted
        part = Partition.from_labels(ctx.assignment)
        if accepted == 0:
            if not levels:
                levels.append(part)
            break
        levels.append(part)
        if part.c == current.n:
            break
        current = aggregate(current, part)
    return levels, total


def louvain(graph: ReducedGraph, config: LouvainConfig | None = None) -> ClusterResult:
    """Maximize modularity of ``graph``; the cluster count is discovered.

    Hierarchies of local moving and aggregation are rerun from the
    flattened result (nodes regain mobility that aggregation froze), and
    at a full stall small clusters are tested for strictly improving
    bisections, until nothing changes. Deterministic for a fixed config:
    with shuffle off the sweeps visit nodes in ascending order, otherwise
    in a permutation drawn from the seeded generator. The reported
    modularity is recomputed from scratch on the input graph.
    """
    cfg = config if config is not None else LouvainConfig()
    if graph.n == 0:
        raise ValueError("empty graph")
    if graph.total_weight_2m <= 0:
        raise ValueError("graph has no edge weight")

    rng = np.random.default_rng(cfg.seed)
    levels, _ = _one_hierarchy(graph, None, cfg, rng)
    for _ in range(MAX_PASSES):
        flat = flatten(levels)
        relevels, moves = _one_hierarchy(graph, flat, cfg, rng)
        if moves:
            levels = relevels
            continue
        recut = _recut_small_clusters(graph, flat, MIN_GAIN)
        if recut is None:
            break
        levels, _ = _one_hierarchy(graph, recut, cfg, rng)

    flat = flatten(levels)
    return ClusterResult(flat, modularity(graph, flat), graph, levels)
