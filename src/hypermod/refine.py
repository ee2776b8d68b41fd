"""Agglomerative post-processing to a requested cluster count.

Louvain chooses its own number of clusters; when a caller needs exactly k,
the discovered clusters are merged bottom-up. The similarity between two
clusters is the average linkage over all cross node pairs: total
inter-cluster edge weight divided by the product of the cluster sizes
(zero-weight pairs included). Splitting is not supported, so k must not
exceed the current cluster count.
"""

from __future__ import annotations

import numpy as np

from .modularity import Partition, aggregate
from .reduction import ReducedGraph

__all__ = ["agglomerate"]


def agglomerate(graph: ReducedGraph, partition: Partition, k: int) -> Partition:
    """Merge maximal-average-linkage cluster pairs until exactly k remain.

    Ties go to the lexicographically smallest pair of current cluster ids.
    The result refines ``partition`` only by unions of whole clusters and
    has dense ids. The linkage is built once; a merge rescores only the
    merged row and column, but still takes one argmax over all c² pairs,
    so the whole merge is O(c³).
    """
    k = int(k)
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > partition.c:
        raise ValueError(
            f"cannot split: requested {k} clusters but only {partition.c} exist"
        )
    if k == partition.c:
        return Partition(partition.assignment)

    weight = aggregate(graph, partition).to_dense()
    sizes = partition.cluster_sizes.astype(np.float64)
    parent = np.arange(partition.c)
    live = np.arange(partition.c)
    # Pair (a, b) is scored at [a, b] with a < b; the diagonal (intra
    # weight) and the lower triangle are never merge candidates.
    linkage = weight / np.outer(sizes, sizes)
    linkage[np.tril_indices_from(linkage)] = -np.inf

    for _ in range(partition.c - k):
        # Row-major argmax picks the lexicographically smallest (a, b) among
        # ties, and merged clusters keep the lower id.
        a, b = np.unravel_index(int(np.argmax(linkage)), linkage.shape)
        weight[a, :] += weight[b, :]
        weight[:, a] += weight[:, b]
        sizes[a] += sizes[b]
        parent[parent == b] = a
        live = live[live != b]
        linkage[b, :] = linkage[:, b] = -np.inf
        above, below = live[live > a], live[live < a]
        linkage[a, above] = weight[a, above] / (sizes[a] * sizes[above])
        linkage[below, a] = weight[below, a] / (sizes[below] * sizes[a])

    return Partition.from_labels(parent[partition.assignment])
