"""Clustering quality metrics and hyperedge-cut diagnostics, each read
from one sparse product with the one-hot membership M of a partition."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .hypergraph import Hypergraph
from .modularity import Partition, membership

__all__ = ["CutStats", "symmetric_f1", "cut_stats", "pin_counts"]

HISTOGRAM_BINS = 10


def symmetric_f1(pred: Partition, truth: Partition) -> float:
    """Symmetric best-match F1 between two partitions of the same nodes.

    For each cluster on one side, take the F1 against its best-matching
    cluster on the other side (precision |P∩T|/|P|, recall |P∩T|/|T|);
    average these per side, unweighted, and return the mean of the two
    directions. 1.0 exactly when the partitions agree up to relabeling.
    """
    if len(pred) != len(truth):
        raise ValueError("partitions cover different node sets")
    truth_member = membership(truth.assignment, truth.c)
    overlap = (membership(pred.assignment, pred.c).T @ truth_member).tocoo()
    p, t = overlap.row, overlap.col
    # 2pr/(p+r) collapses to 2|P∩T| / (|P|+|T|).
    f1 = 2.0 * overlap.data / (pred.cluster_sizes[p] + truth.cluster_sizes[t])
    # Only the pairs that occur are scored: every cluster meets some class,
    # so its best F1 is positive and among them.
    forward = np.zeros(pred.c)
    np.maximum.at(forward, p, f1)
    backward = np.zeros(truth.c)
    np.maximum.at(backward, t, f1)
    return float((forward.mean() + backward.mean()) / 2.0)


def pin_counts(g: Hypergraph, partition: Partition) -> sparse.csr_matrix:
    """The m x c pin-count matrix K = Hᵀ·M, H being ``g``'s incidence.

    K[e, C] counts hyperedge e's nodes in cluster C. An int64 CSR with
    sorted indices and no stored zeros: row e lists the nonzero counts in
    ascending cluster order, summing to hyperedge e's degree.
    """
    if len(partition) != g.n:
        raise ValueError("partition does not cover the hypergraph's nodes")
    counts = g.incidence().T @ membership(partition.assignment, partition.c)
    counts = counts.tocsr().astype(np.int64)
    counts.sort_indices()
    return counts


@dataclass(frozen=True)
class CutStats:
    """How a partition cuts each hyperedge.

    ``counts`` is the ``pin_counts`` matrix: row e holds the nonzero
    per-cluster node counts of hyperedge e. ``relative_sizes[e]`` is the
    largest count divided by the degree, in (0, 1]; 1.0 means uncut.
    ``histogram`` gives the fraction of hyperedges per relative-size bin
    (0.0, 0.1], (0.1, 0.2], ..., (0.9, 1.0].
    """

    counts: sparse.csr_matrix
    relative_sizes: np.ndarray
    histogram: np.ndarray


def cut_stats(g: Hypergraph, partition: Partition) -> CutStats:
    """Per-hyperedge cut counts and the relative-size histogram."""
    counts = pin_counts(g, partition)
    delta = g.edge_degrees
    # Every hyperedge has a node, so no row is empty.
    top = np.maximum.reduceat(counts.data, counts.indptr[:-1])
    # Right-inclusive binning done in integers so exact boundaries such
    # as 9/10 land in (0.8, 0.9] despite floating-point rounding.
    bins = -(-10 * top // delta) - 1
    hist = np.bincount(bins, minlength=HISTOGRAM_BINS) / g.m
    return CutStats(counts, top / delta, hist)
