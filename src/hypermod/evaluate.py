"""Clustering quality metrics and hyperedge-cut diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypergraph import Hypergraph
from .modularity import Partition

__all__ = ["CutStats", "symmetric_f1", "cut_stats"]

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
    ct = truth.c
    pairs, overlap = np.unique(
        pred.assignment * ct + truth.assignment, return_counts=True
    )
    p, t = np.divmod(pairs, ct)
    # 2pr/(p+r) collapses to 2|P∩T| / (|P|+|T|).
    f1 = 2.0 * overlap / (pred.cluster_sizes[p] + truth.cluster_sizes[t])
    # Only the pairs that occur are scored: every cluster meets some class,
    # so its best F1 is positive and among them.
    forward = np.zeros(pred.c)
    np.maximum.at(forward, p, f1)
    backward = np.zeros(ct)
    np.maximum.at(backward, t, f1)
    return float((forward.mean() + backward.mean()) / 2.0)


@dataclass(frozen=True)
class CutStats:
    """How a partition cuts each hyperedge.

    ``partition_counts[e]`` holds the nonzero per-cluster node counts of
    hyperedge e (they sum to its degree). ``relative_sizes[e]`` is the
    largest count divided by the degree, in (0, 1]; 1.0 means uncut.
    ``histogram`` gives the fraction of hyperedges per relative-size bin
    (0.0, 0.1], (0.1, 0.2], ..., (0.9, 1.0].
    """

    partition_counts: list[np.ndarray]
    relative_sizes: np.ndarray
    histogram: np.ndarray


def cut_stats(g: Hypergraph, partition: Partition) -> CutStats:
    """Per-hyperedge cut counts and the relative-size histogram."""
    if len(partition) != g.n:
        raise ValueError("partition does not cover the hypergraph's nodes")
    delta = g.edge_degrees
    c = partition.c
    edge_of = np.repeat(np.arange(g.m), delta)
    # Keys (edge, cluster) sort by edge, then cluster, so each edge's
    # counts come out in ascending cluster order.
    keys, counts = np.unique(
        edge_of * c + partition.assignment[g.pins], return_counts=True
    )
    per_edge = np.bincount(keys // c, minlength=g.m)
    ends = np.cumsum(per_edge)
    top = np.maximum.reduceat(counts, ends - per_edge)
    rel = top / delta
    # Right-inclusive binning done in integers so exact boundaries such
    # as 9/10 land in (0.8, 0.9] despite floating-point rounding.
    bins = -(-10 * top // delta) - 1
    hist = np.bincount(bins, minlength=HISTOGRAM_BINS) / g.m
    bounds = ends.tolist()
    counts_per_edge = [
        counts[lo:hi] for lo, hi in zip([0] + bounds[:-1], bounds)
    ]
    return CutStats(counts_per_edge, rel, hist)
