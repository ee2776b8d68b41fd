"""Synthetic two-class hypergraph generator with planted homophily.

Hyperedge sizes follow a heavy-tailed three-bucket recipe: by default 75%
of the edges are small (at most 3% of the nodes), 20% are medium (up to
half the nodes) and the remaining 5% span more than half the nodes. Each
hyperedge either samples all its nodes from one class or, with probability
``homophily_deviation``, uniformly from everywhere. Nodes are split evenly
into classes, which doubles as the ground-truth clustering.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .hypergraph import Hypergraph
from .modularity import Partition

__all__ = ["GenConfig", "default_size_buckets", "generate"]


@dataclass(frozen=True)
class GenConfig:
    """Generator settings.

    ``size_buckets`` is a sequence of (fraction_of_edges, min_size,
    max_size) triples; fractions must sum to 1 and all but the last bucket
    get exactly floor(fraction * m) edges, the last one the remainder.
    When omitted, the default three-bucket recipe scaled to ``n`` is used.
    """

    n: int
    classes: int = 2
    homophily_deviation: float = 0.4
    edge_factor: float = 1.5
    size_buckets: tuple[tuple[float, int, int], ...] | None = None
    seed: int = 0


def default_size_buckets(n: int) -> tuple[tuple[float, int, int], ...]:
    """75/20/5 small/medium/large size buckets for an n-node hypergraph."""
    small_hi = max(2, int(0.03 * n))
    medium_hi = int(0.5 * n)
    return (
        (0.75, 2, small_hi),
        (0.20, max(2, small_hi + 1), medium_hi),
        (0.05, medium_hi + 1, n),
    )


def _bucket_quotas(buckets, m):
    fractions = [f for f, _, _ in buckets]
    if not all(0.0 <= f < np.inf for f in fractions):
        raise ValueError("size_buckets fractions must be finite and non-negative")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("size_buckets fractions must sum to 1")
    quotas = [int(f * m) for f in fractions[:-1]]
    last = m - sum(quotas)
    if last < 0:
        raise ValueError("bucket fractions overflow the edge count")
    quotas.append(last)
    return quotas


def generate(config: GenConfig) -> tuple[Hypergraph, Partition]:
    """Draw a hypergraph and its planted two-(or k-)class ground truth.

    Deterministic for a fixed config. A class-conforming hyperedge whose
    drawn size exceeds its class falls back to sampling from all nodes, so
    every size stays inside its bucket's range.
    """
    n = int(config.n)
    if n < 10:
        raise ValueError("need at least 10 nodes")
    classes = config.classes
    if not isinstance(classes, numbers.Integral) or not 2 <= classes <= n:
        raise ValueError("classes must be an integer in [2, n]")
    if not 0.0 <= config.homophily_deviation <= 1.0:
        raise ValueError("homophily_deviation must lie in [0, 1]")
    if not 0 < config.edge_factor < np.inf:
        raise ValueError("edge_factor must be finite and positive")
    if config.seed < 0:
        raise ValueError("seed must be non-negative")

    buckets = (
        config.size_buckets
        if config.size_buckets is not None
        else default_size_buckets(n)
    )
    for _, lo, hi in buckets:
        if lo < 2 or hi > n or lo > hi:
            raise ValueError(
                f"size range [{lo}, {hi}] is empty or invalid for n={n}"
            )

    m = int(np.ceil(config.edge_factor * n))
    quotas = _bucket_quotas(buckets, m)

    class_of = np.zeros(n, dtype=np.int64)
    class_pools = np.array_split(np.arange(n), config.classes)
    for cls, pool in enumerate(class_pools):
        class_of[pool] = cls

    rng = np.random.default_rng(config.seed)
    all_nodes = np.arange(n)
    edges = []
    for (_, lo, hi), quota in zip(buckets, quotas):
        for _ in range(quota):
            size = int(rng.integers(lo, hi + 1))
            deviates = rng.random() < config.homophily_deviation
            pool = all_nodes
            if not deviates:
                cls = int(rng.integers(config.classes))
                if class_pools[cls].size >= size:
                    pool = class_pools[cls]
            edges.append(rng.choice(pool, size=size, replace=False))

    return Hypergraph(n, edges), Partition.from_labels(class_of)
