"""Iteratively reweighted modularity maximization.

Each round clusters the degree-preserving reduction of the current
weighted hypergraph, then recomputes every hyperedge weight from how the
partition cuts it: an edge split into per-cluster counts k_1..k_c gets

    w'(e) = (1/m) * sum_i 1/(k_i + 1) * (delta(e) + c)

which is smallest for balanced cuts, larger for unbalanced ones, and
largest when the edge is uncut (the +1 and +c terms keep empty clusters
harmless). New weights are blended with the old by a moving average
controlled by ``alpha``, and the loop stops once the weight vector moves
less than ``threshold``.

The reduction is linear in the weights, so on the dense layout a round
after the first takes the previous graph times alpha plus (1 - alpha)
times the reduction under w', rebuilt only when the partition changes:
the reduction of the current weights up to rounding. On CSR each round
reduces afresh once the previous graph is released.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .evaluate import pin_counts
from .hypergraph import Hypergraph
from .louvain import ClusterResult, LouvainConfig, louvain
from .modularity import Partition
from .reduction import combine_basis, degree_preserving_reduce, stage_basis

logger = logging.getLogger(__name__)

__all__ = [
    "IrmmConfig",
    "IrmmIteration",
    "two_way_cut_score",
    "update_weights",
    "irmm",
    "write_trace",
]


@dataclass(frozen=True)
class IrmmConfig:
    """Settings of the reweighting loop.

    alpha: moving-average coefficient, the share of the old weights kept
    by each update (strictly between 0 and 1).
    threshold: stop after the first round in which every hyperedge
    weight moves by less than this (the L-infinity norm of the change).
    max_iters: cap on reweighting rounds.
    louvain: node visit order of the Louvain run in every round.
    """

    alpha: float = 0.5
    threshold: float = 0.01
    max_iters: int = 50
    louvain: LouvainConfig = field(default_factory=LouvainConfig)

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if not self.threshold > 0:
            raise ValueError("threshold must be positive")
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError("max_iters must be an integer of at least 1")


@dataclass(frozen=True)
class IrmmIteration:
    """One reweighting round: weight movement, modularity, cluster count."""

    iteration: int
    weight_delta: float
    modularity: float
    num_clusters: int


def two_way_cut_score(k1: int, k2: int, delta_e: int) -> Fraction:
    """Balance score (1/k1 + 1/k2) * delta of a two-way hyperedge cut.

    Exact rational arithmetic; minimized (at 4) when the two sides are
    equal, growing without bound as the cut becomes lopsided. Both sides
    must be nonempty and sum to the hyperedge degree.
    """
    k1, k2, delta_e = int(k1), int(k2), int(delta_e)
    if k1 < 1 or k2 < 1:
        raise ValueError("both sides of the cut must be nonempty")
    if k1 + k2 != delta_e:
        raise ValueError("part sizes must sum to the hyperedge degree")
    return (Fraction(1, k1) + Fraction(1, k2)) * delta_e


def _target_weights(g: Hypergraph, partition: Partition) -> np.ndarray:
    """w'(e) of the module docstring for every hyperedge under ``partition``,
    read from the nonzero counts of ``pin_counts``: the cost grows with the
    pins, not with m x c. Each of a row's c - nnz empty clusters adds exactly
    1/(0 + 1) = 1, and one ``reduceat`` segment per row (no row is empty)
    adds its 1/(k+1) terms in ascending cluster order."""
    c = partition.c
    counts = pin_counts(g, partition)
    inv = np.add.reduceat(1.0 / (counts.data + 1.0), counts.indptr[:-1])
    return (c - np.diff(counts.indptr) + inv) * (g.edge_degrees + c) / g.m


def update_weights(
    weights: np.ndarray, g: Hypergraph, partition: Partition, alpha: float
) -> np.ndarray:
    """One moving-average weight update over all hyperedges (uncut included).

    Returns ``alpha * weights + (1 - alpha) * w'``, where w'(e) is the
    formula above; it depends only on the partition, never on the edge's
    current weight. The cost grows with the pins, however many clusters.
    """
    if np.shape(weights) != (g.m,):
        raise ValueError("need exactly one weight per hyperedge")
    return alpha * weights + (1.0 - alpha) * _target_weights(g, partition)


def irmm(g: Hypergraph, config: IrmmConfig | None = None) -> ClusterResult:
    """Cluster, reweight, repeat until the weights settle.

    ``g`` must be preprocessed (every hyperedge degree >= 2). Returns the
    final round's Louvain result with the round count, the per-round trace
    and ``weights``, the vector after the last update: one step past the
    weights of the returned graph. If the weights never move less than the
    threshold within ``max_iters`` rounds, ``converged`` is False.

    On the dense layout each round after the first combines the previous
    graph, in its buffer, with the basis (1 - alpha)·A(w'), which
    ``stage_basis`` builds again only when Louvain returns another
    partition; on CSR each round is a fresh reduction, the only graph held.
    """
    cfg = config if config is not None else IrmmConfig()
    weights = np.array(g.weights, dtype=np.float64)
    trace: list[IrmmIteration] = []
    converged = False
    graph = basis = based_on = None
    for it in range(1, cfg.max_iters + 1):
        weighted = g.with_weights(weights)
        # The previous round's result holds its graph; release it before a
        # CSR round builds afresh, or a dense round reuses its buffer.
        if graph is None or graph.dense is None:
            graph = result = None
            graph = degree_preserving_reduce(weighted)
        else:
            partition, result = result.partition, None
            if partition != based_on:
                basis = None  # never hold two bases at once
                target = g.with_weights(_target_weights(g, partition))
                basis = stage_basis(graph, target, 1.0 - cfg.alpha)
                based_on = partition
            graph = combine_basis(graph, basis, cfg.alpha, weighted)
        result = louvain(graph, cfg.louvain)
        previous = weights
        weights = update_weights(previous, weighted, result.partition, cfg.alpha)
        delta = float(np.max(np.abs(weights - previous)))
        trace.append(
            IrmmIteration(it, delta, result.modularity, result.partition.c)
        )
        if delta < cfg.threshold:
            converged = True
            break
    if not converged:
        logger.warning(
            "irmm: weights still moving after max_iters=%d rounds"
            " (last delta %g, not below threshold=%g)",
            cfg.max_iters, trace[-1].weight_delta, cfg.threshold,
        )
    return replace(
        result,
        iterations=len(trace),
        converged=converged,
        trace=trace,
        weights=weights,
    )


def write_trace(trace, path) -> None:
    """Write per-iteration records as TSV for convergence plots."""
    lines = ["iteration\tweight_delta\tmodularity\tnum_clusters"]
    for rec in trace:
        lines.append(
            f"{rec.iteration}\t{rec.weight_delta!r}\t{rec.modularity!r}"
            f"\t{rec.num_clusters}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
