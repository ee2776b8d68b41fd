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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .hypergraph import Hypergraph
from .louvain import LouvainConfig, louvain
from .modularity import Partition
from .reduction import ReducedGraph, degree_preserving_reduce

logger = logging.getLogger(__name__)

# ``update_weights`` builds its edge x cluster count table in blocks of at
# most this many cells (or one row), so memory stays linear in m and c.
_TABLE_CELLS = 2**18

__all__ = [
    "WeightState",
    "IrmmConfig",
    "IrmmIteration",
    "IrmmResult",
    "two_way_cut_score",
    "reweight",
    "update_weights",
    "irmm",
    "write_trace",
]


@dataclass(frozen=True)
class WeightState:
    """Current and previous hyperedge weights of the reweighting loop."""

    current: np.ndarray
    previous: np.ndarray | None
    alpha: float
    iteration: int


@dataclass(frozen=True)
class IrmmConfig:
    alpha: float = 0.5
    threshold: float = 0.01
    max_iters: int = 50
    norm: str = "linf"
    louvain: LouvainConfig = field(default_factory=LouvainConfig)

    def validate(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.norm not in ("linf", "l2"):
            raise ValueError("norm must be 'linf' or 'l2'")
        self.louvain.validate()


@dataclass(frozen=True)
class IrmmIteration:
    """One reweighting round: weight movement, modularity, cluster count."""

    iteration: int
    weight_delta: float
    modularity: float
    num_clusters: int


@dataclass
class IrmmResult:
    partition: Partition
    num_clusters: int
    modularity: float
    iterations: int
    converged: bool
    trace: list[IrmmIteration]
    weights: np.ndarray
    graph: ReducedGraph


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


def reweight(edge: np.ndarray, partition: Partition, num_edges: int) -> float:
    """Smoothed cut-balance weight of one hyperedge under a partition.

    Counts the edge's nodes in every cluster (zeros included) and applies
    the formula above; the result depends only on the partition, never on
    the edge's current weight.
    """
    counts = np.bincount(partition.assignment[edge], minlength=partition.c)
    inv = 1.0 / (counts + 1.0)
    return float(inv.sum() * (edge.size + partition.c) / num_edges)


def update_weights(
    state: WeightState, g: Hypergraph, partition: Partition
) -> WeightState:
    """One moving-average weight update over all hyperedges (uncut included).

    The new weight of every hyperedge is ``reweight``'s, bit for bit: a
    block of hyperedges at a time (at most ``_TABLE_CELLS`` cells) gets a
    table of its node counts in every cluster, zeros included, and each
    row's 1/(k+1) terms are summed along the row, the order ``reweight``
    sums them in. No m x c table is formed.
    """
    c, m = partition.c, g.m
    delta = g.edge_degrees
    ends = np.cumsum(delta)
    rows = max(1, _TABLE_CELLS // c)
    wprime = np.empty(m)
    for e0 in range(0, m, rows):
        e1 = min(m, e0 + rows)
        pins = g.pins[ends[e0] - delta[e0] : ends[e1 - 1]]
        edge_of = np.repeat(np.arange(e1 - e0), delta[e0:e1])
        counts = np.bincount(
            edge_of * c + partition.assignment[pins], minlength=(e1 - e0) * c
        ).reshape(e1 - e0, c)
        inv = 1.0 / (counts + 1.0)
        wprime[e0:e1] = inv.sum(axis=1) * (delta[e0:e1] + c) / m
    blended = state.alpha * state.current + (1.0 - state.alpha) * wprime
    return WeightState(
        current=blended,
        previous=state.current.copy(),
        alpha=state.alpha,
        iteration=state.iteration + 1,
    )


def _weight_delta(diff: np.ndarray, norm: str) -> float:
    if norm == "l2":
        return float(np.linalg.norm(diff))
    return float(np.max(np.abs(diff)))


def irmm(g: Hypergraph, config: IrmmConfig | None = None) -> IrmmResult:
    """Cluster, reweight, repeat until the weights settle.

    ``g`` must be preprocessed (every hyperedge degree >= 2). Returns the
    partition of the final round together with the per-round trace; if the
    weights never move less than the threshold within ``max_iters`` rounds
    the final round's result is returned with ``converged`` False.
    """
    cfg = config if config is not None else IrmmConfig()
    cfg.validate()
    state = WeightState(
        current=np.array(g.weights, dtype=np.float64),
        previous=None,
        alpha=cfg.alpha,
        iteration=0,
    )
    trace: list[IrmmIteration] = []
    converged = False
    result = None
    reduced = None
    for it in range(1, cfg.max_iters + 1):
        weighted = g.with_weights(state.current)
        reduced = degree_preserving_reduce(weighted)
        result = louvain(reduced, cfg.louvain)
        state = update_weights(state, weighted, result.partition)
        delta = _weight_delta(state.current - state.previous, cfg.norm)
        trace.append(
            IrmmIteration(it, delta, result.modularity, result.num_clusters)
        )
        if delta < cfg.threshold:
            converged = True
            break
    if not converged:
        logger.warning(
            "irmm: weights still moving after %d iterations (last delta %g)",
            cfg.max_iters,
            trace[-1].weight_delta,
        )
    return IrmmResult(
        partition=result.partition,
        num_clusters=result.num_clusters,
        modularity=result.modularity,
        iterations=len(trace),
        converged=converged,
        trace=trace,
        weights=state.current.copy(),
        graph=reduced,
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
