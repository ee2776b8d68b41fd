"""Hypergraph clustering by modularity maximization.

Builds a degree-preserving graph reduction of a weighted hypergraph (row
sums equal hypergraph node degrees), maximizes the induced modularity with
the Louvain method, and optionally refines the result by iteratively
reweighting hyperedges according to how balanced their cuts are.
"""

from .evaluate import CutStats, cut_stats, symmetric_f1
from .hypergraph import (
    DegreeView,
    FormatError,
    Hypergraph,
    degrees,
    load,
    load_labels,
    loads,
    preprocess,
    write_hmetis,
    write_labels,
)
from .irmm import (
    IrmmConfig,
    IrmmIteration,
    irmm,
    two_way_cut_score,
    update_weights,
    write_trace,
)
from .louvain import (
    ClusterResult,
    LouvainConfig,
    flatten,
    louvain,
)
from .modularity import (
    ModularityContext,
    Partition,
    aggregate,
    modularity,
)
from .reduction import (
    DENSE_NODE_LIMIT,
    ReducedGraph,
    clique_reduce,
    degree_preserving_reduce,
    random_walk_matrix,
)
from .refine import agglomerate
from .synthgen import GenConfig, default_size_buckets, generate

__version__ = "0.1.0"

__all__ = [
    "ClusterResult",
    "CutStats",
    "DegreeView",
    "DENSE_NODE_LIMIT",
    "FormatError",
    "GenConfig",
    "Hypergraph",
    "IrmmConfig",
    "IrmmIteration",
    "LouvainConfig",
    "ModularityContext",
    "Partition",
    "ReducedGraph",
    "agglomerate",
    "aggregate",
    "clique_reduce",
    "cut_stats",
    "default_size_buckets",
    "degree_preserving_reduce",
    "degrees",
    "flatten",
    "generate",
    "irmm",
    "load",
    "load_labels",
    "loads",
    "louvain",
    "modularity",
    "preprocess",
    "random_walk_matrix",
    "symmetric_f1",
    "two_way_cut_score",
    "update_weights",
    "write_hmetis",
    "write_labels",
    "write_trace",
]
