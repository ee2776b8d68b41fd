"""
Synthetic hypergraphs and scaling
=================================

The generator plants k classes and draws hyperedge sizes from a
heavy-tailed three-bucket recipe (75% small, 20% medium, 5% spanning more
than half the nodes). 60% of hyperedges sample their nodes from a single
class, the rest from everywhere. This provides ground truth for quality
checks and arbitrarily sized inputs for timing.
"""

import time

import numpy as np

from hypermod import (
    GenConfig,
    LouvainConfig,
    Partition,
    degree_preserving_reduce,
    generate,
    louvain,
    preprocess,
    symmetric_f1,
)

g, truth = generate(GenConfig(n=400, seed=3))
print("generated:", g)
print("size quartiles:", np.percentile(g.edge_degrees, [25, 50, 75, 100]))

kept = preprocess(g)
print(f"largest component keeps {kept.n}/{g.n} nodes")

truth_kept = Partition.from_labels(truth.assignment[kept.node_labels])
result = louvain(degree_preserving_reduce(kept))
print(
    f"louvain finds {result.partition.c} clusters,"
    f" F1 vs planted classes {symmetric_f1(result.partition, truth_kept):.3f}"
)

print("\ncpu seconds for the full method (reduce + louvain):")
for n in (500, 1000, 1500):
    g, _ = generate(GenConfig(n=n, seed=1))
    g = preprocess(g)
    start = time.process_time()
    louvain(degree_preserving_reduce(g), LouvainConfig(seed=1))
    print(f"  n={n}: {time.process_time() - start:.2f}s")
