"""
Hypergraph Louvain
==================

Modularity of the degree-preserving reduction can be maximized with the
Louvain method; the number of clusters comes out of the optimization. The
toy below has two node groups bridged by a single hyperedge, and the
optimizer recovers the groups. A fixed cluster count, when needed, is
reached by average-linkage merging of the discovered clusters.
"""

from hypermod import (
    Hypergraph,
    Partition,
    agglomerate,
    degree_preserving_reduce,
    louvain,
    modularity,
    symmetric_f1,
)

edges = [
    [0, 1, 2], [0, 1], [1, 2], [2, 3],          # group one
    [4, 5, 6], [4, 5], [5, 6], [6, 7],          # group two
    [3, 4],                                     # bridge
]
g = Hypergraph(8, edges)
reduced = degree_preserving_reduce(g)

result = louvain(reduced)
print("clusters found:", result.partition.c)
print("assignment:    ", result.partition.assignment)
print("modularity:    ", round(result.modularity, 4))

truth = Partition([0, 0, 0, 0, 1, 1, 1, 1])
print("symmetric F1 vs planted groups:", symmetric_f1(result.partition, truth))

# The levels record one partition per aggregation level that moved a node.
for depth, level in enumerate(result.levels):
    print(f"level {depth}: {level.assignment} (c={level.c})")

# Post-processing to an exact cluster count merges the pair with the
# highest average linkage until the target is reached.
merged = agglomerate(reduced, result.partition, 1)
print("\nforced down to k=1:", merged.assignment)
print("modularity at k=1:", modularity(reduced, merged))
