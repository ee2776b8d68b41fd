import time

import numpy as np
import pytest
from scipy import sparse

from hypermod import (
    Partition,
    ReducedGraph,
    aggregate,
    agglomerate,
    degree_preserving_reduce,
    louvain,
)

from conftest import random_hypergraph
from oracles import agglomerate_rebuild_linkage, same_clustering


def graph_from_dense(dense):
    return ReducedGraph(sparse.csr_matrix(np.asarray(dense, dtype=float)))


def symmetric_graph(n, rows, cols, weights):
    adjacency = sparse.coo_matrix((weights, (rows, cols)), shape=(n, n))
    return ReducedGraph((adjacency + adjacency.T).tocsr())


def ring_of_triangles(c):
    """c unit-weight triangles, triangle i joined to triangle i + 1 (mod c)
    by one edge; the partition puts each triangle in its own cluster."""
    base = 3 * np.arange(c)
    rows = np.concatenate([base, base, base + 1, base + 2])
    cols = np.concatenate([base + 1, base + 2, base + 2, (base + 3) % (3 * c)])
    graph = symmetric_graph(3 * c, rows, cols, np.ones(rows.size))
    return graph, Partition(np.arange(3 * c) // 3)


def three_cluster_example():
    """Clusters A={0,1}, B={2,3}, C={4,5}: A-B linkage 1.0, B-C 0.25."""
    dense = np.zeros((6, 6))
    for i, j in [(0, 2), (0, 3), (1, 2), (1, 3)]:
        dense[i, j] = dense[j, i] = 1.0  # A-B total 4 over 2*2 pairs
    dense[3, 4] = dense[4, 3] = 1.0  # B-C total 1 over 2*2 pairs
    return graph_from_dense(dense), Partition([0, 0, 1, 1, 2, 2])


class TestAgglomerate:
    def test_identity_when_k_equals_c(self):
        graph, p = three_cluster_example()
        assert agglomerate(graph, p, 3) == p

    def test_full_merge_when_k_is_one(self):
        graph, p = three_cluster_example()
        out = agglomerate(graph, p, 1)
        assert out.c == 1
        assert np.array_equal(out.assignment, np.zeros(6, dtype=int))

    def test_merges_highest_average_linkage_pair(self):
        graph, p = three_cluster_example()
        out = agglomerate(graph, p, 2)
        assert out.c == 2
        assert same_clustering(out, Partition([0, 0, 0, 0, 1, 1]))

    def test_rejects_k_above_c(self):
        graph, p = three_cluster_example()
        with pytest.raises(ValueError, match="split"):
            agglomerate(graph, p, 4)

    def test_rejects_nonpositive_k(self):
        graph, p = three_cluster_example()
        with pytest.raises(ValueError, match="at least 1"):
            agglomerate(graph, p, 0)

    def test_tie_broken_by_lowest_pair(self):
        # Three singleton clusters with identical pairwise linkage: the
        # first merge must take clusters (0, 1).
        dense = np.zeros((3, 3))
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            dense[i, j] = dense[j, i] = 1.0
        graph = graph_from_dense(dense)
        out = agglomerate(graph, Partition([0, 1, 2]), 2)
        assert np.array_equal(out.assignment, [0, 0, 1])

    def test_exact_target_counts(self):
        rng = np.random.default_rng(14)
        g = random_hypergraph(rng, n_max=40, weighted=True)
        rg = degree_preserving_reduce(g)
        res = louvain(rg)
        for k in range(1, res.partition.c + 1):
            out = agglomerate(rg, res.partition, k)
            assert out.c == k

    def test_only_whole_cluster_unions(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            g = random_hypergraph(rng, n_max=40, weighted=True)
            rg = degree_preserving_reduce(g)
            res = louvain(rg)
            if res.partition.c < 3:
                continue
            k = res.partition.c - 1
            out = agglomerate(rg, res.partition, k)
            # Every original cluster maps into exactly one output cluster.
            for members in res.partition.clusters():
                assert np.unique(out.assignment[members]).size == 1

    def test_deterministic(self):
        rng = np.random.default_rng(16)
        g = random_hypergraph(rng, n_max=40)
        rg = degree_preserving_reduce(g)
        res = louvain(rg)
        k = max(1, res.partition.c // 2)
        a = agglomerate(rg, res.partition, k)
        b = agglomerate(rg, res.partition, k)
        assert a == b

    def test_matches_rebuilding_the_linkage(self):
        # Clusters of one or two nodes and integer weights on half the
        # trials make many pairs tie, at zero and above.
        rng = np.random.default_rng(31)
        for trial in range(30):
            c = int(rng.integers(2, 201))
            n = c + int(rng.integers(0, c + 1))
            labels = np.concatenate([np.arange(c), rng.integers(0, c, n - c)])
            rng.shuffle(labels)
            m = int(rng.integers(c, 4 * c))
            rows, cols = rng.integers(0, n, m), rng.integers(0, n, m)
            keep = rows != cols
            if trial % 2:
                weights = rng.integers(1, 3, m).astype(float)
            else:
                weights = rng.uniform(0.5, 3.0, m)
            graph = symmetric_graph(n, rows[keep], cols[keep], weights[keep])
            partition = Partition.from_labels(labels)
            weight = aggregate(graph, partition).to_dense()
            for k in sorted({1, max(1, c // 2), c - 1}):
                parent = agglomerate_rebuild_linkage(
                    weight, partition.cluster_sizes, k
                )
                want = Partition.from_labels(parent[partition.assignment])
                assert agglomerate(graph, partition, k) == want

    def test_many_clusters(self):
        # Rebuilding the c x c linkage on every merge, as the reference
        # does, takes about 11 s CPU at this size on a 2-core x86-64 VM.
        graph, partition = ring_of_triangles(1000)
        start = time.process_time()
        out = agglomerate(graph, partition, 2)
        elapsed = time.process_time() - start
        assert out.c == 2
        for members in partition.clusters():
            assert np.unique(out.assignment[members]).size == 1
        assert elapsed < 3.0
