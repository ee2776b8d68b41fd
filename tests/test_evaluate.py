import tracemalloc

import numpy as np
import pytest

from hypermod import Hypergraph, Partition, cut_stats, symmetric_f1

from oracles import bits, cut_stats_by_edge, symmetric_f1_naive, symmetric_f1_tables


class TestSymmetricF1:
    def test_perfect_match_up_to_relabeling(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            labels = rng.integers(0, 4, size=20)
            labels[:4] = [0, 1, 2, 3]
            pred = Partition.from_labels(labels)
            perm = rng.permutation(pred.c)
            truth = Partition.from_labels(perm[pred.assignment])
            assert symmetric_f1(pred, truth) == 1.0

    def test_one_cluster_vs_two_equal_halves(self):
        # truth = two clusters of size 2, pred lumps everything together.
        pred = Partition([0, 0, 0, 0])
        truth = Partition([0, 0, 1, 1])
        expected = symmetric_f1_naive(pred.assignment, truth.assignment)
        assert expected == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert symmetric_f1(pred, truth) == pytest.approx(expected, abs=1e-12)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = Partition.from_labels(rng.integers(0, 5, size=30))
            b = Partition.from_labels(rng.integers(0, 3, size=30))
            assert symmetric_f1(a, b) == pytest.approx(
                symmetric_f1(b, a), abs=1e-15
            )

    def test_range_and_identity_condition(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = Partition.from_labels(rng.integers(0, 4, size=15))
            b = Partition.from_labels(rng.integers(0, 4, size=15))
            value = symmetric_f1(a, b)
            assert 0.0 <= value <= 1.0
            same = np.array_equal(a.assignment, b.assignment)
            if value == 1.0:
                # Score 1 only for identical clusterings up to relabeling;
                # canonical forms are already densified by first appearance.
                assert same
            if same:
                assert value == 1.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            a = Partition.from_labels(rng.integers(0, 6, size=40))
            b = Partition.from_labels(rng.integers(0, 4, size=40))
            assert symmetric_f1(a, b) == pytest.approx(
                symmetric_f1_naive(a.assignment, b.assignment), abs=1e-12
            )

    def test_matches_dense_tables_bit_for_bit(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(1, 300))
            a = Partition.from_labels(rng.integers(0, int(rng.integers(1, 60)), size=n))
            b = Partition.from_labels(rng.integers(0, int(rng.integers(1, 60)), size=n))
            assert bits(symmetric_f1(a, b)) == bits(symmetric_f1_tables(a, b))

    def test_memory_linear_in_nodes(self):
        # Dense cp x ct tables would take about 96 MB here.
        rng = np.random.default_rng(9)
        n = 4000
        pred = Partition.from_labels(np.arange(n) % 2000)
        truth = Partition.from_labels(rng.permutation(n) % 2000)
        assert pred.c == truth.c == 2000
        tracemalloc.start()
        try:
            value = symmetric_f1(pred, truth)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 < value < 1.0
        assert peak < 4 * 2**20

    def test_node_set_mismatch_rejected(self):
        with pytest.raises(ValueError, match="different"):
            symmetric_f1(Partition([0, 1]), Partition([0, 1, 1]))


class TestCutStats:
    def test_uncut_edge_tops_histogram(self):
        g = Hypergraph(4, [[0, 1, 2, 3]])
        stats = cut_stats(g, Partition([0, 0, 0, 0]))
        assert stats.relative_sizes[0] == 1.0
        assert stats.histogram[9] == 1.0
        assert stats.histogram.sum() == pytest.approx(1.0)

    def test_even_split_of_twenty(self):
        g = Hypergraph(20, [list(range(20))])
        labels = [0] * 10 + [1] * 10
        stats = cut_stats(g, Partition(labels))
        assert stats.relative_sizes[0] == 0.5
        # 0.5 is right-inclusive into the (0.4, 0.5] bin.
        assert stats.histogram[4] == 1.0

    def test_one_four_split_of_five(self):
        g = Hypergraph(5, [[0, 1, 2, 3, 4]])
        stats = cut_stats(g, Partition([0, 1, 1, 1, 1]))
        assert stats.relative_sizes[0] == pytest.approx(0.8)
        assert stats.histogram[7] == 1.0

    def test_exact_boundaries_binned_by_integers(self):
        # 9/10 must land in (0.8, 0.9] even though 0.9 * 10 rounds above 9.
        g = Hypergraph(10, [list(range(10))])
        stats = cut_stats(g, Partition([0] * 9 + [1]))
        assert stats.histogram[8] == 1.0
        # 1/10 lands in (0.0, 0.1].
        g2 = Hypergraph(20, [list(range(20))])
        labels = list(range(10)) + [10] * 10
        stats2 = cut_stats(g2, Partition(labels))
        assert stats2.relative_sizes[0] == pytest.approx(0.5)

    def test_counts_sum_to_degree(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = 30
            edges = [
                rng.choice(n, size=int(rng.integers(2, 9)), replace=False)
                for _ in range(15)
            ]
            g = Hypergraph(n, edges)
            p = Partition.from_labels(rng.integers(0, 5, size=n))
            stats = cut_stats(g, p)
            for counts, edge in zip(stats.partition_counts, g.edges):
                assert counts.sum() == edge.size
                assert np.all(counts > 0)
            assert stats.histogram.sum() == pytest.approx(1.0)

    def test_relabel_invariance(self):
        rng = np.random.default_rng(6)
        n = 25
        edges = [
            rng.choice(n, size=int(rng.integers(2, 7)), replace=False)
            for _ in range(12)
        ]
        g = Hypergraph(n, edges)
        labels = rng.integers(0, 4, size=n)
        labels[:4] = [0, 1, 2, 3]
        p = Partition.from_labels(labels)
        perm = rng.permutation(p.c)
        q = Partition.from_labels(perm[p.assignment])
        a = cut_stats(g, p)
        b = cut_stats(g, q)
        assert np.array_equal(a.relative_sizes, b.relative_sizes)
        assert np.array_equal(a.histogram, b.histogram)

    def test_partition_must_cover_nodes(self):
        g = Hypergraph(4, [[0, 1, 2, 3]])
        with pytest.raises(ValueError, match="cover"):
            cut_stats(g, Partition([0, 0, 1]))


class TestCutStatsMatchesReference:
    """One np.unique over (edge, cluster) keys gives what one np.unique
    per hyperedge gave."""

    @staticmethod
    def check(g, partition):
        got = cut_stats(g, partition)
        counts, rel, hist = cut_stats_by_edge(g, partition)
        assert len(got.partition_counts) == len(counts)
        for a, b in zip(got.partition_counts, counts):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        assert np.array_equal(bits(got.relative_sizes), bits(rel))
        assert np.array_equal(bits(got.histogram), bits(hist))

    def test_random_hypergraphs(self, mixed_corpus):
        rng = np.random.default_rng(10)
        for g in mixed_corpus[:60]:
            for c in (1, 2, max(1, g.n // 3), g.n):
                labels = rng.integers(0, c, size=g.n)
                self.check(g, Partition.from_labels(labels))

    def test_singleton_and_duplicate_node_edges(self):
        g = Hypergraph(10, [[3], [2, 2], [1, 1, 0], [4, 0, 4, 1], list(range(10))])
        rng = np.random.default_rng(11)
        for c in (1, 3, 10):
            self.check(g, Partition.from_labels(rng.integers(0, c, size=10)))
