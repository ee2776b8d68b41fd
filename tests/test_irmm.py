from fractions import Fraction

import numpy as np
import pytest

from hypermod import (
    Hypergraph,
    IrmmConfig,
    LouvainConfig,
    Partition,
    cut_stats,
    degree_preserving_reduce,
    irmm,
    louvain,
    preprocess,
    two_way_cut_score,
    update_weights,
    write_trace,
)
from hypermod.synthgen import GenConfig, generate

from oracles import bits, reweight_exact, reweighted_by_edge


class TestTwoWayCutScore:
    def test_lopsided_twenty(self):
        t = two_way_cut_score(2, 18, 20)
        assert t == Fraction(100, 9)
        assert float(t) == pytest.approx(11.111, abs=5e-4)

    def test_balanced_twenty(self):
        assert two_way_cut_score(10, 10, 20) == 4

    @pytest.mark.parametrize("delta", [20, 40, 60, 100])
    def test_75_25_and_95_5_ratios(self, delta):
        k = delta // 20
        assert two_way_cut_score(15 * k, 5 * k, delta) == Fraction(16, 3)
        assert two_way_cut_score(19 * k, k, delta) == Fraction(400, 19)

    def test_symmetry(self):
        for k1 in range(1, 12):
            assert two_way_cut_score(k1, 12 - k1, 12) == two_way_cut_score(
                12 - k1, k1, 12
            )

    def test_minimized_at_even_split(self):
        for delta in range(4, 41, 2):
            scores = {k1: two_way_cut_score(k1, delta - k1, delta) for k1 in range(1, delta)}
            assert min(scores, key=lambda k: (scores[k], k)) == delta // 2
            assert scores[delta // 2] == 4

    def test_rejects_empty_side(self):
        with pytest.raises(ValueError, match="nonempty"):
            two_way_cut_score(0, 20, 20)

    def test_rejects_inconsistent_degree(self):
        with pytest.raises(ValueError, match="sum"):
            two_way_cut_score(3, 4, 8)


def reweight(edge, partition, m):
    """w'(edge) under ``partition`` with normalizer m, from a hypergraph of
    m copies of ``edge``: ``update_weights`` with alpha 0 returns w'."""
    g = Hypergraph(len(partition), [edge] * m)
    return update_weights(np.ones(m), g, partition, 0.0)[0]


class TestReweight:
    def two_cluster_partition(self):
        # Nodes 0,1 in cluster 0; nodes 2,3 in cluster 1.
        return Partition([0, 0, 1, 1])

    def test_balanced_split(self):
        p = self.two_cluster_partition()
        edge = np.array([0, 1, 2, 3])
        assert reweight(edge, p, 1) == pytest.approx(4.0, rel=1e-12)
        assert float(reweight_exact([2, 2], 4, 2, 1)) == 4.0

    def test_uncut_edge_still_reweighted(self):
        p = Partition([0, 0, 0, 0, 1])
        edge = np.array([0, 1, 2, 3])
        assert reweight(edge, p, 1) == pytest.approx(7.2, rel=1e-12)
        assert float(reweight_exact([4, 0], 4, 2, 1)) == 7.2

    def test_normalizer_scales_linearly(self):
        p = Partition([0, 0, 0, 0, 1])
        edge = np.array([0, 1, 2, 3])
        assert reweight(edge, p, 10) == pytest.approx(0.72, rel=1e-12)

    def test_independent_of_current_weight(self):
        p = self.two_cluster_partition()
        edge = np.array([0, 1, 2])
        g1 = Hypergraph(4, [edge], weights=[1.0])
        g2 = Hypergraph(4, [edge], weights=[17.0])
        assert np.array_equal(
            update_weights(g1.weights, g1, p, 0.0),
            update_weights(g2.weights, g2, p, 0.0),
        )

    def test_invariant_under_cluster_relabeling(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            labels = rng.integers(0, 4, size=12)
            labels[:4] = [0, 1, 2, 3]  # keep ids dense
            p = Partition.from_labels(labels)
            perm = rng.permutation(p.c)
            q = Partition.from_labels(perm[p.assignment])
            edge = rng.choice(12, size=5, replace=False)
            assert reweight(edge, p, 7) == pytest.approx(
                reweight(edge, q, 7), rel=1e-12
            )

    def test_more_unbalanced_is_larger(self):
        # Fixed delta, c and m: (1,5) beats (2,4) beats (3,3).
        delta = 6
        scores = []
        for k1 in (3, 2, 1):
            labels = [0] * k1 + [1] * (delta - k1)
            p = Partition(labels)
            scores.append(reweight(np.arange(delta), p, 1))
        assert scores[0] < scores[1] < scores[2]

    def test_matches_exact_rational_on_random_counts(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            c = int(rng.integers(2, 6))
            counts = rng.integers(0, 5, size=c)
            counts[rng.integers(c)] += 2  # at least two nodes somewhere
            delta = int(counts.sum())
            labels = np.repeat(np.arange(c), counts)
            # Pad with one node per cluster so ids stay dense.
            pad = np.arange(c)
            p = Partition.from_labels(np.concatenate([pad, labels]))
            edge = np.arange(c, c + delta)
            m = int(rng.integers(1, 30))
            expected = float(reweight_exact(np.bincount(labels, minlength=c), delta, c, m))
            assert reweight(edge, p, m) == pytest.approx(expected, rel=1e-12)


class TestUpdateWeights:
    def test_moving_average(self):
        g = Hypergraph(4, [[0, 1, 2, 3]])
        p = Partition([0, 0, 1, 1])
        weights = np.array([1.0])
        new = update_weights(weights, g, p, 0.5)
        # w' = 4.0 for the balanced split, so 0.5*1 + 0.5*4 = 2.5.
        assert new[0] == pytest.approx(2.5, rel=1e-12)
        assert weights[0] == 1.0

    def test_alpha_weighting(self):
        g = Hypergraph(4, [[0, 1, 2, 3]])
        p = Partition([0, 0, 1, 1])
        new = update_weights(np.array([1.0]), g, p, 0.9)
        assert new[0] == pytest.approx(0.9 * 1.0 + 0.1 * 4.0, rel=1e-12)

    def test_fixed_point(self):
        g = Hypergraph(4, [[0, 1, 2, 3]])
        p = Partition([0, 0, 1, 1])
        new = update_weights(np.array([4.0]), g, p, 0.5)
        assert new[0] == pytest.approx(4.0, rel=1e-15)

    def test_weights_stay_positive(self):
        rng = np.random.default_rng(12)
        g = Hypergraph(
            10, [rng.choice(10, size=4, replace=False) for _ in range(8)]
        )
        p = Partition.from_labels(rng.integers(0, 3, size=10))
        weights = np.full(8, 1e-6)
        for _ in range(20):
            weights = update_weights(weights, g, p, 0.5)
            assert np.all(weights > 0)


def random_partition(rng, n, c):
    """Partition of n nodes into exactly c clusters (c <= n)."""
    labels = rng.integers(0, c, size=n)
    labels[rng.permutation(n)[:c]] = np.arange(c)
    return Partition(labels)


class TestUpdateWeightsMatchesReference:
    """The blocked edge x cluster count table gives the per-edge oracle's
    weights bit for bit (floats compared as int64 bit patterns)."""

    @staticmethod
    def check(g, partition, alpha=0.3):
        current = np.random.default_rng(g.m).uniform(0.5, 2.0, size=g.m)
        before = current.copy()
        got = update_weights(current, g, partition, alpha)
        wprime = reweighted_by_edge(g, partition)
        want = alpha * current + (1.0 - alpha) * wprime
        assert np.array_equal(bits(got), bits(want))
        assert np.array_equal(bits(current), bits(before))
        alone = update_weights(current, g, partition, 0.0)
        assert np.array_equal(bits(alone), bits(wprime))

    @pytest.mark.parametrize("c", [1, 2, 5, 8, 9, 16, 130, 1000])
    def test_random_hypergraphs(self, c):
        # c >= 9 takes numpy's pairwise summation, c > 128 its blocked form.
        rng = np.random.default_rng(c)
        for _ in range(8):
            n = c + int(rng.integers(0, 40))
            edges = [rng.choice(n, size=int(rng.integers(2, min(n, 20) + 1)))
                     for _ in range(int(rng.integers(2, 60)))]
            g = Hypergraph(n, edges, rng.uniform(0.5, 3.0, size=len(edges)))
            self.check(g, random_partition(rng, n, c))

    def test_singleton_and_duplicate_node_edges(self):
        g = Hypergraph(12, [[3], [2, 2], [1, 1, 0], [4, 0, 4, 1], list(range(12))])
        rng = np.random.default_rng(7)
        for c in (1, 3, 9, 12):
            self.check(g, random_partition(rng, 12, c))

    def test_several_edge_blocks(self):
        # 2**18 // 6000 = 43 edges per block, so 200 edges take 5 blocks.
        rng = np.random.default_rng(8)
        n = 6000
        edges = [rng.choice(n, size=int(rng.integers(2, 30)), replace=False)
                 for _ in range(200)]
        g = Hypergraph(n, edges)
        self.check(g, Partition(np.arange(n)))
        self.check(g, random_partition(rng, n, 5000))

    def test_one_edge_per_block(self):
        n = 2**18 + 5
        g = Hypergraph(n, [[0, 1], [2, 3, n - 1], [5, 6]])
        self.check(g, random_partition(np.random.default_rng(9), n, n - 2))


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"threshold": 0.0},
            {"max_iters": 0},
            {"threshold": float("nan")},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            IrmmConfig(**kwargs).validate()


def stray_node_toy():
    """Two ring-backed groups plus three overlapping hyperedges, each with
    one node on the wrong side."""
    edges = [
        [0, 1], [1, 2], [2, 3], [0, 3],
        [4, 5], [5, 6], [6, 7], [4, 7],
        [0, 1, 2, 3, 8],
        [8, 4, 5, 0],
        [8, 6, 7, 1],
    ]
    weights = np.ones(len(edges))
    weights[8] = 0.5
    return Hypergraph(9, edges, weights)


class TestIrmm:
    def test_unbalanced_cuts_get_removed(self):
        g = stray_node_toy()
        first = louvain(degree_preserving_reduce(g))
        # The single-shot clustering leaves the big edge cut 1:4 and two
        # edges cut 1:3.
        cs0 = cut_stats(g, first.partition)
        assert int(np.sum(cs0.relative_sizes < 1.0)) == 3
        assert any(sorted(c.tolist()) == [1, 4] for c in cs0.partition_counts)

        res = irmm(g)
        assert res.converged
        cs1 = cut_stats(g, res.partition)
        cuts_after = int(np.sum(cs1.relative_sizes < 1.0))
        assert cuts_after < 3
        # No lopsided cut survives: everything still cut is split 2:2.
        assert not any(sorted(c.tolist()) == [1, 4] for c in cs1.partition_counts)
        assert not any(sorted(c.tolist()) == [1, 3] for c in cs1.partition_counts)

    def test_fixed_point_exits_quickly(self):
        # Weights already at the reweighted value for a stable clustering.
        g = Hypergraph(4, [[0, 1], [2, 3]])
        stable = irmm(g, IrmmConfig(max_iters=50))
        assert stable.converged
        follow_up = irmm(
            g.with_weights(stable.weights), IrmmConfig(max_iters=50)
        )
        assert follow_up.iterations <= stable.iterations

    def test_synthetic_converges_within_cap(self):
        g, _ = generate(GenConfig(n=200, seed=5))
        g = preprocess(g)
        res = irmm(g)
        assert res.converged
        assert res.iterations <= 50
        assert res.trace[-1].weight_delta < 0.01

    def test_nonconvergence_flagged_not_fatal(self):
        g, _ = generate(GenConfig(n=120, seed=3))
        g = preprocess(g)
        res = irmm(g, IrmmConfig(max_iters=1))
        assert not res.converged
        assert res.iterations == 1
        assert res.partition is not None

    def test_trace_matches_iterations_and_file(self, tmp_path):
        g = stray_node_toy()
        res = irmm(g)
        assert len(res.trace) == res.iterations
        assert [t.iteration for t in res.trace] == list(
            range(1, res.iterations + 1)
        )
        path = tmp_path / "trace.tsv"
        write_trace(res.trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration\tweight_delta\tmodularity\tnum_clusters"
        assert len(lines) == res.iterations + 1

    def test_weight_state_invariant(self):
        g = stray_node_toy()
        res = irmm(g)
        assert np.all(res.weights > 0)

    def test_returned_partition_is_final_iteration(self):
        # Rerunning louvain on the final weights reproduces the returned
        # partition and modularity.
        g = stray_node_toy()
        res = irmm(g)
        # res.graph is the reduction the final clustering was computed on.
        again = louvain(res.graph, LouvainConfig())
        assert again.partition == res.partition
        assert again.modularity == res.modularity
