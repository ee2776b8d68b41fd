import numpy as np
import pytest

from hypermod import GenConfig, default_size_buckets, generate, preprocess


class TestQuotas:
    def test_edge_count_for_thousand_nodes(self):
        g, _ = generate(GenConfig(n=1000, seed=0))
        assert g.m == 1500

    def test_bucket_quotas_for_thousand_nodes(self):
        # floor(0.75 * 1500), floor(0.20 * 1500), remainder.
        g, _ = generate(GenConfig(n=1000, seed=0))
        small_hi = 30
        medium_hi = 500
        sizes = g.edge_degrees
        small = int(np.sum(sizes[:1125] <= small_hi))
        medium = int(
            np.sum((sizes[1125:1425] > small_hi) & (sizes[1125:1425] <= medium_hi))
        )
        large = int(np.sum(sizes[1425:] > medium_hi))
        assert (small, medium, large) == (1125, 300, 75)

    def test_sizes_respect_bucket_ranges(self):
        for n in (50, 200, 1000):
            g, _ = generate(GenConfig(n=n, seed=2))
            buckets = default_size_buckets(n)
            quotas = [
                int(0.75 * g.m),
                int(0.20 * g.m),
                g.m - int(0.75 * g.m) - int(0.20 * g.m),
            ]
            start = 0
            for (_, lo, hi), quota in zip(buckets, quotas):
                chunk = g.edge_degrees[start : start + quota]
                assert np.all(chunk >= lo)
                assert np.all(chunk <= hi)
                start += quota
            assert start == g.m


class TestDeterminismAndTruth:
    def test_same_seed_same_hypergraph(self):
        a, pa = generate(GenConfig(n=120, seed=9))
        b, pb = generate(GenConfig(n=120, seed=9))
        assert a == b
        assert pa == pb

    def test_different_seed_differs(self):
        a, _ = generate(GenConfig(n=120, seed=9))
        b, _ = generate(GenConfig(n=120, seed=10))
        assert a != b

    def test_truth_classes_balanced(self):
        _, truth = generate(GenConfig(n=100, seed=1))
        assert truth.c == 2
        assert np.array_equal(truth.cluster_sizes, [50, 50])
        _, truth3 = generate(GenConfig(n=100, classes=3, seed=1))
        assert sorted(truth3.cluster_sizes.tolist()) == [33, 33, 34]


class TestStatisticalProperties:
    def test_class_pure_fraction_near_expectation(self):
        # With deviation 0.4 roughly 60% of edges are class-pure; forced
        # fallbacks for oversized conforming edges push it slightly lower.
        fractions = []
        for seed in range(20):
            g, truth = generate(GenConfig(n=1000, seed=seed))
            pure = sum(
                1 for e in g.edges if np.unique(truth.assignment[e]).size == 1
            )
            fractions.append(pure / g.m)
        assert abs(np.mean(fractions) - 0.6) < 0.05

    def test_preprocess_retains_most_nodes(self):
        for seed in range(5):
            g, _ = generate(GenConfig(n=300, seed=seed))
            kept = preprocess(g)
            assert kept.n >= 0.95 * g.n


class TestValidation:
    def test_minimum_node_count(self):
        with pytest.raises(ValueError, match="10"):
            generate(GenConfig(n=5))

    def test_empty_size_range_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            generate(GenConfig(n=100, size_buckets=((1.0, 60, 50),)))

    def test_size_range_beyond_n_rejected(self):
        with pytest.raises(ValueError, match="invalid"):
            generate(GenConfig(n=100, size_buckets=((1.0, 2, 150),)))

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            generate(GenConfig(n=100, size_buckets=((0.5, 2, 10), (0.4, 2, 10))))

    def test_classes_bounds(self):
        with pytest.raises(ValueError, match="classes"):
            generate(GenConfig(n=20, classes=1))

    @pytest.mark.parametrize("classes", [2.5, 2.0, "2"])
    def test_classes_must_be_an_integer(self, classes):
        with pytest.raises(ValueError, match="classes must be an integer"):
            generate(GenConfig(n=20, classes=classes))

    def test_classes_accepts_numpy_integers(self):
        _, truth = generate(GenConfig(n=20, classes=np.int64(3)))
        assert truth.c == 3

    @pytest.mark.parametrize(
        "buckets",
        [((-0.5, 2, 3), (1.5, 2, 3)),
         ((float("nan"), 2, 3), (1.0, 2, 3)),
         ((1.0, 2, 3), (float("inf"), 2, 3))],
        ids=["negative", "nan", "inf"],
    )
    def test_fractions_finite_and_non_negative(self, buckets):
        with pytest.raises(ValueError, match="size_buckets fractions"):
            generate(GenConfig(n=20, edge_factor=1.0, size_buckets=buckets))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            generate(GenConfig(n=20, seed=-1))

    @pytest.mark.parametrize("factor", [0.0, float("inf"), float("nan")])
    def test_edge_factor_finite_and_positive(self, factor):
        with pytest.raises(ValueError, match="edge_factor"):
            generate(GenConfig(n=20, edge_factor=factor))
