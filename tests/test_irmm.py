import importlib
import tracemalloc
from dataclasses import replace
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
from hypermod import reduction
from hypermod.reduction import combine_basis, row_blocks, stage_basis
from hypermod.synthgen import GenConfig, generate

from oracles import bits, irmm_rebuild_reference, reweight_exact, reweighted_by_edge

# The module, not the function the package exports under the same name.
irmm_module = importlib.import_module("hypermod.irmm")


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

    def test_partition_must_cover_nodes(self):
        # A longer partition would change c in w'; a shorter one misses pins.
        g = Hypergraph(4, [[0, 1], [1, 2, 3], [0, 3]])
        for labels in ([0, 1, 2, 0, 1, 2], [0, 1, 1]):
            with pytest.raises(ValueError, match="cover"):
                update_weights(np.ones(3), g, Partition(labels), 0.5)

    def test_one_weight_per_hyperedge(self):
        g = Hypergraph(4, [[0, 1], [1, 2, 3], [0, 3]])
        p = Partition([0, 0, 1, 1])
        for weights in (np.ones(1), np.ones(4), np.ones((3, 1))):
            with pytest.raises(ValueError, match="one weight per hyperedge"):
                update_weights(weights, g, p, 0.5)

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
    """The nonzero pin counts give the per-edge oracle's weights bit for
    bit (floats compared as int64 bit patterns)."""

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
        # From c = 3 on, the order in which the empty clusters' 1s and the
        # nonzero terms are added shows in the bits.
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

    def test_thousands_of_clusters_over_many_edges(self):
        # Each edge touches at most 29 of the 5,000 or 6,000 clusters.
        rng = np.random.default_rng(8)
        n = 6000
        edges = [rng.choice(n, size=int(rng.integers(2, 30)), replace=False)
                 for _ in range(200)]
        g = Hypergraph(n, edges)
        self.check(g, Partition(np.arange(n)))
        self.check(g, random_partition(rng, n, 5000))

    def test_a_quarter_million_clusters_over_three_edges(self):
        # 7 pins against c = 2**18 + 3 clusters.
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
            IrmmConfig(**kwargs)

    @pytest.mark.parametrize("max_iters", [1.5, 2.0])
    def test_rejects_non_integral_max_iters(self, max_iters):
        with pytest.raises(ValueError, match="max_iters must be an integer of at"):
            IrmmConfig(max_iters=max_iters)

    def test_replace_validates(self):
        with pytest.raises(ValueError, match="alpha"):
            replace(IrmmConfig(), alpha=1.0)


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


def cut_counts(stats):
    """Each hyperedge's nonzero cluster counts, ascending."""
    k = stats.counts
    return [sorted(k.data[lo:hi].tolist()) for lo, hi in zip(k.indptr, k.indptr[1:])]


class TestIrmm:
    def test_unbalanced_cuts_get_removed(self):
        g = stray_node_toy()
        first = louvain(degree_preserving_reduce(g))
        # The single-shot clustering leaves the big edge cut 1:4 and two
        # edges cut 1:3.
        cs0 = cut_stats(g, first.partition)
        assert int(np.sum(cs0.relative_sizes < 1.0)) == 3
        assert [1, 4] in cut_counts(cs0)

        res = irmm(g)
        assert res.converged
        cs1 = cut_stats(g, res.partition)
        cuts_after = int(np.sum(cs1.relative_sizes < 1.0))
        assert cuts_after < 3
        # No lopsided cut survives: everything still cut is split 2:2.
        assert [1, 4] not in cut_counts(cs1)
        assert [1, 3] not in cut_counts(cs1)

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

    def test_nonconvergence_warning_names_its_limits(self, caplog):
        g, _ = generate(GenConfig(n=120, seed=3))
        with caplog.at_level("WARNING", logger="hypermod.irmm"):
            res = irmm(preprocess(g), IrmmConfig(max_iters=1, threshold=1e-3))
        assert not res.converged
        [record] = caplog.records
        assert record.levelname == "WARNING"
        message = record.getMessage()
        assert "max_iters=1 " in message
        assert "threshold=0.001" in message
        assert f"last delta {res.trace[-1].weight_delta:g}" in message

    def test_converged_run_does_not_warn(self, caplog):
        g = Hypergraph(4, [[0, 1], [2, 3]])
        with caplog.at_level("WARNING", logger="hypermod.irmm"):
            assert irmm(g).converged
        assert not caplog.records

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


def split_csr_input():
    """Six 90-node hyperedges among 300 nodes take the BLAS product, and
    the predicted fill (under 1/2) keeps the split reduction in CSR."""
    rng = np.random.default_rng(0)
    edges = [rng.choice(300, 90, replace=False) for _ in range(6)]
    edges += [rng.choice(300, 3, replace=False) for _ in range(600)]
    return preprocess(Hypergraph(300, edges))


REUSE_INPUTS = {
    **{f"seed{s}": GenConfig(n=200, classes=4, seed=s) for s in range(30)},
    "csr": GenConfig(n=200, classes=4, seed=0, size_buckets=((1.0, 2, 6),)),
    "split-csr": None,
}


class TestReuseMatchesRebuild:
    """Combining the previous graph with a reused basis clusters as
    rebuilding the reduction every round does; on CSR irmm rebuilds, so it
    matches bit for bit."""

    @pytest.mark.parametrize("name", list(REUSE_INPUTS))
    def test_same_rounds_partitions_and_weights(self, name):
        cfg = REUSE_INPUTS[name]
        g = split_csr_input() if cfg is None else preprocess(generate(cfg)[0])
        got, want = irmm(g), irmm_rebuild_reference(g)
        csr = name in ("csr", "split-csr")
        assert (got.graph.dense is None) == csr
        assert got.partition == want.partition
        assert got.levels == want.levels
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        assert np.array_equal(bits(got.weights), bits(want.weights))
        tol = 0 if csr else 1e-12  # CSR rounds reduce afresh, as the oracle does
        for mine, theirs in zip(got.trace, want.trace, strict=True):
            assert bits(mine.weight_delta) == bits(theirs.weight_delta)
            assert mine.num_clusters == theirs.num_clusters
            assert mine.modularity == pytest.approx(theirs.modularity, rel=0, abs=tol)
        assert got.modularity == pytest.approx(want.modularity, rel=0, abs=tol)
        if csr:
            assert np.array_equal(
                bits(got.graph.to_dense()), bits(want.graph.to_dense())
            )


class TestBasisReuse:
    @staticmethod
    def counted(monkeypatch):
        """Record every build, staged basis, partition and update of irmm."""
        log = {"builds": [], "staged": [], "partitions": [], "updates": 0}

        def reduce(weighted):
            log["builds"].append("reduce")
            return degree_preserving_reduce(weighted)

        def stage(graph, target, factor):
            log["builds"].append("basis")
            blocks = stage_basis(graph, target, factor)
            log["staged"].append((target, factor, blocks))
            return blocks

        def cluster(graph, config):
            result = louvain(graph, config)
            log["partitions"].append(result.partition)
            return result

        def update(*args):
            log["updates"] += 1
            return update_weights(*args)

        monkeypatch.setattr(irmm_module, "degree_preserving_reduce", reduce)
        monkeypatch.setattr(irmm_module, "stage_basis", stage)
        monkeypatch.setattr(irmm_module, "louvain", cluster)
        monkeypatch.setattr(irmm_module, "update_weights", update)
        return log

    @pytest.mark.parametrize("block_cells", [None, 2**12])
    def test_fixed_partition_builds_twice(self, block_cells, monkeypatch):
        # At 2**12 cells the 200 rows take 10 blocks of 20, so the staged
        # blocks cross the diagonal in many corners; else they take one.
        if block_cells is not None:
            monkeypatch.setattr(reduction, "_BLOCK_CELLS", block_cells)
        g = preprocess(generate(GenConfig(n=200, classes=4, seed=9))[0])
        log = self.counted(monkeypatch)
        res = irmm(g)
        partitions = log["partitions"]
        assert res.iterations == len(partitions) == log["updates"] == 7
        assert all(p == partitions[0] for p in partitions)
        assert log["builds"] == ["reduce", "basis"]
        [(target, factor, blocks)] = log["staged"]
        assert factor == 1.0 - IrmmConfig().alpha
        wprime = update_weights(g.weights, g, partitions[0], 0.0)
        assert np.array_equal(bits(target.weights), bits(wprime))
        fresh = degree_preserving_reduce(target).dense
        spans = list(row_blocks(g.n))
        assert len(spans) == (1 if block_cells is None else 10)
        for (r0, r1), block in zip(spans, blocks, strict=True):
            assert block.shape == (r1 - r0, g.n - r0)
            want = np.triu(fresh[r0:r1, r0:] * factor, 1)
            assert np.array_equal(bits(block), bits(want))

    @pytest.mark.parametrize("name", ["csr", "split-csr"])
    def test_csr_rounds_rebuild_and_stage_nothing(self, name, monkeypatch):
        cfg = REUSE_INPUTS[name]
        g = split_csr_input() if cfg is None else preprocess(generate(cfg)[0])
        log = self.counted(monkeypatch)
        res = irmm(g)
        assert res.graph.dense is None and res.iterations > 1
        assert log["builds"] == ["reduce"] * res.iterations
        assert log["staged"] == []

    @pytest.mark.parametrize(
        "weight, message",
        [(1e-318, "smallest normal float64"), (1e308, "beyond the largest float64")],
    )
    def test_basis_gets_the_reduction_checks(self, weight, message):
        # Both errors come before the graph's buffer is written.
        g = preprocess(generate(GenConfig(n=200, classes=4, seed=9))[0])
        graph = degree_preserving_reduce(g)
        before = graph.dense.copy()
        with pytest.raises(ValueError, match=message):
            stage_basis(graph, g.with_weights(np.full(g.m, weight)), 0.5)
        assert np.array_equal(bits(graph.dense), bits(before))

    @pytest.mark.parametrize("name", ["seed9"])
    def test_combined_degrees_are_checked(self, name):
        g = preprocess(generate(REUSE_INPUTS[name])[0])
        graph = degree_preserving_reduce(g)
        basis = stage_basis(graph, g, 0.5)
        with pytest.raises(RuntimeError, match="drifted"):
            combine_basis(graph, basis, 0.5, g.with_weights(2.0 * g.weights))

    @pytest.mark.parametrize("name, block_cells", [("seed9", None), ("seed9", 2**12)])
    def test_combined_graph_is_the_weighted_sum(self, name, block_cells, monkeypatch):
        # Bit for bit: staging writes no cell that combining reads. At 2**12
        # cells the dense basis takes 10 row blocks, else one.
        if block_cells is not None:
            monkeypatch.setattr(reduction, "_BLOCK_CELLS", block_cells)
        g = preprocess(generate(REUSE_INPUTS[name])[0])
        w = np.random.default_rng(1).uniform(0.5, 2.0, size=g.m)
        old, new = g.with_weights(w), g.with_weights(3.0 * w[::-1])
        graph = degree_preserving_reduce(old)
        want = 0.25 * graph.to_dense() + 0.75 * degree_preserving_reduce(new).to_dense()
        mixed = g.with_weights(0.25 * old.weights + 0.75 * new.weights)
        combined = combine_basis(graph, stage_basis(graph, new, 0.75), 0.25, mixed)
        assert combined.dense is graph.dense
        got = combined.to_dense()
        assert np.array_equal(bits(got), bits(got.T))
        assert not got.diagonal().any()
        assert np.array_equal(bits(got), bits(want))

    def test_peak_memory_stays_near_one_reduction(self):
        # A second n x n basis would add about 8·n² bytes; staging it in
        # the graph's lower triangle keeps it to about 4·n².
        g = preprocess(generate(GenConfig(n=1500, seed=1))[0])
        tracemalloc.start()
        try:
            degree_preserving_reduce(g)
            reduce_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            irmm(g)
            irmm_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert irmm_peak <= reduce_peak + 2 * g.n**2

    def test_csr_peak_memory_stays_near_one_reduction(self):
        # A CSR round releases the previous graph before it reduces afresh,
        # so no second reduced graph or basis is held beside the new one.
        # Round 2 is the first that could hold two; tracing makes each
        # round cost about a second.
        g = split_csr_input()
        tracemalloc.start()
        try:
            degree_preserving_reduce(g)
            reduce_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            res = irmm(g, IrmmConfig(max_iters=2))
            irmm_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.graph.dense is None
        assert irmm_peak <= 1.1 * reduce_peak
