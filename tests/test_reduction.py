import numpy as np
import pytest
from scipy import sparse

from hypermod import (
    GenConfig,
    Hypergraph,
    Partition,
    ReducedGraph,
    agglomerate,
    clique_reduce,
    degree_preserving_reduce,
    degrees,
    generate,
    louvain,
    modularity,
    preprocess,
    random_walk_matrix,
)
from hypermod import reduction
from hypermod.reduction import _dense_edges

from conftest import random_dyadic_hypergraph, random_hypergraph
from oracles import (
    bits,
    clique_degree_by_hand,
    dense_edges_search,
    expansion_by_pairs,
    modularity_from_pin_counts,
)


def check_modularity_from_pin_counts(g, rng):
    """Q of the degree-preserving reduction, under random partitions, the
    Louvain partition and one cluster, against the pin-count oracle."""
    rg = degree_preserving_reduce(g)
    partitions = [
        Partition.from_labels(rng.integers(0, c, size=g.n))
        for c in (2, 5, max(2, g.n // 4))
    ]
    partitions.append(louvain(rg).partition)
    for p in partitions:
        want = modularity_from_pin_counts(g, p.assignment)
        assert modularity(rg, p) == pytest.approx(want, rel=1e-12, abs=1e-15)
    one = np.zeros(g.n, dtype=np.int64)
    assert abs(modularity(rg, Partition(one))) <= 1e-15
    assert abs(modularity_from_pin_counts(g, one)) <= 1e-15


class TestCliqueReduce:
    def test_dyadic_edge(self):
        g = Hypergraph(2, [[0, 1]])
        assert np.array_equal(clique_reduce(g).to_dense(), [[0, 1], [1, 0]])

    def test_two_edges_direct_summation(self):
        g = Hypergraph(3, [[0, 1, 2], [0, 1]])
        rg = clique_reduce(g)
        A = rg.to_dense()
        assert A[0, 1] == 2.0
        assert A[0, 2] == 1.0
        assert A[1, 2] == 1.0
        # Row sum of node 0: 1*2 + 1*1 over its two hyperedges.
        assert rg.node_degrees[0] == 3.0

    def test_row_sums_match_per_edge_overcount(self, mixed_corpus):
        for g in mixed_corpus[:40]:
            rg = clique_reduce(g)
            expected = [clique_degree_by_hand(g, v) for v in range(g.n)]
            assert np.allclose(rg.node_degrees, expected, rtol=1e-9, atol=1e-12)


class TestDegreePreservingReduce:
    def test_single_triangle_edge(self):
        g = Hypergraph(3, [[0, 1, 2]])
        rg = degree_preserving_reduce(g)
        A = rg.to_dense()
        off = A[~np.eye(3, dtype=bool)]
        assert np.all(off == 0.5)
        assert np.array_equal(rg.node_degrees, [1.0, 1.0, 1.0])

    def test_two_edges_by_hand(self):
        g = Hypergraph(3, [[0, 1, 2], [0, 1]])
        rg = degree_preserving_reduce(g)
        A = rg.to_dense()
        assert A[0, 1] == 1.5
        assert A[0, 2] == 0.5
        assert A[1, 2] == 0.5
        assert rg.node_degrees[0] == 2.0 == degrees(g).node_degrees[0]

    def test_dyadic_equals_clique(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_dyadic_hypergraph(rng, weighted=True)
            a = degree_preserving_reduce(g).to_dense()
            b = clique_reduce(g).to_dense()
            assert np.array_equal(a, b)

    def test_row_sums_equal_node_degrees(self, mixed_corpus):
        for g in mixed_corpus[:40]:
            rg = degree_preserving_reduce(g)
            assert np.allclose(
                rg.node_degrees, degrees(g).node_degrees, rtol=1e-9, atol=1e-12
            )

    def test_modularity_matches_pin_counts(self, mixed_corpus):
        rng = np.random.default_rng(13)
        for g in mixed_corpus:
            check_modularity_from_pin_counts(g, rng)

    def test_rejects_singleton_hyperedge(self):
        g = Hypergraph(3, [[0, 1], [2]])
        with pytest.raises(ValueError, match="preprocess"):
            degree_preserving_reduce(g)

    def test_degree_check_is_relative_at_every_scale(self, monkeypatch):
        # Row sums off by one part in a million fail the check even where
        # the degrees (about 1e-20) are far below any absolute tolerance.
        expand = reduction._expand
        monkeypatch.setattr(
            reduction,
            "_expand",
            lambda g, scale: ReducedGraph(expand(g, scale).adjacency * (1 + 1e-6)),
        )
        g = Hypergraph(4, [[0, 1, 2], [1, 2, 3], [0, 3]], [1e-20, 2e-20, 3e-20])
        with pytest.raises(RuntimeError, match="drifted"):
            degree_preserving_reduce(g)


class TestStructure:
    def test_symmetry_and_zero_diagonal(self, mixed_corpus):
        for g in mixed_corpus[:20]:
            for rg in (clique_reduce(g), degree_preserving_reduce(g)):
                A = rg.adjacency
                assert (A != A.T).nnz == 0
                assert np.all(A.diagonal() == 0.0)
                assert np.all(A.data > 0)

    @pytest.mark.parametrize("fmt", ["csr", "coo", "lil"])
    def test_stores_no_explicit_zero(self, fmt):
        # Explicit zeros off and on the diagonal are dropped, duplicates
        # summed, and the degrees read only the nonzero entries.
        rows = [0, 1, 0, 2, 2, 1, 3, 3]
        cols = [1, 0, 2, 0, 2, 3, 1, 1]
        vals = [0.0, 0.0, 1.5, 1.5, 0.0, 2.0, 1.25, 0.75]
        adjacency = sparse.coo_matrix((vals, (rows, cols)), shape=(4, 4)).asformat(fmt)
        graph = ReducedGraph(adjacency)
        A = graph.adjacency
        assert A.nnz == 4 and np.all(A.data != 0.0)
        assert A.has_sorted_indices
        assert graph.node_degrees.tolist() == [1.5, 2.0, 1.5, 2.0]
        assert not graph.self_loops.any()

    def test_weight_scaling_by_power_of_two_is_exact(self):
        rng = np.random.default_rng(9)
        g = random_hypergraph(rng, n_max=30, weighted=True)
        for reduce_fn in (clique_reduce, degree_preserving_reduce):
            base = reduce_fn(g).to_dense()
            scaled = reduce_fn(g.with_weights(4.0 * g.weights)).to_dense()
            assert np.array_equal(scaled, 4.0 * base)

    def test_weight_scaling_general_lambda(self):
        rng = np.random.default_rng(10)
        g = random_hypergraph(rng, n_max=30, weighted=True)
        lam = 1.7
        base = degree_preserving_reduce(g).to_dense()
        scaled = degree_preserving_reduce(g.with_weights(lam * g.weights)).to_dense()
        assert np.allclose(scaled, lam * base, rtol=1e-14)

    def test_dense_guard(self, monkeypatch):
        g = Hypergraph(3, [[0, 1, 2]])
        rg = degree_preserving_reduce(g)
        monkeypatch.setattr(reduction, "DENSE_NODE_LIMIT", 2)
        with pytest.raises(ValueError, match="dense"):
            rg.to_dense()


def large_edge_hypergraph(rng, weighted):
    """Hypergraph whose largest edges reach the dense BLAS path.

    Large edges (65 to 120 nodes) are drawn from the first 120 nodes only,
    so pairs among the remaining nodes stay sparse or absent; a chain of
    pairs covers every node.
    """
    n = int(rng.integers(150, 201))
    edges = [[i, i + 1] for i in range(n - 1)]
    edges += [
        rng.choice(n, size=int(rng.integers(2, 7)), replace=False) for _ in range(n)
    ]
    edges += [
        rng.choice(120, size=int(rng.integers(65, 121)), replace=False)
        for _ in range(12)
    ]
    weights = rng.uniform(0.5, 3.0, size=len(edges)) if weighted else None
    return Hypergraph(n, edges, weights)


class TestPipeline:
    """The one operand pipeline of ``_expand``, on both of its paths."""

    @pytest.mark.parametrize("reduce_fn", [clique_reduce, degree_preserving_reduce])
    def test_incidence_stays_all_ones(self, reduce_fn):
        # The scaled left factor is a copy of the stored rows, never a view.
        rng = np.random.default_rng(21)
        plain = random_hypergraph(rng, n_max=60, weighted=True)
        split = large_edge_hypergraph(rng, weighted=True)
        assert _dense_edges(plain.edge_degrees, plain.n) is None
        assert _dense_edges(split.edge_degrees, split.n) is not None
        for g in (plain, split):
            reduce_fn(g)
            assert np.all(g.rows.data == 1.0)

    def test_isolated_nodes_on_the_plain_path(self):
        # Nodes 0, 4 and 7 are in no hyperedge: the product stores no
        # diagonal entry for them, and zeroing the diagonal inserts none.
        g = Hypergraph(8, [[1, 2, 3], [2, 3], [5, 6, 1]], [1.5, 2.0, 0.75])
        delta = g.edge_degrees
        for rg, scale in (
            (clique_reduce(g), g.weights),
            (degree_preserving_reduce(g), g.weights / (delta - 1.0)),
        ):
            A = rg.adjacency
            assert rg.dense is None
            assert np.array_equal(A.toarray(), expansion_by_pairs(g, scale))
            assert np.all(A.data != 0.0)
            rows = np.repeat(np.arange(g.n), np.diff(A.indptr))
            assert not np.any(A.indices == rows), "stored diagonal entry"
            assert rg.node_degrees[[0, 4, 7]].tolist() == [0.0, 0.0, 0.0]


class TestDenseEdges:
    """The size threshold of ``_dense_edges`` against the search over every
    cut between size classes that it replaced."""

    @staticmethod
    def random_sizes(rng, kind, n, m):
        if kind == "uniform":
            return rng.integers(2, n + 1, size=m)
        if kind == "ties":
            return rng.choice(rng.integers(2, n + 1, size=rng.integers(1, 5)), size=m)
        if kind == "small":
            return rng.integers(2, min(n, 130) + 1, size=m)
        # Sizes around the threshold sqrt(_GEMM_COST) * n.
        low = min(n - 1, max(2, int(np.sqrt(reduction._GEMM_COST) * n) - 5))
        return rng.integers(low, min(n, low + 12) + 1, size=m)

    def test_matches_the_search(self):
        rng = np.random.default_rng(17)
        seen = set()
        for i in range(4000):
            kind = ("uniform", "ties", "small", "threshold")[i % 4]
            n = int(rng.integers(2, 3001))
            m = int(rng.integers(0, 3 * n + 2))
            delta = self.random_sizes(rng, kind, n, m)
            got = _dense_edges(delta, n)
            want = dense_edges_search(
                delta,
                n,
                reduction._SPARSE_MAX_SIZE,
                reduction._GEMM_COST,
                reduction._SCAN_COST,
            )
            assert (got is None) == (want is None), (kind, n, m)
            if got is None:
                seen.add("none, all at most 64" if m and delta.max() <= 64 else "none")
                continue
            assert np.array_equal(got, want), (kind, n, m)
            over = (delta > reduction._SPARSE_MAX_SIZE) & (
                delta**2 > reduction._GEMM_COST * n * n
            )
            if n < 905 and np.any(over != (delta**2 > reduction._GEMM_COST * n * n)):
                seen.add("64-node floor binds")
            if np.count_nonzero(over) > n:
                seen.add("at most n move")
                if np.sort(delta)[-n] == np.sort(delta)[-n - 1]:
                    seen.add("a tie at the n-th size")
        assert seen == {
            "none",
            "none, all at most 64",
            "64-node floor binds",
            "at most n move",
            "a tie at the n-th size",
        }


class TestDensePath:
    @pytest.fixture(scope="class")
    def corpus(self):
        rng = np.random.default_rng(64)
        graphs = [
            large_edge_hypergraph(rng, weighted=bool(i % 2)) for i in range(6)
        ]
        # Guard: each input really takes the split sparse + BLAS path.
        assert all(_dense_edges(g.edge_degrees, g.n) is not None for g in graphs)
        return graphs

    def test_matches_pair_accumulation(self, corpus):
        for g in corpus:
            delta = g.edge_degrees
            d = degrees(g).node_degrees
            clique = expansion_by_pairs(g, g.weights)
            preserving = expansion_by_pairs(g, g.weights / (delta - 1.0))
            for got, want in (
                (clique_reduce(g).to_dense(), clique),
                (degree_preserving_reduce(g).to_dense(), preserving),
                (random_walk_matrix(g).toarray(), preserving / d[:, None]),
            ):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_modularity_matches_pin_counts(self, corpus):
        rng = np.random.default_rng(14)
        for g in corpus:
            check_modularity_from_pin_counts(g, rng)

    def test_structure_and_row_sums(self, corpus):
        for g in corpus:
            for rg in (clique_reduce(g), degree_preserving_reduce(g)):
                A = rg.adjacency
                assert A.has_sorted_indices
                assert (A != A.T).nnz == 0
                assert np.all(A.data > 0)
                rows = np.repeat(np.arange(g.n), np.diff(A.indptr))
                assert not np.any(A.indices == rows), "stored diagonal entry"
            if np.all(g.weights == 1.0):
                # Integer row sums are exact in any summation order.
                expected = [clique_degree_by_hand(g, v) for v in range(g.n)]
                assert np.array_equal(clique_reduce(g).node_degrees, expected)
            np.testing.assert_allclose(
                degree_preserving_reduce(g).node_degrees,
                degrees(g).node_degrees,
                rtol=1e-12,
                atol=0,
            )
            walk = random_walk_matrix(g)
            assert walk.has_sorted_indices
            sums = np.asarray(walk.sum(axis=1)).ravel()
            np.testing.assert_allclose(sums, 1.0, rtol=1e-12, atol=0)


def generated_reduction(seed, n):
    g, _ = generate(GenConfig(n=n, seed=seed))
    return degree_preserving_reduce(preprocess(g))


class TestDenseLayout:
    """A split reduction predicted to be at least 2/3 full is kept as one
    dense array holding exactly the values and degrees CSR would hold."""

    @pytest.fixture(scope="class")
    def graphs(self):
        graphs = [generated_reduction(seed, n) for seed, n in ((0, 200), (1, 300))]
        assert all(rg.dense is not None for rg in graphs)
        return graphs

    def test_array_equals_the_csr(self, graphs):
        for rg in graphs:
            csr = rg.adjacency.toarray()
            assert rg.dense.shape == csr.shape
            assert np.array_equal(bits(rg.dense), bits(csr))

    def test_csr_build_holds_the_same_values(self, graphs, monkeypatch):
        # With the dense layout refused, the same blocks are scanned into CSR.
        monkeypatch.setattr(reduction, "DENSE_NODE_LIMIT", 0)
        for rg, (seed, n) in zip(graphs, ((0, 200), (1, 300))):
            csr = generated_reduction(seed, n)
            assert csr.dense is None
            assert np.array_equal(bits(rg.dense), bits(csr.adjacency.toarray()))
            assert np.array_equal(bits(rg.node_degrees), bits(csr.node_degrees))

    def test_degrees_equal_the_csr_row_sums(self, graphs):
        for rg in graphs:
            csr = ReducedGraph(rg.adjacency)
            assert csr.dense is None
            assert np.array_equal(bits(rg.node_degrees), bits(csr.node_degrees))

    def test_blocked_degrees_equal_the_csr_row_sums(self):
        # n = 700 sums the rows in two blocks; weights spanning many
        # magnitudes make the bits depend on the order of the additions.
        rng = np.random.default_rng(7)
        weights = rng.random((700, 700)) * 10.0 ** rng.integers(-8, 9, (700, 700))
        weights[rng.random(weights.shape) < 0.3] = 0.0
        upper = np.triu(weights, 1)
        dense = ReducedGraph(upper + upper.T)
        csr = ReducedGraph(sparse.csr_matrix(upper + upper.T))
        assert np.array_equal(bits(dense.node_degrees), bits(csr.node_degrees))
        assert dense.total_weight_2m == csr.total_weight_2m

    def test_louvain_agrees_across_layouts(self, graphs):
        for rg in graphs:
            dense, csr = louvain(rg), louvain(ReducedGraph(rg.adjacency))
            assert dense.partition == csr.partition
            assert dense.modularity == pytest.approx(csr.modularity, abs=1e-12)

    def test_modularity_matches_pin_counts(self):
        rng = np.random.default_rng(15)
        for seed, n in ((0, 200), (1, 300)):
            g = preprocess(generate(GenConfig(n=n, seed=seed))[0])
            assert degree_preserving_reduce(g).dense is not None
            check_modularity_from_pin_counts(g, rng)

    def test_one_cluster_modularity_is_exactly_zero(self, graphs):
        for rg in graphs:
            assert modularity(rg, Partition(np.zeros(rg.n, dtype=int))) == 0.0

    def test_reads_leave_the_csr_unbuilt(self):
        rg = generated_reduction(2, 250)
        assert rg.dense is not None
        repr(rg)
        assert rg.n == rg.dense.shape[0]
        assert not rg.self_loops.any()
        copy = rg.to_dense()
        copy[0, 1] += 1.0
        assert rg.dense[0, 1] != copy[0, 1]
        result = louvain(rg)
        agglomerate(rg, Partition(np.arange(rg.n) % 5), 2)
        assert "adjacency" not in rg.__dict__
        assert "adjacency" not in result.graph.__dict__

    def test_low_predicted_fill_stays_csr(self):
        # The 200 copies of one 80-node hyperedge take the BLAS product,
        # but only 80 of the 800 rows fill up.
        n = 800
        edges = [[i, i + 1] for i in range(n - 1)] + [list(range(80))] * 200
        g = Hypergraph(n, edges)
        assert _dense_edges(g.edge_degrees, n) is not None
        for rg in (clique_reduce(g), degree_preserving_reduce(g)):
            assert rg.dense is None
        np.testing.assert_allclose(
            degree_preserving_reduce(g).to_dense(),
            expansion_by_pairs(g, g.weights / (g.edge_degrees - 1.0)),
            rtol=1e-12,
            atol=0,
        )


def both_layouts(g, reduce_fn, monkeypatch):
    """The dense layout of a split reduction, then the CSR scan of the same
    blocks with the dense layout refused."""
    dense = reduce_fn(g)
    with monkeypatch.context() as patch:
        patch.setattr(reduction, "DENSE_NODE_LIMIT", 0)
        csr = reduce_fn(g)
    assert dense.dense is not None and csr.dense is None
    return dense, csr


class TestTriangleBuild:
    """A split build computes the upper triangle once, and both layouts
    complete it from the same bits."""

    @pytest.fixture(scope="class")
    def g(self):
        return preprocess(generate(GenConfig(n=300, seed=1))[0])

    @pytest.mark.parametrize("reduce_fn", [clique_reduce, degree_preserving_reduce])
    def test_both_layouts_are_exactly_symmetric(self, g, reduce_fn, monkeypatch):
        # Row blocks that each computed both triangles left 610 entries of
        # this reduction one ulp away from their transpose.
        dense, csr = both_layouts(g, reduce_fn, monkeypatch)
        assert np.array_equal(bits(dense.dense), bits(dense.dense.T))
        A = csr.adjacency.toarray()
        assert np.array_equal(bits(A), bits(A.T))
        assert (csr.adjacency != csr.adjacency.T).nnz == 0

    def test_block_edges_cross_the_triangle(self, g, monkeypatch):
        # 2**12 cells give row blocks of 13 rows at n = 300 (one block of
        # all rows at the default size), so products, mirror and scan meet
        # many block edges.
        monkeypatch.setattr(reduction, "_BLOCK_CELLS", 2**12)
        assert len(list(reduction.row_blocks(g.n))) > 20
        dense, csr = both_layouts(g, degree_preserving_reduce, monkeypatch)
        A = csr.adjacency.toarray()
        assert np.array_equal(bits(dense.dense), bits(A))
        assert np.array_equal(bits(A), bits(A.T))
        assert np.array_equal(bits(dense.node_degrees), bits(csr.node_degrees))
        want = expansion_by_pairs(g, g.weights / (g.edge_degrees - 1.0))
        for got in (dense.dense, A):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_subnormal_scale_is_rejected(self):
        # 1e-318 / 2 is subnormal, where the degree check cannot hold.
        g = Hypergraph(4, [[0, 1, 2], [1, 2, 3], [0, 3]], [1e-318, 2e-318, 3e-318])
        with pytest.raises(ValueError, match="smallest normal float64"):
            degree_preserving_reduce(g)
        with pytest.raises(ValueError, match="smallest normal float64"):
            random_walk_matrix(g)

    @pytest.mark.parametrize(
        "edges", [[[0, 1]], [[0, 1], [1, 2]]], ids=["total", "degree"]
    )
    def test_infinite_degrees_are_rejected(self, edges):
        # At weight 1e308 the degrees total inf, or a degree is inf itself:
        # the degree check would pass (inf equals inf), and Q read 0 or nan.
        g = Hypergraph(len(edges) + 1, edges, weights=[1e308] * len(edges))
        with pytest.raises(ValueError, match="beyond the largest float64"):
            degree_preserving_reduce(g)

    def test_clique_overflow_is_rejected_before_the_build(self):
        # The clique row sums, 2e308 at node 1, overflow in no product:
        # the error comes first, and no RuntimeWarning (an error here).
        g = Hypergraph(3, [[0, 1], [1, 2]], weights=[1e308, 1e308])
        with pytest.raises(ValueError, match="^weighted node degrees total inf"):
            clique_reduce(g)


class TestRandomWalk:
    def test_forced_transition(self):
        g = Hypergraph(2, [[0, 1]])
        assert np.array_equal(random_walk_matrix(g).toarray(), [[0, 1], [1, 0]])

    def test_uniform_choice_in_triangle(self):
        g = Hypergraph(3, [[0, 1, 2]])
        P = random_walk_matrix(g).toarray()
        assert np.all(P[~np.eye(3, dtype=bool)] == 0.5)
        assert np.all(P.diagonal() == 0.0)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            g = random_hypergraph(rng, n_max=30, weighted=True)
            # Every node must touch an edge for the walk to be defined.
            missing = np.setdiff1d(np.arange(g.n), np.concatenate(g.edges))
            if missing.size:
                continue
            sums = np.asarray(random_walk_matrix(g).sum(axis=1)).ravel()
            assert np.allclose(sums, 1.0, rtol=0, atol=1e-9)

    def test_isolated_node_rejected(self):
        g = Hypergraph(3, [[0, 1]])
        with pytest.raises(ValueError, match="isolated"):
            random_walk_matrix(g)

