import importlib

import numpy as np
import pytest
from scipy import sparse

from hypermod import (
    GenConfig,
    Hypergraph,
    ModularityContext,
    Partition,
    ReducedGraph,
    aggregate,
    clique_reduce,
    degree_preserving_reduce,
    generate,
    modularity,
    preprocess,
)

from conftest import random_dyadic_hypergraph, random_hypergraph

# The package re-exports the function ``modularity`` under the module's name.
modularity_module = importlib.import_module("hypermod.modularity")
SHORT_ROW = modularity_module.SHORT_ROW
from oracles import (
    bits,
    gain_of_move,
    modularity_double_sum,
    modularity_double_sum_fast,
    move_node,
    partition_sums_by_row,
    same_clustering,
    weight_to,
)


def two_triangles():
    """Two disjoint dyadic triangles over 6 nodes."""
    edges = [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]
    return Hypergraph(6, edges)


class TestPartition:
    def test_dense_ids_required(self):
        with pytest.raises(ValueError, match="dense"):
            Partition([0, 2, 2])

    def test_huge_id_rejected_before_counting(self):
        # One count per id up to 2**62 cannot be allocated.
        with pytest.raises(ValueError, match="dense"):
            Partition([0, 2**62])

    def test_from_labels_first_appearance_order(self):
        p = Partition.from_labels([7, 7, 3, 7, 3, 9])
        assert np.array_equal(p.assignment, [0, 0, 1, 0, 1, 2])
        assert p.c == 3
        assert np.array_equal(p.cluster_sizes, [3, 2, 1])

    def test_from_labels_keeps_non_integer_labels_distinct(self):
        p = Partition.from_labels([0.2, 0.7, 1.5, 0.7])
        assert np.array_equal(p.assignment, [0, 1, 2, 1])
        assert Partition.from_labels(["b", "a", "b"]) == Partition([0, 1, 0])

    def test_from_labels_integer_inputs_unchanged(self):
        for labels in ([3, -1, 3, 0], np.array([5, 5, 2], dtype=np.int32)):
            want = np.unique(labels, return_inverse=True)[1]
            assert same_clustering(Partition.from_labels(labels), Partition(want))
        assert np.array_equal(Partition.from_labels([3, -1, 3, 0]).assignment,
                              [0, 1, 0, 2])

    @pytest.mark.parametrize("ids", [[0.0, 1.9], [0, 0.5], [0, np.nan], [0, np.inf]])
    def test_non_integral_ids_rejected(self, ids):
        with pytest.raises(ValueError, match="integers"):
            Partition(ids)

    def test_integral_ids_of_any_dtype_accepted(self):
        for ids in ([1.0, 0.0], np.array([1, 0], dtype=np.uint8), [True, False]):
            p = Partition(ids)
            assert p.assignment.dtype == np.int64
            assert np.array_equal(p.assignment, [1, 0])

    def test_clusters(self):
        p = Partition([0, 1, 0, 1])
        groups = p.clusters()
        assert np.array_equal(groups[0], [0, 2])
        assert np.array_equal(groups[1], [1, 3])

    def test_same_clustering_relabel_invariant(self):
        a = Partition([0, 0, 1, 1])
        b = Partition([1, 1, 0, 0])
        c = Partition([0, 1, 0, 1])
        assert same_clustering(a, b)
        assert not same_clustering(a, c)


class TestModularityValue:
    def test_one_cluster_is_exactly_zero(self, mixed_corpus):
        for g in mixed_corpus[:30]:
            rg = degree_preserving_reduce(g)
            q = modularity(rg, Partition(np.zeros(g.n, dtype=int)))
            assert q == 0.0

    def test_singletons_closed_form(self, mixed_corpus):
        for g in mixed_corpus[:30]:
            rg = degree_preserving_reduce(g)
            q = modularity(rg, Partition(np.arange(g.n)))
            k = rg.node_degrees
            expected = -float(np.sum(k * k)) / rg.total_weight_2m**2
            assert q == pytest.approx(expected, abs=1e-12)

    def test_two_disjoint_triangles(self):
        rg = degree_preserving_reduce(two_triangles())
        p = Partition([0, 0, 0, 1, 1, 1])
        oracle = modularity_double_sum(rg.to_dense(), p.assignment)
        assert oracle == pytest.approx(0.5, abs=1e-12)
        assert modularity(rg, p) == pytest.approx(0.5, abs=1e-12)

    def test_matches_double_sum_on_random_partitions(self, mixed_corpus):
        rng = np.random.default_rng(17)
        for g in mixed_corpus[:15]:
            rg = degree_preserving_reduce(g)
            labels = rng.integers(0, max(2, g.n // 3), size=g.n)
            p = Partition.from_labels(labels)
            oracle = modularity_double_sum_fast(rg.to_dense(), p.assignment)
            assert modularity(rg, p) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("weight", [np.inf, 1e308], ids=["inf", "overflow"])
    def test_infinite_total_weight_is_rejected(self, weight):
        with np.errstate(over="ignore"):  # 2 * 1e308 overflows the total
            graph = ReducedGraph(np.array([[0.0, weight], [weight, 0.0]]))
        with pytest.raises(ValueError, match="is not finite"):
            modularity(graph, Partition([0, 1]))

    def test_relabel_invariance(self):
        rng = np.random.default_rng(23)
        g = random_hypergraph(rng, n_max=30)
        rg = degree_preserving_reduce(g)
        labels = rng.integers(0, 4, size=g.n)
        p = Partition.from_labels(labels)
        q1 = modularity(rg, p)
        perm = rng.permutation(p.c)
        q2 = modularity(rg, Partition.from_labels(perm[p.assignment]))
        assert q1 == pytest.approx(q2, abs=1e-14)

    def test_upper_bound(self, mixed_corpus):
        rng = np.random.default_rng(29)
        for g in mixed_corpus[:20]:
            rg = degree_preserving_reduce(g)
            labels = rng.integers(0, max(2, g.n // 2), size=g.n)
            assert modularity(rg, Partition.from_labels(labels)) <= 1.0

    def test_dyadic_equivalence_with_clique_graph_modularity(self):
        # On an all-dyadic hypergraph the two code paths agree to 1e-12.
        rng = np.random.default_rng(31)
        for _ in range(10):
            g = random_dyadic_hypergraph(rng, weighted=True)
            hyp = degree_preserving_reduce(g)
            clq = clique_reduce(g)
            labels = rng.integers(0, 3, size=g.n)
            p = Partition.from_labels(labels)
            q_hyp = modularity(hyp, p)
            q_clique = modularity(clq, p)
            assert q_hyp == pytest.approx(q_clique, abs=1e-12)
            # And both match the plain double-sum graph modularity.
            oracle = modularity_double_sum_fast(clq.to_dense(), p.assignment)
            assert q_hyp == pytest.approx(oracle, abs=1e-12)


class TestNeighborClusterWeights:
    @pytest.mark.parametrize("others", [5, SHORT_ROW + 5])
    def test_both_row_forms(self, others):
        # Node 0: a self-loop, an explicit zero entry to node 1 (alone in
        # cluster 1), which ReducedGraph does not store, and unit edges to
        # the other nodes, split over clusters 2 and 3. With 4 clusters a
        # long row's bincount is read as a dict too.
        n = 2 + others
        rows = [0] + [0] * (n - 1) + list(range(1, n))
        cols = [0] + list(range(1, n)) + [0] * (n - 1)
        vals = [5.0] + 2 * ([0.0] + [1.0] * others)
        graph = ReducedGraph(sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)))
        assert graph.adjacency.nnz == 1 + 2 * others
        labels = np.array([0, 1] + [2 + (i % 2) for i in range(others)])
        ctx = ModularityContext(graph, Partition(labels))
        neighbors = ctx.neighbor_cluster_weights(0)
        assert neighbors == {2: float((others + 1) // 2), 3: float(others // 2)}
        assert list(neighbors) == [2, 3]
        for cluster, weight in ((0, 0.0), (1, 0.0), (2, (others + 1) // 2)):
            assert weight_to(neighbors, cluster) == weight

    @staticmethod
    def assert_row_form(neighbors, sums):
        """``neighbors`` is the dict of the nonzero entries of ``sums`` while
        at most SHORT_ROW, else ``(sums, ids)`` with ids those entries."""
        ids = np.flatnonzero(sums).tolist()
        if len(ids) <= SHORT_ROW:
            assert neighbors == {c: sums[c] for c in ids}
            assert list(neighbors) == ids
        else:
            got, got_ids = neighbors
            assert bits(got).tolist() == bits(sums).tolist()
            assert got_ids.tolist() == ids

    @pytest.mark.parametrize("touched", [SHORT_ROW, SHORT_ROW + 1])
    def test_long_csr_row_forms(self, touched):
        # Node 0 has a unit edge to each of 2 * SHORT_ROW nodes whose labels
        # cover ids 1..touched, so touched + 1 > SHORT_ROW clusters are
        # non-empty. Its bincount is read as a dict while it touches at most
        # SHORT_ROW clusters, else returned with their ids.
        n = 1 + 2 * SHORT_ROW
        adjacency = sparse.lil_matrix((n, n))
        adjacency[0, 1:] = 1.0
        adjacency[1:, 0] = 1.0
        graph = ReducedGraph(adjacency)
        assert graph.dense is None
        labels = np.concatenate([[0], 1 + np.arange(n - 1) % touched])
        ctx = ModularityContext(graph, Partition(labels))
        sums = np.bincount(labels[1:], minlength=touched + 1).astype(float)
        self.assert_row_form(ctx.neighbor_cluster_weights(0), sums)

    @staticmethod
    def dense_graph_and_labels(touched):
        """A dense layout over SHORT_ROW + 20 nodes with random weights and
        labels whose ids 0..touched+1 all occur. Node 0 is alone in cluster
        0, has no edge into cluster 1 and an edge to every other node, so
        its row touches ``touched`` clusters and two bincount entries are
        zero."""
        rng = np.random.default_rng(touched)
        n = SHORT_ROW + 20
        adjacency = np.triu(rng.uniform(0.5, 2.0, size=(n, n)), 1)
        adjacency[rng.random((n, n)) < 0.5] = 0.0
        adjacency[0, 1:] = rng.uniform(0.5, 2.0, size=n - 1)
        adjacency += adjacency.T
        labels = np.concatenate(
            [np.arange(touched + 2), rng.integers(1, touched + 2, size=n - touched - 2)]
        )
        adjacency[0, labels == 1] = adjacency[labels == 1, 0] = 0.0
        return ReducedGraph(adjacency), labels

    @pytest.mark.parametrize("touched", [4, SHORT_ROW, SHORT_ROW + 1])
    def test_dense_row_forms(self, touched):
        # A dense row gives the nonzero entries of its bincount as a dict
        # while it touches at most SHORT_ROW clusters, else the array.
        graph, labels = self.dense_graph_and_labels(touched)
        assert graph.dense is not None
        ctx = ModularityContext(graph, Partition(labels))
        sums = np.bincount(labels, weights=graph.dense[0])
        assert sums[0] == sums[1] == 0.0
        assert np.count_nonzero(sums) == touched
        self.assert_row_form(ctx.neighbor_cluster_weights(0), sums)

    def test_dense_row_form_follows_moves(self):
        # Moves that change the clusters node 0's row touches switch the
        # form both ways, while more than SHORT_ROW clusters stay non-empty.
        graph, labels = self.dense_graph_and_labels(SHORT_ROW + 1)
        ctx = ModularityContext(graph, Partition(labels))
        row = graph.dense[0]
        sizes = np.bincount(labels)
        first, second = [
            v for v in range(2, graph.n) if sizes[labels[v]] == 1 and row[v]
        ][:2]
        steps = [
            (first, labels[second], SHORT_ROW),
            (first, labels[first], SHORT_ROW + 1),
            (first, 1, SHORT_ROW + 1),
            (second, 1, SHORT_ROW),
        ]
        for node, to, touched in steps:
            ctx.move(node, int(to))
            assert np.count_nonzero(ctx.sizes) > SHORT_ROW
            sums = np.bincount(ctx.assignment, weights=row)
            assert np.count_nonzero(sums) == touched
            self.assert_row_form(ctx.neighbor_cluster_weights(0), sums)

    @pytest.mark.parametrize("layout", ["csr", "dense"])
    def test_form_follows_touched_not_nonempty_clusters(self, layout):
        # Node 0 has two neighbours in each of clusters 1..SHORT_ROW + 1,
        # and ten singleton clusters lie off its row. Merging two touched
        # clusters leaves SHORT_ROW touched and SHORT_ROW + 11 non-empty.
        touched = SHORT_ROW + 1
        n = 1 + 2 * touched + 10
        adjacency = np.zeros((n, n))
        adjacency[0, 1 : 1 + 2 * touched] = np.linspace(0.5, 2.0, 2 * touched)
        adjacency[:, 0] = adjacency[0]
        graph = ReducedGraph(
            adjacency if layout == "dense" else sparse.csr_matrix(adjacency)
        )
        labels = np.concatenate(
            [[0], 1 + np.arange(2 * touched) // 2, touched + 1 + np.arange(10)]
        )
        ctx = ModularityContext(graph, Partition(labels))
        sums, ids = ctx.neighbor_cluster_weights(0)
        assert ids.tolist() == np.flatnonzero(sums).tolist()
        assert ids.tolist() == list(range(1, touched + 1))
        for node in (2 * touched - 1, 2 * touched):
            ctx.move(node, 1)
        assert np.count_nonzero(ctx.sizes) == SHORT_ROW + 11
        neighbors = ctx.neighbor_cluster_weights(0)
        want = np.bincount(ctx.assignment, weights=adjacency[0])
        assert neighbors == {c: want[c] for c in np.flatnonzero(want).tolist()}


class TestContextRows:
    """A context reads the graph's rows without their diagonal entries."""

    def test_reduction_rows_are_not_copied(self, mixed_corpus):
        for g in mixed_corpus[:5]:
            graph = degree_preserving_reduce(g)
            for part in (None, Partition(np.zeros(graph.n, dtype=int))):
                ctx = ModularityContext(graph, part)
                assert ctx._data is graph.adjacency.data
                assert ctx._indices is graph.adjacency.indices
                assert ctx._indptr is graph.adjacency.indptr

    def test_aggregate_rows_drop_only_the_diagonal(self, mixed_corpus):
        rng = np.random.default_rng(55)
        for g in mixed_corpus[:10]:
            graph = degree_preserving_reduce(g)
            coarse = rng.integers(0, max(3, graph.n // 3), size=graph.n)
            # The ends of one edge share a cluster: a self-loop.
            i, j = (ends[0] for ends in graph.adjacency.nonzero())
            coarse[j] = coarse[i]
            graph = aggregate(graph, Partition.from_labels(coarse))
            assert graph.self_loops.any()
            adj = graph.adjacency
            rows = np.repeat(np.arange(graph.n), np.diff(adj.indptr))
            keep = adj.indices != rows
            indptr = np.concatenate(
                [[0], np.cumsum(np.bincount(rows[keep], minlength=graph.n))]
            )
            ctx = ModularityContext(graph)
            assert np.array_equal(ctx._indptr, indptr)
            assert np.array_equal(ctx._indices, adj.indices[keep])
            assert np.array_equal(bits(ctx._data), bits(adj.data[keep]))
            ctx_rows = np.repeat(np.arange(graph.n), np.diff(ctx._indptr))
            assert not np.any(ctx._indices == ctx_rows)


    def test_dense_rows_drop_only_the_diagonal(self):
        g, _ = generate(GenConfig(n=200, seed=3))
        graph = degree_preserving_reduce(preprocess(g))
        assert graph.dense is not None
        ctx = ModularityContext(graph)
        assert ctx.row(0)[0] is None
        assert ctx.row(0)[1].base is graph.dense
        coarse = aggregate(graph, Partition(np.arange(graph.n) % 7))
        assert coarse.dense is not None and coarse.self_loops.all()
        ctx = ModularityContext(coarse)
        rows = np.array([ctx.row(i)[1] for i in range(coarse.n)])
        off = ~np.eye(coarse.n, dtype=bool)
        assert np.array_equal(bits(rows[off]), bits(coarse.dense[off]))
        assert not rows.diagonal().any()
        # The context zeroed a copy, not the graph's own diagonal.
        assert coarse.dense.diagonal().all()


def check_gains_against_recompute(n_max, max_degree):
    """Twenty random single moves: the predicted gain equals the change in
    from-scratch modularity. Returns how many moved nodes had long rows."""
    rng = np.random.default_rng(37)
    long_rows = 0
    for _ in range(20):
        g = random_hypergraph(rng, n_max=n_max, max_degree=max_degree)
        rg = degree_preserving_reduce(g)
        labels = rng.integers(0, 3, size=g.n)
        p = Partition.from_labels(labels)
        ctx = ModularityContext(rg, p)
        node = int(rng.integers(g.n))
        frm = int(ctx.assignment[node])
        to = int(rng.integers(p.c))
        before = modularity(rg, Partition.from_labels(ctx.assignment))
        gain = gain_of_move(ctx, node, frm, to)
        move_node(ctx, node, to)
        after = modularity(rg, Partition.from_labels(ctx.assignment))
        assert gain == pytest.approx(after - before, abs=1e-10)
        long_rows += int(np.diff(rg.adjacency.indptr)[node] > SHORT_ROW)
    return long_rows


class TestGainOfMove:
    def test_move_to_own_cluster_is_zero(self):
        rg = degree_preserving_reduce(two_triangles())
        ctx = ModularityContext(rg)
        assert gain_of_move(ctx, 0, 0, 0) == 0.0

    def test_dyadic_merge_gain(self):
        rg = degree_preserving_reduce(Hypergraph(2, [[0, 1]]))
        ctx = ModularityContext(rg)
        assert gain_of_move(ctx, 0, 0, 1) == pytest.approx(0.5, abs=1e-15)

    def test_wrong_source_cluster_rejected(self):
        rg = degree_preserving_reduce(Hypergraph(2, [[0, 1]]))
        ctx = ModularityContext(rg)
        with pytest.raises(ValueError, match="not in cluster"):
            gain_of_move(ctx, 0, 1, 0)

    def test_gain_matches_full_recompute(self):
        check_gains_against_recompute(n_max=25, max_degree=8)

    def test_gain_matches_full_recompute_on_long_rows(self):
        # Rows longer than SHORT_ROW return their neighbor weights as
        # arrays instead of a dict.
        long_rows = check_gains_against_recompute(n_max=300, max_degree=300)
        assert long_rows > 0

    def test_summed_gains_telescope(self):
        rng = np.random.default_rng(41)
        g = random_hypergraph(rng, n_max=30)
        rg = degree_preserving_reduce(g)
        ctx = ModularityContext(rg)
        q_start = modularity(rg, Partition.from_labels(ctx.assignment))
        total = 0.0
        for _ in range(60):
            node = int(rng.integers(g.n))
            to = int(rng.integers(g.n))
            frm = int(ctx.assignment[node])
            total += gain_of_move(ctx, node, frm, to)
            move_node(ctx, node, to)
        q_end = modularity(rg, Partition.from_labels(ctx.assignment))
        assert total == pytest.approx(q_end - q_start, abs=1e-8)

    def test_context_modularity_tracks_from_scratch(self):
        rng = np.random.default_rng(43)
        g = random_hypergraph(rng, n_max=25)
        rg = degree_preserving_reduce(g)
        ctx = ModularityContext(rg)
        for _ in range(30):
            move_node(ctx, int(rng.integers(g.n)), int(rng.integers(g.n)))
        from_scratch = np.bincount(
            ctx.assignment, weights=rg.node_degrees, minlength=rg.n
        )
        assert np.allclose(ctx.sigma_tot, from_scratch, rtol=0, atol=1e-10)


def random_csr(rng, lengths, n_cols=None):
    """CSR matrix with the given row lengths (0 allowed), distinct sorted
    columns per row and weights spread over six decades."""
    n_cols = n_cols or max(1, int(max(lengths)))
    rows, cols = [], []
    for i, length in enumerate(lengths):
        rows += [i] * int(length)
        cols += sorted(rng.choice(n_cols, size=int(length), replace=False))
    data = rng.random(len(rows)) * 10.0 ** rng.uniform(-3, 3, size=len(rows))
    return sparse.csr_matrix(
        (data, (rows, cols)), shape=(len(lengths), n_cols)
    )


def straddling_lengths(rng, n):
    """Row lengths on both sides of SHORT_ROW, with empty rows inside and
    at the end."""
    lengths = rng.integers(0, 2 * SHORT_ROW + 40, size=n)
    lengths[rng.random(n) < 0.5] //= 16
    lengths[rng.integers(0, n, size=3)] = 0
    lengths[[SHORT_ROW % n, -3]] = [SHORT_ROW, SHORT_ROW + 1]
    lengths[-2:] = 0
    return lengths


def assert_sums_match(adjacency, labels):
    """The aggregate's self-loops and a context's cluster totals against
    the per-row reference, and the totals against the aggregate's degrees
    bit for bit."""
    graph = ReducedGraph(adjacency)
    part = Partition.from_labels(labels)
    ctx = ModularityContext(graph, part)
    coarse = aggregate(graph, part)
    want = partition_sums_by_row(adjacency, part.assignment, part.c)
    for got, ref in zip((coarse.self_loops, ctx.sigma_tot), want):
        assert got.shape == ref.shape == (part.c,)
        assert np.allclose(got, ref, rtol=1e-12, atol=0)
    assert np.array_equal(bits(ctx.sigma_tot), bits(coarse.node_degrees))


class TestPartitionSumsMatchReference:
    """Cluster sums read off the cluster matrix Mᵀ·(A·M) agree with one
    reduce per row to 1e-12 relative, and are the aggregate's self-loops
    and degrees bit for bit (floats compared as int64 bit patterns).
    ``nslots`` is the cluster count; None means one slot per node."""

    @pytest.mark.parametrize("nslots", [1, 2, 7, None])
    def test_random_rows_and_blocks(self, nslots):
        rng = np.random.default_rng(52)
        for _ in range(4):
            n = int(rng.integers(3 * SHORT_ROW, 4 * SHORT_ROW))
            mat = random_csr(rng, straddling_lengths(rng, n), n_cols=n)
            slots = nslots or n
            labels = rng.integers(0, slots, size=n)
            labels[:slots] = np.arange(slots)
            assert_sums_match(mat, labels)

    @pytest.mark.parametrize("nslots", [3, None])
    def test_aggregated_graphs_with_self_loops(self, mixed_corpus, nslots):
        rng = np.random.default_rng(53)
        for g in mixed_corpus[:10]:
            graph = degree_preserving_reduce(g)
            for _ in range(2):
                coarse = rng.integers(0, max(3, graph.n // 3), size=graph.n)
                graph = aggregate(graph, Partition.from_labels(coarse))
                assert graph.self_loops.any()
                labels = rng.integers(0, nslots or graph.n, size=graph.n)
                assert_sums_match(graph.adjacency, labels)

    def test_one_cluster_exactly_zero_across_blocks(self):
        rng = np.random.default_rng(54)
        for _ in range(5):
            mat = random_csr(rng, straddling_lengths(rng, 300), n_cols=300)
            graph = ReducedGraph(mat + mat.T)
            assert modularity(graph, Partition(np.zeros(300, dtype=int))) == 0.0
