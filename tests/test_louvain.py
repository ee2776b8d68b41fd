import importlib
import time
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from hypermod import (
    GenConfig,
    Hypergraph,
    LouvainConfig,
    ModularityContext,
    Partition,
    ReducedGraph,
    aggregate,
    degree_preserving_reduce,
    flatten,
    generate,
    louvain,
    modularity,
    preprocess,
)

from conftest import random_hypergraph
from oracles import (
    local_moving_reference,
    louvain_rerun_always,
    max_modularity_exhaustive,
    move_node,
    recut_all_pairs,
    same_clustering,
)

# The package re-exports the functions ``modularity`` and ``louvain`` under
# their modules' names.
modularity_module = importlib.import_module("hypermod.modularity")
SHORT_ROW = modularity_module.SHORT_ROW
MIN_GAIN = modularity_module.MIN_GAIN
louvain_module = importlib.import_module("hypermod.louvain")


def small_random_hypergraph(rng):
    """Random hypergraph with at most 9 nodes for exhaustive comparison."""
    n = int(rng.integers(3, 10))
    m = int(rng.integers(2, 2 * n))
    edges = [
        rng.choice(n, size=int(rng.integers(2, min(n, 5) + 1)), replace=False)
        for _ in range(m)
    ]
    weights = rng.uniform(0.5, 2.0, size=m) if rng.random() < 0.5 else None
    return Hypergraph(n, edges, weights)


class TestLouvain:
    def test_two_triangles_with_bridge(self):
        edges = [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 3]]
        rg = degree_preserving_reduce(Hypergraph(6, edges))
        res = louvain(rg)
        assert res.partition.c == 2
        assert same_clustering(res.partition, Partition([0, 0, 0, 1, 1, 1]))
        q_max, _ = max_modularity_exhaustive(rg.to_dense())
        assert res.modularity == pytest.approx(q_max, abs=1e-12)

    def test_single_hyperedge_collapses_to_one_cluster(self):
        rg = degree_preserving_reduce(Hypergraph(3, [[0, 1, 2]]))
        res = louvain(rg)
        assert res.partition.c == 1
        assert res.modularity == 0.0
        # No partition of three nodes beats the single cluster here.
        q_max, _ = max_modularity_exhaustive(rg.to_dense())
        assert q_max == pytest.approx(0.0, abs=1e-15)

    def test_deterministic_without_shuffle(self):
        rng = np.random.default_rng(2)
        g = random_hypergraph(rng, n_max=40, weighted=True)
        rg = degree_preserving_reduce(g)
        a = louvain(rg, LouvainConfig(seed=7))
        b = louvain(rg, LouvainConfig(seed=7))
        assert a.partition == b.partition
        assert a.modularity == b.modularity

    def test_deterministic_with_shuffle_and_fixed_seed(self):
        rng = np.random.default_rng(3)
        g = random_hypergraph(rng, n_max=40)
        rg = degree_preserving_reduce(g)
        a = louvain(rg, LouvainConfig(seed=11, shuffle=True))
        b = louvain(rg, LouvainConfig(seed=11, shuffle=True))
        assert a.partition == b.partition

    def test_reported_modularity_is_from_scratch(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_hypergraph(rng, n_max=40, weighted=True)
            rg = degree_preserving_reduce(g)
            res = louvain(rg)
            assert res.modularity == modularity(rg, res.partition)

    def test_never_worse_than_singletons(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            g = random_hypergraph(rng, n_max=30, weighted=True)
            rg = degree_preserving_reduce(g)
            res = louvain(rg)
            q_singletons = modularity(rg, Partition(np.arange(rg.n)))
            assert res.modularity >= q_singletons - 1e-12

    def test_close_to_exhaustive_optimum(self):
        rng = np.random.default_rng(13)
        hits = 0
        positives = 0
        for _ in range(100):
            g = small_random_hypergraph(rng)
            rg = degree_preserving_reduce(g)
            res = louvain(rg)
            q_max, _ = max_modularity_exhaustive(rg.to_dense())
            assert res.modularity <= q_max + 1e-9
            # Positive means beyond enumeration rounding noise.
            if q_max > 1e-12:
                positives += 1
                if res.modularity >= 0.95 * q_max:
                    hits += 1
        assert positives > 0
        assert hits / positives >= 0.95

    def test_negative_seed_rejected(self):
        rg = degree_preserving_reduce(Hypergraph(3, [[0, 1], [1, 2]]))
        with pytest.raises(ValueError, match="seed must be non-negative"):
            louvain(rg, LouvainConfig(seed=-1))

    def test_config_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            LouvainConfig(seed=-1)

    def test_config_rejects_non_integral_seed(self):
        with pytest.raises(ValueError, match="non-negative and integral, got 1.5"):
            LouvainConfig(seed=1.5)

    def test_empty_graph_rejected(self):
        g = Hypergraph(3, [[0, 1]])
        rg = degree_preserving_reduce(g)
        rg.adjacency = rg.adjacency[:0, :0].tocsr()  # degenerate shape
        with pytest.raises(ValueError):
            louvain(type(rg)(rg.adjacency))


class TestRerunOnlyAfterCoarseMoves:
    """A hierarchy is rerun from its flattened partition only when a coarse
    level moved; the reference reruns every hierarchy."""

    def test_matches_rerunning_every_hierarchy(self, monkeypatch):
        recut = louvain_module._recut_small_clusters
        recuts = 0

        def counting(graph, partition):
            nonlocal recuts
            result = recut(graph, partition)
            recuts += result is not None
            return result

        monkeypatch.setattr(louvain_module, "_recut_small_clusters", counting)
        rng = np.random.default_rng(83)
        multi_level = recut_wins = 0
        for _ in range(200):
            graph = sparse_small_graph(rng, n_max=16)
            recuts_before = recuts
            got = louvain(graph)
            recut_wins += recuts > recuts_before
            want = louvain_rerun_always(graph)
            assert got.partition == want.partition
            assert got.levels == want.levels
            assert same_bits(np.float64(got.modularity), np.float64(want.modularity))
            multi_level += len(got.levels) > 1
        assert recut_wins > 0
        assert multi_level > 0

    def test_one_fine_level_sweep_without_coarse_moves(self, monkeypatch):
        # Level 0 forms the two triangles and level 1 moves nothing, so the
        # hierarchy is not rerun.
        edges = [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 3]]
        rg = degree_preserving_reduce(Hypergraph(6, edges))
        local_moving = ModularityContext.local_moving
        sizes = []

        def recording(ctx, order):
            sizes.append(ctx.assignment.size)
            return local_moving(ctx, order)

        monkeypatch.setattr(ModularityContext, "local_moving", recording)
        res = louvain(rg)
        assert sizes.count(rg.n) == 1
        assert len(res.levels) == 1


class TestAggregate:
    def test_faithful_modularity(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            g = random_hypergraph(rng, n_max=30, weighted=True)
            rg = degree_preserving_reduce(g)
            labels = rng.integers(0, 4, size=rg.n)
            p = Partition.from_labels(labels)
            coarse = aggregate(rg, p)
            q_fine = modularity(rg, p)
            q_coarse = modularity(coarse, Partition(np.arange(p.c)))
            assert q_coarse == pytest.approx(q_fine, abs=1e-10)

    def test_total_weight_preserved(self):
        rng = np.random.default_rng(21)
        g = random_hypergraph(rng, n_max=30)
        rg = degree_preserving_reduce(g)
        p = Partition.from_labels(rng.integers(0, 3, size=rg.n))
        coarse = aggregate(rg, p)
        assert coarse.total_weight_2m == pytest.approx(rg.total_weight_2m, rel=1e-12)

    @staticmethod
    def aggregate_peak(rg):
        p = Partition.from_labels(np.arange(rg.n) % 10)
        tracemalloc.start()
        try:
            coarse = aggregate(rg, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert coarse.n == 10
        return peak

    def test_memory_well_below_the_adjacency(self):
        # Forming Mᵀ·A first would convert A to CSC: a full adjacency copy.
        adjacency = generated(2, n=600).adjacency
        rg = ReducedGraph(adjacency)
        assert adjacency.nnz > 0.9 * rg.n * rg.n
        nbytes = sum(
            a.nbytes for a in (adjacency.data, adjacency.indices, adjacency.indptr)
        )
        assert self.aggregate_peak(rg) < nbytes / 4

    def test_memory_well_below_the_dense_array(self):
        rg = generated(2, n=600)
        assert rg.dense is not None
        assert self.aggregate_peak(rg) < rg.dense.nbytes / 4


class TestDendrogram:
    def test_flatten_one_level_identity(self):
        p = Partition([0, 1, 1, 0])
        assert flatten([p]) == p

    def test_flatten_composes_levels(self):
        fine = Partition([0, 0, 1, 1])
        coarse = Partition([0, 1])
        assert flatten([fine, coarse]) == Partition([0, 0, 1, 1])

    def test_flatten_empty_rejected(self):
        with pytest.raises(ValueError):
            flatten([])

    def test_levels_monotone_and_consistent(self):
        rng = np.random.default_rng(23)
        g = random_hypergraph(rng, n_max=50, weighted=True)
        rg = degree_preserving_reduce(g)
        res = louvain(rg)
        # Composing all levels reproduces the returned partition, and
        # modularity never decreases from one level to the next.
        assert flatten(res.levels) == res.partition
        current = rg
        previous_q = None
        for level in res.levels:
            q = modularity(current, level)
            if previous_q is not None:
                assert q >= previous_q - 1e-12
            previous_q = q
            current = aggregate(current, level)
        # Composed modularity equals the last level's on its own graph.
        assert res.modularity == pytest.approx(previous_q, abs=1e-10)


def row_lengths(graph):
    return np.diff(graph.adjacency.indptr)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def run_both(graph, init=None, order=None, pre_moves=()):
    """Run ``local_moving`` and the vectorized reference on twin contexts.

    ``pre_moves`` are (node, cluster) moves applied to both contexts first,
    e.g. to leave an empty cluster behind. Asserts that the move counts and
    the tracked state agree bit for bit. Returns the library's context, the
    target-was-empty flag of each move it made, and the number of visits it
    skipped: the reference visits every node of every sweep.
    """
    ours, ref = ModularityContext(graph, init), ModularityContext(graph, init)
    for ctx in (ours, ref):
        for node, to in pre_moves:
            move_node(ctx, node, to)
    visited, into_empty = [], []
    visit, move = ours.neighbor_cluster_weights, ours.move

    def recording_visit(node):
        visited.append(node)
        return visit(node)

    def recording_move(node, to):
        into_empty.append(bool(ours.sizes[to] == 0))
        move(node, to)

    ours.neighbor_cluster_weights = recording_visit
    ours.move = recording_move
    order = np.arange(graph.n) if order is None else order
    got = ours.local_moving(order)
    want, visits = local_moving_reference(ref, order, MIN_GAIN)
    assert got == want
    for attr in ("assignment", "sigma_tot", "sizes"):
        assert same_bits(getattr(ours, attr), getattr(ref, attr)), attr
    assert ours.clusters == np.count_nonzero(ours.sizes)
    assert len(visited) <= visits
    return ours, into_empty, visits - len(visited)


def generated(seed, **settings):
    g, _ = generate(GenConfig(seed=seed, **settings))
    return degree_preserving_reduce(preprocess(g))


def sparse_generated(seed, n=300):
    return generated(seed, n=n, classes=10, size_buckets=((1.0, 2, 6),))


def straddling_graph(seed):
    """Small hyperedges plus a few of about SHORT_ROW nodes, so that row
    lengths fall on both sides of the cutoff and right at it."""
    rng = np.random.default_rng(seed)
    n = 400
    edges = [
        rng.choice(n, size=int(rng.integers(2, 7)), replace=False)
        for _ in range(600)
    ]
    edges += [
        rng.choice(n, size=size, replace=False)
        for size in (SHORT_ROW - 1, SHORT_ROW, SHORT_ROW + 1, SHORT_ROW + 2)
    ]
    weights = rng.uniform(0.5, 3.0, size=len(edges))
    return degree_preserving_reduce(Hypergraph(n, edges, weights))


def unit_graph(n, pairs):
    rows, cols = np.array(pairs).T
    adjacency = sparse.coo_matrix((np.ones(len(pairs)), (rows, cols)), shape=(n, n))
    return ReducedGraph(adjacency + adjacency.T)


def spare_wins_graph(links):
    """Node 0 shares cluster 0 with node ``last`` but has no edge to it.
    Its ``links`` unit edges all go into cluster 1, which holds the heavy
    triangle {1, 2, 3}, and a self-loop makes its degree large. Node
    ``last - 1`` is a singleton tied to the triangle. For node 0, leaving
    for an empty cluster beats joining cluster 1."""
    heavy = [1, 2, 3]
    targets = [1] + list(range(4, 4 + links - 1))
    last = 4 + links
    n = last + 1
    pairs = [(1, 2), (1, 3), (2, 3)] * 20
    pairs += [(0, t) for t in targets] + [(t, 1) for t in targets[1:]]
    pairs += [(last - 1, 2), (last, 3)]
    graph = unit_graph(n, pairs)
    adjacency = graph.adjacency.tolil()
    adjacency[0, 0] = 40.0 * links
    graph = ReducedGraph(adjacency)
    labels = np.zeros(n, dtype=np.int64)
    labels[heavy] = 1
    labels[targets[1:]] = 1
    labels[last - 1] = 2
    # Moving the singleton out empties cluster 2 before node 0 is visited.
    return graph, Partition(labels), [(last - 1, 1)]


def spare_ties_graph(entries):
    """Node 0 gains exactly as much (1/16, all values dyadic) by leaving for
    the empty cluster 1 as by joining cluster 2, through ``entries`` edges.

    Degrees: node 0 has 128 in edges to cluster 2 plus a 128 self-loop;
    cluster 2 totals 512, node 1 (node 0's cluster mate, not adjacent) 128,
    and the edge 2-3 weighs 64, so 2m = 1024. Moving node 2 to node 3's
    cluster empties cluster 1 first.
    """
    n = 4 + entries
    adjacency = sparse.lil_matrix((n, n))
    for x in range(4, n):
        adjacency[0, x] = adjacency[x, 0] = 128.0 / entries
    adjacency[0, 0] = 128.0
    adjacency[4, 4] = 384.0
    adjacency[1, 1] = 128.0
    adjacency[2, 3] = adjacency[3, 2] = 64.0
    graph = ReducedGraph(adjacency)
    assert graph.total_weight_2m == 1024.0
    labels = np.array([0, 0, 1, 3] + [2] * entries)
    return graph, Partition(labels), [(2, 3)]


def spare_refill_graph(layout):
    """Node 0 (a self-loop and one unit edge, to node 2) shares cluster 0
    with node 1, which has only a self-loop. Node 2 has no edge into its
    own cluster 1, which holds the heavy triangle {3, 4, 5}. Once moving
    the singleton 6 has emptied cluster 2, node 0 leaves for it, and node 2
    then follows node 0 into the refilled cluster, whose weight only a
    visit that counts cluster 2 as non-empty again can see."""
    adjacency = np.zeros((7, 7))
    for i, j, w in ((0, 2, 1.0), (3, 4, 30.0), (3, 5, 30.0), (4, 5, 30.0),
                    (3, 6, 1.0)):
        adjacency[i, j] = adjacency[j, i] = w
    adjacency[0, 0], adjacency[1, 1] = 10.0, 4.0
    if layout == "csr":
        adjacency = sparse.csr_matrix(adjacency)
    labels = [0, 0, 1, 1, 1, 1, 2]
    return ReducedGraph(adjacency), Partition(labels), [(6, 1)]


def far_cluster_graph(layout):
    """Node 0 has a heavy self-loop, a light edge to each of 130 nodes of
    cluster 2 and no edge into its own cluster 0 or into cluster 1, and no
    cluster is empty. Scored like an adjacent one, the small cluster 1
    would win; as a non-adjacent cluster it must not compete. Its id lies
    below the adjacent one's, inside the per-cluster sums of a CSR row."""
    n = 134
    adjacency = sparse.lil_matrix((n, n))
    for j in range(1, 131):
        adjacency[0, j] = adjacency[j, 0] = 0.01
    adjacency[0, 0] = 1000.0
    adjacency[1, 1] = adjacency[131, 131] = 500.0
    adjacency[132, 133] = adjacency[133, 132] = 1.0
    if layout == "dense":
        adjacency = adjacency.toarray()
    labels = np.array([0] + [2] * 130 + [0, 1, 1])
    return ReducedGraph(adjacency), Partition(labels)


class TestLocalMovingMatchesReference:
    """The dict-based short-row visits and the scalar-scored spare cluster
    give the same moves, bit for bit, as the all-numpy loop."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sparse_generator(self, seed):
        graph = sparse_generated(seed)
        assert row_lengths(graph).max() <= SHORT_ROW
        _, _, skipped = run_both(graph)
        assert skipped

    def test_dense_generator_long_rows(self):
        graph = generated(5, n=250)
        assert graph.dense is not None
        assert row_lengths(graph).min() > SHORT_ROW
        _, _, skipped = run_both(graph)
        assert skipped

    @pytest.mark.parametrize("seed", [0, 1])
    def test_long_csr_rows_in_both_forms(self, seed, monkeypatch):
        # Every row is longer than SHORT_ROW. From singletons the visits
        # first get per-cluster sums arrays, then dicts once at most
        # SHORT_ROW clusters are non-empty.
        graph = generated(seed, n=300, size_buckets=((1.0, 10, 60),))
        assert graph.dense is None
        assert row_lengths(graph).min() > SHORT_ROW
        forms = set()
        visit = ModularityContext.neighbor_cluster_weights

        def recording_visit(ctx, node):
            neighbors = visit(ctx, node)
            forms.add(type(neighbors))
            return neighbors

        monkeypatch.setattr(
            ModularityContext, "neighbor_cluster_weights", recording_visit
        )
        run_both(graph)
        assert forms == {dict, np.ndarray}

    @pytest.mark.parametrize("seed", [4, 5])
    def test_rows_straddling_the_cutoff(self, seed):
        graph = straddling_graph(seed)
        lengths = row_lengths(graph)
        assert (lengths <= SHORT_ROW).any() and (lengths > SHORT_ROW).any()
        assert (lengths == SHORT_ROW).any() or (lengths == SHORT_ROW + 1).any()
        run_both(graph)

    @pytest.mark.parametrize(
        "make",
        [lambda: sparse_generated(6), lambda: straddling_graph(7),
         lambda: generated(8, n=250)],
        ids=["sparse", "straddling", "dense"],
    )
    def test_aggregated_graphs_with_self_loops(self, make):
        graph = make()
        for _ in range(3):
            ctx, _, _ = run_both(graph)
            part = Partition.from_labels(ctx.assignment)
            if part.c == graph.n:
                break
            graph = aggregate(graph, part)
            assert graph.self_loops.any()
            # From singletons, and from a partition with clusters to leave.
            run_both(graph, init=Partition(np.arange(graph.n) // 2))

    @pytest.mark.parametrize("make", [lambda: sparse_generated(6),
                                      lambda: straddling_graph(7)],
                             ids=["sparse", "straddling"])
    def test_skips_on_an_aggregated_level(self, make):
        graph = make()
        ctx, _, _ = run_both(graph)
        graph = aggregate(graph, Partition.from_labels(ctx.assignment))
        assert graph.self_loops.any() and graph.n > 10
        for init in (None, Partition(np.arange(graph.n) // 2)):
            _, _, skipped = run_both(graph, init=init)
            assert skipped

    @pytest.mark.parametrize("seed", [9, 10, 11])
    def test_shuffled_orders(self, seed):
        rng = np.random.default_rng(seed)
        for graph in (sparse_generated(seed, n=200), straddling_graph(seed)):
            _, _, skipped = run_both(graph, order=rng.permutation(graph.n))
            assert skipped

    def test_initial_partition(self):
        graph = straddling_graph(12)
        labels = np.random.default_rng(12).integers(0, 15, size=graph.n)
        run_both(graph, init=Partition.from_labels(labels))

    def test_random_initial_partitions_of_small_graphs(self):
        # Misplaced nodes whose best target is a cluster they are not yet
        # adjacent to: a skip bound that ignores such clusters moves fewer.
        skipped = 0
        for seed in range(300):
            rng = np.random.default_rng(seed)
            graph = sparse_small_graph(rng, n_max=40)
            labels = rng.integers(0, max(2, graph.n // 3), size=graph.n)
            skipped += run_both(graph, init=Partition.from_labels(labels))[2]
        assert skipped

    @pytest.mark.parametrize("n", [6, 12, 13])
    def test_ties_on_a_cycle(self, n):
        graph = unit_graph(n, [(i, (i + 1) % n) for i in range(n)])
        rng = np.random.default_rng(n)
        run_both(graph)
        run_both(graph, order=np.arange(n)[::-1].copy())
        run_both(graph, init=Partition(np.arange(n)[::-1].copy()))
        for _ in range(5):
            run_both(graph, order=rng.permutation(n))

    def test_ties_on_complete_bipartite(self):
        graph = unit_graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
        rng = np.random.default_rng(33)
        run_both(graph)
        for labels in ([5, 4, 3, 2, 1, 0], [0, 1, 0, 1, 2, 2], [2, 0, 1, 1, 0, 2]):
            run_both(graph, init=Partition(labels))
        for _ in range(5):
            run_both(graph, order=rng.permutation(6))

    @pytest.mark.parametrize("links", [1, SHORT_ROW + 10])
    def test_spare_cluster_wins(self, links):
        graph, init, pre_moves = spare_wins_graph(links)
        assert (row_lengths(graph)[0] > SHORT_ROW) == (links > SHORT_ROW)
        ctx, into_empty, _ = run_both(graph, init=init, pre_moves=pre_moves)
        assert into_empty[0]

    @pytest.mark.parametrize("layout", ["csr", "dense"])
    def test_non_adjacent_cluster_does_not_compete(self, layout):
        graph, init = far_cluster_graph(layout)
        assert (graph.dense is None) == (layout == "csr")
        ctx, _, _ = run_both(graph, init=init)
        assert ctx.assignment[0] == 2

    @pytest.mark.parametrize("layout", ["csr", "dense"])
    def test_refilled_spare_cluster_is_a_candidate(self, layout):
        graph, init, pre_moves = spare_refill_graph(layout)
        assert (graph.dense is None) == (layout == "csr")
        ctx, into_empty, skipped = run_both(graph, init=init, pre_moves=pre_moves)
        assert into_empty[:2] == [True, False]
        assert ctx.assignment.tolist() == [2, 0, 2, 1, 1, 1, 1]
        assert skipped

    @pytest.mark.parametrize("entries", [2, 2 * SHORT_ROW])
    def test_spare_cluster_wins_a_tie_by_lower_id(self, entries):
        graph, init, pre_moves = spare_ties_graph(entries)
        assert (row_lengths(graph)[0] > SHORT_ROW) == (entries > SHORT_ROW)
        ctx, into_empty, _ = run_both(graph, init=init, pre_moves=pre_moves)
        assert into_empty[0]


def sparse_small_graph(rng, n_max=30):
    """Largest component of a random hypergraph with 2- and 3-node
    hyperedges at about one per node, so that many cluster pairs share no
    edge; every node of the reduction has a positive degree."""
    n = int(rng.integers(8, n_max + 1))
    m = int(rng.integers(n // 2, 3 * n // 2))
    edges = [rng.choice(n, size=int(rng.integers(2, 4)), replace=False)
             for _ in range(m)]
    weights = rng.uniform(0.5, 3.0, size=m) if rng.random() < 0.5 else None
    return degree_preserving_reduce(preprocess(Hypergraph(n, edges, weights)))


class TestRecutSmallClusters:
    """The recut tries a cluster alone and with each adjacent cluster; the
    reference also tries every non-adjacent pair."""

    def test_adjacent_pairs_match_all_pairs(self):
        # Random partitions into clusters of a few nodes, which a recut
        # almost always improves, and Louvain's own, which it leaves alone.
        rng = np.random.default_rng(71)
        recut = louvain_module._recut_small_clusters
        improved = 0
        for _ in range(12):
            graph = sparse_small_graph(rng)
            assert graph.node_degrees.min() > 0
            parts = [louvain(graph).partition]
            for _ in range(3):
                c = int(rng.integers(max(2, graph.n // 5), graph.n // 2 + 1))
                parts.append(Partition.from_labels(rng.integers(0, c, size=graph.n)))
            for part in parts:
                got = recut(graph, part)
                want = recut_all_pairs(graph, part, MIN_GAIN)
                assert (got is None) == (want is None)
                if got is not None:
                    assert got == want
                    improved += 1
        assert improved > 0

    def test_cycle_of_pairs_bisects_only_adjacent_candidates(self, monkeypatch):
        n = 400
        graph = unit_graph(n, [(i, (i + 1) % n) for i in range(n)])
        bisect = louvain_module._best_bisection
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            if calls > n:
                raise AssertionError(f"more than {n} bisections")
            return bisect(*args)

        monkeypatch.setattr(louvain_module, "_best_bisection", counting)
        louvain_module._recut_small_clusters(graph, Partition(np.arange(n) // 2))
        # 200 clusters alone plus 200 adjacent pairs around the cycle.
        assert calls == n

    def test_many_full_size_candidates(self):
        # 100 six-node clusters alone and 100 twelve-node pairs. Scoring the
        # splits of a candidate one at a time takes about 8 s CPU at this
        # size on a 2-core x86-64 VM.
        n = 600
        graph = unit_graph(n, [(i, (i + 1) % n) for i in range(n)])
        start = time.process_time()
        louvain_module._recut_small_clusters(graph, Partition(np.arange(n) // 6))
        assert time.process_time() - start < 1.0
