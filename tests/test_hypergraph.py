import tracemalloc

import numpy as np
import pytest

from hypermod import (
    FormatError,
    GenConfig,
    Hypergraph,
    Partition,
    degrees,
    generate,
    load,
    load_labels,
    loads,
    preprocess,
    write_hmetis,
    write_labels,
)
from hypermod.evaluate import pin_counts
from hypermod.hypergraph import read_label_rows
from hypermod.modularity import membership

from conftest import random_hypergraph
from oracles import (
    bits,
    canonical_edges_by_unique,
    incidence_from_pins,
    preprocess_union_find,
)


class TestLoad:
    def test_minimal_unweighted_file(self):
        g = loads("2 3\n1 2 3\n1 2\n")
        assert g.n == 3
        assert g.m == 2
        assert np.array_equal(g.weights, [1.0, 1.0])
        assert np.array_equal(g.edges[0], [0, 1, 2])
        assert np.array_equal(g.edges[1], [0, 1])
        assert np.array_equal(g.node_labels, [1, 2, 3])

    def test_weighted_format_flag(self):
        g = loads("1 2 1\n5.0 1 2\n")
        assert g.n == 2
        assert g.m == 1
        assert g.weights[0] == 5.0

    def test_duplicate_node_in_line_dropped(self):
        g = loads("1 2\n1 1 2\n")
        assert np.array_equal(g.edges[0], [0, 1])
        assert g.edge_degrees[0] == 2

    def test_comment_and_blank_lines_skipped(self):
        g = loads("% a comment\n\n2 3\n% another\n1 2 3\n\n1 2\n")
        assert g.m == 2

    def test_fmt_zero_is_unweighted(self):
        g = loads("1 2 0\n1 2\n")
        assert g.weights[0] == 1.0

    @pytest.mark.parametrize(
        "text",
        [
            "",  # no header
            "2\n1 2\n",  # header too short
            "1 2 7\n1 2\n",  # unknown fmt code
            "x 2\n1 2\n",  # non-integer header
            "0 2\n",  # zero hyperedges
            "1 0\n1\n",  # zero nodes
            "2 3\n1 2\n",  # fewer edge lines than m
            "1 3\n1 2\n1 3\n",  # more edge lines than m
            "1 2\n1 a\n",  # non-integer node
        ],
    )
    def test_malformed_files_rejected(self, text):
        with pytest.raises(FormatError):
            loads(text)

    def test_node_index_out_of_range(self):
        with pytest.raises(FormatError, match="outside"):
            loads("1 2\n1 3\n")
        with pytest.raises(FormatError, match="outside"):
            loads("1 2\n0 1\n")

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(FormatError, match="positive"):
            loads("1 2 1\n0 1 2\n")
        with pytest.raises(FormatError, match="positive"):
            loads("1 2 1\n-2.5 1 2\n")
        for token in ("inf", "nan"):
            with pytest.raises(FormatError, match="line 2: weight must be finite"):
                loads(f"1 2 1\n{token} 1 2\n")

    def test_node_count_beyond_int64_rejected(self):
        with pytest.raises(FormatError, match="64-bit"):
            loads("1 99999999999999999999\n99999999999999999999 1\n")

    def test_load_roundtrip(self, tmp_path):
        g = Hypergraph(4, [[0, 1, 2], [2, 3]], weights=[2.5, 1.0])
        path = tmp_path / "g.hgr"
        write_hmetis(g, path)
        back = load(path)
        assert back.n == g.n
        assert back.m == g.m
        assert np.array_equal(back.weights, g.weights)
        assert all(np.array_equal(a, b) for a, b in zip(back.edges, g.edges))

    @staticmethod
    def generated_and_reloaded(tmp_path):
        # Sparse pairs and triples: preprocess drops about a quarter of the nodes.
        small = ((1.0, 2, 3),)
        g, _ = generate(
            GenConfig(n=200, classes=10, size_buckets=small, edge_factor=0.6)
        )
        write_hmetis(g, tmp_path / "g.hgr")
        return g, load(tmp_path / "g.hgr")

    def test_generated_graph_equals_its_reloaded_copy(self, tmp_path):
        g, back = self.generated_and_reloaded(tmp_path)
        assert back == g

    def test_reloaded_copy_preprocesses_to_the_same_ids(self, tmp_path):
        g, back = self.generated_and_reloaded(tmp_path)
        kept = preprocess(g)
        assert kept.n < g.n
        assert np.array_equal(kept.node_labels, preprocess(back).node_labels)

    def test_header_node_count_allocates_no_ids(self):
        n = 10**7
        tracemalloc.start()
        try:
            g = loads(f"1 {n}\n1 2\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert g.node_labels.dtype == np.int64
        assert np.array_equal(g.node_labels, np.arange(1, n + 1))

    def test_unweighted_roundtrip_has_plain_header(self, tmp_path):
        g = Hypergraph(3, [[0, 1], [1, 2]])
        path = tmp_path / "g.hgr"
        write_hmetis(g, path)
        assert path.read_text().splitlines()[0] == "2 3"


class TestConstructor:
    def test_rejects_empty_edge(self):
        with pytest.raises(ValueError, match="no nodes"):
            Hypergraph(3, [[0, 1], []])

    def test_rejects_out_of_range_node(self):
        with pytest.raises(ValueError, match="outside"):
            Hypergraph(3, [[0, 3]])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            Hypergraph(3, [[0, 1]], weights=[0.0])

    def test_rejects_no_edges(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [])

    def test_rejects_node_count_beyond_int64(self):
        with pytest.raises(ValueError, match="64-bit"):
            Hypergraph(2**64, [[0, 1]])

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Hypergraph(3, [[2**64, 0]]), "node ids must be integers"),
            (lambda: Hypergraph(3, [[-(2**63) - 1, 0]]), "node ids must be integers"),
            (
                lambda: Hypergraph(3, [[0, 1]], node_labels=[2**64, 1, 2]),
                "node labels must be integers",
            ),
            (lambda: Partition([2**64]), "cluster ids must be integers"),
            (lambda: Partition([-(2**63) - 1]), "cluster ids must be integers"),
        ],
        ids=["id-above", "id-below", "label", "cluster-above", "cluster-below"],
    )
    def test_integers_beyond_int64_raise_value_error(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize(
        "n, edges, labels, message",
        [
            (3, [[0.5, 1.7]], None, "node ids must be integers"),
            (3, [[0, 1], np.array([0.0, 2.9])], None, "node ids must be integers"),
            (3, [[0, np.nan]], None, "node ids must be integers"),
            (2.7, [[0, 1]], None, "node count must be an integer"),
            (3, [[0, 1]], [1.5, 2.5, 3.5], "node labels must be integers"),
        ],
        ids=["ids", "float-array-ids", "nan-id", "count", "labels"],
    )
    def test_rejects_fractional_count_ids_and_labels(self, n, edges, labels, message):
        with pytest.raises(ValueError, match=message):
            Hypergraph(n, edges, node_labels=labels)

    def test_integral_floats_are_accepted(self):
        g = Hypergraph(3.0, [np.array([2.0, 0.0]), [1.0, 2.0]], None, [1.0, 2.0, 3.0])
        assert g == Hypergraph(3, [[0, 2], [1, 2]], None, [1, 2, 3])
        assert isinstance(g.n, int) and g.node_labels.dtype == np.int64

    def test_with_weights(self):
        g = Hypergraph(3, [[0, 1], [1, 2]])
        g2 = g.with_weights([2.0, 3.0])
        assert np.array_equal(g2.weights, [2.0, 3.0])
        assert np.array_equal(g.weights, [1.0, 1.0])

    def test_with_weights_shares_structure_and_validates_weights(self):
        g = Hypergraph(4, [[3, 0, 1], [1, 2]], node_labels=[5, 6, 7, 8])
        g2 = g.with_weights([2.0, 3.0])
        assert g2.rows is g.rows
        assert g2.edge_degrees is g.edge_degrees
        assert g2.node_labels is g.node_labels
        assert g2 == Hypergraph(4, g.edges, [2.0, 3.0], [5, 6, 7, 8])
        for bad in ([1.0], [1.0, 0.0], [1.0, np.inf], [[1.0, 2.0]]):
            with pytest.raises(ValueError):
                g.with_weights(bad)
        assert np.array_equal(g.weights, [1.0, 1.0])


def messy_edges(rng, n, m, max_size=12):
    """Unsorted hyperedges with repeated nodes, as lists and arrays."""
    edges = []
    for j in range(m):
        edge = rng.integers(0, n, size=int(rng.integers(1, max_size + 1)))
        edges.append(edge.tolist() if j % 2 else edge)
    return edges


class TestConstructorMatchesReference:
    """One sort over all pins gives what np.unique per hyperedge gave."""

    @staticmethod
    def check(n, edges):
        g = Hypergraph(n, edges)
        ref = canonical_edges_by_unique(n, edges)
        assert g.m == len(ref)
        assert g.edge_degrees.dtype == np.int64
        assert np.array_equal(g.edge_degrees, [e.size for e in ref])
        assert g.pins.dtype == np.int64
        assert np.array_equal(g.pins, np.concatenate(ref))
        assert len(g.edges) == len(ref)
        for got, want in zip(g.edges, ref):
            assert got.dtype == np.int64
            assert np.array_equal(got, want)
        return g

    def test_random_messy_edges(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            self.check(n, messy_edges(rng, n, int(rng.integers(1, 30))))

    def test_singleton_and_duplicate_node_edges(self):
        g = self.check(5, [[3], [2, 2], [1, 1, 0], [4, 0, 4, 1], [0, 1]])
        assert np.array_equal(g.edge_degrees, [1, 1, 2, 3, 2])

    def test_node_count_too_large_for_a_product_key(self):
        # m * n >= 2**63 overflows any (edge, node) product key, and n needs
        # 64-bit CSR indices.
        n = 2**62
        self.check(n, [[n - 1, 5, 5, 0], [0], [7, 3, n - 2]])

    @pytest.mark.parametrize(
        "edges",
        [
            [[0, 1], [], [5]],
            [[0, 1], [5], []],
            [[-1, 0], []],
            [[], [-1]],
            [[2, 0, 3], [1, 2]],
        ],
    )
    def test_errors_name_the_first_offending_edge(self, edges):
        with pytest.raises(ValueError) as expected:
            canonical_edges_by_unique(3, edges)
        with pytest.raises(ValueError) as got:
            Hypergraph(3, edges)
        assert str(got.value) == str(expected.value)


def components_corpus(seed, count=40):
    """Hypergraphs with several components, singleton and duplicate-node
    hyperedges, and nodes that no hyperedge (or only a singleton) touches."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = int(rng.integers(4, 60))
        groups = rng.integers(0, int(rng.integers(1, 6)), size=n)
        edges = []
        for _ in range(int(rng.integers(1, n))):
            members = np.flatnonzero(groups == rng.integers(0, groups.max() + 1))
            if members.size == 0:
                continue
            size = int(rng.integers(1, min(members.size, 5) + 1))
            edges.append(rng.choice(members, size=size))
        if not any(np.unique(e).size >= 2 for e in edges):
            edges.append([0, n - 1])
        weights = rng.uniform(0.5, 3.0, size=len(edges))
        labels = rng.permutation(n) + 1 if i % 2 else None
        out.append(Hypergraph(n, edges, weights, labels))
    return out


def equal_components(rng, sizes, n_extra=3):
    """Components of the given sizes over shuffled node indices, each a
    chain of pairs plus one hyperedge of up to three of its nodes, with
    ``n_extra`` nodes in no hyperedge."""
    n = sum(sizes) + n_extra
    nodes = rng.permutation(n)
    edges, at = [], 0
    for size in sizes:
        comp = nodes[at : at + size]
        at += size
        edges += [[comp[k], comp[k + 1]] for k in range(size - 1)]
        edges.append(rng.choice(comp, size=min(size, 3), replace=False))
    order = rng.permutation(len(edges))
    return Hypergraph(n, [edges[k] for k in order])


class TestPreprocessMatchesReference:
    """Hook-and-jump component labels keep what the union-find kept."""

    @staticmethod
    def check(g):
        got = preprocess(g)
        want = preprocess_union_find(g)
        assert got == want
        assert np.array_equal(bits(got.weights), bits(want.weights))
        assert got.pins.dtype == got.edge_degrees.dtype == np.int64
        assert got.node_labels.dtype == np.int64
        assert np.array_equal(got.incidence().toarray(), want.incidence().toarray())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_components_corpus(self, seed):
        for g in components_corpus(seed):
            self.check(g)

    def test_mixed_corpus(self, mixed_corpus):
        for g in mixed_corpus[:60]:
            self.check(g)

    def test_ties_between_equal_largest_components(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            k = int(rng.integers(2, 5))
            size = int(rng.integers(2, 6))
            sizes = [size] * k + [int(rng.integers(2, size + 1))]
            self.check(equal_components(rng, sizes))

    def test_tie_goes_to_lowest_node_listed_last(self):
        out = preprocess(loads("3 7\n3 5\n2 6\n7 1\n"))
        assert np.array_equal(out.node_labels, [1, 7])

    def test_long_chain_in_reverse_order(self):
        n = 500
        edges = [[v, v + 1] for v in range(n - 2, -1, -1)]
        g = Hypergraph(n, edges + [[3]])
        self.check(g)
        assert preprocess(g).n == n


class TestPreprocess:
    def test_keeps_largest_component(self):
        # {1,2},{2,3},{4,5} -> component {1,2,3} (hand-traced union-find).
        g = loads("3 5\n1 2\n2 3\n4 5\n")
        out = preprocess(g)
        assert out.n == 3
        assert out.m == 2
        assert np.array_equal(out.node_labels, [1, 2, 3])

    def test_singleton_dropped_then_component_kept(self):
        g = loads("2 3\n1 2\n3\n")
        out = preprocess(g)
        assert out.n == 2
        assert out.m == 1
        assert np.array_equal(out.node_labels, [1, 2])

    def test_connected_input_identity_up_to_compaction(self):
        g = loads("2 3\n1 2 3\n1 2\n")
        out = preprocess(g)
        assert out == g

    def test_tie_broken_by_lowest_original_index(self):
        # Two components of 2 nodes each; {1,4} contains the lowest index.
        g = loads("2 4\n1 4\n2 3\n")
        out = preprocess(g)
        assert np.array_equal(out.node_labels, [1, 4])

    def test_all_singletons_is_an_error(self):
        g = loads("2 2\n1\n2\n")
        with pytest.raises(ValueError, match="empty"):
            preprocess(g)

    def test_warning_logged_for_dropped_singletons(self, caplog):
        g = loads("2 3\n1 2\n3\n")
        with caplog.at_level("WARNING"):
            preprocess(g)
        assert any("singleton" in rec.message for rec in caplog.records)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g = random_hypergraph(rng, n_max=30, weighted=True)
            once = preprocess(g)
            assert preprocess(once) == once

    def test_single_component_after_preprocess(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = preprocess(random_hypergraph(rng, n_max=30))
            # BFS over the node-sharing graph must reach every node.
            neighbors = [set() for _ in range(g.n)]
            for e in g.edges:
                for v in e:
                    neighbors[v].update(int(u) for u in e if u != v)
            seen = {0}
            frontier = [0]
            while frontier:
                v = frontier.pop()
                for u in neighbors[v]:
                    if u not in seen:
                        seen.add(u)
                        frontier.append(u)
            assert len(seen) == g.n

    def test_labels_compose_through_two_rounds(self):
        g = loads("3 6\n1 2\n2 6\n4 5\n")
        out = preprocess(g)
        assert np.array_equal(out.node_labels, [1, 2, 6])


class TestDegrees:
    def test_single_edge_weight_two(self):
        g = Hypergraph(3, [[0, 1, 2]], weights=[2.0])
        view = degrees(g)
        assert np.array_equal(view.node_degrees, [2.0, 2.0, 2.0])
        assert np.array_equal(view.edge_degrees, [3])

    def test_two_edges_direct_summation(self):
        g = Hypergraph(3, [[0, 1, 2], [0, 1]])
        view = degrees(g)
        assert np.array_equal(view.node_degrees, [2.0, 2.0, 1.0])

    def test_total_degree_identity(self):
        # sum_v d(v) == sum_e w(e) * delta(e) on random hypergraphs.
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = random_hypergraph(rng, n_max=50, weighted=True)
            view = degrees(g)
            expected = float(np.sum(g.weights * g.edge_degrees))
            assert view.total_degree == pytest.approx(expected, rel=1e-12)
            assert view.node_degrees.sum() == pytest.approx(expected, rel=1e-12)


class TestStoredRows:
    """Everything read from ``rows`` has the bits of the incidence that was
    built from ``pins``: data, indices, indptr and their dtypes."""

    @staticmethod
    def same_csr(got, want):
        assert got.format == want.format == "csr" and got.shape == want.shape
        for a, b in ((got.data, want.data), (got.indices, want.indices),
                     (got.indptr, want.indptr)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def check(self, g, rng):
        rows = g.rows
        assert rows.format == "csr" and rows.shape == (g.m, g.n)
        assert rows.data.dtype == np.float64 and np.all(rows.data == 1.0)
        H = incidence_from_pins(g)
        self.same_csr(g.incidence(), H)
        assert np.array_equal(bits(degrees(g).node_degrees), bits(H @ g.weights))
        p = Partition.from_labels(rng.integers(0, 5, size=g.n))
        want = (H.T @ membership(p.assignment, p.c)).tocsr().astype(np.int64)
        want.sort_indices()
        self.same_csr(pin_counts(g, p), want)

    def test_mixed_corpus(self, mixed_corpus):
        rng = np.random.default_rng(5)
        for g in mixed_corpus:
            self.check(g, rng)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_components_corpus_before_and_after_preprocess(self, seed):
        rng = np.random.default_rng(seed)
        for g in components_corpus(seed):
            self.check(g, rng)
            self.check(preprocess(g), rng)


class TestLabelsIO:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "labels.txt"
        write_labels([3, 1, 1, 2], path)
        assert np.array_equal(load_labels(path), [3, 1, 1, 2])

    def test_rejects_multi_column(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("1 2\n")
        with pytest.raises(FormatError):
            load_labels(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        bom = b"\xef\xbb\xbf"
        hgr, labels = tmp_path / "g.hgr", tmp_path / "g.labels"
        hgr.write_bytes(bom + b"2 3 1\n2.5 1 2\n1 2 3\n")
        labels.write_bytes(bom + b"3 1\n1 2\n")
        g, want = load(hgr), loads("2 3 1\n2.5 1 2\n1 2 3\n")
        assert (g.n, g.pins.tolist(), g.edge_degrees.tolist(), g.weights.tolist()) == (
            want.n, want.pins.tolist(), want.edge_degrees.tolist(), want.weights.tolist()
        )
        assert read_label_rows(labels, widths=(2,)).tolist() == [[3, 1], [1, 2]]

    def test_rejects_label_beyond_int64(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("1\n99999999999999999999\n")
        with pytest.raises(FormatError, match="64-bit"):
            load_labels(path)
