"""Property tests of the Hypergraph constructor (needs hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hypermod import Hypergraph  # noqa: E402

from oracles import canonical_edges_by_unique  # noqa: E402

# scipy stores CSR indices as int32 up to this node count and as int64 past it.
INT32_LIMIT = 2**31 - 1

NODE_COUNTS = st.one_of(
    st.integers(1, 40),
    st.integers(INT32_LIMIT - 20, INT32_LIMIT + 20),
    st.integers(1, 2**62),
)


def node_indices(n, bad=()):
    """Indices near 0, near n - 1 and anywhere in [0, n), plus ``bad``."""
    return st.one_of(
        st.integers(0, min(n, 8) - 1),
        st.integers(max(0, n - 8), n - 1),
        st.integers(0, n - 1),
        *([st.sampled_from(bad)] if bad else []),
    )


@st.composite
def messy_hypergraphs(draw, min_size=1, bad=lambda n: ()):
    """(n, edges): unsorted hyperedges with repeats, as lists or arrays."""
    n = draw(NODE_COUNTS)
    nodes = node_indices(n, bad(n))
    edges = draw(st.lists(st.lists(nodes, min_size=min_size, max_size=8),
                          min_size=1, max_size=10))
    flags = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return n, [np.array(e, dtype=np.int64) if f else e for e, f in zip(edges, flags)]


class TestConstructorProperties:
    """One CSR sort gives what np.unique per hyperedge gives, for every n."""

    @settings(max_examples=300, deadline=None)
    @given(messy_hypergraphs())
    @example((INT32_LIMIT, [[INT32_LIMIT - 1, 0, INT32_LIMIT - 1], [3]]))
    @example((INT32_LIMIT + 1, [[INT32_LIMIT, 0, INT32_LIMIT], [3]]))
    @example((2**62, [[2**62 - 1, 5, 5, 0], [0], [7, 3, 2**62 - 2]]))
    @example((2**63 - 1, [[2**63 - 2, 0, 0], [5]]))
    def test_matches_unique_per_edge(self, case):
        n, edges = case
        g = Hypergraph(n, edges)
        ref = canonical_edges_by_unique(n, edges)
        assert g.pins.dtype == np.int64 and g.edge_degrees.dtype == np.int64
        assert np.array_equal(g.edge_degrees, [e.size for e in ref])
        assert np.array_equal(g.pins, np.concatenate(ref))

    @settings(max_examples=300, deadline=None)
    @given(messy_hypergraphs(min_size=0, bad=lambda n: (-1, n, n + 5, -(2**63))))
    @example((INT32_LIMIT + 1, [[0, 1], [INT32_LIMIT + 1], []]))
    def test_errors_name_the_first_offending_edge(self, case):
        n, edges = case
        try:
            ref = canonical_edges_by_unique(n, edges)
        except ValueError as expected:
            with pytest.raises(ValueError) as got:
                Hypergraph(n, edges)
            assert str(got.value) == str(expected)
        else:
            assert np.array_equal(Hypergraph(n, edges).pins, np.concatenate(ref))
