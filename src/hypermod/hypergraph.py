"""Hypergraph container, hMETIS-style file I/O, and preprocessing.

A hypergraph stores its hyperedges as the rows of one m x n CSR matrix,
``rows``, each hyperedge with a strictly positive weight; ``pins`` (each
hyperedge's sorted distinct 0-based nodes in turn), ``edge_degrees`` and
``edges`` are read from it. The file format is the hMETIS
convention: a header line ``m n [fmt]`` followed by one line per hyperedge
with 1-based node indices, where ``fmt`` of ``1`` means each line starts
with a hyperedge weight. Lines beginning with ``%`` are comments.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy import sparse

logger = logging.getLogger(__name__)

__all__ = [
    "FormatError",
    "Hypergraph",
    "DegreeView",
    "load",
    "loads",
    "write_hmetis",
    "load_labels",
    "read_label_rows",
    "write_labels",
    "preprocess",
    "degrees",
]


class FormatError(ValueError):
    """A hypergraph or label file could not be parsed."""


_MAX_INDEX = int(np.iinfo(np.int64).max)


class Hypergraph:
    """Weighted hypergraph over nodes ``0 .. n-1``.

    Duplicate node mentions within a hyperedge are dropped silently, so a
    hyperedge's degree is the number of distinct nodes it contains; node
    counts, ids and labels must be integers (2.0 passes, 2.5 does not).
    The one stored structure is ``rows``, the m x n CSR of float ones whose
    row j holds hyperedge j's sorted distinct nodes (n < 2**63). Read from
    it are ``edge_degrees``, ``pins`` (all rows' nodes in edge order, as
    int64), ``edges`` (one array per hyperedge) and, built on request, the
    n x m ``incidence()``.
    ``node_labels`` optionally records external identifiers; it is carried
    through preprocessing so results can be reported against the original
    numbering. After ``load`` they are the 1-based file ids. A graph built
    without them, such as ``generate``'s, has none until ``preprocess``,
    which then records the 0-based indices of the graph it was given.

    Instances are immutable by convention and safe to share between threads.
    """

    def __init__(self, n, edges, weights=None, node_labels=None):
        if n < 1:
            raise ValueError("node count must be at least 1")
        if n > _MAX_INDEX:
            raise ValueError("node count must fit a 64-bit integer")
        n = int(int64_array(n, "node count must be an integer"))
        arrays = [int64_array(e, "node ids must be integers").ravel() for e in edges]
        m = len(arrays)
        if m == 0:
            raise ValueError("hypergraph must have at least one hyperedge")
        sizes = np.fromiter((a.size for a in arrays), dtype=np.int64, count=m)
        flat = np.concatenate(arrays)
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        bad = sizes == 0
        outside = np.flatnonzero((flat < 0) | (flat >= n))
        bad[np.searchsorted(offsets, outside, side="right") - 1] = True
        if bad.any():
            idx = int(np.argmax(bad))
            if sizes[idx] == 0:
                raise ValueError(f"hyperedge {idx} has no nodes")
            raise ValueError(f"hyperedge {idx} has a node index outside [0, {n})")

        # One row per hyperedge: scipy sorts each row and sums repeats, reset to 1.
        rows = sparse.csr_matrix((np.ones(flat.size), flat, offsets), shape=(m, n))
        rows.sum_duplicates()
        rows.data[:] = 1.0

        w = _edge_weights(weights, m)
        if node_labels is not None:
            node_labels = int64_array(node_labels, "node labels must be integers").copy()
            if node_labels.shape != (n,):
                raise ValueError("need exactly one label per node")
        self._store(rows, w, node_labels)

    def _store(self, rows, weights, node_labels):
        """Keep ``rows``, which must already be canonical; returns self."""
        self.m, self.n = rows.shape
        self.rows = rows
        self.edge_degrees = np.diff(rows.indptr).astype(np.int64)
        self.weights = weights
        self.node_labels = node_labels
        return self

    @cached_property
    def pins(self):
        """Every hyperedge's sorted distinct nodes, concatenated (int64)."""
        return self.rows.indices.astype(np.int64)

    @cached_property
    def edges(self):
        """Sorted distinct node indices of each hyperedge (views of ``pins``)."""
        ends = np.cumsum(self.edge_degrees).tolist()
        return tuple(self.pins[lo:hi] for lo, hi in zip([0, *ends], ends))

    def incidence(self):
        """The n x m node-by-hyperedge matrix, ``rows`` transposed: a new
        CSR of float ones, built on each call."""
        return self.rows.T.tocsr()

    def with_weights(self, weights):
        """Copy of this hypergraph with a new weight vector.

        Only the new weights are validated. The copy shares ``rows``,
        ``edge_degrees`` and ``node_labels`` with this instance.
        """
        weights = _edge_weights(weights, self.m)
        g = copy.copy(self)
        g.weights = weights
        return g

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        if self.n != other.n or self.m != other.m:
            return False
        if not np.array_equal(self.weights, other.weights):
            return False
        if (self.node_labels is None) != (other.node_labels is None):
            return False
        if self.node_labels is not None and not np.array_equal(
            self.node_labels, other.node_labels
        ):
            return False
        return np.array_equal(
            self.edge_degrees, other.edge_degrees
        ) and np.array_equal(self.rows.indices, other.rows.indices)

    def __repr__(self):
        return f"Hypergraph(n={self.n}, m={self.m})"


def int64_array(values, message):
    """``values`` as int64 (an int64 array is returned as it is); raises
    ``ValueError(message)`` unless every value is an integer int64 holds."""
    given = np.asarray(values)
    if given.dtype == np.int64:
        return given
    try:
        with np.errstate(invalid="ignore"):  # nan and inf fail the check below
            ints = given.astype(np.int64)
    except OverflowError:  # a Python int beyond int64
        raise ValueError(message) from None
    if not np.array_equal(ints, given):
        raise ValueError(message)
    return ints


def _edge_weights(weights, m):
    """Validated float64 copy of one weight per hyperedge (ones if None)."""
    if weights is None:
        return np.ones(m)
    w = np.asarray(weights, dtype=np.float64).copy()
    if w.shape != (m,):
        raise ValueError("need exactly one weight per hyperedge")
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise ValueError("hyperedge weights must be finite and positive")
    return w


@dataclass(frozen=True)
class DegreeView:
    """Weighted node degrees and hyperedge degrees of a hypergraph.

    ``node_degrees[v]`` is the sum of weights of hyperedges containing v,
    ``edge_degrees[e]`` the number of distinct nodes in hyperedge e, and
    ``total_degree`` the sum of all node degrees (equal to the degree-weighted
    sum of hyperedge weights).
    """

    node_degrees: np.ndarray
    edge_degrees: np.ndarray
    total_degree: float


def degrees(g: Hypergraph) -> DegreeView:
    """Compute weighted node degrees and integer hyperedge degrees."""
    d = g.rows.T @ g.weights
    return DegreeView(d, g.edge_degrees.copy(), float(d.sum()))


def _tokenize(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        yield lineno, line.split()


def loads(text: str) -> Hypergraph:
    """Parse a hypergraph from a string in hMETIS format."""
    rows = _tokenize(text)
    try:
        lineno, header = next(rows)
    except StopIteration:
        raise FormatError("empty file: missing header line") from None

    if len(header) not in (2, 3):
        raise FormatError(f"line {lineno}: header must be 'm n [fmt]'")
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError:
        raise FormatError(f"line {lineno}: header must contain integers") from None
    fmt = header[2] if len(header) == 3 else "0"
    if fmt not in ("0", "1"):
        raise FormatError(f"line {lineno}: unsupported fmt code {fmt!r}")
    if m < 1 or n < 1:
        raise FormatError(f"line {lineno}: m and n must be positive")
    if n > _MAX_INDEX:
        raise FormatError(f"line {lineno}: n must fit a 64-bit integer")
    weighted = fmt == "1"

    edges = []
    weights = []
    for lineno, tokens in rows:
        if len(edges) == m:
            raise FormatError(f"line {lineno}: more than {m} hyperedge lines")
        if weighted:
            try:
                w = float(tokens[0])
            except ValueError:
                raise FormatError(
                    f"line {lineno}: expected a hyperedge weight first"
                ) from None
            if not np.isfinite(w) or w <= 0:
                raise FormatError(f"line {lineno}: weight must be positive")
            weights.append(w)
            tokens = tokens[1:]
        try:
            nodes = [int(t) for t in tokens]
        except ValueError:
            raise FormatError(f"line {lineno}: node indices must be integers") from None
        if not nodes:
            raise FormatError(f"line {lineno}: hyperedge has no nodes")
        for v in nodes:
            if not 1 <= v <= n:
                raise FormatError(
                    f"line {lineno}: node index {v} outside [1, {n}]"
                )
        edges.append(np.asarray(nodes, dtype=np.int64) - 1)

    if len(edges) != m:
        raise FormatError(f"expected {m} hyperedge lines, found {len(edges)}")
    return Hypergraph(
        n, edges, weights if weighted else None, node_labels=np.arange(1, n + 1)
    )


def load(path) -> Hypergraph:
    """Read a UTF-8 hypergraph file (a byte-order mark is skipped), in the
    format of the module docstring."""
    return loads(Path(path).read_text(encoding="utf-8-sig"))


def write_hmetis(g: Hypergraph, path) -> None:
    """Write a hypergraph in hMETIS format with nodes renumbered 1..n.

    The weighted variant (fmt code 1) is used only when some weight
    differs from 1.
    """
    weighted = bool(np.any(g.weights != 1.0))
    lines = [f"{g.m} {g.n} 1" if weighted else f"{g.m} {g.n}"]
    for e, w in zip(g.edges, g.weights):
        nodes = " ".join(str(v + 1) for v in e)
        lines.append(f"{float(w)!r} {nodes}" if weighted else nodes)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_label_rows(path, widths=(1,)) -> np.ndarray:
    """Read a file of integer rows, such as labels or ``node cluster`` pairs.

    A UTF-8 byte-order mark, blank lines and lines starting with ``%`` are
    skipped. Every row must have the same number of columns, one of
    ``widths``, and every entry must be an integer that fits int64. Returns
    an int64 array with one row per line.
    """
    rows = []
    width = None
    for lineno, tokens in _tokenize(Path(path).read_text(encoding="utf-8-sig")):
        if len(tokens) != width:
            if width is None and len(tokens) in widths:
                width = len(tokens)
            else:
                expected = " or ".join(str(w) for w in widths)
                raise FormatError(
                    f"{path}: line {lineno}: expected {width or expected} column(s)"
                )
        try:
            values = [int(t) for t in tokens]
        except ValueError:
            raise FormatError(
                f"{path}: line {lineno}: entries must be integers"
            ) from None
        if min(values) < -_MAX_INDEX - 1 or max(values) > _MAX_INDEX:
            raise FormatError(
                f"{path}: line {lineno}: entries must fit a 64-bit integer"
            )
        rows.append(values)
    if not rows:
        raise FormatError(f"{path}: no rows")
    return np.asarray(rows, dtype=np.int64)


def load_labels(path) -> np.ndarray:
    """Read a ground-truth label file: one integer class label per line."""
    return read_label_rows(path).ravel()


def write_labels(labels, path) -> None:
    """Write one integer label per line (line i = node i)."""
    labels = np.asarray(labels, dtype=np.int64)
    Path(path).write_text(
        "\n".join(str(v) for v in labels) + "\n", encoding="utf-8"
    )


def _component_labels(n, pins, degrees):
    """Lowest node index in each node's component, nodes joined by edges.

    Edge j has the next ``degrees[j]`` (at least one) of ``pins``. Each
    round hooks the root of every pin onto the lowest root among its
    edge's pins, then jumps pointers until every node points at a root. A
    label only ever falls and stays in its component, so the component's
    lowest node is its one root once no hook changes anything.
    """
    starts = np.cumsum(degrees) - degrees
    edge_of = np.repeat(np.arange(degrees.size), degrees)
    label = np.arange(n)
    while True:
        root = label[pins]
        lowest = np.minimum.reduceat(root, starts)[edge_of]
        if np.array_equal(root, lowest):
            return label
        np.minimum.at(label, root, lowest)
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def preprocess(g: Hypergraph) -> Hypergraph:
    """Drop singleton hyperedges and keep the largest connected component.

    Nodes are connected when they share a hyperedge. Every node is labelled
    with the lowest node index in its component (``_component_labels``);
    the largest component wins and ties go to the lowest label, i.e. to the
    component containing the lowest node index. Hyperedges keep their
    order and weights. Node indices are compacted; prior identifiers are
    preserved in ``node_labels``: 1-based file ids for a loaded graph, or,
    for a graph without labels (e.g. from ``generate``), its 0-based
    indices. So index a truth array by ``node_labels - 1`` after ``load``
    and by ``node_labels`` after ``generate``.

    Raises ValueError if no hyperedge with at least two nodes remains.
    """
    keep = g.edge_degrees >= 2
    dropped = g.m - int(np.count_nonzero(keep))
    if dropped:
        logger.warning("preprocess: dropped %d singleton hyperedge(s)", dropped)
    if dropped == g.m:
        raise ValueError("hypergraph is empty after removing singleton hyperedges")

    # Selecting rows copies the matrix, so select only when some go.
    rows = g.rows[keep] if dropped else g.rows
    label = _component_labels(g.n, rows.indices, g.edge_degrees[keep])

    # argmax takes the first of equal sizes: the lowest label.
    best = int(np.argmax(np.bincount(label, minlength=g.n)))
    kept_nodes = np.flatnonzero(label == best)
    remap = np.full(g.n, -1, dtype=np.int64)
    remap[kept_nodes] = np.arange(kept_nodes.size)

    inside = label[rows.indices[rows.indptr[:-1]]] == best
    if not inside.all():
        rows = rows[inside]
    # Kept nodes keep their order, so the remapped rows stay sorted.
    shape = (rows.shape[0], kept_nodes.size)
    rows = sparse.csr_matrix((rows.data, remap[rows.indices], rows.indptr), shape)
    old_labels = g.node_labels if g.node_labels is not None else np.arange(g.n)
    kept = Hypergraph.__new__(Hypergraph)
    return kept._store(rows, g.weights[keep][inside], old_labels[kept_nodes])
