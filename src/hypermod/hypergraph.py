"""Hypergraph container, hMETIS-style file I/O, and preprocessing.

Hyperedges are the rows of one m x n CSR matrix, kept as ``pins`` (each
hyperedge's sorted distinct 0-based nodes in turn) and ``edge_degrees``,
each with a strictly positive weight. The file format is the hMETIS
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
    hyperedge's degree is the number of distinct nodes it contains.
    The hyperedges are stored as ``pins``: the sorted distinct nodes of
    every hyperedge, concatenated in edge order, hyperedge j taking the
    next ``edge_degrees[j]``. They index one m x n CSR matrix (n < 2**63)
    whose rows scipy sorts and deduplicates; ``incidence()`` transposes it.
    ``edges`` gives the same nodes as one array per hyperedge.
    ``node_labels`` optionally records external identifiers; it is carried
    through preprocessing so results can be reported against the original
    numbering. After ``load`` they are the 1-based file ids. A graph built
    without them, such as ``generate``'s, has none until ``preprocess``,
    which then records the 0-based indices of the graph it was given.

    Instances are immutable by convention and safe to share between threads.
    """

    def __init__(self, n, edges, weights=None, node_labels=None):
        n = int(n)
        if n < 1:
            raise ValueError("node count must be at least 1")
        if n > _MAX_INDEX:
            raise ValueError("node count must fit a 64-bit integer")
        arrays = [np.asarray(edge, dtype=np.int64).ravel() for edge in edges]
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

        # One row per hyperedge; scipy sorts each row and drops repeats.
        ones = np.ones(flat.size, dtype=bool)
        rows = sparse.csr_matrix((ones, flat, offsets), shape=(m, n))
        rows.sum_duplicates()

        w = _edge_weights(weights, m)
        if node_labels is not None:
            node_labels = np.asarray(node_labels, dtype=np.int64).copy()
            if node_labels.shape != (n,):
                raise ValueError("need exactly one label per node")

        self.n = n
        self.m = m
        self.pins = rows.indices.astype(np.int64)
        self.edge_degrees = np.diff(rows.indptr).astype(np.int64)
        self.weights = w
        self.node_labels = node_labels

    @classmethod
    def _from_pins(cls, n, pins, edge_degrees, weights, node_labels):
        """Instance over arrays that already meet the class invariants."""
        g = cls.__new__(cls)
        g.n = n
        g.m = edge_degrees.size
        g.pins = pins
        g.edge_degrees = edge_degrees
        g.weights = weights
        g.node_labels = node_labels
        return g

    @cached_property
    def edges(self):
        """Sorted distinct node indices of each hyperedge (views of ``pins``)."""
        ends = np.cumsum(self.edge_degrees).tolist()
        return tuple(self.pins[lo:hi] for lo, hi in zip([0, *ends], ends))

    @cached_property
    def _incidence(self):
        offsets = np.concatenate(([0], np.cumsum(self.edge_degrees)))
        rows = (np.ones(self.pins.size), self.pins, offsets)
        return sparse.csr_matrix(rows, shape=(self.m, self.n)).T.tocsr()

    def incidence(self):
        """Node-by-hyperedge membership matrix (CSR, float 0/1)."""
        return self._incidence

    def with_weights(self, weights):
        """Copy of this hypergraph with a new weight vector.

        Only the new weights are validated. The copy shares ``pins``,
        ``edge_degrees``, ``node_labels`` and the incidence matrix, built
        here once, with this instance.
        """
        weights = _edge_weights(weights, self.m)
        self.incidence()
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
        ) and np.array_equal(self.pins, other.pins)

    def __repr__(self):
        return f"Hypergraph(n={self.n}, m={self.m})"


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
    d = g.incidence() @ g.weights
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
    """Read a hypergraph file. See the module docstring for the format."""
    return loads(Path(path).read_text(encoding="utf-8"))


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

    Blank lines and lines starting with ``%`` are skipped. Every row must
    have the same number of columns, one of ``widths``, and every entry
    must be an integer that fits int64. Returns an int64 array with one
    row per line.
    """
    rows = []
    width = None
    for lineno, tokens in _tokenize(Path(path).read_text(encoding="utf-8")):
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

    pin_kept = np.repeat(keep, g.edge_degrees)
    pins = g.pins[pin_kept]
    degrees = g.edge_degrees[keep]
    label = _component_labels(g.n, pins, degrees)

    # argmax takes the first of equal sizes: the lowest label.
    best = int(np.argmax(np.bincount(label, minlength=g.n)))
    kept_nodes = np.flatnonzero(label == best)
    remap = np.full(g.n, -1, dtype=np.int64)
    remap[kept_nodes] = np.arange(kept_nodes.size)

    inside = label[pins[np.cumsum(degrees) - degrees]] == best
    old_labels = g.node_labels if g.node_labels is not None else np.arange(g.n)
    return Hypergraph._from_pins(
        kept_nodes.size,
        remap[pins[np.repeat(inside, degrees)]],
        degrees[inside],
        g.weights[keep][inside],
        old_labels[kept_nodes],
    )
