"""Independent reference implementations used only to check results.

Everything here evaluates definitions directly (double sums, exhaustive
enumeration, rational arithmetic) and shares no code with the library
paths it verifies.
"""

from fractions import Fraction

import numpy as np


def modularity_double_sum(adjacency, labels):
    """Modularity via the literal double sum over all node pairs."""
    A = np.asarray(adjacency, dtype=float)
    labels = np.asarray(labels)
    n = A.shape[0]
    k = A.sum(axis=1)
    two_m = k.sum()
    q = 0.0
    for i in range(n):
        for j in range(n):
            if labels[i] == labels[j]:
                q += A[i, j] - k[i] * k[j] / two_m
    return q / two_m


def modularity_double_sum_fast(adjacency, labels):
    """Vectorized double sum (same definition, usable for larger n)."""
    A = np.asarray(adjacency, dtype=float)
    labels = np.asarray(labels)
    k = A.sum(axis=1)
    two_m = k.sum()
    B = (A - np.outer(k, k) / two_m) / two_m
    same = np.equal.outer(labels, labels)
    return float(B[same].sum())


def iter_set_partition_labels(n):
    """All set partitions of n items as restricted-growth label arrays."""
    if n == 0:
        yield np.zeros(0, dtype=int)
        return
    a = np.zeros(n, dtype=int)
    # b[i] = 1 + max(a[:i]): the largest label position i may take.
    b = np.ones(n, dtype=int)
    b[0] = 0
    while True:
        yield a.copy()
        j = n - 1
        while j > 0 and a[j] == b[j]:
            j -= 1
        if j == 0:
            return
        a[j] += 1
        grown = max(b[j], a[j] + 1)
        a[j + 1 :] = 0
        b[j + 1 :] = grown


def max_modularity_exhaustive(adjacency):
    """Best modularity over every partition, by enumeration."""
    A = np.asarray(adjacency, dtype=float)
    n = A.shape[0]
    k = A.sum(axis=1)
    two_m = k.sum()
    B = (A - np.outer(k, k) / two_m) / two_m
    best_q = -np.inf
    best_labels = None
    for labels in iter_set_partition_labels(n):
        q = B[np.equal.outer(labels, labels)].sum()
        if q > best_q:
            best_q = q
            best_labels = labels
    return float(best_q), best_labels


def symmetric_f1_naive(labels_a, labels_b):
    """Symmetric best-match F1 straight from the definition."""
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)

    def clusters(labels):
        return [set(np.flatnonzero(labels == v)) for v in np.unique(labels)]

    def one_direction(cs, ct):
        scores = []
        for P in cs:
            best = 0.0
            for T in ct:
                inter = len(P & T)
                if inter == 0:
                    continue
                precision = inter / len(P)
                recall = inter / len(T)
                best = max(best, 2 * precision * recall / (precision + recall))
            scores.append(best)
        return sum(scores) / len(scores)

    ca, cb = clusters(labels_a), clusters(labels_b)
    return (one_direction(ca, cb) + one_direction(cb, ca)) / 2


def reweight_exact(counts, delta, c, m):
    """Cut-balance reweighting value in exact rational arithmetic."""
    total = sum((Fraction(1, int(k) + 1) for k in counts), start=Fraction(0))
    return total * Fraction(int(delta) + int(c), int(m))


def clique_degree_by_hand(g, node):
    """Sum_e h(node,e) * w(e) * (delta(e) - 1) accumulated edge by edge."""
    total = 0.0
    for edge, w in zip(g.edges, g.weights):
        if node in edge:
            total += w * (len(edge) - 1)
    return total


def expansion_by_pairs(g, edge_scale):
    """Dense sum over hyperedges e of edge_scale[e] on every ordered pair of
    distinct members of e, accumulated edge by edge."""
    A = np.zeros((g.n, g.n))
    for edge, s in zip(g.edges, edge_scale):
        A[np.ix_(edge, edge)] += s
    np.fill_diagonal(A, 0.0)
    return A


def _neighbor_cluster_weights_reference(ctx, node):
    """Clusters adjacent to ``node`` (ascending) and the weight into each,
    self-loop excluded, from one bincount over the whole id range."""
    lo, hi = ctx._indptr[node], ctx._indptr[node + 1]
    cols = ctx._indices[lo:hi]
    vals = ctx._data[lo:hi]
    other = cols != node
    if not other.all():
        cols = cols[other]
        vals = vals[other]
    if cols.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0)
    sums = np.bincount(ctx.assignment[cols], weights=vals)
    cand = np.flatnonzero(sums)
    return cand, sums[cand]


def _weight_to_reference(cand, weights, cluster):
    pos = np.searchsorted(cand, cluster)
    if pos < cand.size and cand[pos] == cluster:
        return float(weights[pos])
    return 0.0


def local_moving_reference(ctx, order, min_gain):
    """Louvain local moving with every visit vectorized over numpy arrays.

    The candidate set (adjacent clusters plus, for a node that is not
    alone, the lowest empty cluster inserted in id order) is scored with
    one array expression and the first maximum wins. Reads the row
    through its own bincount scan; uses ``ctx`` only for the tracked sums,
    the empty-cluster heap and ``move``.
    """
    assignment = ctx.assignment
    degrees = ctx.degrees
    sigma_tot = ctx.sigma_tot
    two_m = ctx.two_m
    total = 0
    while True:
        moves = 0
        for u in order:
            a = assignment[u]
            cand, weights = _neighbor_cluster_weights_reference(ctx, u)
            if cand.size == 0:
                continue
            s_a = _weight_to_reference(cand, weights, a)
            other = cand != a
            cand = cand[other]
            weights = weights[other]
            if ctx.sizes[a] > 1:
                spare = ctx.first_empty_cluster()
                if spare >= 0:
                    at = int(np.searchsorted(cand, spare))
                    cand = np.insert(cand, at, spare)
                    weights = np.insert(weights, at, 0.0)
            if cand.size == 0:
                continue
            k = degrees[u]
            tot_a_without = sigma_tot[a] - k
            gains = (
                2.0 * (weights - s_a) / two_m
                - 2.0 * k * (sigma_tot[cand] - tot_a_without) / (two_m * two_m)
            )
            best = int(np.argmax(gains))
            if gains[best] > min_gain:
                ctx.move(u, int(cand[best]), s_frm=s_a, s_to=float(weights[best]))
                moves += 1
        total += moves
        if moves == 0:
            return total
