"""Independent reference implementations used only to check results.

Everything here evaluates definitions directly (double sums, exhaustive
enumeration, rational arithmetic) and shares no code with the library
paths it verifies.
"""

from fractions import Fraction

import numpy as np
from scipy import sparse


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


def same_clustering(a, b):
    """True when two partitions group the nodes identically, whatever the
    cluster ids: every cluster of one meets exactly one cluster of the
    other."""
    a, b = np.asarray(a.assignment), np.asarray(b.assignment)
    if a.shape != b.shape:
        return False
    pairs = {(int(x), int(y)) for x, y in zip(a, b)}
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


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
    self-loop excluded, from one bincount over the whole id range of the
    context's row (every column of a dense layout, the stored entries of a
    CSR one)."""
    cols, vals = ctx.row(node)
    if cols is None:
        cols = np.arange(vals.size)
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


def weight_to(neighbors, cluster):
    """Weight into ``cluster`` from either form of a
    ``neighbor_cluster_weights`` result (dict or per-cluster sums and ids)."""
    if isinstance(neighbors, dict):
        return neighbors.get(cluster, 0.0)
    sums, _ = neighbors
    return float(sums[cluster]) if cluster < sums.size else 0.0


def gain_of_move(ctx, node, frm, to):
    """Modularity change of moving ``node`` from cluster ``frm`` to ``to``,
    from the context's tracked sums and a reference scan of the row."""
    if ctx.assignment[node] != frm:
        raise ValueError(f"node {node} is not in cluster {frm}")
    if frm == to:
        return 0.0
    neighbors = _neighbor_cluster_weights_reference(ctx, node)
    s_frm = _weight_to_reference(*neighbors, frm)
    s_to = _weight_to_reference(*neighbors, to)
    k = ctx.degrees[node]
    two_m = ctx.two_m
    tot_frm_without = ctx.sigma_tot[frm] - k
    return float(
        2.0 * (s_to - s_frm) / two_m
        - 2.0 * k * (ctx.sigma_tot[to] - tot_frm_without) / (two_m * two_m)
    )


def move_node(ctx, node, to):
    """``ctx.move``; moving to its own cluster is a no-op."""
    if ctx.assignment[node] != to:
        ctx.move(node, to)


def local_moving_reference(ctx, order, min_gain):
    """Louvain local moving with every visit vectorized over numpy arrays.

    The candidate set (adjacent clusters plus, for a node that is not
    alone, the lowest empty cluster inserted in id order) is scored with
    one array expression and the first maximum wins. Reads the row
    through its own bincount scan; uses ``ctx`` only for the tracked sums,
    the empty-cluster heap and ``move``. Visits every node of every
    sweep; returns the move count and the visit count.
    """
    assignment = ctx.assignment
    degrees = ctx.degrees
    sigma_tot = ctx.sigma_tot
    two_m = ctx.two_m
    total = visits = 0
    while True:
        moves = 0
        visits += len(order)
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
                ctx.move(u, int(cand[best]))
                moves += 1
        total += moves
        if moves == 0:
            return total, visits


def _best_bisection_reference(block, k, two_m, skip_side=None):
    """Exhaustively score all two-way splits of one node subset.

    ``block`` is the dense adjacency among the subset, ``k`` its degrees.
    Returns (score, side) for the best bisection, where score is the
    subset's contribution to modularity: sum of sigma_in/2m - (sigma_tot/2m)^2
    over the two parts. ``skip_side`` marks a configuration to ignore.
    """
    size = k.size
    shifts = np.arange(size)
    best_score = -np.inf
    best_side = None
    for bits in range(1, 1 << (size - 1)):
        # Highest-index node pinned to one side: each split appears once.
        side = ((bits >> shifts) & 1).astype(bool)
        if skip_side is not None and (
            np.array_equal(side, skip_side) or np.array_equal(~side, skip_side)
        ):
            continue
        in1 = block[np.ix_(side, side)].sum()
        in2 = block[np.ix_(~side, ~side)].sum()
        tot1 = k[side].sum()
        tot2 = k[~side].sum()
        score = (in1 + in2) / two_m - (tot1 * tot1 + tot2 * tot2) / (two_m * two_m)
        if score > best_score:
            best_score = score
            best_side = side.copy()
    return best_score, best_side


def recut_all_pairs(graph, partition, min_gain, max_size=12):
    """Strictly improving re-bisection of a small cluster or cluster pair,
    trying every single cluster and every pair of clusters, adjacent or
    not. Returns the improved partition or None."""
    from hypermod import Partition

    adjacency = graph.adjacency
    node_degrees = graph.node_degrees
    two_m = graph.total_weight_2m
    clusters = partition.clusters()
    sigma_tot = np.array([node_degrees[c].sum() for c in clusters])

    best_gain = min_gain
    best_recut = None

    def consider(members, current_side, current_score):
        nonlocal best_gain, best_recut
        block = adjacency[members][:, members].toarray()
        k = node_degrees[members]
        score, side = _best_bisection_reference(
            block, k, two_m, skip_side=current_side
        )
        if side is not None and score - current_score > best_gain:
            best_gain = score - current_score
            best_recut = (members, side)

    for a, members_a in enumerate(clusters):
        if 2 <= members_a.size <= max_size:
            block = adjacency[members_a][:, members_a].toarray()
            unsplit = (
                block.sum() / two_m - (sigma_tot[a] / two_m) ** 2
            )
            consider(members_a, None, unsplit)
        for b in range(a + 1, partition.c):
            members_b = clusters[b]
            size = members_a.size + members_b.size
            if size < 2 or size > max_size:
                continue
            members = np.concatenate([members_a, members_b])
            current_side = np.zeros(size, dtype=bool)
            current_side[: members_a.size] = True
            block = adjacency[members][:, members].toarray()
            in_a = block[: members_a.size, : members_a.size].sum()
            in_b = block[members_a.size :, members_a.size :].sum()
            current = (in_a + in_b) / two_m - (
                sigma_tot[a] ** 2 + sigma_tot[b] ** 2
            ) / (two_m * two_m)
            consider(members, current_side, current)

    if best_recut is None:
        return None
    members, side = best_recut
    labels = partition.assignment.copy()
    labels[members[side]] = partition.c
    labels[members[~side]] = partition.c + 1
    return Partition.from_labels(labels)


def _one_hierarchy_counting_moves(graph, init, cfg, rng):
    """One local-moving + aggregation hierarchy that also returns the
    total number of accepted moves, keeping a level that moved nothing
    when it is the only one."""
    from hypermod.louvain import MAX_PASSES, aggregate
    from hypermod.modularity import ModularityContext, Partition

    levels = []
    current = graph
    total = 0
    for _ in range(MAX_PASSES):
        ctx = ModularityContext(current, init)
        init = None
        order = np.arange(current.n)
        if cfg.shuffle:
            rng.shuffle(order)
        accepted = ctx.local_moving(order)
        total += accepted
        part = Partition.from_labels(ctx.assignment)
        if accepted == 0:
            if not levels:
                levels.append(part)
            break
        levels.append(part)
        if part.c == current.n:
            break
        current = aggregate(current, part)
    return levels, total


def louvain_rerun_always(graph, config=None):
    """Louvain that reruns every hierarchy from its flattened result, also
    when only the fine level moved, before trying a recut."""
    from hypermod.louvain import (
        MAX_PASSES,
        ClusterResult,
        LouvainConfig,
        _recut_small_clusters,
        flatten,
    )
    from hypermod.modularity import modularity

    cfg = config if config is not None else LouvainConfig()
    rng = np.random.default_rng(cfg.seed)
    levels, _ = _one_hierarchy_counting_moves(graph, None, cfg, rng)
    for _ in range(MAX_PASSES):
        flat = flatten(levels)
        relevels, moves = _one_hierarchy_counting_moves(graph, flat, cfg, rng)
        if moves:
            levels = relevels
            continue
        recut = _recut_small_clusters(graph, flat)
        if recut is None:
            break
        levels, _ = _one_hierarchy_counting_moves(graph, recut, cfg, rng)

    flat = flatten(levels)
    return ClusterResult(flat, modularity(graph, flat), graph, levels)


def irmm_rebuild_reference(g, config=None):
    """IRMM that builds every round's graph afresh with
    ``degree_preserving_reduce`` of the current weights, instead of
    combining the previous graph with a reused basis."""
    from dataclasses import replace

    from hypermod.irmm import IrmmConfig, IrmmIteration, update_weights
    from hypermod.louvain import louvain
    from hypermod.reduction import degree_preserving_reduce

    cfg = config if config is not None else IrmmConfig()
    weights = np.array(g.weights, dtype=np.float64)
    trace = []
    converged = False
    for it in range(1, cfg.max_iters + 1):
        weighted = g.with_weights(weights)
        result = None
        result = louvain(degree_preserving_reduce(weighted), cfg.louvain)
        previous = weights
        weights = update_weights(previous, weighted, result.partition, cfg.alpha)
        delta = float(np.max(np.abs(weights - previous)))
        trace.append(
            IrmmIteration(it, delta, result.modularity, result.partition.c)
        )
        if delta < cfg.threshold:
            converged = True
            break
    return replace(
        result,
        iterations=len(trace),
        converged=converged,
        trace=trace,
        weights=weights,
    )


def agglomerate_rebuild_linkage(weight, sizes, k):
    """Average-linkage merging down to k clusters that rebuilds the whole
    c x c linkage for every merge. ``weight`` is the dense cluster-level
    weight matrix and ``sizes`` the cluster sizes; returns each cluster's
    final representative (the lowest id it was merged into)."""
    weight = np.array(weight, dtype=np.float64)
    sizes = np.asarray(sizes).astype(np.float64).copy()
    c = sizes.size
    alive = np.ones(c, dtype=bool)
    parent = np.arange(c)

    for _ in range(c - k):
        linkage = weight / np.outer(sizes, sizes)
        np.fill_diagonal(linkage, -np.inf)
        linkage[~alive, :] = -np.inf
        linkage[:, ~alive] = -np.inf
        # Row-major argmax picks the lexicographically smallest (a, b) among
        # ties; restricting to a < b keeps merged clusters on the lower id.
        linkage[np.tril_indices_from(linkage)] = -np.inf
        a, b = np.unravel_index(int(np.argmax(linkage)), linkage.shape)
        weight[a, :] += weight[b, :]
        weight[:, a] += weight[:, b]
        sizes[a] += sizes[b]
        alive[b] = False
        parent[parent == b] = a

    return parent


def canonical_edges_by_unique(n, edges):
    """Each hyperedge's sorted distinct nodes by one np.unique per edge,
    with the constructor's errors naming the first offending hyperedge."""
    parsed = []
    for idx, edge in enumerate(edges):
        nodes = np.unique(np.asarray(edge, dtype=np.int64))
        if nodes.size == 0:
            raise ValueError(f"hyperedge {idx} has no nodes")
        if nodes[0] < 0 or nodes[-1] >= n:
            raise ValueError(
                f"hyperedge {idx} has a node index outside [0, {n})"
            )
        parsed.append(nodes)
    return parsed


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def preprocess_union_find(g):
    """Largest component after dropping singleton hyperedges, by a Python
    union-find; ties go to the component with the lowest node index. The
    result is built by the ``Hypergraph`` constructor, which is checked
    against ``canonical_edges_by_unique``."""
    from hypermod import Hypergraph

    keep = [i for i, e in enumerate(g.edges) if e.size >= 2]
    uf = _UnionFind(g.n)
    for i in keep:
        e = g.edges[i]
        first = int(e[0])
        for v in e[1:]:
            uf.union(first, int(v))

    members = {}
    for i in keep:
        for v in g.edges[i]:
            members.setdefault(uf.find(int(v)), [])
    for v in range(g.n):
        root = uf.find(v)
        if root in members:
            members[root].append(v)

    # Largest component; ties go to the lowest contained node index.
    best_root = min(members, key=lambda r: (-len(members[r]), members[r][0]))
    kept_nodes = np.asarray(members[best_root], dtype=np.int64)

    remap = np.full(g.n, -1, dtype=np.int64)
    remap[kept_nodes] = np.arange(kept_nodes.size)

    edges = []
    weights = []
    for i in keep:
        e = g.edges[i]
        if remap[e[0]] >= 0:
            edges.append(remap[e])
            weights.append(g.weights[i])
    return Hypergraph(
        kept_nodes.size, edges, np.asarray(weights), g.node_labels[kept_nodes]
    )


def partition_sums_by_row(adjacency, labels, nslots):
    """Per-cluster degree and internal-weight sums with one np.add.reduce
    per row, added to the cluster in row order."""
    indptr, indices, data = adjacency.indptr, adjacency.indices, adjacency.data
    sigma_in = np.zeros(nslots)
    sigma_tot = np.zeros(nslots)
    for i in range(adjacency.shape[0]):
        lo, hi = indptr[i], indptr[i + 1]
        row = data[lo:hi]
        g = labels[i]
        sigma_tot[g] += np.add.reduce(row)
        sigma_in[g] += np.add.reduce(row[labels[indices[lo:hi]] == g])
    return sigma_in, sigma_tot


def reweighted_by_edge(g, partition):
    """Cut-balance weight of every hyperedge, one bincount per edge."""
    wprime = np.empty(g.m)
    for j, edge in enumerate(g.edges):
        counts = np.bincount(partition.assignment[edge], minlength=partition.c)
        inv = 1.0 / (counts + 1.0)
        wprime[j] = float(inv.sum() * (edge.size + partition.c) / g.m)
    return wprime


def cut_stats_by_edge(g, partition, bins_count=10):
    """(per-edge cluster counts, relative sizes, histogram), one np.unique
    per edge, binned right-inclusively in integers."""
    counts_per_edge = []
    bins = np.empty(g.m, dtype=np.int64)
    rel = np.empty(g.m)
    for j, edge in enumerate(g.edges):
        _, counts = np.unique(partition.assignment[edge], return_counts=True)
        counts_per_edge.append(counts)
        top = int(counts.max())
        delta = edge.size
        rel[j] = top / delta
        bins[j] = -(-10 * top // delta) - 1
    hist = np.bincount(bins, minlength=bins_count) / g.m
    return counts_per_edge, rel, hist


def modularity_from_pin_counts(g, labels):
    """Modularity of ``g``'s degree-preserving reduction under ``labels``,
    read from each hyperedge's per-cluster node counts k_eC alone.

    The reduction is H·S·Hᵀ minus its diagonal with s_e = w_e/(δ_e − 1),
    so cluster C holds internal weight Σ_e s_e·k_eC(k_eC − 1) and volume
    Σ_e w_e·k_eC, and Q = Σ_C internal_C/2m − Σ_C (vol_C/2m)².
    """
    labels = np.asarray(labels)
    c = int(labels.max()) + 1
    internal = np.zeros(c)
    volume = np.zeros(c)
    for edge, w in zip(g.edges, g.weights):
        k = np.bincount(labels[edge], minlength=c)
        internal += w / (edge.size - 1) * k * (k - 1)
        volume += w * k
    two_m = volume.sum()
    return float(np.sum(internal / two_m - (volume / two_m) ** 2))


def symmetric_f1_tables(pred, truth):
    """Symmetric best-match F1 from dense cp x ct overlap and F1 tables."""
    cp, ct = pred.c, truth.c
    overlap = np.bincount(
        pred.assignment * ct + truth.assignment, minlength=cp * ct
    ).reshape(cp, ct)
    denom = pred.cluster_sizes[:, None] + truth.cluster_sizes[None, :]
    f1 = 2.0 * overlap / denom
    forward = f1.max(axis=1).mean()
    backward = f1.max(axis=0).mean()
    return float((forward + backward) / 2.0)


def incidence_from_pins(g):
    """The n x m incidence CSR built from ``g.pins`` and ``g.edge_degrees``,
    as the library built it before it read its stored rows."""
    offsets = np.concatenate(([0], np.cumsum(g.edge_degrees)))
    rows = (np.ones(g.pins.size), g.pins, offsets)
    return sparse.csr_matrix(rows, shape=(g.m, g.n)).T.tocsr()


def dense_edges_search(delta, n, sparse_max, gemm_cost, scan_cost):
    """Mask of the hyperedges the split reduction sums by BLAS, or None,
    found by searching every cut between size classes for the largest
    predicted saving (the rule that ``reduction._dense_edges`` states in
    closed form)."""
    if delta.size == 0 or delta.max() <= sparse_max:
        return None
    order = np.sort(delta)[::-1]
    cut = order > sparse_max
    cut[:-1] &= order[:-1] > order[1:]
    cut[n:] = False
    k = np.arange(1, order.size + 1)
    saving = np.cumsum(order.astype(np.float64) ** 2) - float(n) * n * (
        gemm_cost * k + scan_cost
    )
    candidates = np.flatnonzero(cut & (saving > 0))
    if candidates.size == 0:
        return None
    best = candidates[np.argmax(saving[candidates])]
    return delta >= order[best]


def bits(x):
    """Float array (or scalar) as int64 bit patterns, for exact comparison."""
    return np.asarray(x, dtype=np.float64).view(np.int64)
