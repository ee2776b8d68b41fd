"""Command-line interface.

Subcommands: ``cluster`` (clique-louvain / hlouvain / irmm on an
hMETIS-style file), ``eval`` (symmetric F1 between two clusterings),
``generate`` (synthetic benchmark hypergraphs), ``stats`` (hyperedge-cut
histogram of a partition) and ``bench`` (CPU-time scaling of hlouvain on
synthetic inputs). All randomness flows from ``--seed``; runs with
identical flags and BLAS thread count write byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from .evaluate import cut_stats, symmetric_f1
from .hypergraph import (
    FormatError,
    load,
    preprocess,
    read_label_rows,
    write_hmetis,
    write_labels,
)
from .irmm import IrmmConfig, irmm, write_trace
from .louvain import LouvainConfig, louvain
from .modularity import Partition, modularity
from .reduction import clique_reduce, degree_preserving_reduce
from .refine import agglomerate
from .synthgen import GenConfig, generate

__all__ = ["main"]

METHODS = ("irmm", "hlouvain", "clique-louvain")


def run_method(g, method, louvain_cfg, irmm_cfg):
    """Cluster a preprocessed hypergraph with one of the three methods."""
    if method == "irmm":
        return irmm(g, irmm_cfg)
    if method == "hlouvain":
        return louvain(degree_preserving_reduce(g), louvain_cfg)
    if method == "clique-louvain":
        return louvain(clique_reduce(g), louvain_cfg)
    raise ValueError(f"unknown method {method!r}")


def _write_partition(path, node_labels, assignment):
    lines = [
        f"{label}\t{cluster}" for label, cluster in zip(node_labels, assignment)
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path, payload):
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _read_clustering(path):
    """Read either a `node<TAB>cluster` file or a label-per-line file.

    Returns the node ids, ascending, and their labels as arrays;
    label-per-line files number their nodes 1..n.
    """
    rows = read_label_rows(path, widths=(1, 2))
    if rows.shape[1] == 1:
        return np.arange(1, rows.shape[0] + 1), rows[:, 0]
    nodes, first, counts = np.unique(rows[:, 0], return_index=True, return_counts=True)
    if counts.max() > 1:
        raise FormatError(f"{path}: duplicate node {nodes[counts > 1][0]}")
    return nodes, rows[first, 1]


def _partition_at(path, clustering, ids):
    """The partition that a clustering read from ``path`` gives ``ids``."""
    nodes, labels = clustering
    at = np.minimum(np.searchsorted(nodes, ids), nodes.size - 1)
    missing = ids[nodes[at] != ids]
    if missing.size:
        raise ValueError(f"{path} does not cover node {missing[0]}")
    return Partition.from_labels(labels[at])


def cmd_cluster(args) -> int:
    # Flags are checked before the input is read.
    if args.trace_out and args.method != "irmm":
        raise ValueError("--trace-out is only meaningful with --method irmm")
    if args.k is not None and args.k < 1:
        raise ValueError("--k must be at least 1")
    louvain_cfg = LouvainConfig(seed=args.seed, shuffle=args.shuffle)
    irmm_cfg = None
    if args.method == "irmm":
        irmm_cfg = IrmmConfig(alpha=args.alpha, threshold=args.threshold,
                              max_iters=args.max_iters, louvain=louvain_cfg)
    g = preprocess(load(args.input))
    truth = None
    if args.truth:
        truth = _partition_at(args.truth, _read_clustering(args.truth), g.node_labels)

    run = run_method(g, args.method, louvain_cfg, irmm_cfg)
    partition = run.partition
    q = run.modularity
    if args.k is not None:
        partition = agglomerate(run.graph, partition, args.k)
        q = modularity(run.graph, partition)

    f1 = None if truth is None else symmetric_f1(partition, truth)

    stem = Path(args.input)
    partition_out = args.partition_out or stem.with_suffix(".partition.tsv")
    metrics_out = args.metrics_out or stem.with_suffix(".metrics.json")
    _write_partition(partition_out, g.node_labels, partition.assignment)
    metrics = {
        "f1": f1,
        "num_clusters": partition.c,
        "modularity": q,
        "histogram": cut_stats(g, partition).histogram.tolist(),
        "iterations": run.iterations,
        "converged": run.converged,
        "method": args.method,
        "seed": args.seed,
    }
    _write_json(metrics_out, metrics)
    if args.trace_out:
        write_trace(run.trace, args.trace_out)
    print(
        f"{args.method}: {partition.c} clusters, modularity {q:.6f},"
        f" {run.iterations} iteration(s) -> {partition_out}"
    )
    return 0


def cmd_eval(args) -> int:
    pred, truth = _read_clustering(args.pred), _read_clustering(args.truth)
    # Align on the smaller node set, which the other must cover.
    nodes = pred[0] if pred[0].size <= truth[0].size else truth[0]
    try:
        pred = _partition_at(args.pred, pred, nodes)
        truth = _partition_at(args.truth, truth, nodes)
    except ValueError as exc:
        raise ValueError(f"node sets do not align: {exc}") from None
    payload = {
        "f1": symmetric_f1(pred, truth),
        "pred_clusters": pred.c,
        "truth_clusters": truth.c,
        "nodes": nodes.size,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.output:
        _write_json(args.output, payload)
    return 0


def cmd_generate(args) -> int:
    cfg = GenConfig(
        n=args.nodes,
        classes=args.classes,
        homophily_deviation=args.homophily_deviation,
        edge_factor=args.edge_factor,
        seed=args.seed,
    )
    g, truth = generate(cfg)
    output = args.output or f"synth_{args.nodes}.hgr"
    labels_out = args.labels_out or str(Path(output).with_suffix(".labels"))
    write_hmetis(g, output)
    write_labels(truth.assignment, labels_out)
    print(f"wrote {g.m} hyperedges over {g.n} nodes -> {output}, {labels_out}")
    return 0


def cmd_stats(args) -> int:
    g = preprocess(load(args.input))
    partition = _partition_at(
        args.partition, _read_clustering(args.partition), g.node_labels
    )
    stats = cut_stats(g, partition)
    header = "\t".join(
        f"({i / 10:.1f},{(i + 1) / 10:.1f}]" for i in range(10)
    )
    row = "\t".join(repr(v) for v in stats.histogram.tolist())
    out = f"{header}\n{row}\n"
    print(out, end="")
    if args.output:
        Path(args.output).write_text(out, encoding="utf-8")
    return 0


def bench_sizes(min_n, max_n, step):
    if min_n < 10 or step < 1 or max_n < min_n:
        raise ValueError("invalid bench range")
    return list(range(min_n, max_n + 1, step))


def bench_run(sizes, seed):
    """Generate, preprocess and cluster one hypergraph per size.

    Returns (n, cpu_seconds) pairs where the time covers the hlouvain
    method itself: the degree-preserving reduction plus Louvain.
    """
    rows = []
    for n in sizes:
        g, _ = generate(GenConfig(n=n, seed=seed))
        g = preprocess(g)
        start = time.process_time()
        louvain(degree_preserving_reduce(g), LouvainConfig(seed=seed))
        elapsed = time.process_time() - start
        rows.append((n, elapsed))
        print(f"n={n}: {elapsed:.3f}s cpu", file=sys.stderr)
    return rows


def cmd_bench(args) -> int:
    rows = bench_run(bench_sizes(args.min, args.max, args.step), args.seed)
    lines = ["n\tcpu_seconds"] + [f"{n}\t{t!r}" for n, t in rows]
    Path(args.output).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} timings -> {args.output}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hypermod",
        description="Hypergraph clustering by modularity maximization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="cluster a hypergraph file")
    p.add_argument("--input", required=True, help="hMETIS-style hypergraph file")
    p.add_argument("--method", choices=METHODS, default="irmm")
    p.add_argument("--alpha", type=float, default=IrmmConfig.alpha,
                   help="moving-average coefficient for irmm")
    p.add_argument("--threshold", type=float, default=IrmmConfig.threshold,
                   help="stopping threshold on the weight change")
    p.add_argument("--max-iters", type=int, default=IrmmConfig.max_iters)
    p.add_argument("--seed", type=int, default=LouvainConfig.seed)
    p.add_argument("--shuffle", action="store_true",
                   help="visit nodes in seeded random order")
    p.add_argument("--k", type=int, default=None,
                   help="merge the result down to exactly k clusters (irmm: on the"
                   " final round's reweighted graph, where modularity is measured)")
    p.add_argument("--truth", default=None, help="label or partition file for F1")
    p.add_argument("--partition-out", default=None)
    p.add_argument("--metrics-out", default=None)
    p.add_argument("--trace-out", default=None,
                   help="per-iteration TSV (irmm only)")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("eval", help="symmetric F1 between two clusterings")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("generate", help="write a synthetic hypergraph")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--classes", type=int, default=GenConfig.classes)
    p.add_argument("--homophily-deviation", type=float,
                   default=GenConfig.homophily_deviation)
    p.add_argument("--edge-factor", type=float, default=GenConfig.edge_factor)
    p.add_argument("--seed", type=int, default=GenConfig.seed)
    p.add_argument("--output", default=None)
    p.add_argument("--labels-out", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("stats", help="hyperedge-cut histogram of a partition")
    p.add_argument("--input", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("bench", help="CPU-time scaling of hlouvain")
    p.add_argument("--min", type=int, default=1000)
    p.add_argument("--max", type=int, default=10000)
    p.add_argument("--step", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default="bench.tsv")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
