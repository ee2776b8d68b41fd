"""Acceptance suite: one test per check, printing a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Checks that carry a
CPU budget time only the operation under test, not fixture setup.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from hypermod import (
    GenConfig,
    Hypergraph,
    IrmmConfig,
    LouvainConfig,
    Partition,
    clique_reduce,
    degree_preserving_reduce,
    degrees,
    generate,
    irmm,
    louvain,
    modularity,
    preprocess,
    random_walk_matrix,
    symmetric_f1,
    two_way_cut_score,
    write_hmetis,
)
from hypermod.cli import bench_run, main as cli_main

from conftest import random_dyadic_hypergraph
from oracles import clique_degree_by_hand, max_modularity_exhaustive


def check(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}: {detail}"


class TestAcceptance:
    def test_01_degree_preservation(self, mixed_corpus):
        start = time.process_time()
        worst = 0.0
        for g in mixed_corpus:
            reduced = degree_preserving_reduce(g)
            expected = degrees(g).node_degrees
            err = np.abs(reduced.node_degrees - expected)
            scale = np.maximum(np.abs(expected), 1e-30)
            worst = max(worst, float((err / scale).max()))
        elapsed = time.process_time() - start
        check(
            "degree preservation on 200 random hypergraphs",
            worst <= 1e-9 and elapsed < 5.0,
            f"max rel err {worst:.2e}, {elapsed:.2f}s",
        )

    def test_02_clique_overcount(self, mixed_corpus):
        worst = 0.0
        for g in mixed_corpus:
            reduced = clique_reduce(g)
            expected = np.array(
                [clique_degree_by_hand(g, v) for v in range(g.n)]
            )
            err = np.abs(reduced.node_degrees - expected)
            scale = np.maximum(np.abs(expected), 1e-30)
            worst = max(worst, float((err / scale).max()))
        check(
            "clique row sums equal per-edge overcount",
            worst <= 1e-9,
            f"max rel err {worst:.2e}",
        )

    def test_03_random_walk_stochastic(self, mixed_corpus):
        worst = 0.0
        for g in mixed_corpus:
            covered = np.zeros(g.n, dtype=bool)
            for e in g.edges:
                covered[e] = True
            if not covered.all():
                g = preprocess(g)
            sums = np.asarray(random_walk_matrix(g).sum(axis=1)).ravel()
            worst = max(worst, float(np.abs(sums - 1.0).max()))
        check(
            "random-walk rows sum to one",
            worst <= 1e-9,
            f"max |row sum - 1| {worst:.2e}",
        )

    def test_04_dyadic_equivalence(self):
        rng = np.random.default_rng(404)
        worst = 0.0
        partitions_match = True
        for _ in range(50):
            g = random_dyadic_hypergraph(rng, weighted=True)
            hyp = degree_preserving_reduce(g)
            clq = clique_reduce(g)
            labels = rng.integers(0, max(2, g.n // 4), size=g.n)
            p = Partition.from_labels(labels)
            worst = max(worst, abs(modularity(hyp, p) - modularity(clq, p)))
            a = louvain(hyp, LouvainConfig(seed=11))
            b = louvain(clq, LouvainConfig(seed=11))
            if a.partition != b.partition:
                partitions_match = False
        check(
            "dyadic hypergraph equals clique graph",
            worst <= 1e-12 and partitions_match,
            f"max |Q diff| {worst:.2e}, partitions identical: {partitions_match}",
        )

    def test_05_modularity_identities(self, mixed_corpus):
        one_cluster_exact = True
        worst = 0.0
        for g in mixed_corpus:
            reduced = degree_preserving_reduce(g)
            if modularity(reduced, Partition(np.zeros(g.n, dtype=int))) != 0.0:
                one_cluster_exact = False
            q = modularity(reduced, Partition(np.arange(g.n)))
            k = reduced.node_degrees
            expected = -float(np.sum(k * k)) / reduced.total_weight_2m**2
            worst = max(worst, abs(q - expected))
        check(
            "one-cluster Q is exactly 0 and singleton Q closed form",
            one_cluster_exact and worst <= 1e-12,
            f"one-cluster exact: {one_cluster_exact}, max singleton err {worst:.2e}",
        )

    def test_06_cut_score_reference_values(self):
        exact = (
            two_way_cut_score(2, 18, 20) == Fraction(100, 9)
            and two_way_cut_score(10, 10, 20) == 4
        )
        for delta in (20, 40, 60, 80, 100):
            unit = delta // 20
            exact = exact and two_way_cut_score(
                15 * unit, 5 * unit, delta
            ) == Fraction(16, 3)
            exact = exact and two_way_cut_score(
                19 * unit, unit, delta
            ) == Fraction(400, 19)
        shown = round(float(two_way_cut_score(2, 18, 20)), 3)
        check(
            "two-way cut score reference values",
            exact and shown == 11.111,
            f"rationals exact: {exact}, lopsided value {shown}",
        )

    def test_07_louvain_vs_brute_force(self):
        rng = np.random.default_rng(707)
        start = time.process_time()
        bound_ok = True
        positives = 0
        hits = 0
        for _ in range(100):
            n = int(rng.integers(3, 10))
            m = int(rng.integers(2, 2 * n))
            edges = [
                rng.choice(n, size=int(rng.integers(2, min(n, 5) + 1)), replace=False)
                for _ in range(m)
            ]
            weights = rng.uniform(0.5, 2.0, size=m) if rng.random() < 0.5 else None
            g = Hypergraph(n, edges, weights)
            reduced = degree_preserving_reduce(g)
            res = louvain(reduced)
            q_max, _ = max_modularity_exhaustive(reduced.to_dense())
            if res.modularity > q_max + 1e-9:
                bound_ok = False
            if q_max > 1e-12:
                positives += 1
                if res.modularity >= 0.95 * q_max:
                    hits += 1
        elapsed = time.process_time() - start
        rate = hits / positives
        check(
            "louvain within 95% of exhaustive optimum",
            bound_ok and rate >= 0.95 and elapsed < 60.0,
            f"bound ok: {bound_ok}, rate {hits}/{positives}={rate:.3f}, {elapsed:.1f}s",
        )

    def test_08_irmm_convergence(self):
        all_converged = True
        max_iters = 0
        for seed in range(10):
            g, _ = generate(GenConfig(n=200, seed=seed))
            g = preprocess(g)
            res = irmm(g, IrmmConfig())
            all_converged = all_converged and res.converged
            all_converged = all_converged and res.trace[-1].weight_delta < 0.01
            max_iters = max(max_iters, res.iterations)
        check(
            "irmm weight deltas fall below 0.01 within 50 iterations",
            all_converged and max_iters <= 50,
            f"all converged: {all_converged}, max iterations {max_iters}",
        )

    def test_09_quality_direction(self):
        # Four planted classes: with two or three every method scores F1 = 1.0
        # (or within 1e-3 of it), so no ordering can show. Thirty seeds: the
        # irmm-vs-hlouvain order flips between blocks of ten.
        scores = {"irmm": [], "hlouvain": [], "clique-louvain": []}
        for seed in range(30):
            g, truth_all = generate(GenConfig(n=200, classes=4, seed=seed))
            g = preprocess(g)
            truth = Partition.from_labels(truth_all.assignment[g.node_labels - 1])
            scores["clique-louvain"].append(
                symmetric_f1(louvain(clique_reduce(g)).partition, truth)
            )
            scores["hlouvain"].append(
                symmetric_f1(louvain(degree_preserving_reduce(g)).partition, truth)
            )
            scores["irmm"].append(symmetric_f1(irmm(g).partition, truth))
        means = {k: float(np.mean(v)) for k, v in scores.items()}
        check(
            "synthetic quality workload is not saturated",
            min(means.values()) < 1.0,
            f"means {means}",
        )
        ordering = (
            means["irmm"] >= means["hlouvain"] >= means["clique-louvain"]
        )
        gap = means["irmm"] - means["clique-louvain"]
        check(
            "synthetic quality direction with positive gap",
            ordering and gap > 0,
            f"means {means}, ordering: {ordering}, irmm-clique gap {gap:.4f}",
        )

    def test_10_scalability_trend(self):
        start = time.process_time()
        rows = bench_run(list(range(1000, 4001, 500)), seed=1)
        total = time.process_time() - start
        ns = np.log([r[0] for r in rows])
        ts = np.log([max(r[1], 1e-9) for r in rows])
        exponent = float(np.polyfit(ns, ts, 1)[0])
        check(
            "hlouvain CPU time subquadratic from n=1000 to n=4000",
            exponent < 2.0 and total < 600.0,
            f"fitted exponent {exponent:.2f}, bench total {total:.0f}s,"
            f" times {[(n, round(t, 2)) for n, t in rows]}",
        )

    def test_11_deterministic_cli(self, tmp_path):
        g, _ = generate(GenConfig(n=80, seed=6))
        hgr = tmp_path / "g.hgr"
        write_hmetis(g, hgr)
        artifacts = []
        for tag in ("first", "second"):
            part = tmp_path / f"{tag}.partition.tsv"
            metrics = tmp_path / f"{tag}.metrics.json"
            trace = tmp_path / f"{tag}.trace.tsv"
            code = cli_main([
                "cluster", "--input", str(hgr), "--method", "irmm",
                "--seed", "42",
                "--partition-out", str(part),
                "--metrics-out", str(metrics),
                "--trace-out", str(trace),
            ])
            assert code == 0
            artifacts.append(
                (part.read_bytes(), metrics.read_bytes(), trace.read_bytes())
            )
        identical = artifacts[0] == artifacts[1]
        parsed = json.loads(artifacts[0][1])
        check(
            "repeated cluster runs are byte-identical",
            identical and "modularity" in parsed,
            f"identical: {identical}",
        )
