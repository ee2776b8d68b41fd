import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypermod import (
    GenConfig,
    Hypergraph,
    IrmmConfig,
    LouvainConfig,
    generate,
    preprocess,
    write_hmetis,
    write_labels,
)
from hypermod.cli import build_parser, main
from hypermod.reduction import _dense_edges


@pytest.fixture()
def synth_files(tmp_path):
    g, truth = generate(GenConfig(n=60, seed=4))
    hgr = tmp_path / "g.hgr"
    labels = tmp_path / "g.labels"
    write_hmetis(g, hgr)
    write_labels(truth.assignment, labels)
    return hgr, labels


def run(*argv):
    return main([str(a) for a in argv])


class TestCluster:
    @pytest.mark.parametrize("method", ["irmm", "hlouvain", "clique-louvain"])
    def test_runs_and_writes_artifacts(self, synth_files, tmp_path, method):
        hgr, labels = synth_files
        part = tmp_path / f"{method}.tsv"
        metrics = tmp_path / f"{method}.json"
        code = run(
            "cluster", "--input", hgr, "--method", method, "--seed", 7,
            "--truth", labels, "--partition-out", part, "--metrics-out", metrics,
        )
        assert code == 0
        payload = json.loads(metrics.read_text())
        for key in ("f1", "num_clusters", "modularity", "histogram", "iterations"):
            assert key in payload
        assert len(payload["histogram"]) == 10
        assert 0.0 <= payload["f1"] <= 1.0
        rows = [line.split("\t") for line in part.read_text().splitlines()]
        assert all(len(r) == 2 for r in rows)
        node_ids = [int(r[0]) for r in rows]
        assert node_ids == sorted(node_ids)
        assert min(node_ids) >= 1  # original 1-based numbering

    def test_fixed_k(self, synth_files, tmp_path):
        hgr, _ = synth_files
        metrics = tmp_path / "m.json"
        code = run(
            "cluster", "--input", hgr, "--method", "hlouvain", "--k", 2,
            "--partition-out", tmp_path / "p.tsv", "--metrics-out", metrics,
        )
        assert code == 0
        assert json.loads(metrics.read_text())["num_clusters"] == 2

    def test_tiny_weights_fail_with_an_error_line(self, tmp_path, capsys):
        # 2m = 6e-300, whose square underflows to 0.
        hgr = tmp_path / "tiny.hgr"
        hgr.write_text("3 4 1\n1e-300 1 2\n1e-300 2 3\n1e-300 3 4\n")
        assert run("cluster", "--input", hgr, "--method", "hlouvain") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: total edge weight 2m = 6e-300 lies outside")
        assert "Traceback" not in err

    @pytest.mark.parametrize("method", ["hlouvain", "irmm"])
    def test_subnormal_weights_fail_with_an_error_line(self, tmp_path, capsys, method):
        # Weights of 1e-318 to 3e-318 make every weight / (degree - 1)
        # subnormal, below the limit of the degree-preserving reduction.
        edges = [
            "1 2 3", "3 4 5", "5 6 7 8", "8 9", "9 10 11", "11 12", "12 1 6", "2 4",
        ]
        hgr = tmp_path / "subnormal.hgr"
        lines = [f"{1 + i % 3}e-318 {nodes}" for i, nodes in enumerate(edges)]
        hgr.write_text("8 12 1\n" + "\n".join(lines) + "\n")
        code = run(
            "cluster", "--input", hgr, "--method", method,
            "--partition-out", tmp_path / "p.tsv",
            "--metrics-out", tmp_path / "m.json",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: hyperedge weight / (degree - 1) = ")
        assert "smallest normal float64" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("method", ["hlouvain", "irmm", "clique-louvain"])
    def test_overflowing_degrees_fail_with_an_error_line(self, tmp_path, capsys, method):
        # Node 2's degree, 2e308, overflows to inf, in either reduction.
        hgr = tmp_path / "huge.hgr"
        hgr.write_text("2 3 1\n1e308 1 2\n1e308 2 3\n")
        code = run(
            "cluster", "--input", hgr, "--method", method,
            "--partition-out", tmp_path / "p.tsv",
            "--metrics-out", tmp_path / "m.json",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: weighted node degrees total inf, beyond")
        assert "Traceback" not in err

    def test_byte_order_mark_is_skipped(self, synth_files, tmp_path):
        # A UTF-8 BOM on the input and on the truth labels changes nothing.
        outputs = []
        for mark in (b"", b"\xef\xbb\xbf"):
            paths = []
            for src in synth_files:
                path = tmp_path / f"{len(mark)}{src.suffix}"
                path.write_bytes(mark + src.read_bytes())
                paths.append(path)
            part, metrics = tmp_path / f"{len(mark)}.tsv", tmp_path / f"{len(mark)}.json"
            code = run(
                "cluster", "--input", paths[0], "--method", "hlouvain",
                "--truth", paths[1], "--partition-out", part, "--metrics-out", metrics,
            )
            assert code == 0
            outputs.append((part.read_bytes(), metrics.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_unallocatable_node_count_fails_with_an_error_line(self, tmp_path, capsys):
        # 10**18 labels take 8 EiB, more than any address space holds, so
        # the allocation fails at once.
        hgr = tmp_path / "huge.hgr"
        hgr.write_text("1 1000000000000000000\n1 2\n")
        assert run("cluster", "--input", hgr, "--method", "hlouvain") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate")
        assert "Traceback" not in err

    def test_k_above_cluster_count_fails(self, synth_files, tmp_path, capsys):
        hgr, _ = synth_files
        code = run(
            "cluster", "--input", hgr, "--method", "hlouvain", "--k", 5000,
            "--partition-out", tmp_path / "p.tsv",
            "--metrics-out", tmp_path / "m.json",
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unreadable_input_fails(self, tmp_path, capsys):
        code = run(
            "cluster", "--input", tmp_path / "missing.hgr",
            "--partition-out", tmp_path / "p.tsv",
            "--metrics-out", tmp_path / "m.json",
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_method_rejected_by_parser(self, synth_files):
        hgr, _ = synth_files
        with pytest.raises(SystemExit):
            run("cluster", "--input", hgr, "--method", "metis")

    def test_byte_identical_reruns(self, synth_files, tmp_path):
        hgr, labels = synth_files
        outs = []
        for tag in ("a", "b"):
            part = tmp_path / f"{tag}.tsv"
            metrics = tmp_path / f"{tag}.json"
            trace = tmp_path / f"{tag}.trace.tsv"
            assert run(
                "cluster", "--input", hgr, "--method", "irmm", "--seed", 3,
                "--truth", labels, "--partition-out", part,
                "--metrics-out", metrics, "--trace-out", trace,
            ) == 0
            outs.append(
                (part.read_bytes(), metrics.read_bytes(), trace.read_bytes())
            )
        assert outs[0] == outs[1]

    def test_truth_as_node_cluster_file(self, synth_files, tmp_path):
        # The same ground truth as a label-per-line file and as
        # node<TAB>cluster rows in descending node order.
        hgr, labels = synth_files
        values = labels.read_text().split()
        pairs = tmp_path / "truth.tsv"
        pairs.write_text(
            "".join(f"{i}\t{v}\n" for i, v in reversed(list(enumerate(values, 1))))
        )
        f1 = []
        for truth in (labels, pairs):
            metrics = tmp_path / "m.json"
            assert run(
                "cluster", "--input", hgr, "--method", "hlouvain",
                "--truth", truth, "--partition-out", tmp_path / "p.tsv",
                "--metrics-out", metrics,
            ) == 0
            f1.append(json.loads(metrics.read_text())["f1"])
        assert f1[0] is not None
        assert f1[0] == f1[1]

    def test_truth_must_cover_nodes(self, synth_files, tmp_path, capsys):
        hgr, _ = synth_files
        truth = tmp_path / "truth.txt"
        truth.write_text("0\n1\n")
        code = run(
            "cluster", "--input", hgr, "--method", "hlouvain", "--truth", truth,
            "--partition-out", tmp_path / "p.tsv",
            "--metrics-out", tmp_path / "m.json",
        )
        assert code == 1
        assert f"{truth} does not cover node 3" in capsys.readouterr().err

    def test_negative_seed_is_an_error(self, synth_files, tmp_path, capsys):
        hgr, _ = synth_files
        code = run(
            "cluster", "--input", hgr, "--method", "hlouvain", "--seed", -1,
            "--partition-out", tmp_path / "p.tsv",
            "--metrics-out", tmp_path / "m.json",
        )
        assert code == 1
        assert "seed" in capsys.readouterr().err

    def test_trace_requires_irmm(self, synth_files, tmp_path, capsys):
        hgr, _ = synth_files
        code = run(
            "cluster", "--input", hgr, "--method", "hlouvain",
            "--trace-out", tmp_path / "t.tsv",
        )
        assert code == 1
        assert "irmm" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (("--method", "hlouvain", "--trace-out", "t.tsv"), "irmm"),
            (("--method", "irmm", "--alpha", 2), "alpha"),
            (("--k", 0), "--k must be at least 1"),
            (("--seed", -1), "seed must be non-negative"),
        ],
    )
    def test_flags_checked_before_input_read(self, tmp_path, capsys, flags, named):
        code = run("cluster", "--input", tmp_path / "missing.hgr", *flags)
        assert code == 1
        err = capsys.readouterr().err
        assert named in err
        assert "missing.hgr" not in err


@pytest.mark.parametrize(
    "cfg, split",
    [
        (GenConfig(n=200, seed=1), True),
        (GenConfig(n=400, size_buckets=((1.0, 2, 6),), seed=1), False),
    ],
    ids=["split", "plain"],
)
def test_no_command_builds_the_node_major_incidence(tmp_path, monkeypatch, cfg, split):
    g, truth = generate(cfg)
    kept = preprocess(g)
    assert (_dense_edges(kept.edge_degrees, kept.n) is not None) == split
    hgr, labels = tmp_path / "g.hgr", tmp_path / "g.labels"
    write_hmetis(g, hgr)
    write_labels(truth.assignment, labels)

    def refuse(self):
        raise AssertionError("incidence() built")

    monkeypatch.setattr(Hypergraph, "incidence", refuse)
    for method in ("irmm", "hlouvain", "clique-louvain"):
        part = tmp_path / f"{method}.tsv"
        assert run(
            "cluster", "--input", hgr, "--method", method, "--truth", labels,
            "--k", 2, "--partition-out", part,
            "--metrics-out", tmp_path / f"{method}.json",
        ) == 0
        assert run("stats", "--input", hgr, "--partition", part) == 0
        assert run("eval", "--pred", part, "--truth", labels) == 0


def test_cli_import_loads_no_heavy_scipy_module():
    # Each of these costs a large share of a fresh CLI start; importing
    # scipy.sparse.csgraph alone makes `import hypermod.cli` about 25 % slower.
    heavy = ["scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph"]
    code = f"import sys, hypermod.cli; print([m for m in {heavy!r} if m in sys.modules])"
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestEval:
    def test_identical_files_score_one(self, tmp_path, capsys):
        pred = tmp_path / "p.tsv"
        pred.write_text("1\t0\n2\t0\n3\t1\n4\t1\n")
        code = run("eval", "--pred", pred, "--truth", pred)
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["f1"] == 1.0

    def test_partition_against_label_file(self, tmp_path, capsys):
        pred = tmp_path / "p.tsv"
        pred.write_text("1\t0\n2\t0\n3\t1\n4\t1\n")
        truth = tmp_path / "labels.txt"
        truth.write_text("5\n5\n9\n9\n")
        code = run("eval", "--pred", pred, "--truth", truth)
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["f1"] == 1.0
        assert payload["truth_clusters"] == 2

    def test_swapped_arguments_identical_f1(self, tmp_path, capsys):
        pred = tmp_path / "p.tsv"
        pred.write_text("1\t0\n2\t0\n3\t1\n4\t2\n")
        truth = tmp_path / "labels.txt"
        truth.write_text("0\n1\n1\n1\n")
        run("eval", "--pred", pred, "--truth", truth)
        first = json.loads(capsys.readouterr().out)["f1"]
        run("eval", "--pred", truth, "--truth", pred)
        second = json.loads(capsys.readouterr().out)["f1"]
        assert first == second

    def test_pred_subset_of_truth_allowed(self, tmp_path, capsys):
        # Preprocessing can drop nodes, so the partition may cover fewer
        # nodes than the label file.
        pred = tmp_path / "p.tsv"
        pred.write_text("1\t0\n2\t0\n4\t1\n")
        truth = tmp_path / "labels.txt"
        truth.write_text("0\n0\n1\n1\n")
        code = run("eval", "--pred", pred, "--truth", truth)
        assert code == 0
        assert json.loads(capsys.readouterr().out)["nodes"] == 3

    def test_disjoint_node_sets_rejected(self, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        a.write_text("1\t0\n2\t0\n5\t1\n")
        b = tmp_path / "b.tsv"
        b.write_text("1\t0\n2\t0\n6\t1\n")
        code = run("eval", "--pred", a, "--truth", b)
        assert code == 1
        assert "align" in capsys.readouterr().err

    def test_duplicate_node_is_an_error(self, tmp_path, capsys):
        pred = tmp_path / "p.tsv"
        pred.write_text("3\t0\n2\t0\n3\t1\n2\t1\n")
        code = run("eval", "--pred", pred, "--truth", pred)
        assert code == 1
        assert f"{pred}: duplicate node 2" in capsys.readouterr().err

    def test_label_beyond_int64_is_an_error(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        pred.write_text("1\n2\n99999999999999999999\n")
        truth = tmp_path / "truth.txt"
        truth.write_text("0\n0\n1\n")
        code = run("eval", "--pred", pred, "--truth", truth)
        assert code == 1
        assert "entries must fit a 64-bit integer" in capsys.readouterr().err

    def test_output_file(self, tmp_path):
        pred = tmp_path / "p.tsv"
        pred.write_text("1\t0\n2\t1\n")
        out = tmp_path / "metrics.json"
        assert run("eval", "--pred", pred, "--truth", pred, "--output", out) == 0
        assert json.loads(out.read_text())["f1"] == 1.0


class TestGenerate:
    def test_writes_hypergraph_and_labels(self, tmp_path, capsys):
        out = tmp_path / "synth.hgr"
        labels = tmp_path / "synth.labels"
        code = run(
            "generate", "--nodes", 1000, "--seed", 1,
            "--output", out, "--labels-out", labels,
        )
        assert code == 0
        header = out.read_text().splitlines()[0].split()
        assert header[0] == "1500"
        assert header[1] == "1000"
        assert len(labels.read_text().splitlines()) == 1000

    def test_infinite_edge_factor_is_an_error(self, tmp_path, capsys):
        code = run(
            "generate", "--nodes", 100, "--edge-factor", "inf",
            "--output", tmp_path / "synth.hgr",
        )
        assert code == 1
        assert "error: edge_factor" in capsys.readouterr().err

    def test_negative_seed_is_an_error(self, tmp_path, capsys):
        code = run(
            "generate", "--nodes", 100, "--seed", -1,
            "--output", tmp_path / "synth.hgr",
        )
        assert code == 1
        assert "seed" in capsys.readouterr().err

    def test_roundtrips_through_cluster(self, tmp_path):
        out = tmp_path / "synth.hgr"
        labels = tmp_path / "synth.labels"
        run("generate", "--nodes", 80, "--seed", 2, "--output", out,
            "--labels-out", labels)
        code = run(
            "cluster", "--input", out, "--method", "hlouvain",
            "--truth", labels,
            "--partition-out", tmp_path / "p.tsv",
            "--metrics-out", tmp_path / "m.json",
        )
        assert code == 0


class TestParser:
    def test_defaults_come_from_the_configs(self):
        parser = build_parser()
        cluster = parser.parse_args(["cluster", "--input", "g.hgr"])
        irmm_cfg, louvain_cfg = IrmmConfig(), LouvainConfig()
        assert (cluster.alpha, cluster.threshold, cluster.max_iters) == (
            irmm_cfg.alpha, irmm_cfg.threshold, irmm_cfg.max_iters
        )
        assert (cluster.seed, cluster.shuffle) == (louvain_cfg.seed, louvain_cfg.shuffle)
        gen = parser.parse_args(["generate", "--nodes", "10"])
        gen_cfg = GenConfig(n=10)
        assert (gen.classes, gen.homophily_deviation, gen.edge_factor, gen.seed) == (
            gen_cfg.classes, gen_cfg.homophily_deviation, gen_cfg.edge_factor,
            gen_cfg.seed,
        )


class TestStats:
    def test_histogram_row(self, synth_files, tmp_path, capsys):
        hgr, _ = synth_files
        part = tmp_path / "p.tsv"
        run("cluster", "--input", hgr, "--method", "hlouvain",
            "--partition-out", part, "--metrics-out", tmp_path / "m.json")
        capsys.readouterr()
        out_file = tmp_path / "hist.tsv"
        code = run("stats", "--input", hgr, "--partition", part,
                   "--output", out_file)
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert len(lines) == 2
        header = lines[0].split("\t")
        values = [float(v) for v in lines[1].split("\t")]
        assert len(header) == 10
        assert len(values) == 10
        assert sum(values) == pytest.approx(1.0)

    def test_partition_must_cover_nodes(self, synth_files, tmp_path, capsys):
        hgr, _ = synth_files
        part = tmp_path / "p.tsv"
        part.write_text("1\t0\n")
        code = run("stats", "--input", hgr, "--partition", part)
        assert code == 1
        assert "cover" in capsys.readouterr().err

    def test_node_beyond_int64_is_an_error(self, synth_files, tmp_path, capsys):
        hgr, _ = synth_files
        part = tmp_path / "p.tsv"
        part.write_text("1\t0\n2\t99999999999999999999\n")
        code = run("stats", "--input", hgr, "--partition", part)
        assert code == 1
        assert "entries must fit a 64-bit integer" in capsys.readouterr().err


class TestBench:
    def test_writes_timing_rows(self, tmp_path, capsys):
        out = tmp_path / "bench.tsv"
        code = run("bench", "--min", 40, "--max", 80, "--step", 20,
                   "--seed", 1, "--output", out)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n\tcpu_seconds"
        rows = [line.split("\t") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [40, 60, 80]
        assert all(float(r[1]) >= 0 for r in rows)

    def test_negative_seed_is_an_error(self, tmp_path, capsys):
        code = run("bench", "--min", 40, "--max", 40, "--seed", -1,
                   "--output", tmp_path / "b.tsv")
        assert code == 1
        assert "seed" in capsys.readouterr().err

    def test_invalid_range_rejected(self, tmp_path, capsys):
        code = run("bench", "--min", 100, "--max", 50, "--step", 10,
                   "--output", tmp_path / "b.tsv")
        assert code == 1
        assert "range" in capsys.readouterr().err
