#!/usr/bin/env python3
"""Benchmark of ``hypermod cluster``: one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S   # table of all
    python3 bench/run.py --smoke                               # toy self-test

Run from the root of a source checkout (the harness imports ``src/``).
Set-up generates the workload's inputs from ``--seed`` with
``hypermod.synthgen`` and writes it as hMETIS and label files. A worker
process (``worker.py``) then runs ``hypermod.cli.main(["cluster", ...])``
on those files: a warm-up op on a toy-size input, then ops on the
full-size inputs for about ``--seconds``.
The harness checks every op's artifacts and prints, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``. The full record
(environment, per-op samples, spans) is written to ``.bench_results/``.
See ``NOTES.md`` for why the workloads and metrics are what they are.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

import envinfo  # noqa: E402  (sibling module; imports no numpy)

SPARSE_BUCKETS = ((1.0, 2, 6),)

# name -> (method, generator settings, toy generator settings for --smoke,
# inputs per untraced run). BENCHMARK.json lists the workloads the
# benchmark is judged on; dense-hlouvain is kept here to be run by hand
# (NOTES.md says why it is not listed). Op times and Q differ between
# inputs of one size (sparse-hlouvain makes 128 k or 168 k node visits
# depending on the input), so the listed workloads average over several
# inputs per run instead of letting the seed's one input set the figure.
WORKLOADS = {
    "dense-hlouvain": ("hlouvain", {"n": 3000}, {"n": 300}, 1),
    "sparse-hlouvain": (
        "hlouvain",
        {"n": 8000, "classes": 50, "size_buckets": SPARSE_BUCKETS},
        {"n": 400, "classes": 10, "size_buckets": SPARSE_BUCKETS},
        3,
    ),
    "dense-irmm": ("irmm", {"n": 1500}, {"n": 200}, 2),
}
INSTANCE_SEED_STRIDE = 100_000

END_TO_END_UNITS = {
    "cluster_s": "s",
    "cluster_s_tail": "s",
    "cluster_cpu_s": "s",
    "pins_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "modularity": "Q",
    "f1": "F1",
    "ok_frac": "frac",
}

# Per-layer metrics reported as the median over the traced ops of a run.
LAYER_TIMES = {
    "hypergraph.load_s": "s",
    "hypergraph.preprocess_s": "s",
    "reduction.reduce_s": "s",
    "modularity.visit_s": "s",
    "modularity.visit_us": "us",
    "modularity.move_s": "s",
    "modularity.context_s": "s",
    "modularity.modularity_s": "s",
    "louvain.louvain_s": "s",
    "louvain.self_s": "s",
    "louvain.aggregate_s": "s",
    "irmm.irmm_s": "s",
    "irmm.update_weights_s": "s",
    "irmm.self_s": "s",
    "evaluate.cut_stats_s": "s",
    "evaluate.f1_s": "s",
    "cli.self_s": "s",
}

# Per-layer counts; each must be identical in every traced op of a run.
LAYER_COUNTS = {
    "reduction.calls": "count",
    "reduction.sum_sq_degree": "flop",
    "reduction.out_nnz": "count",
    "reduction.out_bytes": "bytes",
    "reduction.out_fill": "ratio",
    "modularity.visits": "count",
    "modularity.moves": "count",
    "modularity.move_ratio": "ratio",
    "modularity.context_builds": "count",
    "louvain.calls": "count",
    "louvain.aggregate_calls": "count",
    "irmm.rounds": "count",
}

# Per-layer values the harness computes from the input and the artifacts.
LAYER_COMPUTED = {
    "hypergraph.bytes_read": "bytes",
    "hypergraph.pins": "count",
    "hypergraph.nodes": "count",
    "hypergraph.edges": "count",
    "louvain.clusters": "count",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}

PER_LAYER_UNITS = {**LAYER_TIMES, **LAYER_COUNTS, **LAYER_COMPUTED}

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
# Untraced runs make at least four timed ops, so that the tail (the highest
# op with a quarter of the ops above it) is never just the middle op.
MIN_TIMED_OPS = 4
WORKER_TIMEOUT_S = 130
Q_TOLERANCE = 1e-12


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------- set-up


def _import_hypermod():
    if not (SRC / "hypermod" / "__init__.py").is_file():
        raise BenchError(f"no hypermod sources under {SRC}")
    threads = envinfo.pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import hypermod

    if Path(hypermod.__file__).resolve().parent != SRC / "hypermod":
        raise BenchError(f"imported hypermod from {hypermod.__file__}, not {SRC}")
    effective, _ = envinfo.blas_threads()
    if effective != threads:
        raise BenchError(
            f"OpenBLAS uses {effective} threads, expected {threads} (nproc)"
        )
    return hypermod


def _child_env():
    """The harness's environment (BLAS threads already pinned) plus src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def make_inputs(hm, gen, toy_gen, seed, count, work):
    """Write ``count`` inputs drawn from ``seed`` and a toy warm-up input.

    Input j uses generator seed ``seed + j * INSTANCE_SEED_STRIDE``, so one
    seed always gives the same inputs.
    """
    jobs = [(f"input{j}", gen, seed + j * INSTANCE_SEED_STRIDE)
            for j in range(count)] + [("warmup", toy_gen, seed)]
    for stem, settings, gen_seed in jobs:
        g, truth = hm.generate(hm.GenConfig(seed=gen_seed, **settings))
        hm.write_hmetis(g, work / f"{stem}.hgr")
        hm.write_labels(truth.assignment, work / f"{stem}.labels")


def _wait(proc, timeout):
    """Wait for ``proc`` in one blocking call, killing it after ``timeout``
    seconds; returns (exit code, resource usage). ``Popen.wait(timeout)``
    would poll at intervals of up to 50 ms and round short timings up to
    that step."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def time_setup(env):
    """Median wall time of a fresh interpreter importing hypermod.cli."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import hypermod.cli"],
                                env=env, cwd=ROOT)
        code, _ = _wait(proc, SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
        if code != 0:
            raise BenchError(f"importing hypermod.cli exited with {code}")
    return statistics.median(samples)


def run_worker(spec, work, env):
    """Run worker.py to completion; returns (its result, peak RSS in MB)."""
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(work / "worker.log", "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
            env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
        )
        code, usage = _wait(proc, WORKER_TIMEOUT_S)
    if code != 0:
        tail = (work / "worker.log").read_text(errors="replace")[-3000:]
        raise BenchError(f"worker exited with {code}:\n{tail}")
    result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
    return result, usage.ru_maxrss / 1024.0


# --------------------------------------------------------------- checks


class Reference:
    """What the ops on one input are checked against, computed from that
    input with the library's public functions."""

    def __init__(self, hm, work, stem, method):
        self.hm = hm
        self.method = method
        self.input = hm.preprocess(hm.load(work / f"{stem}.hgr"))
        g = self.input
        self.labels = [int(v) for v in g.node_labels]
        truth_all = hm.load_labels(work / f"{stem}.labels")
        self.truth = hm.Partition.from_labels(truth_all[g.node_labels - 1])
        delta = g.edge_degrees
        self.pins = int(delta.sum())
        self.sum_sq_degree = int((delta * delta).sum())
        self.bytes_read = (work / f"{stem}.hgr").stat().st_size

    def check(self, partition_path, metrics_path):
        """Full check of one op's artifacts: (problems, Q, F1, clusters)."""
        hm = self.hm
        problems = []
        mapping = {}
        for line in partition_path.read_text(encoding="utf-8").splitlines():
            try:
                node, cluster = map(int, line.split("\t"))
            except ValueError:
                problems.append(f"malformed partition line {line!r}")
                continue
            if node in mapping:
                problems.append(f"node {node} listed twice")
            mapping[node] = cluster
        if problems or sorted(mapping) != sorted(self.labels):
            problems.append("partition does not cover the kept nodes once each")
            return problems, None, None, None
        partition = hm.Partition([mapping[v] for v in self.labels])
        metrics = json.loads(metrics_path.read_text(encoding="utf-8"))
        f1 = hm.symmetric_f1(partition, self.truth)
        if f1 != metrics["f1"]:
            problems.append(f"F1 {metrics['f1']!r} != recomputed {f1!r}")
        if partition.c != metrics["num_clusters"]:
            problems.append("num_clusters disagrees with the partition file")
        # Q on the input-weight reduction, whatever the method reweighted.
        q = hm.modularity(hm.degree_preserving_reduce(self.input), partition)
        if self.method == "hlouvain" and abs(q - metrics["modularity"]) > Q_TOLERANCE:
            problems.append(f"Q {metrics['modularity']!r} != recomputed {q!r}")
        return problems, q, f1, partition.c


def check_ops(refs, ops, work):
    """Failure reasons per op (an empty list means it passed) and, per
    input, the checked (Q, F1, clusters).

    The first op on each input is checked in full. Every later op on that
    input must exit 0 and write artifacts byte-identical to the first
    one's, which makes the full check hold for it too.
    """
    def artifacts(i):
        return (work / f"op{i}.partition.tsv", work / f"op{i}.metrics.json")

    reasons = [[] if op["code"] == 0 else [f"exit code {op['code']}"]
               for op in ops]
    first, values = {}, {}
    for i, op in enumerate(ops):
        j = op["instance"]
        if j not in first:
            first[j] = i
            values[j] = (None, None, None)
            if not reasons[i]:
                problems, *values[j] = refs[j].check(*artifacts(i))
                reasons[i] += problems
        elif not reasons[i]:
            k = first[j]
            if reasons[k]:
                reasons[i].append(f"op {k}, the first on this input, failed")
            elif [p.read_bytes() for p in artifacts(i)] != \
                    [p.read_bytes() for p in artifacts(k)]:
                reasons[i].append(f"artifacts differ from those of op {k}")
    return reasons, values


# --------------------------------------------------------------- metrics


def tail(samples):
    """Highest sample with ten samples above it.

    A run rarely holds eleven ops. With ten samples or fewer the rule is
    relaxed to a quarter of them (at least one) above; the maximum alone
    swings with every stall of the host. The result record states the
    sample count.
    """
    ordered = sorted(samples)
    above = 10 if len(ordered) > 10 else max(1, len(ordered) // 4)
    return ordered[max(0, len(ordered) - 1 - above)]


def end_to_end(refs, ops, failed, rss_mb, setup_s, values):
    timed = [op for op in ops if op["kind"] == "untraced"]
    cluster_s = statistics.median(op["wall"] for op in timed)
    checked = [v for v in values.values() if v[0] is not None]
    return {
        "cluster_s": cluster_s,
        "cluster_s_tail": tail([op["wall"] for op in timed]),
        "cluster_cpu_s": statistics.median(op["cpu"] for op in timed),
        "pins_per_s": statistics.fmean(r.pins for r in refs) / cluster_s,
        "peak_rss_mb": rss_mb,
        "setup_s": setup_s,
        "modularity": statistics.fmean(v[0] for v in checked) if checked else None,
        "f1": statistics.fmean(v[1] for v in checked) if checked else None,
        "ok_frac": (len(ops) - failed) / len(ops),
    }


def per_layer(ref, ops, work, clusters):
    """Per-layer metrics of the traced ops, and the problems found in them:
    counts that differ between traced ops, or self times that do not add
    up to the op time."""
    traced = [op for op in ops if op["kind"] == "traced"]
    untraced = [op for op in ops if op["kind"] == "untraced"]
    layers = [op["layers"] for op in traced]
    problems = []
    for name in LAYER_COUNTS:
        seen = {layer[name] for layer in layers}
        if len(seen) != 1:
            problems.append(f"{name} differs between traced ops: {sorted(seen)}")
    for op in traced:
        lay = op["layers"]
        if abs(lay["trace.accounted_s"] - op["wall"]) > 1e-6 * max(1.0, op["wall"]):
            problems.append("layer self times do not add up to the op time")
        if lay["reduction.sum_sq_degree"] != lay["reduction.calls"] * ref.sum_sq_degree:
            problems.append("traced sum of squared degrees disagrees with input")
    out = {name: statistics.median(layer[name] for layer in layers)
           for name in LAYER_TIMES}
    out.update({name: layers[0][name] for name in LAYER_COUNTS})
    written = sum(p.stat().st_size for p in
                  (work / "op0.partition.tsv", work / "op0.metrics.json"))
    out.update({
        "hypergraph.bytes_read": ref.bytes_read,
        "hypergraph.pins": ref.pins,
        "hypergraph.nodes": ref.input.n,
        "hypergraph.edges": ref.input.m,
        "louvain.clusters": clusters,
        "cli.bytes_written": written,
        "trace.overhead_s": (statistics.median(op["wall"] for op in traced)
                             - statistics.median(op["wall"] for op in untraced)),
    })
    return out, problems


# --------------------------------------------------------------- one run


def run_one(name, seed, seconds, trace, toy):
    hm = _import_hypermod()
    env = _child_env()
    method, gen, toy_gen, count = WORKLOADS[name]
    if trace:
        # Traced and untraced ops alternate on one input: T U T at least.
        count, cycle, min_ops = 1, [["traced", 0], ["untraced", 0]], 3
    else:
        # Every input once, then the first again to check repeatability.
        cycle = [["untraced", j] for j in range(count)]
        min_ops = max(count + 1, MIN_TIMED_OPS)
    work = WORK / f"{name}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        make_inputs(hm, toy_gen if toy else gen, toy_gen, seed, count, work)
        setup_s = None if trace else time_setup(env)
        spec = {
            "work": str(work),
            "result": str(work / "worker.json"),
            "argv": ["cluster", "--method", method, "--seed", str(seed)],
            "seconds": seconds,
            "cycle": cycle,
            "min_ops": min_ops,
        }
        result, rss_mb = run_worker(spec, work, env)
        ops = result["ops"]
        refs = [Reference(hm, work, f"input{j}", method) for j in range(count)]
        reasons, values = check_ops(refs, ops, work)
        problems = [f"op {i}: {r}" for i, rs in enumerate(reasons) for r in rs]
        if result["warmup_code"] != 0:
            problems.append(f"warm-up op exited with {result['warmup_code']}")
        if result["blas_threads"] != envinfo.nproc():
            problems.append(f"worker ran {result['blas_threads']} BLAS threads")
        failed = sum(1 for rs in reasons if rs)
        if trace:
            metrics, trace_problems = per_layer(refs[0], ops, work, values[0][2])
            problems += trace_problems
            units = PER_LAYER_UNITS
        else:
            metrics = end_to_end(refs, ops, failed, rss_mb, setup_s, values)
            units = END_TO_END_UNITS
        for p in problems:
            _log(f"check failed: {p}")
        outcome = {
            "correct": not problems,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "toy": toy, "inputs": count,
            "samples": sum(op["kind"] == "untraced" for op in ops),
            "failed_frac": failed / len(ops), "problems": problems,
            "env": envinfo.describe(ROOT, SRC), "result": outcome, "ops": ops,
        }
        RESULTS.mkdir(exist_ok=True)
        tag = "toy-" if toy else ""
        (RESULTS / f"{tag}{name}-seed{seed}-trace{trace}.json").write_text(
            json.dumps(record, indent=1), encoding="utf-8")
        print(json.dumps({k: record[k] for k in
                          ("workload", "seed", "inputs", "samples",
                           "failed_frac", "env")}))
        return outcome
    finally:
        shutil.rmtree(work, ignore_errors=True)


# --------------------------------------------------------- several runs


def _self_run(name, seed, seconds, trace, toy=False):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if toy:
        cmd.append("--toy")
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:])} failed:\n{out.stderr[-3000:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def _declared():
    """The BENCHMARK.json description of the benchmark."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_all(seed, seconds):
    """Every listed workload once; prints each end-to-end metric and unit."""
    ok = True
    for name in (w["name"] for w in _declared()["workloads"]):
        outcome, info = _self_run(name, seed, seconds, 0)
        ok &= outcome["correct"] and outcome["failed"] == 0
        print(f"{name}  (seed {seed}, {info['inputs']} input(s),"
              f" {info['samples']} timed ops, {outcome['attempted']} attempted)")
        for metric, m in outcome["metrics"].items():
            print(f"  {metric:16s} {m['value']!r:>24} {m['unit']}")
        print(f"  {'failed_frac':16s} {info['failed_frac']!r:>24} frac")
    return 0 if ok else 1


def smoke():
    """Every workload at toy size, untraced and traced; checks the output
    against BENCHMARK.json and that exact counts repeat across runs."""
    spec = _declared()
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    unknown = {w["name"] for w in spec["workloads"]} - set(WORKLOADS)
    if unknown:
        raise BenchError(f"BENCHMARK.json lists unknown workloads {unknown}")
    for name in WORKLOADS:
        traced = []
        for trace, seed in ((0, 1), (1, 1), (1, 1)):
            outcome, _ = _self_run(name, seed, 1, trace, toy=True)
            got = {k: v["unit"] for k, v in outcome["metrics"].items()}
            if got != wanted[trace]:
                raise BenchError(f"{name} trace {trace}: metrics {got}")
            if not outcome["correct"] or outcome["failed"]:
                raise BenchError(f"{name} trace {trace}: checks failed")
            if trace:
                traced.append(outcome["metrics"])
        for metric in list(LAYER_COUNTS) + ["hypergraph.pins"]:
            a, b = (t[metric]["value"] for t in traced)
            if a != b:
                raise BenchError(f"{name}: {metric} {a} then {b} for one seed")
        print(f"{name}: smoke ok")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy input sizes, for the smoke test")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at toy size and check output")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        outcome = run_one(args.workload, args.seed, args.seconds, args.trace,
                          args.toy)
    except BenchError as exc:
        _log(f"bench: {exc}")
        return 2
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
