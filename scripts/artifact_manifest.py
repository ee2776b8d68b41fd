"""Print a SHA-256 manifest of the CLI's artifacts on fixed synthetic inputs.

Two checkouts that print the same manifest write byte-identical files:
the generated inputs themselves (hMETIS and label files), and for every
input the partition, metrics and (for irmm) trace files of ``cluster``
with irmm, hlouvain, ``hlouvain --shuffle`` and clique-louvain, each with
and without ``--k 2`` and always with ``--truth``, plus the ``stats`` and
``eval`` output of each partition. The inputs are the seed-1 inputs of
the benchmark's two workloads (3 sparse-hlouvain, 2 dense-irmm) and
``GenConfig(n=200, classes=4, seed=s)`` for s = 0..29; ``--quick`` keeps
only the n = 200 inputs of seeds 0 and 1 and takes a few seconds.

Run from the root of a checkout, with the package under test importable:

    PYTHONPATH=src python scripts/artifact_manifest.py > manifest.txt

Output is one ``name<TAB>sha256`` line per artifact, sorted by name. The
path of the ``hypermod`` package that ran and the number of threads its
OpenBLAS uses go to stderr: the irmm traces of a dense input differ
between thread counts, 2 artifacts between one thread and two (set
``OPENBLAS_NUM_THREADS`` to compare two trees).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import hypermod as hm
from hypermod.cli import main as cli_main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from envinfo import blas_threads  # noqa: E402
from run import INSTANCE_SEED_STRIDE, WORKLOADS  # noqa: E402

# The inputs that bench/run.py draws for its two listed workloads at seed 1.
BENCH_INPUTS = [
    (f"{name}-{j}", hm.GenConfig(seed=1 + j * INSTANCE_SEED_STRIDE, **settings))
    for name in ("sparse-hlouvain", "dense-irmm")
    for _, settings, _, count in [WORKLOADS[name]]
    for j in range(count)
]
SMALL_INPUTS = [
    (f"n200-seed{s}", hm.GenConfig(n=200, classes=4, seed=s)) for s in range(30)
]
RUNS = [
    ("irmm", ["--method", "irmm"]),
    ("hlouvain", ["--method", "hlouvain"]),
    ("hlouvain-shuffle", ["--method", "hlouvain", "--shuffle"]),
    ("clique-louvain", ["--method", "clique-louvain"]),
]


def artifacts(name, cfg, work):
    """Write the input ``name`` and every artifact made from it to ``work``."""
    g, truth = hm.generate(cfg)
    hgr, labels = work / f"{name}.hgr", work / f"{name}.labels"
    hm.write_hmetis(g, hgr)
    hm.write_labels(truth.assignment, labels)
    for run, flags in RUNS:
        for k in ([], ["--k", "2"]):
            stem = work / (f"{name}.{run}" + ("-k2" if k else ""))
            argv = ["cluster", "--input", str(hgr), *flags, *k,
                    "--truth", str(labels),
                    "--partition-out", f"{stem}.partition.tsv",
                    "--metrics-out", f"{stem}.metrics.json"]
            if run == "irmm":
                argv += ["--trace-out", f"{stem}.trace.tsv"]
            cli_main(argv)
            cli_main(["stats", "--input", str(hgr),
                      "--partition", f"{stem}.partition.tsv",
                      "--output", f"{stem}.stats.tsv"])
            cli_main(["eval", "--pred", f"{stem}.partition.tsv",
                      "--truth", str(labels), "--output", f"{stem}.eval.json"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="only the n = 200 inputs of seeds 0 and 1")
    args = parser.parse_args(argv)
    inputs = SMALL_INPUTS[:2] if args.quick else BENCH_INPUTS + SMALL_INPUTS
    print(f"hypermod from {Path(hm.__file__).parent},"
          f" {blas_threads()[0]} BLAS thread(s)", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        with contextlib.redirect_stdout(io.StringIO()):
            for name, cfg in inputs:
                artifacts(name, cfg, work)
        for path in sorted(work.iterdir()):
            print(f"{path.name}\t{hashlib.sha256(path.read_bytes()).hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
