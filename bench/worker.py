"""Process that runs one workload's ``hypermod cluster`` ops.

Started by ``run.py`` in a fresh interpreter, so that its peak RSS is that
of a process that ran only this workload. Each op is one in-process call
of ``hypermod.cli.main`` on the files the harness generated, writing its
artifacts to files of its own. A warm-up op on the workload's toy-size
input first lets lazy imports and first-call set-up finish; then ops on
the full-size inputs run in the order the harness gives, as long as
the next op is expected to end within ``--seconds``.

Usage: python3 worker.py SPEC.json; results go to the path named in it.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import traceback
from pathlib import Path

import envinfo


def _op(main, argv):
    """One timed CLI call: (exit code or None on an exception, wall, cpu)."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        code = main(argv)
    except Exception:  # an op that raises counts as failed, the run goes on
        traceback.print_exc()
        code = None
    return code, time.perf_counter() - wall0, time.process_time() - cpu0


def run(spec):
    """Warm-up op, then ops following ``spec["cycle"]`` (a list of
    [kind, instance] pairs, repeated): at least ``spec["min_ops"]`` ops,
    and more while the next one, taken to last as long as the median op
    so far, would end within ``spec["seconds"]``. The run's length is then
    about ``seconds`` however long an op takes, instead of overrunning it
    by up to one op."""
    from hypermod.cli import main
    import spans

    work = Path(spec["work"])

    def argv(stem, out):
        return spec["argv"] + [
            "--input", str(work / f"{stem}.hgr"),
            "--truth", str(work / f"{stem}.labels"),
            "--partition-out", str(work / f"{out}.partition.tsv"),
            "--metrics-out", str(work / f"{out}.metrics.json"),
        ]

    warmup, _, _ = _op(main, argv("warmup", "warmup"))
    ops = []
    start = time.perf_counter()
    cycle = spec["cycle"]
    while len(ops) < spec["min_ops"] or (
            time.perf_counter() - start
            + statistics.median(op["wall"] for op in ops) <= spec["seconds"]):
        kind, instance = cycle[len(ops) % len(cycle)]
        args = argv(f"input{instance}", f"op{len(ops)}")
        record = {"kind": kind, "instance": instance}
        if kind == "traced":
            tracer = spans.Tracer()
            with spans.installed(tracer):
                code, wall, cpu = _op(main, args)
            record["layers"] = spans.summarize(tracer, wall)
            record["spans"] = tracer.spans
        else:
            code, wall, cpu = _op(main, args)
        record.update(code=code, wall=wall, cpu=cpu)
        ops.append(record)
    return warmup, ops


def main(argv):
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    warmup, ops = run(spec)
    threads, _ = envinfo.blas_threads()
    Path(spec["result"]).write_text(
        json.dumps({"blas_threads": threads, "warmup_code": warmup, "ops": ops}),
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
