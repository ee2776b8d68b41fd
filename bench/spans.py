"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the ``hypermod`` layers from the
outside: each wrapped name is replaced, in the namespace of the module
that calls it, by a function that records a span (name, start, end,
parent, self time) around the original call. Calls made once per node
visit are tallied instead (a count plus total time) so the trace stays
small. Spans stay in memory; the caller writes them out at the end.

Self time is a span's duration minus the time covered by its child spans
and by the tallied calls made inside it, so the self times of all spans
plus the op's own remainder add up to the op's wall time.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    """In-memory spans and tallies for one traced op."""

    def __init__(self):
        self.spans = []          # dicts: name, start, end, parent, self
        self.tally_count = defaultdict(int)
        self.tally_time = defaultdict(float)
        self.reductions = []     # (sum_sq_degree, out_nnz, out_bytes, n) per call
        self._open = []          # [span index, child time] of open spans

    def span(self, name, fn):
        """Wrap ``fn`` so that each call records one span called ``name``."""

        def wrapper(*args, **kwargs):
            parent = self._open[-1][0] if self._open else None
            index = len(self.spans)
            record = {"name": name, "start": _clock(), "end": None,
                      "parent": parent, "self": None}
            self.spans.append(record)
            frame = [index, 0.0]
            self._open.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                record["end"] = _clock()
                self._open.pop()
                duration = record["end"] - record["start"]
                record["self"] = duration - frame[1]
                if self._open:
                    self._open[-1][1] += duration

        return wrapper

    def tally(self, name, fn):
        """Wrap ``fn`` so that calls only add to a count and a total time."""
        count, total = self.tally_count, self.tally_time

        def wrapper(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                count[name] += 1
                total[name] += elapsed
                if self._open:
                    self._open[-1][1] += elapsed

        return wrapper

    def reduction_span(self, fn):
        """Span around a reduction that also records its computed sizes.

        The sizes are read after the span has closed, from attributes the
        reduction has already computed, so they change neither the result
        nor the span's duration.
        """
        timed = self.span("reduction.reduce", fn)

        def wrapper(g, *args, **kwargs):
            reduced = timed(g, *args, **kwargs)
            delta = g.edge_degrees
            adj = reduced.adjacency
            self.reductions.append((
                int((delta * delta).sum()),
                int(adj.nnz),
                int(adj.data.nbytes + adj.indices.nbytes + adj.indptr.nbytes),
                int(reduced.n),
            ))
            return reduced

        return wrapper


def _patch_plan(tracer):
    """(owner, attribute, wrapper factory) for every traced public name.

    Names are patched where they are looked up: ``hypermod.cli`` and the
    ``hypermod.irmm`` module import their collaborators by name. The
    package attribute ``hypermod.irmm`` is the function, so the module is
    fetched through importlib.
    """
    cli = importlib.import_module("hypermod.cli")
    irmm_mod = importlib.import_module("hypermod.irmm")
    louvain_mod = importlib.import_module("hypermod.louvain")
    context = importlib.import_module("hypermod.modularity").ModularityContext
    span, tally = tracer.span, tracer.tally
    return [
        (cli, "load", lambda f: span("hypergraph.load", f)),
        (cli, "preprocess", lambda f: span("hypergraph.preprocess", f)),
        (cli, "degree_preserving_reduce", tracer.reduction_span),
        (cli, "louvain", lambda f: span("louvain.louvain", f)),
        (cli, "irmm", lambda f: span("irmm.irmm", f)),
        (cli, "cut_stats", lambda f: span("evaluate.cut_stats", f)),
        (cli, "symmetric_f1", lambda f: span("evaluate.f1", f)),
        (irmm_mod, "degree_preserving_reduce", tracer.reduction_span),
        (irmm_mod, "louvain", lambda f: span("louvain.louvain", f)),
        (irmm_mod, "update_weights", lambda f: span("irmm.update_weights", f)),
        (louvain_mod, "aggregate", lambda f: span("louvain.aggregate", f)),
        (louvain_mod, "modularity", lambda f: span("modularity.modularity", f)),
        (context, "__init__", lambda f: span("modularity.context", f)),
        (context, "neighbor_cluster_weights",
         lambda f: tally("modularity.visit", f)),
        (context, "move", lambda f: tally("modularity.move", f)),
    ]


@contextmanager
def installed(tracer):
    """Install the tracer's wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, make in _patch_plan(tracer):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# Layer metric -> span name whose total duration it reports.
_DURATIONS = {
    "hypergraph.load_s": "hypergraph.load",
    "hypergraph.preprocess_s": "hypergraph.preprocess",
    "reduction.reduce_s": "reduction.reduce",
    "louvain.louvain_s": "louvain.louvain",
    "louvain.aggregate_s": "louvain.aggregate",
    "modularity.context_s": "modularity.context",
    "modularity.modularity_s": "modularity.modularity",
    "irmm.irmm_s": "irmm.irmm",
    "irmm.update_weights_s": "irmm.update_weights",
    "evaluate.cut_stats_s": "evaluate.cut_stats",
    "evaluate.f1_s": "evaluate.f1",
}

# Layer metric -> span name whose call count it reports.
_CALLS = {
    "reduction.calls": "reduction.reduce",
    "louvain.calls": "louvain.louvain",
    "louvain.aggregate_calls": "louvain.aggregate",
    "modularity.context_builds": "modularity.context",
    "irmm.rounds": "irmm.update_weights",
}


def summarize(tracer, op_seconds):
    """Per-layer metrics of one traced op, keyed by metric name.

    ``op_seconds`` is the op's wall time measured around the CLI call;
    ``cli.self_s`` is the part of it outside every top-level span.
    """
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    top_level = 0.0
    for s in tracer.spans:
        duration = s["end"] - s["start"]
        total[s["name"]] += duration
        self_time[s["name"]] += s["self"]
        calls[s["name"]] += 1
        if s["parent"] is None:
            top_level += duration
    out = {metric: total[name] for metric, name in _DURATIONS.items()}
    out.update({metric: calls[name] for metric, name in _CALLS.items()})
    visits = tracer.tally_count["modularity.visit"]
    moves = tracer.tally_count["modularity.move"]
    visit_s = tracer.tally_time["modularity.visit"]
    red = tracer.reductions
    out.update({
        "louvain.self_s": self_time["louvain.louvain"],
        "irmm.self_s": self_time["irmm.irmm"],
        "modularity.visits": visits,
        "modularity.visit_s": visit_s,
        "modularity.visit_us": visit_s / visits * 1e6 if visits else 0.0,
        "modularity.moves": moves,
        "modularity.move_s": tracer.tally_time["modularity.move"],
        "modularity.move_ratio": moves / visits if visits else 0.0,
        "reduction.sum_sq_degree": sum(r[0] for r in red),
        "reduction.out_nnz": sum(r[1] for r in red),
        "reduction.out_bytes": sum(r[2] for r in red),
        "reduction.out_fill": (
            sum(r[1] for r in red) / sum(r[3] * r[3] for r in red) if red else 0.0
        ),
        "cli.self_s": op_seconds - top_level,
    })
    # Every span's self time plus the op remainder covers the op exactly.
    covered = (sum(self_time.values()) + sum(tracer.tally_time.values())
               + out["cli.self_s"])
    out["trace.accounted_s"] = covered
    return out
