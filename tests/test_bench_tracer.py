"""The benchmark's span tracer still finds every name it patches, and its
per-layer counts are the library's own."""

import copy
import importlib
import types
from pathlib import Path

from hypermod import GenConfig, degree_preserving_reduce, generate, louvain, preprocess
from hypermod.modularity import MIN_GAIN, ModularityContext

from oracles import local_moving_reference

BENCH = Path(__file__).resolve().parent.parent / "bench"
# The package attribute ``hypermod.louvain`` is the function.
louvain_module = importlib.import_module("hypermod.louvain")


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    plan = spans._patch_plan(spans.Tracer())
    names = [(owner, attr) for owner, attr, _ in plan]
    originals = [owner.__dict__[attr] for owner, attr in names]
    aggregate = louvain_module.aggregate
    move = ModularityContext.move
    with spans.installed(spans.Tracer()):
        assert louvain_module.aggregate is not aggregate
        assert ModularityContext.move is not move
    for (owner, attr), original in zip(names, originals):
        assert owner.__dict__[attr] is original, attr


def test_tracer_counts_the_visits_and_moves_local_moving_makes(monkeypatch):
    """Visits that local moving skips reach neither the tracer nor a wrapper
    installed beneath it; every visit it makes reaches both."""
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    g, _ = generate(GenConfig(n=300, classes=10, size_buckets=((1.0, 2, 6),), seed=1))
    graph = degree_preserving_reduce(preprocess(g))
    visit = ModularityContext.neighbor_cluster_weights
    move = ModularityContext.move
    local_moving = ModularityContext.local_moving
    counts = {"visits": 0, "moves": 0, "every_node_every_sweep": 0}

    def counted_visit(self, node):
        counts["visits"] += 1
        return visit(self, node)

    def counted_local_moving(self, order):
        # An untraced twin run by the reference, which visits every node of
        # every sweep and makes the same moves.
        twin = copy.deepcopy(self)
        twin.move = types.MethodType(move, twin)
        got = local_moving(self, order)
        want, visits = local_moving_reference(twin, order, MIN_GAIN)
        assert got == want
        counts["moves"] += got
        counts["every_node_every_sweep"] += visits
        return got

    monkeypatch.setattr(ModularityContext, "neighbor_cluster_weights", counted_visit)
    monkeypatch.setattr(ModularityContext, "local_moving", counted_local_moving)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        louvain(graph)
    assert counts["moves"] > 0
    assert tracer.tally_count["modularity.visit"] == counts["visits"]
    assert tracer.tally_count["modularity.move"] == counts["moves"]
    assert counts["visits"] < counts["every_node_every_sweep"]
