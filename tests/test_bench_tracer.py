"""The benchmark's span tracer still finds every name it patches."""

import importlib
from pathlib import Path

from hypermod.modularity import ModularityContext

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
