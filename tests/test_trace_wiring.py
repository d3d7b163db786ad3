"""The benchmark's traced run still reaches every layer it wraps.

``perfbench/spans.py`` patches names that ``best_of_many`` and its callees
look up at call time; a refactor that calls a layer some other way would
silently zero its per-layer metrics.
"""
from pathlib import Path

from pcrpp.solvers import best_of_many
from conftest import FRACTIONAL_INSTANCES

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_run_fires_every_span(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer, entry_points, totals

    with Tracer() as tracer:
        tracer.call("solve", best_of_many, FRACTIONAL_INSTANCES[0])
    _, _, count = totals(tracer.spans)
    silent = [name for _, _, name, _ in entry_points() if count[name] < 1]
    assert not silent, f"spans that never fired: {silent}"
