"""Spans around calls into the pcrpp layers, recorded from outside the package.

Entering a ``Tracer`` replaces the names that ``best_of_many`` and its
callees look up at call time with wrappers; leaving it puts the originals
back.  Each span is ``[name, start, end, parent, kept]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``kept`` is what the span's ``keep``
function extracted from the call's result (None without one).  Spans stay
in memory until written out.
"""
from __future__ import annotations

from collections import defaultdict
from time import perf_counter

from workloads import has_fractional_y


def _lp_result(out):
    sol, cert = out
    return len(cert.cuts), has_fractional_y(sol.y)


def entry_points():
    """(owner, attribute, span name, keep) for every wrapped entry point."""
    from pcrpp import candidates, lp, solvers, splitoff

    return [
        (solvers, "preprocess", "preprocess", None),
        (solvers, "solve_pcrpp_lp", "lp", _lp_result),
        (lp.HighsBackend, "solve", "lp.backend", None),
        (lp, "separate_cuts", "lp.separate", None),
        (lp, "max_flow_min_cut", "lp.maxflow", None),
        (solvers, "SplitRecorder", "splitoff", lambda rec: len(rec.ops)),
        (splitoff, "cut_at_least", "splitoff.cut_probe", None),
        (solvers, "stage_distribution", "treedecomp.stage", None),
        (solvers, "project_to_hat", "treedecomp.project", lambda dist: len(dist.trees)),
        (solvers, "edge_profit_core", "candidates.core", None),
        (solvers, "build_candidate", "candidates.build", None),
        (candidates, "min_tjoin", "candidates.tjoin", None),
        (candidates, "euler_tour", "candidates.euler", None),
    ]


class Tracer:
    """Records spans while entered: ``with Tracer() as tracer: ...``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def call(self, name: str, fn, *args, keep=None, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, perf_counter(), 0.0, parent, None]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            out = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        if keep is not None:
            span[4] = keep(out)
        return out

    def _wrap(self, name: str, fn, keep):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, keep=keep, **kwargs)

        return traced

    def __enter__(self):
        for owner, attr, name, keep in entry_points():
            orig = getattr(owner, attr)
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(name, orig, keep))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)


def totals(spans: list[list]) -> tuple[dict, dict, dict]:
    """Per span name: summed duration, summed self time and call count.

    Self time is a span's duration minus the durations of its direct
    children, which never overlap because calls are nested.
    """
    dur: dict[str, float] = defaultdict(float)
    child: list[float] = [0.0] * len(spans)
    count: dict[str, int] = defaultdict(int)
    for name, start, end, parent, _ in spans:
        d = end - start
        dur[name] += d
        count[name] += 1
        if parent >= 0:
            child[parent] += d
    self_t: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        self_t[name] += (end - start) - child[i]
    return dur, self_t, count
