"""Recorded outputs add floats left to right, whatever builtin ``sum`` does.

From Python 3.12 on, builtin ``sum`` compensates float rounding, so a
recorded output that went through it could differ between versions.  Each
test shadows ``sum`` in the module under test with ``math.fsum``, a
compensated sum, on inputs where the two summations differ, and checks the
left-to-right result.
"""
import math
from types import SimpleNamespace

import numpy as np

from pcrpp import lp, solvers, splitoff, treedecomp
from pcrpp.lp import LpSolution, solve_pcrpp_lp
from pcrpp.preprocess import preprocess
from pcrpp.solvers import pctsp_solve_exact
from pcrpp.splitoff import SplitRecorder
from pcrpp.treedecomp import stage_distribution
from conftest import FRACTIONAL_INSTANCES


def _compensated(items):
    return math.fsum(items)


def _left_to_right(items):
    total = 0.0
    for val in items:
        total += val
    return total


def test_split_chord_and_stage_weights_add_left_to_right(monkeypatch):
    # three root pairs: deg(root) = 0.2 + 0.4 + 0.3 feeds the chord, and the
    # stage's tree weights are divided by their sum
    monkeypatch.setattr(splitoff, "sum", _compensated, raising=False)
    monkeypatch.setattr(treedecomp, "sum", _compensated, raising=False)
    compacted = []
    real_compact = treedecomp._compact

    def compact(trees):
        real_compact(trees)
        compacted.append([w for w, _ in trees])

    monkeypatch.setattr(treedecomp, "_compact", compact)
    deg = [0.2, 0.4, 0.3]
    x = {(0, 1): 0.2, (0, 2): 0.4, (0, 3): 0.3}
    y = {0: 1.0, 1: 0.0, 2: 0.0, 3: 0.0}
    rec = SplitRecorder(SimpleNamespace(root=0, vertex_count=4), LpSolution(x, y, 0.0))
    drops = [op.amount for op in rec.ops if (op.left, op.right) == (0, 4)]
    assert len(drops) == 3
    chord = 2.0 - 0.5 * _left_to_right(deg)
    other = 2.0 - 0.5 * math.fsum(deg)
    for amount in drops:
        chord += amount
        other += amount
    assert chord != other
    assert rec.chord == chord

    dist = stage_distribution(rec, 0)
    weights = compacted[-1]
    total = _left_to_right(weights)
    assert total != math.fsum(weights)
    assert dist.weights == tuple(w / total for w in weights)


def test_cut_slack_adds_left_to_right(monkeypatch):
    # the first master's x is replaced by tenths on every active column, and
    # separation adds the cut ({w}, w) at each non-root vertex: the slack of
    # such a cut sums the x of every pair at w, in column order
    monkeypatch.setattr(lp, "sum", _compensated, raising=False)
    real_master, real_separate = lp._solve_master, lp.separate_cuts
    rounds = []

    def master(*args):
        out = real_master(*args)
        if rounds:
            return out
        x_vals = 0.1 + 0.1 * (np.arange(len(out[0])) % 7)
        return (x_vals, *out[1:])

    def separate(pg, x, y, tol=lp.FEAS_TOL):
        cuts = real_separate(pg, x, y, tol)
        if not rounds:
            seen = {side for side, _ in cuts}
            cuts += [
                (frozenset({w}), w)
                for w in range(pg.vertex_count)
                if w != pg.root and frozenset({w}) not in seen
            ]
        rounds.append((dict(x), dict(y), cuts))
        return cuts

    monkeypatch.setattr(lp, "_solve_master", master)
    monkeypatch.setattr(lp, "separate_cuts", separate)
    _, cert = solve_pcrpp_lp(preprocess(FRACTIONAL_INSTANCES[0]))
    x, y, first = rounds[0]
    slacks = {(side, w): slack for side, w, slack in cert.cuts}
    differ = 0
    for side, w in first:
        across = [val for (a, b), val in x.items() if (a in side) != (b in side)]
        total = _left_to_right(across)
        differ += total != math.fsum(across)
        assert slacks[side, w] == total - 2.0 * y[w]
    assert differ > 0


def test_pctsp_penalties_add_left_to_right(monkeypatch):
    # a tour through all three costs 120.6, the penalties' compensated sum;
    # left to right they add to 120.60000000000001, so the tour is better
    # than skipping them all
    monkeypatch.setattr(solvers, "sum", _compensated, raising=False)
    penalties = {1: 30.1, 2: 40.2, 3: 50.3}
    assert _left_to_right(penalties.values()) > math.fsum(penalties.values()) == 120.6
    dist = {(0, 1): 60.3, (0, 2): 60.3, (0, 3): 60.3, (1, 2): 0.0, (1, 3): 0.0, (2, 3): 0.0}
    assert sorted(pctsp_solve_exact([1, 2, 3], dist, penalties, 0)) == [1, 2, 3]
