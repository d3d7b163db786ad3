import random

import pytest

from pcrpp import splitoff
from pcrpp.lp import (
    LpSolution,
    capacity_adjacency,
    cut_at_least,
    max_flow_min_cut,
    solve_pcrpp_lp,
)
from pcrpp.preprocess import preprocess
from pcrpp.splitoff import (
    DEMAND_SLACK,
    PRECISION,
    SplitError,
    SplitOp,
    SplitRecorder,
    complete_split,
)
from conftest import FRACTIONAL_INSTANCES, random_suite
from oracles import apply_threshold_split, check_threshold_split


def test_complete_split_forced_pairing():
    # degree at v forces the root pair; the chord r-2 picks up the mass as
    # two balanced halves, one at the root and one at its copy 3
    x = {(0, 1): 0.7, (1, 2): 0.7}
    out, ops, e0 = complete_split(x, 0, 1, {}, 3, 1.65)
    assert ops == [SplitOp(1, 0, 2, 0.35), SplitOp(1, 2, 3, 0.35)]
    assert out[(0, 1)] == pytest.approx(0.0)
    assert out[(1, 2)] == pytest.approx(0.0)
    assert out[(0, 2)] == pytest.approx(0.7)
    assert e0 == 1.65


def test_complete_split_root_drop():
    # a doubled root edge has only its two halves to pair: the mass moves
    # onto the chord between the root and its copy
    out, ops, e0 = complete_split({(0, 1): 2.0}, 0, 1, {}, 2, 1.0)
    assert ops == [SplitOp(1, 0, 2, 1.0)]
    assert out[(0, 1)] == pytest.approx(0.0)
    assert e0 == pytest.approx(2.0)


def test_complete_split_rejects_unsplittable_degree():
    # a lone incident edge admits no pair; degree parity cannot hold
    with pytest.raises(SplitError):
        complete_split({(1, 2): 1.0}, 0, 1, {}, 3, 2.0)


def test_complete_split_chain_preserves_cut():
    # chain r-c-a with unit values; the r-a min cut is 1 and must survive
    x = {(0, 1): 1.0, (1, 2): 1.0}
    before, _ = max_flow_min_cut(capacity_adjacency({k: v for k, v in x.items() if v > 0}), 0, 2)
    out, ops, _ = complete_split(x, 0, 1, {2: before}, 3, 1.5)
    assert ops == [SplitOp(1, 0, 2, 0.5), SplitOp(1, 2, 3, 0.5)]
    after, _ = max_flow_min_cut(capacity_adjacency({k: v for k, v in out.items() if v > 0}), 0, 2)
    assert after == pytest.approx(before) == pytest.approx(1.0)


def test_complete_split_bisection_ends_inside():
    # splitting eps off (1, 2), (1, 3) onto the chord (2, 3) leaves the set
    # {2, 3} a cut of 2 - 2 eps, so the demand 0.7 at 2 admits eps <= 0.65
    # and the full cap 1 is infeasible.  The bisection returns a feasible
    # amount within 2 * PRECISION of the largest one, and may overshoot the
    # exact 0.65 by up to DEMAND_SLACK / 2: the contract that exact
    # splitting amounts (ROADMAP item 4) are to replace.
    x = {(0, 1): 1.0, (1, 2): 1.0, (1, 3): 1.0}
    _, ops, _ = complete_split(x, 0, 1, {2: 0.7}, 4, 1.0)
    first = ops[0]
    assert (first.left, first.right) == (2, 3)
    assert 0.0 < first.amount < 1.0

    def feasible(eps):
        after = dict(x)
        after[(1, 2)] -= eps
        after[(1, 3)] -= eps
        after[(2, 3)] = eps
        return cut_at_least(capacity_adjacency(after), 2, 0, 0.7 - DEMAND_SLACK)

    assert feasible(first.amount)
    assert not feasible(first.amount + 2 * PRECISION)
    assert abs(first.amount - 0.65) <= 2 * PRECISION


@pytest.mark.parametrize("limit", [0.0, 1e-10, 2e-9, 0.3, 0.65, 1.0])
def test_max_feasible_settles_a_dead_candidate_with_one_probe(monkeypatch, limit):
    # against the plain bisection on a monotone feasibility test: the same
    # amount, and a candidate that admits nothing costs two probes, not ~30
    probes = []

    def feasible(x, adj, eps, demands, root):
        probes.append(eps)
        return eps <= limit

    monkeypatch.setattr(splitoff, "_feasible", feasible)
    got = splitoff._max_feasible(None, None, lambda eps: eps, None, None, 1.0)
    if limit >= 1.0:
        want = 1.0
    else:
        want, top = 0.0, 1.0
        while top - want > PRECISION:
            mid = 0.5 * (want + top)
            want, top = (mid, top) if mid <= limit else (want, mid)
    assert got == want
    assert (len(probes) == 2) == (want == 0.0)


def test_threshold_below_min_is_identity(single_pos):
    pg = preprocess(single_pos)
    sol, _ = solve_pcrpp_lp(pg)
    low = min(v for k, v in sol.y.items() if k != pg.root and v > 0)
    xt, yt, trace = apply_threshold_split(sol, low, pg)
    assert trace.ops == ()
    for k, val in sol.x.items():
        assert xt.get(k, 0.0) == pytest.approx(val, abs=1e-12)
    assert yt == sol.y


def test_threshold_above_max_clears_everything(single_pos):
    pg = preprocess(single_pos)
    sol, _ = solve_pcrpp_lp(pg)
    high = max(v for k, v in sol.y.items() if k != pg.root) + 0.5
    xt, yt, trace = apply_threshold_split(sol, high, pg)
    assert all(abs(v) <= 1e-9 for v in xt.values())
    assert all(v == 0.0 for k, v in yt.items() if k != pg.root)
    assert len(trace.ops) > 0


def test_threshold_barrier_halfpoint(barrier):
    # hand-built feasible point with every coupled value at one half
    pg = preprocess(barrier)
    x = {(0, 1): 0.5, (0, 2): 0.5, (1, 2): 0.5}
    y = {0: 1.0, 1: 0.5, 2: 0.5}
    sol = LpSolution(x, y, 0.0)
    xt, yt, trace = apply_threshold_split(sol, 0.6, pg)
    assert xt.get((1, 2), 0.0) == pytest.approx(0.0, abs=1e-9)
    assert yt[1] == 0.0 and yt[2] == 0.0
    check_threshold_split(pg, sol, 0.6, xt, yt)
    assert len(trace.ops) > 0


def test_five_clauses_on_random_instances():
    for inst in random_suite(20, base_seed=5000):
        pg = preprocess(inst)
        sol, _ = solve_pcrpp_lp(pg)
        recorder = SplitRecorder(pg, sol)
        for delta in recorder.thresholds:
            xt, yt, _ = apply_threshold_split(sol, delta, pg, recorder=recorder)
            check_threshold_split(pg, sol, delta, xt, yt)


def test_cut_preservation_sampled():
    # 100 sampled (instance, threshold) pairs: r-t cuts never fall below 2*y
    rng = random.Random(9)
    checked = 0
    instances = random_suite(40, base_seed=5100)
    while checked < 100:
        inst = instances[checked % len(instances)]
        pg = preprocess(inst)
        sol, _ = solve_pcrpp_lp(pg)
        recorder = SplitRecorder(pg, sol)
        delta = rng.choice(recorder.thresholds) if recorder.thresholds else 0.5
        xt, yt, _ = apply_threshold_split(sol, delta, pg, recorder=recorder)
        support = {k: v for k, v in xt.items() if v > 1e-12}
        for t in sorted(yt):
            if t == pg.root or yt[t] <= 1e-12:
                continue
            cut, _ = max_flow_min_cut(capacity_adjacency(support), t, pg.root)
            assert cut >= 2.0 * yt[t] - 1e-6
        checked += 1


def test_trace_replay_determinism(barrier):
    pg = preprocess(barrier)
    x = {(0, 1): 0.5, (0, 2): 0.5, (1, 2): 0.5}
    y = {0: 1.0, 1: 0.5, 2: 0.5}
    sol = LpSolution(x, y, 0.0)
    runs = [apply_threshold_split(sol, 0.7, pg)[2] for _ in range(2)]
    assert runs[0] == runs[1]
    # recorder states replay to the same operations as a fresh recorder
    rec1, rec2 = SplitRecorder(pg, sol), SplitRecorder(pg, sol)
    assert rec1.ops == rec2.ops
    assert rec1.groups == rec2.groups


def test_recorder_state_degrees_zeroed():
    for inst in random_suite(10, base_seed=5200):
        pg = preprocess(inst)
        sol, _ = solve_pcrpp_lp(pg)
        rec = SplitRecorder(pg, sol)
        for b, (v, _) in enumerate(rec.groups, start=1):
            x, _ = rec.state(b)
            deg = sum(val for k, val in x.items() if v in k)
            assert abs(deg) <= 1e-9


def test_recorder_thresholds_are_the_positive_vertex_values():
    # the outer thresholds: the distinct positive y of the non-root vertices, sorted
    for inst in random_suite(10, base_seed=5200) + list(FRACTIONAL_INSTANCES):
        pg = preprocess(inst)
        sol, _ = solve_pcrpp_lp(pg)
        rec = SplitRecorder(pg, sol)
        assert rec.thresholds == sorted({v for k, v in sol.y.items() if k != pg.root and v > 0.0})
        assert (rec.root, rec.copy) == (pg.root, pg.vertex_count)
