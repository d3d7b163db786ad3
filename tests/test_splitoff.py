import random

import pytest

from pcrpp import splitoff
from pcrpp.cli import gen_random
from pcrpp.lp import (
    SUPPORT_FLOOR,
    FlowNetwork,
    LpSolution,
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
    split_every_vertex,
)
from conftest import FRACTIONAL_INSTANCES, random_suite, rnd37_point
from oracles import apply_threshold_split, check_threshold_split, max_flow_by_dict


def test_complete_split_forced_pairing():
    # degree at v forces the root pair; the chord r-2 picks up the mass as
    # two balanced halves, one at the root and one at its copy 3
    x = {(0, 1): 0.7, (1, 2): 0.7}
    out, ops = complete_split(x, 0, 1, {}, 3, FlowNetwork(x))
    assert ops == [SplitOp(1, 0, 2, 0.35), SplitOp(1, 2, 3, 0.35)]
    assert (0, 1) not in out
    assert (1, 2) not in out
    assert out[(0, 2)] == pytest.approx(0.7)


def test_complete_split_root_drop():
    # a doubled root edge has only its two halves to pair: the mass moves
    # onto the chord between the root and its copy
    x = {(0, 1): 2.0}
    out, ops = complete_split(x, 0, 1, {}, 2, FlowNetwork(x))
    assert ops == [SplitOp(1, 0, 2, 1.0)]
    assert (0, 1) not in out


def test_candidates_order_and_moves():
    # entries by descending value: 2 (0.9), the copy's half (0.5, id -1), the
    # root's half (0.5), 3 (0.3); the copy's half pairs only with the root's
    net = FlowNetwork({(0, 1): 1.0, (1, 2): 0.9, (1, 3): 0.3})
    assert list(splitoff._candidates(net.row(1), 0, 1)) == [
        ("rootpair", 0, 2, 0.9, [((0, 1), -1), ((1, 2), -1), ((0, 2), 1)]),
        ("pair", 2, 3, 0.3, [((1, 2), -1), ((1, 3), -1), ((2, 3), 1)]),
        ("rootdrop", None, None, 0.5, [((0, 1), -2)]),
        ("rootpair", 0, 3, 0.3, [((0, 1), -1), ((1, 3), -1), ((0, 3), 1)]),
    ]


def test_complete_split_rejects_unsplittable_degree():
    # a lone incident edge admits no pair; degree parity cannot hold
    with pytest.raises(SplitError):
        complete_split({(1, 2): 1.0}, 0, 1, {}, 3, FlowNetwork({(1, 2): 1.0}))


def test_complete_split_rejects_a_split_that_does_not_converge(monkeypatch):
    # a stand-in that admits only 2 * PRECISION per move would need 3.5e8
    # moves to clear the degree 1.4 at vertex 1; the guard stops the loop
    # after 64 moves per vertex with live pairs, plus 128.  A carried
    # network's pairs at capacity 0.0 do not count
    calls = []
    monkeypatch.setattr(splitoff, "_max_feasible", lambda *args: calls.append(args) or 2 * PRECISION)
    x = {(0, 1): 0.7, (1, 2): 0.7}
    dead = FlowNetwork({**x, (3, 4): 1.0, (4, 5): 1.0})
    dead.set_capacity(3, 4, 0.0)
    dead.set_capacity(4, 5, 0.0)
    for net in (FlowNetwork(x), dead):
        calls.clear()
        with pytest.raises(SplitError, match=r"^splitting at vertex 1 did not converge$"):
            complete_split(x, 0, 1, {}, 3, net)
        assert len(calls) == 64 * (3 + 2)


@pytest.mark.parametrize("demands", [{0: 1.0}, {1: 1.0}])
def test_complete_split_rejects_demands_at_the_root_or_split_vertex(demands):
    x = {(0, 1): 1.0, (1, 2): 1.0}
    with pytest.raises(ValueError, match="demands must exclude"):
        complete_split(x, 0, 1, demands, 3, FlowNetwork(x))


def test_complete_split_chain_preserves_cut():
    # chain r-c-a with unit values; the r-a min cut is 1 and must survive
    x = {(0, 1): 1.0, (1, 2): 1.0}
    before, _ = max_flow_min_cut(FlowNetwork({k: v for k, v in x.items() if v > 0}), 0, 2)
    out, ops = complete_split(x, 0, 1, {2: before}, 3, FlowNetwork(x))
    assert ops == [SplitOp(1, 0, 2, 0.5), SplitOp(1, 2, 3, 0.5)]
    after, _ = max_flow_min_cut(FlowNetwork({k: v for k, v in out.items() if v > 0}), 0, 2)
    assert after == pytest.approx(before) == pytest.approx(1.0)


def test_complete_split_amount_is_exact():
    # splitting eps off (1, 2), (1, 3) onto the chord (2, 3) leaves the set
    # {2, 3} a cut of 2 - 2 eps, so the demand 0.7 at 2 admits eps <= 0.65
    # and the full cap 1 is infeasible: the amount is 0.65 itself
    x = {(0, 1): 1.0, (1, 2): 1.0, (1, 3): 1.0}
    _, ops = complete_split(x, 0, 1, {2: 0.7}, 4, FlowNetwork(x))
    first = ops[0]
    assert (first.left, first.right) == (2, 3)
    assert first.amount == 0.65

    def feasible(eps):
        after = dict(x)
        after[(1, 2)] -= eps
        after[(1, 3)] -= eps
        after[(2, 3)] = eps
        return cut_at_least(FlowNetwork(after), 2, 0, 0.7 - DEMAND_SLACK)

    assert feasible(first.amount)
    assert not feasible(first.amount + 2 * PRECISION)


def _keeps_demands(call, eps):
    """Whether the candidate of a recorded call, applied at eps, keeps every demand.

    The 1e-12 slack only absorbs float rounding, so an amount that
    overshoots the exact one breaks a demand here.
    """
    x = dict(call["x"])
    for key, c in call["move"]:
        x[key] = x.get(key, 0.0) + c * eps
    net = FlowNetwork(x)
    return all(
        max_flow_min_cut(net, t, call["root"])[0] >= need - 1e-12
        for t, need in call["demands"].items()
    )


def _live(net):
    """The pairs of ``net`` with positive capacity, as ``{(u, v): capacity}``."""
    return {(u, v): c for u in range(len(net.out)) for v, c in net.row(u).items()}


def test_max_feasible_amounts_are_exact(monkeypatch):
    # every amount the splitting passes ask for: it keeps every demand, 2 *
    # PRECISION more (up to the cap) breaks one unless the cap was returned,
    # and a candidate admitting nothing returns exactly 0.0.  A shortened
    # amount leaves the network's live pairs and the nonzero entries of x
    # unchanged; the full cap leaves the candidate applied at the cap
    calls = []
    real = splitoff._max_feasible

    def nonzero(x):
        return {k: val for k, val in x.items() if val != 0.0}

    def recording(x, net, v, move, demands, root, hi):
        before = (nonzero(x), _live(net))
        got = real(x, net, v, move, demands, root, hi)
        if got < hi:
            assert (nonzero(x), _live(net)) == before
        else:
            applied = dict(before[0])
            for key, c in move:
                val = applied.pop(key, 0.0) + c * hi
                if val > SUPPORT_FLOOR:
                    applied[key] = val
            assert nonzero(x) == applied
            assert _live(net) == _live(FlowNetwork(applied))
        calls.append(dict(x=before[0], move=move, demands=demands, root=root, hi=hi, got=got))
        return got

    monkeypatch.setattr(splitoff, "_max_feasible", recording)
    x = {(0, 1): 1.0, (1, 2): 1.0, (1, 3): 1.0}
    complete_split(x, 0, 1, {2: 0.7}, 4, FlowNetwork(x))
    inst, sol = rnd37_point()
    SplitRecorder(preprocess(inst), sol)
    for inst in list(FRACTIONAL_INSTANCES) + random_suite(10, base_seed=5300):
        pg = preprocess(inst)
        SplitRecorder(pg, solve_pcrpp_lp(pg)[0])
    assert any(0.0 < c["got"] < c["hi"] for c in calls)
    assert any(c["got"] == 0.0 for c in calls)
    for call in calls:
        got, hi = call["got"], call["hi"]
        assert got == 0.0 or PRECISION < got <= hi
        assert _keeps_demands(call, got)
        if got < hi:
            assert not _keeps_demands(call, min(got + 2 * PRECISION, hi))
        if not _keeps_demands(call, PRECISION):
            assert got == 0.0


def test_max_feasible_admits_nothing_up_to_precision():
    # a cap at or below PRECISION admits nothing, and nothing is applied
    x = {(0, 1): 1.0, (1, 2): 1.0, (1, 3): 1.0}
    net = FlowNetwork(x)
    move = [((1, 2), -1), ((1, 3), -1), ((2, 3), 1)]
    assert splitoff._max_feasible(x, net, 1, move, {2: 0.7}, 0, PRECISION) == 0.0
    assert x == {(0, 1): 1.0, (1, 2): 1.0, (1, 3): 1.0}
    assert _live(net) == _live(FlowNetwork(x))


def _isolates(net, v, move, hi):
    """Whether the move at ``hi`` leaves v no pair above ``SUPPORT_FLOOR``, read off v's row."""
    row = net.row(v)
    for key, c in move:
        if v in key:
            u = key[1] if key[0] == v else key[0]
            row[u] = row.get(u, 0.0) + c * hi
    return all(val <= SUPPORT_FLOOR for val in row.values())


def test_one_network_per_pass_and_no_probe_for_an_isolating_move(monkeypatch):
    # each pass hands one network from vertex to vertex, and at every vertex
    # boundary its live pairs are those of a network built from that state;
    # a candidate that isolates the split vertex is admitted at its cap with
    # no cut_at_least call, while the other candidates still probe
    probes = []
    real_probe = splitoff.cut_at_least

    def probe(*args):
        probes.append(args)
        return real_probe(*args)

    counts = {"isolating": 0, "probed": 0}
    real_feasible = splitoff._max_feasible

    def feasible(x, net, v, move, demands, root, hi):
        isolating = _isolates(net, v, move, hi)
        before = len(probes)
        got = real_feasible(x, net, v, move, demands, root, hi)
        if isolating:
            assert len(probes) == before
            assert got == (hi if hi > PRECISION else 0.0)
            counts["isolating"] += 1
        else:
            counts["probed"] += len(probes) - before
        return got

    networks = []
    real_split = splitoff.complete_split

    def split(x, root, v, demands, aux_copy, net):
        out, ops = real_split(x, root, v, demands, aux_copy, net)
        assert _live(net) == _live(FlowNetwork(out))
        networks.append(net)
        return out, ops

    monkeypatch.setattr(splitoff, "cut_at_least", probe)
    monkeypatch.setattr(splitoff, "_max_feasible", feasible)
    monkeypatch.setattr(splitoff, "complete_split", split)
    points = [rnd37_point()]
    for inst in list(FRACTIONAL_INSTANCES) + [gen_random(0, 24, 48)]:
        points.append((inst, solve_pcrpp_lp(preprocess(inst))[0]))
    for inst, sol in points:
        networks.clear()
        rec = SplitRecorder(preprocess(inst), sol)
        assert len(networks) == len(rec.groups) > 0
        assert all(net is networks[0] for net in networks)
    assert counts["isolating"] > 0 and counts["probed"] > 0


def test_isolating_a_vertex_lowers_no_root_cut():
    # the argument for the unprobed isolating move, checked on the test
    # oracle alone: v with exactly two live pairs of equal value, or with a
    # root pair only, is split completely, and no other vertex's max-flow to
    # the root drops
    rng = random.Random(30)
    for trial in range(300):
        n = rng.randint(3, 8)
        root, v = 0, rng.randrange(1, n)
        others = [u for u in range(n) if u != v]
        cap = {}
        for i, a in enumerate(others):
            for b in others[i + 1:]:
                if rng.random() < 0.5:
                    cap[(a, b)] = rng.choice([0.25, 0.5, 1.0, rng.uniform(0.01, 2.0)])
        c = rng.uniform(0.01, 2.0)
        after = dict(cap)
        if trial % 3 == 0:
            cap[(root, v)] = c  # a root drop: the mass leaves the graph
        else:
            a, b = sorted(rng.sample(others, 2))
            cap[(min(a, v), max(a, v))] = cap[(min(b, v), max(b, v))] = c
            after[(a, b)] = after.get((a, b), 0.0) + c
        for t in others:
            if t != root:
                before = max_flow_by_dict(cap, t, root)[0]
                assert max_flow_by_dict(after, t, root)[0] >= before - 1e-12


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
            cut, _ = max_flow_min_cut(FlowNetwork(support), t, pg.root)
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
            x = rec.state(b)
            deg = sum(val for k, val in x.items() if v in k)
            assert abs(deg) <= 1e-9
        # split states hold only live mass, as the capacity adjacency does
        assert all(val > SUPPORT_FLOOR for x in rec.states for val in x.values())


def test_recorder_thresholds_are_the_positive_vertex_values():
    # the outer thresholds: the distinct positive y of the non-root vertices, sorted
    for inst in random_suite(10, base_seed=5200) + list(FRACTIONAL_INSTANCES):
        pg = preprocess(inst)
        sol, _ = solve_pcrpp_lp(pg)
        rec = SplitRecorder(pg, sol)
        assert rec.thresholds == sorted({v for k, v in sol.y.items() if k != pg.root and v > 0.0})
        assert (rec.root, rec.copy) == (pg.root, pg.vertex_count)


def test_split_every_vertex_rejects_residual_mass():
    # no vertex to split but the root, so the mass on (1, 2) is left over
    with pytest.raises(SplitError, match=r"^residual mass 1\.0 on \[\(1, 2\)\] after"):
        split_every_vertex({(1, 2): 1.0}, {0: 1.0}, 0, 3)
