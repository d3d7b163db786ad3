import itertools
import random
import types
from collections import Counter

import pytest

from pcrpp import candidates, lp
from pcrpp.candidates import build_candidate, edge_profit_core, min_perfect_matching, min_tjoin
from pcrpp.core import Edge, Instance, Walk, ekey, odd_vertices, parse_instance
from pcrpp.lp import LpError
from pcrpp.preprocess import preprocess
from conftest import random_suite
from oracles import matching_by_dp


def test_core_no_positive_edge(barrier):
    pg = preprocess(barrier)
    tree = frozenset({(0, 1)})
    assert edge_profit_core(tree, {(0, 1): 1.0}, 0.5, pg) == frozenset()


def test_core_path_with_positive_tip(single_pos):
    pg = preprocess(single_pos)
    # tree r - a - copy with the positive edge (1, 2) at value one half
    tree = frozenset({(0, 1), (1, 2)})
    x = {(0, 1): 0.5, (1, 2): 0.5}
    assert edge_profit_core(tree, x, 0.3, pg) == tree
    assert edge_profit_core(tree, x, 0.7, pg) == frozenset()


def test_core_rejects_a_tree_off_the_root(single_pos):
    # the positive edge (1, 2) qualifies, but the tree never reaches root 0
    pg = preprocess(single_pos)
    with pytest.raises(ValueError, match="^qualifying endpoint 1 is not connected to the root$"):
        edge_profit_core(frozenset({(1, 2)}), {(1, 2): 0.5}, 0.3, pg)


def test_core_monotone_in_threshold():
    for inst in random_suite(15, base_seed=7000):
        pg = preprocess(inst)
        # a star tree out of the root over the whole graph is not a real
        # decomposition output, but core extraction only needs a tree
        keys = sorted(pg.lengths)
        edges = set()
        seen = {pg.root}
        for u, v in keys:
            if (u in seen) != (v in seen):
                edges.add((u, v))
                seen.update((u, v))
        tree = frozenset(edges)
        x = {k: (0.1 + (i % 10) / 10.0) for i, k in enumerate(sorted(tree))}
        for g1, g2 in [(0.2, 0.5), (0.3, 0.9), (0.0, 1.0)]:
            c_hi = edge_profit_core(tree, x, max(g1, g2), pg)
            c_lo = edge_profit_core(tree, x, min(g1, g2), pg)
            assert c_hi <= c_lo


def test_tjoin_rejects_targets_in_different_components():
    inst = Instance(4, 0, (Edge(0, 1, 1.0, 0.0), Edge(2, 3, 1.0, 5.0)))
    with pytest.raises(ValueError, match="^targets 0 and 2 lie in different components$"):
        min_tjoin(inst, [0, 2])


def test_matching_empty_and_pair():
    assert min_perfect_matching([], {}) == []
    assert min_perfect_matching([3, 7], {(3, 7): 2.0}) == [(3, 7)]


def test_odd_point_sets_are_rejected():
    with pytest.raises(ValueError, match="odd"):
        min_perfect_matching([1, 2, 3], {})
    with pytest.raises(ValueError, match="odd"):
        min_tjoin(parse_instance("2 1 1\n1 2 1 0\n"), [0])


def test_matching_line_of_four():
    # points on a line at 0, 1, 10, 11: the three pairings cost 2, 20, 20
    pts = [0, 1, 2, 3]
    coord = {0: 0.0, 1: 1.0, 2: 10.0, 3: 11.0}
    dist = {(a, b): abs(coord[a] - coord[b]) for a in pts for b in pts if a < b}
    pairs = min_perfect_matching(pts, dist)
    assert sorted(pairs) == [(0, 1), (2, 3)]
    cost, dp_pairs = matching_by_dp(pts, dist)
    assert cost == pytest.approx(2.0)
    assert sorted(dp_pairs) == sorted(pairs)


def test_matching_agrees_with_dp_oracle():
    rng = random.Random(31)
    # lengths spread over 1..50, then a tie-heavy draw from {1, 2}
    for weights in (range(1, 51), (1, 2)):
        for _ in range(60):
            k = rng.choice([2, 4, 6, 8, 10, 12])
            pts = list(range(k))
            dist = {(a, b): rng.choice(weights) * 1.0 for a in pts for b in pts if a < b}
            pairs = min_perfect_matching(pts, dist)
            cost = sum(dist[p] for p in pairs)
            dp_cost, _ = matching_by_dp(pts, dist)
            assert cost == pytest.approx(dp_cost)


def test_matching_of_four_keeps_the_first_minimal_pairing():
    # of sorted points p0 < p1 < p2 < p3 the order is {p0,p1}{p2,p3}, {p0,p2}{p1,p3}, {p0,p3}{p1,p2}
    pts = [5, 6, 7, 8]
    equal = {(a, b): 1.0 for a in pts for b in pts if a < b}
    assert min_perfect_matching(pts, equal) == [(5, 6), (7, 8)]
    last_two_tie = {**equal, (5, 6): 3.0}
    assert min_perfect_matching(pts, last_two_tie) == [(5, 7), (6, 8)]
    # the points arrive unsorted and the table holds either orientation
    only_last = {(6, 5): 2.0, (8, 7): 2.0, (7, 5): 2.0, (8, 6): 2.0, (8, 5): 1.5, (7, 6): 0.5}
    assert min_perfect_matching([8, 6, 7, 5], only_last) == [(5, 8), (6, 7)]


def test_matching_by_mip_pairs_every_point_once():
    rng = random.Random(47)
    for k in (6, 8, 10, 12):
        pts = rng.sample(range(100), k)
        dist = {(a, b): rng.uniform(0.5, 20.0) for a in pts for b in pts if a < b}
        pairs = min_perfect_matching(pts, dist)
        assert pairs == sorted(pairs)
        assert all(a < b for a, b in pairs)
        assert sorted(v for pair in pairs for v in pair) == sorted(pts)
        assert sum(dist[p] for p in pairs) == pytest.approx(matching_by_dp(pts, dist)[0])


def test_matching_mip_names_the_points_when_it_is_not_optimal(monkeypatch):
    options = lp._exact_mip_options()
    options.time_limit = 0.0
    monkeypatch.setattr(candidates, "EXACT_MIP_OPTIONS", options)
    pts = [0, 2, 4, 6, 8, 10]
    dist = {(a, b): float(b - a) for a in pts for b in pts if a < b}
    with pytest.raises(
        LpError,
        match=r"^pairing MIP failed: HiGHS model status 'Time limit reached' on points \[0, 2, 4, 6, 8, 10\]$",
    ):
        min_perfect_matching(pts, dist)


def test_matching_mip_rejects_a_vector_that_is_no_perfect_matching(monkeypatch):
    # every pair at one half meets each point's row, but matches nothing
    class Halves:
        def getSolution(self):
            return types.SimpleNamespace(col_value=[0.5] * 15)

    monkeypatch.setattr(candidates, "run_highs", lambda *args: Halves())
    pts = [1, 2, 3, 4, 5, 6]
    dist = {(a, b): 1.0 for a in pts for b in pts if a < b}
    with pytest.raises(LpError, match=r"^pairing MIP on points \[1, 2, 3, 4, 5, 6\] returned no perfect matching"):
        min_perfect_matching(pts, dist)


def test_tjoin_empty():
    inst = parse_instance("2 1 1\n1 2 1 0\n")
    assert min_tjoin(inst, []) == {}


def test_tjoin_path_endpoints():
    inst = parse_instance("3 2 1\n1 2 1 0\n2 3 1 0\n")
    join = min_tjoin(inst, [0, 2])
    assert join == {(0, 1): 1, (1, 2): 1}


def test_tjoin_four_cycle_opposite():
    inst = parse_instance("4 4 1\n1 2 1 0\n2 3 1 0\n3 4 1 0\n1 4 1 0\n")
    join = min_tjoin(inst, [0, 2])
    lengths = {ekey(e.u, e.v): e.length for e in inst.edges}
    assert sum(m * lengths[k] for k, m in join.items()) == pytest.approx(2.0)
    assert odd_vertices(join) == frozenset({0, 2})


def brute_force_tjoin(inst, targets):
    """Exhaustive minimum over all edge subsets (multiplicity one suffices)."""
    lengths = [e.length for e in inst.edges]
    best = None
    target = frozenset(targets)
    for mask in itertools.product((0, 1), repeat=len(inst.edges)):
        m = Counter({ekey(e.u, e.v): 1 for i, e in enumerate(inst.edges) if mask[i]})
        if odd_vertices(m) != target:
            continue
        cost = sum(lengths[i] for i in range(len(lengths)) if mask[i])
        if best is None or cost < best:
            best = cost
    return best


def test_tjoin_matches_brute_force():
    rng = random.Random(41)
    lengths_of = lambda inst: {ekey(e.u, e.v): e.length for e in inst.edges}
    trials = 0
    suite = random_suite(60, base_seed=7100, max_n=5, max_m=8)
    for inst in suite:
        if len(inst.edges) > 8:
            continue
        verts = list(range(inst.vertex_count))
        even = [v for v in verts]
        rng.shuffle(even)
        size = rng.choice([0, 2, 2, 4]) if len(even) >= 4 else (2 if len(even) >= 2 else 0)
        targets = sorted(even[:size])
        want = brute_force_tjoin(inst, targets)
        if want is None:
            continue
        join = min_tjoin(inst, targets)
        assert odd_vertices(join) == frozenset(targets)
        lengths = lengths_of(inst)
        assert sum(m * lengths[k] for k, m in join.items()) == pytest.approx(want, abs=1e-9)
        trials += 1
    assert trials >= 40


def test_tjoin_below_fractional_relaxation():
    # any feasible fractional cut-covering solution costs at least the join
    import numpy as np
    from scipy.optimize import linprog

    rng = random.Random(47)
    for inst in random_suite(12, base_seed=7200, max_n=5, max_m=7):
        verts = list(range(inst.vertex_count))
        if len(verts) < 2:
            continue
        targets = sorted(rng.sample(verts, 2))
        join = min_tjoin(inst, targets)
        lengths = {ekey(e.u, e.v): e.length for e in inst.edges}
        join_cost = sum(m * lengths[k] for k, m in join.items())
        keys = sorted(lengths)
        rows, rhs = [], []
        for size in range(1, len(verts)):
            for sub in itertools.combinations(verts, size):
                side = set(sub)
                if len(side & set(targets)) % 2 == 1:
                    row = np.zeros(len(keys))
                    for i, k in enumerate(keys):
                        if (k[0] in side) != (k[1] in side):
                            row[i] = -1.0
                    rows.append(row)
                    rhs.append(-1.0)
        res = linprog(
            np.array([lengths[k] for k in keys]),
            A_ub=np.array(rows),
            b_ub=np.array(rhs),
            bounds=[(0, None)] * len(keys),
            method="highs",
        )
        assert res.success
        assert join_cost <= res.fun + 1e-6


def test_build_candidate_trivial(barrier):
    pg = preprocess(barrier)
    cand = build_candidate(barrier, pg, frozenset(), ("trivial",))
    assert cand.walk.vertices == (0,)
    assert cand.value == pytest.approx(barrier.total_profit)


def test_build_candidate_single_positive(single_pos):
    pg = preprocess(single_pos)
    core = frozenset({(0, 2), (1, 2)})  # tether + positive edge
    cand = build_candidate(single_pos, pg, core, (1.0, 0, 1.0))
    assert cand.walk.vertices == (0, 1, 0)
    assert cand.value == pytest.approx(2.0)


def test_build_candidate_barrier_tree(barrier):
    pg = preprocess(barrier)
    core = frozenset({(0, 1), (1, 2)})  # path r - a plus profit edge
    cand = build_candidate(barrier, pg, core, (1.0, 0, 1.0))
    assert cand.value == pytest.approx(2.1)
    assert odd_vertices(cand.walk.edge_multiset()) == frozenset()


def test_build_candidate_rejects_a_core_off_the_root(single_pos, monkeypatch):
    monkeypatch.setattr(candidates, "connected_to", lambda counts, root: False)
    pg = preprocess(single_pos)
    with pytest.raises(AssertionError, match="^restored core is disconnected from the root$"):
        build_candidate(single_pos, pg, frozenset({(0, 2), (1, 2)}), (1.0, 0, 1.0))


def test_build_candidate_rejects_a_join_that_leaves_odd_vertices(single_pos, monkeypatch):
    # the restored edge (0, 1) leaves both ends odd; an empty join corrects neither
    monkeypatch.setattr(candidates, "min_tjoin", lambda inst, targets, sp_cache=None: Counter())
    pg = preprocess(single_pos)
    with pytest.raises(AssertionError, match="^parity correction left an odd vertex$"):
        build_candidate(single_pos, pg, frozenset({(0, 2), (1, 2)}), (1.0, 0, 1.0))


def test_candidate_walks_are_valid_random():
    from pcrpp.core import check_walk

    for inst in random_suite(15, base_seed=7300):
        pg = preprocess(inst)
        keys = sorted(pg.lengths)
        edges = set()
        seen = {pg.root}
        for u, v in keys:
            if (u in seen) != (v in seen):
                edges.add((u, v))
                seen.update((u, v))
        x = {k: 1.0 for k in edges}
        core = edge_profit_core(frozenset(edges), x, 0.5, pg)
        cand = build_candidate(inst, pg, core, ("t",))
        check_walk(inst, cand.walk)
        assert odd_vertices(cand.walk.edge_multiset()) == frozenset()


def test_build_candidate_disconnected_join_fallback(monkeypatch):
    # positive root edge r-a (moved to the copy 5 by preprocessing) and a
    # triangle 2-3-4 hanging off a; a join with the right parity plus the
    # detached triangle forces the uncancelled path fallback
    inst = parse_instance("5 5 1\n1 2 1 5\n2 3 1 0\n3 4 1 0\n4 5 1 0\n3 5 1 0\n")
    pg = preprocess(inst)
    core = frozenset({(0, 5), (1, 5)})  # tether + positive edge
    want = build_candidate(inst, pg, core, ("t",))
    calls = []

    def detached_join(inst, targets, sp_cache=None):
        calls.append(sorted(targets))
        return Counter([(0, 1), (2, 3), (3, 4), (2, 4)])

    monkeypatch.setattr(candidates, "min_tjoin", detached_join)
    got = build_candidate(inst, pg, core, ("t",))
    assert calls == [[0, 1]]
    assert got.walk == want.walk == Walk((0, 1, 0))
    assert got.value == want.value == 2.0
