from types import SimpleNamespace

import pytest

from pcrpp.core import ekey, endpoints, parse_instance
from pcrpp.lp import LpSolution, solve_pcrpp_lp
from pcrpp.preprocess import preprocess
from pcrpp.solvers import _check_stage
from pcrpp.splitoff import SplitOp, SplitRecorder
from pcrpp.treedecomp import (
    WEIGHT_FLOOR,
    DecompositionError,
    TreeDistribution,
    _undo_step,
    project_to_hat,
    stage_distribution,
)
from conftest import FRACTIONAL_INSTANCES, random_suite, rnd37_point
from oracles import apply_threshold_split, check_pctsp_feasible, decompose_by_lp, lift_to_aux


def fresh_distribution(pg, x, y):
    """Tree distribution of (x, y) built from a recorder of its own."""
    return stage_distribution(SplitRecorder(pg, LpSolution(x, y, 0.0)), 0)


def chord(pg):
    """The chord between the root and its copy, vertex ``pg.vertex_count``."""
    return ekey(pg.root, pg.vertex_count)


def test_lift_zero_vector(single_pos):
    pg = preprocess(single_pos)
    x = {k: 0.0 for k in pg.lengths}
    y = {v: 0.0 for v in range(pg.vertex_count) if v != pg.root}
    y[pg.root] = 1.0
    xbar, ybar = lift_to_aux(x, y, pg)
    assert xbar[chord(pg)] == pytest.approx(2.0)
    assert all(v == 0.0 for k, v in xbar.items() if k != chord(pg))
    assert ybar[pg.vertex_count] == 1.0


def test_lift_unit_cycle(single_pos):
    # relaxation optimum of the single-positive-edge instance is the unit
    # cycle r - copy - a - r; the lift halves both root edges
    pg = preprocess(single_pos)
    sol, _ = solve_pcrpp_lp(pg)
    xbar, ybar = lift_to_aux(sol.x, sol.y, pg)
    copy = pg.vertex_count
    assert xbar[ekey(0, 2)] == pytest.approx(0.5)
    assert xbar[ekey(copy, 2)] == pytest.approx(0.5)
    assert xbar[ekey(0, 1)] == pytest.approx(0.5)
    assert xbar[ekey(copy, 1)] == pytest.approx(0.5)
    assert xbar[ekey(1, 2)] == pytest.approx(1.0)
    assert xbar[chord(pg)] == pytest.approx(1.0)
    check_pctsp_feasible(xbar, ybar, pg.root, copy)


def test_lift_doubled_root_edge(zero_profit):
    pg = preprocess(zero_profit)
    x = {k: 0.0 for k in pg.lengths}
    x[(0, 1)] = 2.0
    y = {v: 0.0 for v in range(pg.vertex_count) if v != pg.root}
    y[pg.root] = 1.0
    y[1] = 1.0
    xbar, ybar = lift_to_aux(x, y, pg)
    assert xbar[ekey(0, 1)] == pytest.approx(1.0)
    assert xbar[ekey(pg.vertex_count, 1)] == pytest.approx(1.0)
    assert xbar[chord(pg)] == pytest.approx(1.0)


def test_lift_rejects_infeasible(single_pos):
    pg = preprocess(single_pos)
    x = {k: 0.0 for k in pg.lengths}
    x[(1, 2)] = 1.0  # positive edge carried without any root connection
    y = {v: 1.0 for v in range(pg.vertex_count)}
    with pytest.raises(ValueError):
        lift_to_aux(x, y, pg)


def test_decompose_chord_only_cases(single_pos):
    # the zero vector and the boundary past every vertex both leave the
    # whole chord mass on the two-vertex chord tree
    pg = preprocess(single_pos)
    zero = {v: 0.0 for v in range(pg.vertex_count)}
    zero[pg.root] = 1.0
    dist = fresh_distribution(pg, {k: 0.0 for k in pg.lengths}, zero)
    assert dist.trees == (frozenset({chord(pg)}),)
    assert dist.weights == (1.0,)
    assert project_to_hat(dist, pg).trees[0] == frozenset()

    sol, _ = solve_pcrpp_lp(pg)
    recorder = SplitRecorder(pg, sol)
    dist = stage_distribution(recorder, len(recorder.groups))
    assert dist.trees == (frozenset({chord(pg)}),)
    assert dist.weights[0] == pytest.approx(1.0)


def test_decompose_lifted_cycle_marginals(single_pos):
    pg = preprocess(single_pos)
    sol, _ = solve_pcrpp_lp(pg)
    xbar, ybar = lift_to_aux(sol.x, sol.y, pg)
    dist = fresh_distribution(pg, sol.x, sol.y)
    marg = dist.edge_marginals()
    for key, val in xbar.items():
        want = val - (1.0 if key == chord(pg) else 0.0)
        assert marg.get(key, 0.0) == pytest.approx(want, abs=1e-6)
    vmarg = dist.vertex_marginals(pg.root)
    for v, val in ybar.items():
        if v in (pg.root, pg.vertex_count):
            continue
        assert vmarg.get(v, 0.0) == pytest.approx(val, abs=1e-6)


def test_decompose_matches_lp_oracle(single_pos):
    # both the production construction and the marginal solve must meet the
    # same contract; neither output is canonical
    pg = preprocess(single_pos)
    sol, _ = solve_pcrpp_lp(pg)
    xbar, ybar = lift_to_aux(sol.x, sol.y, pg)
    built = fresh_distribution(pg, sol.x, sol.y)
    solved = decompose_by_lp(xbar, ybar, pg.root, pg.vertex_count)
    for dist in (built, solved):
        marg = dist.edge_marginals()
        for key, val in xbar.items():
            want = val - (1.0 if key == chord(pg) else 0.0)
            assert marg.get(key, 0.0) == pytest.approx(want, abs=1e-6)
        assert dist.total_weight == pytest.approx(1.0, abs=1e-9)


def test_project_identity_and_chord(single_pos):
    pg = preprocess(single_pos)
    bare = TreeDistribution((frozenset(),), (1.0,))
    assert project_to_hat(bare, pg).trees[0] == frozenset()
    chord_only = TreeDistribution((frozenset({chord(pg)}),), (1.0,))
    assert project_to_hat(chord_only, pg).trees[0] == frozenset()


def test_project_merges_and_deletes_longest_root_edge(single_pos):
    # tree r-copy2, copy2-a, a-rcopy merges into a triangle at the root;
    # the longer zero-profit root edge r-a goes, keeping the positive edge
    pg = preprocess(single_pos)
    tree = frozenset({ekey(0, 2), ekey(2, 1), ekey(1, pg.vertex_count)})
    out = project_to_hat(TreeDistribution((tree,), (1.0,)), pg)
    assert out.trees[0] == frozenset({ekey(0, 2), ekey(2, 1)})


def projected(pg, *edges):
    return project_to_hat(TreeDistribution((frozenset(edges),), (1.0,)), pg).trees[0]


def test_project_tie_drops_the_root_edge_to_the_smaller_id():
    # unit triangle 0-1-2 with copy 3: both root ends of the path have length
    # 1, so r-1 goes whichever end of the path it sits at
    pg = preprocess(parse_instance("3 3 1\n1 2 1 0\n2 3 1 0\n1 3 1 0\n"))
    assert pg.lengths[(0, 1)] == pg.lengths[(0, 2)] == 1.0 and pg.vertex_count == 3
    assert projected(pg, (0, 1), (1, 2), (2, 3)) == frozenset({(0, 2), (1, 2)})
    assert projected(pg, (0, 2), (1, 2), (1, 3)) == frozenset({(0, 2), (1, 2)})


def test_project_root_a_copy_path_keeps_its_merged_edge(zero_profit):
    # r-a-copy merges both edges into r-a: no cycle, nothing dropped
    pg = preprocess(zero_profit)
    assert pg.vertex_count == 3
    assert projected(pg, (0, 1), (1, 3)) == frozenset({(0, 1)})


def test_project_rejects_an_edge_set_that_is_not_a_tree(zero_profit):
    pg = preprocess(zero_profit)
    with pytest.raises(DecompositionError, match="not a tree"):
        projected(pg, (0, 1), (1, 2), (0, 2))


def test_distribution_contract_on_fractional_instances():
    for inst in FRACTIONAL_INSTANCES:
        pg = preprocess(inst)
        sol, _ = solve_pcrpp_lp(pg)
        recorder = SplitRecorder(pg, sol)
        for delta in recorder.thresholds:
            boundary = recorder.boundary(delta)
            xt = recorder.state(boundary)
            yt = {
                v: (val if v == pg.root or val >= delta else 0.0)
                for v, val in sol.y.items()
            }
            ghat = project_to_hat(stage_distribution(recorder, boundary), pg)
            assert ghat.total_weight == pytest.approx(1.0, abs=1e-9)
            marg = ghat.edge_marginals()
            for key in pg.pos_edges:
                assert marg.get(key, 0.0) == pytest.approx(xt.get(key, 0.0), abs=1e-6)
            vmarg = ghat.vertex_marginals(pg.root)
            for v, val in yt.items():
                if v != pg.root:
                    assert vmarg.get(v, 0.0) == pytest.approx(val, abs=1e-6)
            expect = ghat.expected_length(lambda k: pg.lengths[k])
            budget = sum(pg.lengths[k] * v for k, v in xt.items())
            assert expect <= budget + 1e-6
            for tree in ghat.trees:
                verts = endpoints(tree) | {pg.root}
                for key in pg.pos_edges:
                    inside = key in tree
                    assert inside == (key[0] in verts) == (key[1] in verts)


def test_shared_trace_equals_fresh_decomposition():
    instances = list(FRACTIONAL_INSTANCES) + random_suite(10, base_seed=6000, max_n=5, max_m=7)
    for inst in instances:
        pg = preprocess(inst)
        sol, _ = solve_pcrpp_lp(pg)
        recorder = SplitRecorder(pg, sol)
        for delta in recorder.thresholds:
            xt, yt, _ = apply_threshold_split(sol, delta, pg, recorder=recorder)
            fresh = fresh_distribution(pg, xt, yt)
            replay = stage_distribution(recorder, recorder.boundary(delta))
            assert replay.trees == fresh.trees
            assert replay.weights == fresh.weights


def test_support_size_bound():
    for inst in FRACTIONAL_INSTANCES:
        pg = preprocess(inst)
        sol, _ = solve_pcrpp_lp(pg)
        recorder = SplitRecorder(pg, sol)
        dist = stage_distribution(recorder, 0)
        assert len(dist.trees) <= 2 * len(recorder.ops) + pg.vertex_count + 2


def test_rnd37_point_splits_exactly_and_every_stage_checks():
    # split amounts 2.3e-10 past the exact ones leave chord mass 2 - 2^-32
    # and trees of weight 2^-33 that break the coupling on (3, 8)
    inst, sol = rnd37_point()
    pg = preprocess(inst)
    recorder = SplitRecorder(pg, sol)
    assert recorder.chord == 2.0
    assert recorder.thresholds == [0.25, 1.0]
    for delta in recorder.thresholds:
        boundary = recorder.boundary(delta)
        xt = recorder.state(boundary)
        yt = {v: (val if v == pg.root or val >= delta else 0.0) for v, val in sol.y.items()}
        ghat = project_to_hat(stage_distribution(recorder, boundary), pg)
        _check_stage(ghat, xt, yt, pg, delta)


def test_undo_rejects_a_chord_in_no_tree():
    op = SplitOp(1, 2, 3, 0.5)
    trees = [[1.0, frozenset({(0, 1)})]]
    with pytest.raises(DecompositionError) as err:
        _undo_step(trees, op, 0)
    assert str(err.value) == f"chord (2, 3) carries too little tree mass while undoing {op}"


def test_undo_rejects_a_pendant_with_no_host():
    # the one tree holds the chord and vertex 1: it swaps the chord for (1, 3)
    # and books (1, 2) as a pendant, but every tree then holds vertex 1
    op = SplitOp(1, 2, 3, 0.5)
    trees = [[1.0, frozenset({(0, 2), (0, 1), (2, 3)})]]
    with pytest.raises(DecompositionError) as err:
        _undo_step(trees, op, 0)
    assert str(err.value) == f"no host tree for pendant (1, 2) while undoing {op}"


def test_undo_hosts_a_root_anchored_pendant_on_the_root_only_tree():
    # undoing the root pair half (0, 2) at vertex 1 swaps the chord for (1, 2)
    # in the tree holding vertex 1 and books (0, 1) as a pendant at the root;
    # the root-only tree holds the root though none of its edges does
    op = SplitOp(1, 0, 2, 0.5)
    trees = [[0.5, frozenset({(0, 1), (0, 2)})], [0.5, frozenset()]]
    _undo_step(trees, op, 0)
    assert trees == [
        [0.5, frozenset({(0, 1), (1, 2)})],
        [0.5, frozenset({(0, 1)})],
    ]


def test_undo_skips_a_host_that_misses_the_anchor():
    # the pendant (1, 2) is anchored at 2: the tree {(0, 3)} misses both 1 and
    # 2 and is passed over, the next tree {(0, 2)} hosts it
    op = SplitOp(1, 2, 3, 0.4)
    trees = [
        [0.4, frozenset({(0, 2), (0, 1), (2, 3)})],
        [0.2, frozenset({(0, 3)})],
        [0.4, frozenset({(0, 2)})],
    ]
    _undo_step(trees, op, 0)
    assert trees == [
        [0.2, frozenset({(0, 3)})],
        [0.4, frozenset({(0, 2), (0, 1), (1, 3)})],
        [0.4, frozenset({(0, 2), (1, 2)})],
    ]


def test_undo_compacts_a_list_past_4096_trees():
    # 4,096 copies of one chord tree and a tree at the weight floor: the first
    # copy gives a quarter of its weight to a detour tree, which makes 4,098
    # entries, so the list is merged by edge set and the light tree dropped
    op = SplitOp(1, 2, 3, 2.0 ** -14)
    chord_tree = frozenset({(0, 2), (2, 3)})
    trees = [[WEIGHT_FLOOR, frozenset({(0, 4)})]] + [[2.0 ** -12, chord_tree] for _ in range(4096)]
    _undo_step(trees, op, 0)
    assert trees == [
        [1.0 - 2.0 ** -14, chord_tree],
        [2.0 ** -14, frozenset({(0, 2), (1, 2), (1, 3)})],
    ]


def test_stage_distribution_rejects_weights_off_one():
    # a stand-in recorder whose pass ends with chord mass 1.5 and no operations
    recorder = SimpleNamespace(root=0, copy=3, chord=1.5, ops=[], prefix=[0])
    with pytest.raises(DecompositionError, match=r"^tree weights sum to 0\.5$"):
        stage_distribution(recorder, 0)


def test_project_skips_trees_at_the_weight_floor(single_pos):
    # the light tree would break the coupling on (1, 2), but a weight at the
    # floor leaves it out before any check
    pg = preprocess(single_pos)
    dist = TreeDistribution(trees=(frozenset({(0, 1)}), frozenset()), weights=(WEIGHT_FLOOR, 1.0))
    out = project_to_hat(dist, pg)
    assert (out.trees, out.weights) == ((frozenset(),), (1.0,))


def test_project_rejects_a_tree_that_breaks_the_coupling(single_pos):
    # the tree reaches vertex 1 of the positive edge (1, 2) without the edge
    pg = preprocess(single_pos)
    assert pg.pos_edges == {(1, 2)}
    dist = TreeDistribution(trees=(frozenset({(0, 1)}),), weights=(1.0,))
    with pytest.raises(DecompositionError, match=r"^coupling violated on \(1, 2\)$"):
        project_to_hat(dist, pg)
