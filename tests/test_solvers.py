import pytest

from pcrpp import solvers
from pcrpp.core import Instance, Walk, objective
from pcrpp.solvers import (
    CheckError,
    best_of_many,
    exact_oracle,
    pctsp_reduction,
    pctsp_solve_exact,
)
from pcrpp.treedecomp import TreeDistribution
from conftest import FRACTIONAL_INSTANCES, random_suite


def test_oracle_barrier(barrier):
    sol = exact_oracle(barrier)
    assert sol.value == pytest.approx(1.3)
    assert sol.walk.vertices == (0,)


def test_oracle_single_positive(single_pos):
    # doubling the one edge wins: 2 < 5
    sol = exact_oracle(single_pos)
    assert sol.value == pytest.approx(2.0)
    assert sol.walk.vertices == (0, 1, 0)


def test_oracle_zero_profit(zero_profit):
    assert exact_oracle(zero_profit).value == 0.0


def test_oracle_edgeless_instance():
    sol = exact_oracle(Instance(1, 0, ()))
    assert sol.value == 0.0 and sol.lower_bound == 0.0
    assert sol.walk == Walk.trivial(0)


def test_pctsp_exact_empty():
    assert pctsp_solve_exact([], {}, {}, 0) == []


def test_pctsp_exact_visit_cheap_representative():
    # tour 1.2 beats the penalty 1.3
    assert pctsp_solve_exact([5], {(0, 5): 0.6}, {5: 1.3}, 0) == [5]


def test_pctsp_exact_skip_expensive_representative():
    assert pctsp_solve_exact([5], {(0, 5): 0.7}, {5: 1.3}, 0) == []


def test_pctsp_exact_cap():
    nodes = list(range(1, 15))
    with pytest.raises(ValueError, match="cap"):
        pctsp_solve_exact(nodes, {}, {}, 0, cap=12)


def test_reduction_barrier(barrier):
    # the reduced instance visits the representative, so the walk pays 2.1
    sol = pctsp_reduction(barrier)
    assert sol.value == pytest.approx(2.1)
    assert sol.walk.vertices == (0, 1, 2, 0)
    assert sol.stats["exact"] is True


def test_reduction_no_positive(zero_profit):
    sol = pctsp_reduction(zero_profit)
    assert sol.value == 0.0
    assert sol.walk.vertices == (0,)


def test_reduction_single_positive(single_pos):
    sol = pctsp_reduction(single_pos)
    assert sol.value == pytest.approx(2.0)
    assert sol.walk.vertices == (0, 1, 0)


def test_reduction_greedy_fallback():
    # cap=1 sends every instance with two or more positive edges to the
    # greedy PCTSP.  Its walk need not be worse than the exact one (on frac1
    # it is 45 against 48): the stitched walk's value is not the PCTSP tour
    # value the exact solver minimizes.
    instances = list(FRACTIONAL_INSTANCES) + [
        inst for inst in random_suite(12, base_seed=1000) if sum(e.profit > 0.0 for e in inst.edges) >= 2
    ]
    assert len(instances) >= 5
    for inst in instances:
        sol = pctsp_reduction(inst, cap=1)
        assert sol.stats["exact"] is False
        assert sol.walk.vertices[0] == sol.walk.vertices[-1] == inst.root
        assert objective(inst, sol.walk) == sol.value
        assert exact_oracle(inst).value - 1e-9 <= sol.value


def test_reduction_propagates_exact_solver_errors(barrier, monkeypatch):
    # within the cap the exact solver runs, and its errors are not taken
    # as a signal to fall back to the greedy PCTSP
    def broken(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(solvers, "pctsp_solve_exact", broken)
    with pytest.raises(ValueError, match="boom"):
        pctsp_reduction(barrier)


def test_best_of_many_barrier(barrier):
    sol = best_of_many(barrier)
    assert sol.value == pytest.approx(1.3)
    assert sol.walk.vertices == (0,)
    assert sol.lower_bound == pytest.approx(1.3, abs=1e-9)


def test_best_of_many_single_positive(single_pos):
    sol = best_of_many(single_pos)
    assert sol.value == pytest.approx(2.0)
    assert sol.walk.vertices == (0, 1, 0)


def test_best_of_many_zero_profit(zero_profit):
    sol = best_of_many(zero_profit)
    assert sol.value == 0.0
    assert sol.walk.vertices == (0,)


def test_best_of_many_single_vertex():
    # no vertex but the root: the LP has no y columns and the walk stays home
    sol = best_of_many(Instance(1, 0, ()))
    assert sol.value == 0.0 and sol.lower_bound == 0.0
    assert sol.walk == Walk.trivial(0)


def test_best_of_many_deterministic():
    for inst in FRACTIONAL_INSTANCES:
        a = best_of_many(inst)
        b = best_of_many(inst)
        assert a.value == b.value
        assert a.walk == b.walk
        assert a.stats["best"] == b.stats["best"]


def test_sandwich_sample():
    for inst in random_suite(30, base_seed=8000):
        sol = best_of_many(inst)
        opt = exact_oracle(inst).value
        assert sol.lower_bound <= opt + 1e-6
        assert opt <= sol.value + 1e-6
        assert sol.value <= 1.6 * sol.lower_bound + 1e-6
        assert sol.value <= inst.total_profit + 1e-9  # trivial walk included


def test_reduction_within_twice_optimal_sample():
    for inst in random_suite(30, base_seed=8100):
        red = pctsp_reduction(inst)
        opt = exact_oracle(inst).value
        assert red.value <= 2.0 * opt + 1e-6


def test_fractional_instances_full_pipeline():
    for inst in FRACTIONAL_INSTANCES:
        sol = best_of_many(inst)
        opt = exact_oracle(inst).value
        assert sol.lower_bound <= opt + 1e-6
        assert opt <= sol.value + 1e-6
        assert sol.value <= 1.6 * sol.lower_bound + 1e-6
        assert sol.stats["candidates"] > 1


class _NoWeight(TreeDistribution):
    total_weight = 0.5


class _NoEdges(TreeDistribution):
    def edge_marginals(self):
        return {}


class _NoVertices(TreeDistribution):
    def vertex_marginals(self, root):
        return {root: 1.0}


class _TooLong(TreeDistribution):
    def expected_length(self, length_of):
        return 1e9


@pytest.mark.parametrize(
    "skew, check",
    [
        (_NoWeight, r"tree weight check failed at stage 0\.\d+ \(tolerance 1e-06\): weights sum"
         r" to 0\.5, off by -0\.5$"),
        (_NoEdges, r"edge marginal check failed at stage .*: 0\.0 on positive edge \(\d+, \d+\)"
         r" against x .*, off by -"),
        (_NoVertices, r"vertex marginal check failed at stage .*: 0\.0 at vertex \d+ against y .*,"
         r" off by -"),
        (_TooLong, r"tree length check failed at stage .*: expected length 1000000000\.0 exceeds"
         r" the vector length .* by "),
    ],
)
def test_stage_check_failures_are_typed(monkeypatch, skew, check):
    # each branch of the stage check, reached through a skewed projection
    real = solvers.project_to_hat

    def skewed(dist, pg):
        ghat = real(dist, pg)
        return skew(ghat.trees, ghat.weights)

    monkeypatch.setattr(solvers, "project_to_hat", skewed)
    with pytest.raises(CheckError, match=check):
        best_of_many(FRACTIONAL_INSTANCES[0])


def test_ratio_bound_failure_is_typed(monkeypatch):
    sol = best_of_many(FRACTIONAL_INSTANCES[0])
    monkeypatch.setattr(solvers, "RATIO_BOUND", 0.5)
    bound = 0.5 * sol.lower_bound + 1e-6
    with pytest.raises(CheckError) as info:
        best_of_many(FRACTIONAL_INSTANCES[0])
    assert str(info.value) == (
        f"ratio bound check failed in finish: value {sol.value} exceeds"
        f" 0.5 x LB {sol.lower_bound} + 1e-06 = {bound} by {sol.value - bound}"
    )
