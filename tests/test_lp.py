import random

import numpy as np
import pytest

from pcrpp.core import parse_instance
from pcrpp.lp import (
    PairArrays,
    _price_variables,
    check_lp_solution,
    initial_variables,
    max_flow_min_cut,
    separate_cuts,
    solve_pcrpp_lp,
    write_lp_text,
)
from pcrpp.preprocess import preprocess
from pcrpp.solvers import exact_oracle
from conftest import FRACTIONAL_INSTANCES, dense_lp_value, random_suite


def test_max_flow_two_vertices():
    value, side = max_flow_min_cut({(0, 1): 3.0}, 0, 1)
    assert value == pytest.approx(3.0)
    assert side == frozenset({0})


def test_max_flow_bottleneck_path():
    value, side = max_flow_min_cut({(0, 1): 2.0, (1, 2): 1.0}, 0, 2)
    assert value == pytest.approx(1.0)
    assert side in (frozenset({0}), frozenset({0, 1}))
    assert 0 in side and 2 not in side


def test_max_flow_barrier_cut():
    # x on the barrier triangle; the two cuts separating a from r have
    # values 2 ({a}) and 2 ({a,b}), so the flow is 2
    caps = {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}
    value, side = max_flow_min_cut(caps, 1, 0)
    assert value == pytest.approx(2.0)
    assert 1 in side and 0 not in side


def test_solve_barrier(barrier):
    pg = preprocess(barrier)
    sol, cert = solve_pcrpp_lp(pg)
    assert sol.objective == pytest.approx(1.3, abs=1e-9)
    assert max(abs(v) for v in sol.x.values()) <= 1e-7
    assert sol.y[1] == 0.0 and sol.y[2] == 0.0
    check_lp_solution(pg, sol)
    assert sol.objective == pytest.approx(dense_lp_value(pg), abs=1e-7)


def test_solve_single_positive(single_pos):
    # objective 5 - 3t over the coupled variable, optimal at t = 1
    pg = preprocess(single_pos)
    sol, _ = solve_pcrpp_lp(pg)
    assert sol.objective == pytest.approx(2.0, abs=1e-9)
    assert sol.x[(1, 2)] == pytest.approx(1.0)
    assert sol.x[(0, 2)] == pytest.approx(1.0)
    assert sol.x[(0, 1)] == pytest.approx(1.0)
    assert sol.objective == pytest.approx(dense_lp_value(pg), abs=1e-7)


def test_solve_zero_profit(zero_profit):
    pg = preprocess(zero_profit)
    sol, _ = solve_pcrpp_lp(pg)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert max(abs(v) for v in sol.x.values()) <= 1e-9


def test_separation_zero_vector_violates():
    inst = parse_instance("3 3 1\n1 2 1 0\n2 3 1 0\n1 3 1 0\n")
    pg = preprocess(inst)
    x = {k: 0.0 for k in pg.lengths}
    cuts = separate_cuts(pg, x, {0: 1.0, 1: 0.5, 2: 0.0})
    assert cuts == [(frozenset({1}), 1)]


def test_separation_feasible_empty(barrier):
    pg = preprocess(barrier)
    sol, _ = solve_pcrpp_lp(pg)
    assert separate_cuts(pg, sol.x, sol.y) == []


def test_separation_no_demand(barrier):
    pg = preprocess(barrier)
    x = {k: 0.0 for k in pg.lengths}
    assert separate_cuts(pg, x, {0: 1.0, 1: 0.0, 2: 0.0}) == []


def test_matches_dense_lp_on_random_instances():
    for inst in random_suite(25, base_seed=4000, max_n=5, max_m=7):
        pg = preprocess(inst)
        sol, _ = solve_pcrpp_lp(pg)
        assert sol.objective == pytest.approx(dense_lp_value(pg), abs=1e-6)
        check_lp_solution(pg, sol)


def test_lower_bounds_oracle_on_random_instances():
    for inst in random_suite(40, base_seed=4100):
        pg = preprocess(inst)
        sol, _ = solve_pcrpp_lp(pg)
        opt = exact_oracle(inst).value
        assert sol.objective <= opt + 1e-6


def test_objective_invariant_under_vertex_permutation():
    rng = random.Random(77)
    for inst in random_suite(8, base_seed=4200, max_n=5, max_m=7):
        base = solve_pcrpp_lp(preprocess(inst))[0].objective
        perm = list(range(inst.vertex_count))
        rng.shuffle(perm)
        from pcrpp.core import Edge, Instance

        permuted = Instance(
            inst.vertex_count,
            perm[inst.root],
            tuple(
                Edge(min(perm[e.u], perm[e.v]), max(perm[e.u], perm[e.v]), e.length, e.profit)
                for e in inst.edges
            ),
        )
        other = solve_pcrpp_lp(preprocess(permuted))[0].objective
        assert other == pytest.approx(base, abs=1e-6)


def test_round_cap_reports_nonconvergence():
    from pcrpp.lp import LpError
    from conftest import FRACTIONAL_INSTANCES

    pg = preprocess(FRACTIONAL_INSTANCES[0])
    with pytest.raises(LpError, match="did not converge"):
        solve_pcrpp_lp(pg, max_rounds=1)


def test_lp_text_dump(barrier):
    pg = preprocess(barrier)
    _, cert = solve_pcrpp_lp(pg)
    text = write_lp_text(pg, cert)
    assert text.startswith("Minimize")
    assert "Subject To" in text and "Bounds" in text and text.rstrip().endswith("End")

    # one cut row per recorded cut, listing exactly the pairs across its side
    frac = preprocess(FRACTIONAL_INSTANCES[0])
    _, cert = solve_pcrpp_lp(frac)
    rows = [
        line for line in write_lp_text(frac, cert).splitlines() if line.startswith(" cut_")
    ]
    assert cert.cuts and len(rows) == len(cert.cuts)
    n = frac.vertex_count
    for i, ((side, wit, _), line) in enumerate(zip(cert.cuts, rows)):
        body = " + ".join(
            f"x_{u}_{v}"
            for u in range(n)
            for v in range(u + 1, n)
            if (u in side) != (v in side)
        )
        assert line == f" cut_{i}: {body} - 2 y_{wit} >= 0"


def _price_oracle(pg, active, sides, mu, rho, cut_duals, tol):
    """Per-pair scalar pricing: omitted zero-profit pairs with rc below -tol."""
    root = pg.root
    active_set = set(active)
    added = []
    for u in range(pg.vertex_count):
        for v in range(u + 1, pg.vertex_count):
            key = (u, v)
            if key in active_set or key in pg.pos_edges:
                continue
            rc = pg.lengths[key]
            if u != root:
                rc -= mu[u]
            if v != root:
                rc -= mu[v]
            if root in key:
                rc -= rho
            for side, dual in zip(sides, cut_duals):
                if (u in side) != (v in side):
                    rc += dual
            if rc < -tol:
                added.append(key)
    return added


def test_pricing_matches_scalar_oracle():
    # integer lengths with half-integer degree duals put many reduced costs at
    # or near zero, where the tiny cut duals decide the sign
    rng = random.Random(4400)
    dual_choices = (0.0, 0.0, -0.0, -1.0, -0.5, 1e-7, -1e-7, 3e-8, -2e-7, 0.25)
    nonempty = empty = 0
    for inst in random_suite(40, base_seed=4400, max_n=7, max_m=12):
        pg = preprocess(inst)
        n = pg.vertex_count
        if n < 2:
            continue
        pairs = PairArrays.of(pg)
        for _ in range(5):
            # the solver always keeps the root pairs active; a random subset
            # without them also exercises the root dual
            active = {k for k in pg.lengths if rng.random() < 0.3}
            if rng.random() < 0.5:
                active.update(initial_variables(pg))
            active = sorted(active)
            mask = np.zeros(len(pairs.u), dtype=bool)
            mask[pairs.index(active)] = True
            mu = {v: rng.choice((0.0, 0.5, 1.0, 2.5, -1.0, 1e-7)) for v in range(n)}
            mu[pg.root] = 0.0
            rho = rng.choice((0.0, -1.0, -0.5, -1e-7, 1.0))
            sides = [
                frozenset(v for v in range(n) if v != pg.root and rng.random() < 0.5)
                for _ in range(rng.randrange(0, 12))
            ]
            cut_duals = np.array([rng.choice(dual_choices) for _ in sides])
            crossing = np.array(
                [pairs.crossing(side) for side in sides], dtype=bool
            ).reshape(len(sides), len(pairs.u))
            mu_arr = np.array([mu[v] for v in range(n)])
            got = _price_variables(pairs, mask, crossing, mu_arr, rho, cut_duals, 1e-7)
            want = _price_oracle(pg, active, sides, mu, rho, cut_duals, 1e-7)
            assert got == want
            assert all(type(a) is int and type(b) is int for a, b in got)
            nonempty += bool(want)
            empty += not want
    assert nonempty >= 20 and empty >= 20
