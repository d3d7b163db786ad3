"""Shared instance builders and independent oracles for the test suite."""
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csc_array

from pcrpp.cli import gen_random
from pcrpp.core import Edge, Instance, parse_instance
from pcrpp.lp import LpSolution
from pcrpp.solvers import exact_oracle


def barrier_text(eps: float) -> str:
    return (
        "3 3 1\n"
        f"1 2 {eps} 0\n"
        f"2 3 1 {1 + 3 * eps}\n"
        "1 3 1 0\n"
    )


@pytest.fixture
def barrier():
    """Triangle with one profitable far edge; trivial walk is optimal."""
    return parse_instance(barrier_text(0.1), name="barrier")


@pytest.fixture
def single_pos():
    """One profitable edge at the root; collecting it needs a there-and-back."""
    return parse_instance("2 1 1\n1 2 1 5\n", name="single")


@pytest.fixture
def zero_profit():
    return parse_instance("3 3 1\n1 2 1 0\n2 3 1 0\n1 3 2 0\n", name="zp")


# Random integer instances almost always have integral relaxation optima;
# these two (found by search) are genuinely fractional and exercise the
# multi-tree paths of the decomposition.
FRACTIONAL_INSTANCES = (
    Instance(
        6,
        0,
        (
            Edge(0, 1, 5.0, 10.0),
            Edge(0, 3, 1.0, 0.0),
            Edge(1, 2, 5.0, 7.0),
            Edge(1, 4, 4.0, 10.0),
            Edge(1, 5, 7.0, 9.0),
            Edge(2, 4, 5.0, 0.0),
            Edge(2, 5, 5.0, 7.0),
            Edge(3, 5, 7.0, 1.0),
            Edge(4, 5, 1.0, 0.0),
        ),
        name="frac1",
    ),
    Instance(
        5,
        0,
        (
            Edge(0, 1, 2.0, 0.0),
            Edge(0, 2, 4.0, 10.0),
            Edge(0, 3, 1.0, 0.0),
            Edge(0, 4, 1.0, 2.0),
            Edge(1, 3, 4.0, 0.0),
            Edge(1, 4, 3.0, 6.0),
            Edge(2, 3, 4.0, 0.0),
            Edge(2, 4, 1.0, 0.0),
            Edge(3, 4, 2.0, 0.0),
        ),
        name="frac2",
    ),
)


def rnd37_point():
    """The stored ``frac-small`` instance rnd37 and the LP point its solve gave.

    The point (16 vertices, 21 nonzero pairs, y in {0, 0.25, 1}) needs
    split amounts below their caps; an amount that overshoots the exact one
    leaves residue trees that break the coupling.
    """
    data = json.loads((Path(__file__).parent / "rnd37_lp_point.json").read_text())
    x = {(u, v): val for u, v, val in data["x"]}
    y = {v: val for v, val in data["y"]}
    return parse_instance(data["instance"], name=data["name"]), LpSolution(x, y, data["objective"])


def random_suite(count: int, base_seed: int = 1000, max_n: int = 6, max_m: int = 9):
    """Deterministic list of small connected instances for property tests."""
    out = []
    for trial in range(count):
        n = 2 + (trial % (max_n - 1))
        mmax = min(max_m, n * (n - 1) // 2)
        m = max(n - 1, min(mmax, (trial * 13 + 5) % (mmax + 1)))
        dens = (0.3, 0.5, 0.8, 1.0)[trial % 4]
        out.append(gen_random(base_seed + trial, n, m, wmax=10, pmax=10, pos_density=dens))
    return out


def acceptance_suite() -> list:
    """The acceptance suite: 198 generated instances, then the two stored fractional ones."""
    return random_suite(198, base_seed=1000) + list(FRACTIONAL_INSTANCES)


@pytest.fixture(scope="session")
def suite_optima():
    """``exact_oracle`` on each acceptance-suite instance, as (instance, solution) in suite order.

    Solved once per session: the sandwich and the oracle-against-enumeration
    tests both read these optima.
    """
    return [(inst, exact_oracle(inst)) for inst in acceptance_suite()]


def dense_lp_value(pg) -> float:
    """Independent relaxation solve with every variable and every cut row."""
    root = pg.root
    n = pg.vertex_count
    keys = sorted(pg.lengths)
    yv = [v for v in range(n) if v != root]
    xcol = {k: i for i, k in enumerate(keys)}
    ycol = {v: len(keys) + i for i, v in enumerate(yv)}
    ncols = len(keys) + len(yv)

    c = np.zeros(ncols)
    const = 0.0
    for k in keys:
        c[xcol[k]] = pg.lengths[k]
        if k in pg.pos_edges:
            c[xcol[k]] -= pg.profits[k]
            const += pg.profits[k]

    a_eq, b_eq = [], []
    for v in yv:
        row = np.zeros(ncols)
        for k in keys:
            if v in k:
                row[xcol[k]] = 1.0
        row[ycol[v]] = -2.0
        a_eq.append(row)
        b_eq.append(0.0)
    for u, v in sorted(pg.pos_edges):
        for endpoint in (u, v):
            row = np.zeros(ncols)
            row[ycol[endpoint]] = 1.0
            row[xcol[(u, v)]] = -1.0
            a_eq.append(row)
            b_eq.append(0.0)

    a_ub, b_ub = [], []
    row = np.zeros(ncols)
    for k in keys:
        if root in k:
            row[xcol[k]] = 1.0
    a_ub.append(row)
    b_ub.append(2.0)
    others = [v for v in range(n) if v != root]
    for size in range(1, len(others) + 1):
        for subset in itertools.combinations(others, size):
            side = set(subset)
            for wit in subset:
                row = np.zeros(ncols)
                for k in keys:
                    if (k[0] in side) != (k[1] in side):
                        row[xcol[k]] = -1.0
                row[ycol[wit]] = 2.0
                a_ub.append(row)
                b_ub.append(0.0)

    bounds = [(0.0, 1.0) if k in pg.pos_edges else (0.0, None) for k in keys]
    bounds += [(0.0, 1.0)] * len(yv)
    res = linprog(
        c, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
        A_eq=np.array(a_eq), b_eq=np.array(b_eq), bounds=bounds, method="highs",
    )
    assert res.success, res.message
    return res.fun + const


def linprog_master(cost, col_upper, row_lower, row_upper, indptr, indices, values):
    """Reference solve of a ``HighsBackend.solve`` master with ``linprog``.

    The rows with lower bound -inf come first and become A_ub; the rest are
    equality rows and become A_eq, which ``linprog`` stacks below A_ub, so
    HiGHS sees the rows in the master's order.  Returns linprog's result and
    the number of A_ub rows.
    """
    a = csc_array((values, indices, indptr), shape=(len(row_lower), len(cost))).toarray()
    n_ub = int(np.isinf(row_lower).sum())
    assert np.isinf(row_lower[:n_ub]).all()
    assert np.array_equal(row_lower[n_ub:], row_upper[n_ub:])
    bounds = [(0.0, None if np.isinf(hi) else hi) for hi in col_upper.tolist()]
    res = linprog(
        cost, A_ub=a[:n_ub], b_ub=row_upper[:n_ub], A_eq=a[n_ub:], b_eq=row_upper[n_ub:],
        bounds=bounds, method="highs",
    )
    return res, n_ub
