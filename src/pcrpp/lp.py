"""Cutting-plane solver for the relaxation on the preprocessed complete graph.

The program keeps a working set of edge variables (all positive edges, all
root-incident edges and the tether edges at first), separates violated
connectivity cuts with min-cut computations, and prices the omitted
zero-profit variables through their reduced costs.  The backend is any LP
solver that returns an optimal basic solution with duals; the default wraps
HiGHS through scipy.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .core import bfs, ekey
from .preprocess import PreprocessedGraph

FEAS_TOL = 1e-7
PRICE_TOL = 1e-7
SNAP_TOL = 1e-9
MAX_ROUNDS = 10_000


class LpError(RuntimeError):
    """LP backend failure or non-convergence of the cutting-plane loop."""


@dataclass(frozen=True)
class LpSolution:
    x: dict[tuple[int, int], float]
    y: dict[int, float]
    objective: float


@dataclass(frozen=True)
class CutCertificate:
    """Cuts added during the run; each was violated when recorded."""

    cuts: tuple[tuple[frozenset, int, float], ...]


@dataclass(frozen=True)
class BackendResult:
    x: np.ndarray
    objective: float
    eq_duals: np.ndarray
    ub_duals: np.ndarray


class HighsBackend:
    """scipy/HiGHS backend returning primal values and row duals."""

    def solve(self, c, a_eq, b_eq, a_ub, b_ub, bounds) -> BackendResult:
        res = linprog(
            c,
            A_ub=a_ub if a_ub is not None and len(a_ub) else None,
            b_ub=b_ub if b_ub is not None and len(b_ub) else None,
            A_eq=a_eq if a_eq is not None and len(a_eq) else None,
            b_eq=b_eq if b_eq is not None and len(b_eq) else None,
            bounds=bounds,
            method="highs",
        )
        if not res.success:
            raise LpError(f"LP backend failed: {res.message}")
        eq_duals = res.eqlin.marginals if a_eq is not None and len(a_eq) else np.zeros(0)
        ub_duals = res.ineqlin.marginals if a_ub is not None and len(a_ub) else np.zeros(0)
        return BackendResult(res.x, res.fun, np.asarray(eq_duals), np.asarray(ub_duals))


def _residual(capacities: dict[tuple[int, int], float]) -> dict[int, dict[int, float]]:
    adj: dict[int, dict[int, float]] = {}
    for (u, v), cap in capacities.items():
        if cap <= 0.0:
            continue
        adj.setdefault(u, {})[v] = adj.setdefault(u, {}).get(v, 0.0) + cap
        adj.setdefault(v, {})[u] = adj.setdefault(v, {}).get(u, 0.0) + cap
    return adj


def _augment(res: dict[int, dict[int, float]], s: int, t: int) -> float:
    """One BFS augmentation; returns the pushed amount (0 when t unreachable)."""
    pred = {s: s}
    queue = deque([s])
    while queue and t not in pred:
        v = queue.popleft()
        for u in sorted(res.get(v, {})):
            if u not in pred and res[v][u] > 1e-12:
                pred[u] = v
                queue.append(u)
    if t not in pred:
        return 0.0
    path = [t]
    while path[-1] != s:
        path.append(pred[path[-1]])
    path.reverse()
    push = min(res[a][b] for a, b in zip(path, path[1:]))
    for a, b in zip(path, path[1:]):
        res[a][b] -= push
        res[b][a] = res[b].get(a, 0.0) + push
    return push


def max_flow_min_cut(
    capacities: dict[tuple[int, int], float], s: int, t: int
) -> tuple[float, frozenset]:
    """Exact max s-t flow and a minimum cut S with s inside and t outside."""
    if s == t:
        raise ValueError("source equals sink")
    res = _residual(capacities)
    res.setdefault(s, {})
    res.setdefault(t, {})
    value = 0.0
    while True:
        push = _augment(res, s, t)
        if push <= 0.0:
            break
        value += push
    side = bfs(res, s, lambda a, b: res[a][b] > 1e-12)
    return value, frozenset(side)


def cut_at_least(
    adj: dict[int, dict[int, float]], s: int, t: int, need: float
) -> bool:
    """True when the min s-t cut is at least ``need``; stops flowing early."""
    if need <= 1e-12:
        return True
    res = {v: dict(nbrs) for v, nbrs in adj.items()}
    res.setdefault(s, {})
    res.setdefault(t, {})
    value = 0.0
    while value < need - 1e-12:
        push = _augment(res, s, t)
        if push <= 0.0:
            return False
        value += push
    return True


def _tether_pairs(pg: PreprocessedGraph) -> list[tuple[int, int]]:
    pairs = []
    for i, e in enumerate(pg.copied.edges):
        if pg.copied.origin[i] is None:
            pairs.append(ekey(e.u, e.v))
    return pairs


def initial_variables(pg: PreprocessedGraph) -> list[tuple[int, int]]:
    """Positive edges, root-incident edges and tethers seed the variable set."""
    root = pg.root
    keys = set(pg.pos_edges)
    for v in range(pg.vertex_count):
        if v != root:
            keys.add(ekey(root, v))
    keys.update(_tether_pairs(pg))
    return sorted(keys)


def separate_cuts(
    pg: PreprocessedGraph,
    x: dict[tuple[int, int], float],
    y: dict[int, float],
    tol: float = FEAS_TOL,
) -> list[tuple[frozenset, int]]:
    """Connectivity cuts violated by (x, y), one witness vertex at a time.

    For every v with positive y the min root-v cut under x is compared with
    the demand 2*y_v; an empty result certifies the cut constraints.
    """
    root = pg.root
    violated = []
    support = {k: val for k, val in x.items() if val > 1e-12}
    for v in sorted(y):
        if v == root or y[v] <= tol:
            continue
        value, side = max_flow_min_cut(support, v, root)
        if value < 2.0 * y[v] - tol:
            violated.append((side, v))
    return violated


def _solution_dicts(pg, keys, values):
    x = {k: 0.0 for k in pg.lengths}
    for k, val in zip(keys, values):
        x[k] = float(val)
    y = {}
    yvals = values[len(keys):]
    idx = 0
    for v in range(pg.vertex_count):
        if v == pg.root:
            continue
        y[v] = float(yvals[idx])
        idx += 1
    y[pg.root] = 1.0
    return x, y


def canonicalize(pg: PreprocessedGraph, x, y, snap: float = SNAP_TOL):
    """Snap near-integral values and make coupled triples exactly equal."""
    for k, val in x.items():
        if abs(val) <= snap:
            x[k] = 0.0
        elif abs(val - 1.0) <= snap:
            x[k] = 1.0
    for v, val in y.items():
        if abs(val) <= snap:
            y[v] = 0.0
        elif abs(val - 1.0) <= snap:
            y[v] = 1.0
    for u, v in pg.pos_edges:
        val = x[(u, v)]
        y[u] = val
        y[v] = val
    return x, y


def lp_objective(pg: PreprocessedGraph, x: dict[tuple[int, int], float]) -> float:
    total = 0.0
    for k, length in pg.lengths.items():
        total += length * x.get(k, 0.0)
    for k in sorted(pg.pos_edges):
        total += pg.profits[k] * (1.0 - x.get(k, 0.0))
    return total


def solve_pcrpp_lp(
    pg: PreprocessedGraph,
    backend=None,
    max_rounds: int = MAX_ROUNDS,
    feas_tol: float = FEAS_TOL,
    price_tol: float = PRICE_TOL,
) -> tuple[LpSolution, CutCertificate]:
    """Optimize the relaxation by separation and pricing until both are clean."""
    backend = backend or HighsBackend()
    root = pg.root
    n = pg.vertex_count
    y_vertices = [v for v in range(n) if v != root]
    if not y_vertices:
        sol = LpSolution({k: 0.0 for k in pg.lengths}, {root: 1.0}, 0.0)
        return sol, CutCertificate(())

    active = initial_variables(pg)
    cuts: list[tuple[frozenset, int, float]] = []
    cut_keys: set[tuple[frozenset, int]] = set()

    for _ in range(max_rounds):
        x_vals, y_vals, duals = _solve_master(pg, backend, active, cuts, y_vertices)
        x, y = _solution_dicts(pg, active, np.concatenate([x_vals, y_vals]))

        new_cuts = separate_cuts(pg, x, y, tol=feas_tol)
        new_cuts = [(side, v) for side, v in new_cuts if (side, v) not in cut_keys]
        priced = _price_variables(pg, active, cuts, duals, y_vertices, price_tol)
        if not new_cuts and not priced:
            x, y = canonicalize(pg, x, y)
            objective = lp_objective(pg, x)
            sol = LpSolution(x, y, objective)
            return sol, CutCertificate(tuple(cuts))
        for side, v in new_cuts:
            slack = sum(x[k] for k in x if _crosses(k, side)) - 2.0 * y[v]
            cuts.append((side, v, slack))
            cut_keys.add((side, v))
        for key in priced:
            active.append(key)
        active.sort()
    raise LpError(f"cutting-plane loop did not converge within {max_rounds} rounds")


def _crosses(key: tuple[int, int], side: frozenset) -> bool:
    return (key[0] in side) != (key[1] in side)


def _solve_master(pg, backend, active, cuts, y_vertices):
    root = pg.root
    nx = len(active)
    ny = len(y_vertices)
    ycol = {v: nx + i for i, v in enumerate(y_vertices)}
    xcol = {k: i for i, k in enumerate(active)}

    c = np.zeros(nx + ny)
    for k, i in xcol.items():
        c[i] = pg.lengths[k] - (pg.profits[k] if k in pg.pos_edges else 0.0)

    eq_rows: list[np.ndarray] = []
    eq_rhs: list[float] = []
    for v in y_vertices:
        row = np.zeros(nx + ny)
        for k, i in xcol.items():
            if v in k:
                row[i] = 1.0
        row[ycol[v]] = -2.0
        eq_rows.append(row)
        eq_rhs.append(0.0)
    for u, v in sorted(pg.pos_edges):
        for endpoint in (u, v):
            row = np.zeros(nx + ny)
            row[ycol[endpoint]] = 1.0
            row[xcol[(u, v)]] = -1.0
            eq_rows.append(row)
            eq_rhs.append(0.0)

    ub_rows: list[np.ndarray] = []
    ub_rhs: list[float] = []
    row = np.zeros(nx + ny)
    for k, i in xcol.items():
        if root in k:
            row[i] = 1.0
    ub_rows.append(row)
    ub_rhs.append(2.0)
    for side, v, _ in cuts:
        row = np.zeros(nx + ny)
        for k, i in xcol.items():
            if _crosses(k, side):
                row[i] = -1.0
        row[ycol[v]] = 2.0
        ub_rows.append(row)
        ub_rhs.append(0.0)

    bounds = []
    for k in active:
        bounds.append((0.0, 1.0) if k in pg.pos_edges else (0.0, None))
    bounds.extend([(0.0, 1.0)] * ny)

    res = backend.solve(
        c,
        np.array(eq_rows) if eq_rows else None,
        np.array(eq_rhs),
        np.array(ub_rows) if ub_rows else None,
        np.array(ub_rhs),
        bounds,
    )
    duals = {
        "degree": {v: res.eq_duals[i] for i, v in enumerate(y_vertices)},
        "root": res.ub_duals[0],
        "cuts": res.ub_duals[1:],
    }
    return res.x[:nx], res.x[nx:], duals


def _price_variables(pg, active, cuts, duals, y_vertices, tol):
    """Omitted zero-profit variables with reduced cost below -tol."""
    root = pg.root
    active_set = set(active)
    mu = duals["degree"]
    rho = duals["root"]
    cut_duals = duals["cuts"]
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
            for (side, _, _), dual in zip(cuts, cut_duals):
                if _crosses(key, side):
                    rc += dual
            if rc < -tol:
                added.append(key)
    return added


def write_lp_text(pg: PreprocessedGraph, cert: CutCertificate) -> str:
    """Full model with the recorded cuts in CPLEX LP text format (debug aid)."""

    def xname(key):
        return f"x_{key[0]}_{key[1]}"

    terms = []
    for k in sorted(pg.lengths):
        coeff = pg.lengths[k] - (pg.profits[k] if k in pg.pos_edges else 0.0)
        terms.append(f"{coeff:+.12g} {xname(k)}")
    lines = ["Minimize", " obj: " + " ".join(terms), "Subject To"]
    root = pg.root
    for v in range(pg.vertex_count):
        if v == root:
            continue
        body = " + ".join(xname(ekey(v, u)) for u in range(pg.vertex_count) if u != v)
        lines.append(f" deg_{v}: {body} - 2 y_{v} = 0")
    body = " + ".join(xname(ekey(root, u)) for u in range(pg.vertex_count) if u != root)
    lines.append(f" root: {body} <= 2")
    for u, v in sorted(pg.pos_edges):
        lines.append(f" cpl_{u}_{v}_a: y_{u} - {xname((u, v))} = 0")
        lines.append(f" cpl_{u}_{v}_b: y_{v} - {xname((u, v))} = 0")
    for i, (side, wit, _) in enumerate(cert.cuts):
        body = " + ".join(
            xname(k) for k in sorted(pg.lengths) if _crosses(k, side)
        )
        lines.append(f" cut_{i}: {body} - 2 y_{wit} >= 0")
    lines.append("Bounds")
    for k in sorted(pg.lengths):
        if k in pg.pos_edges:
            lines.append(f" 0 <= {xname(k)} <= 1")
        else:
            lines.append(f" 0 <= {xname(k)}")
    for v in range(pg.vertex_count):
        if v != root:
            lines.append(f" 0 <= y_{v} <= 1")
    lines.append("End")
    return "\n".join(lines) + "\n"


def check_lp_solution(pg: PreprocessedGraph, sol: LpSolution, tol: float = 1e-6) -> None:
    """Replay feasibility of a returned solution; raises on any violation."""
    root = pg.root
    x, y = sol.x, sol.y
    for v in range(pg.vertex_count):
        deg = sum(val for k, val in x.items() if v in k)
        if v == root:
            if deg > 2.0 + tol:
                raise AssertionError(f"root degree {deg} exceeds 2")
        elif abs(deg - 2.0 * y[v]) > tol:
            raise AssertionError(f"degree constraint violated at {v}")
    for u, v in pg.pos_edges:
        val = x[(u, v)]
        if not (-tol <= val <= 1.0 + tol):
            raise AssertionError(f"positive edge {u, v} out of bounds")
        if abs(y[u] - val) > tol or abs(y[v] - val) > tol:
            raise AssertionError(f"coupling violated on {u, v}")
    for k, val in x.items():
        if val < -tol:
            raise AssertionError(f"negative edge value on {k}")
    for v, val in y.items():
        if not (-tol <= val <= 1.0 + tol):
            raise AssertionError(f"vertex value out of bounds at {v}")
    if separate_cuts(pg, x, y, tol=tol):
        raise AssertionError("a connectivity cut is still violated")
