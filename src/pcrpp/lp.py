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
from itertools import compress

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


def _pair_index(n: int, keys) -> np.ndarray:
    """Index of each pair key (u, v), u < v, in ``np.triu_indices(n, 1)`` order."""
    k = np.array(keys, dtype=np.intp).reshape(-1, 2)
    u, v = k[:, 0], k[:, 1]
    return u * (2 * n - u - 1) // 2 + v - u - 1


@dataclass(frozen=True, eq=False)
class PairArrays:
    """Per-pair data of the complete graph, indexed like ``np.triu_indices(n, 1)``.

    That index order is the sorted order of the pair keys (u, v) with u < v,
    so a boolean mask over pairs lists its pairs in sorted key order.
    ``lengths_order`` holds the pair index of each key of ``pg.lengths`` in
    that dict's order.
    """

    vertex_count: int
    root: int
    u: np.ndarray
    v: np.ndarray
    lengths: np.ndarray
    profits: np.ndarray
    positive: np.ndarray
    at_root: np.ndarray
    lengths_order: np.ndarray

    @classmethod
    def of(cls, pg: PreprocessedGraph) -> PairArrays:
        n = pg.vertex_count
        u, v = np.triu_indices(n, 1)
        keys = list(zip(u.tolist(), v.tolist()))
        return cls(
            vertex_count=n,
            root=pg.root,
            u=u,
            v=v,
            lengths=np.array([pg.lengths[k] for k in keys], dtype=float),
            profits=np.array([pg.profits[k] for k in keys], dtype=float),
            positive=np.array([k in pg.pos_edges for k in keys], dtype=bool),
            at_root=(u == pg.root) | (v == pg.root),
            lengths_order=_pair_index(n, list(pg.lengths)),
        )

    def index(self, keys) -> np.ndarray:
        return _pair_index(self.vertex_count, keys)

    def keys(self, idx=slice(None)) -> list[tuple[int, int]]:
        return list(zip(self.u[idx].tolist(), self.v[idx].tolist()))

    def crossing(self, side: frozenset) -> np.ndarray:
        """Which pairs have exactly one endpoint in ``side``."""
        inside = np.zeros(self.vertex_count, dtype=bool)
        inside[list(side)] = True
        return inside[self.u] != inside[self.v]


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


def _solution_dicts(pg, pairs, cols, x_vals, y_vals, y_vertices):
    values = np.zeros(len(pairs.u))
    values[cols] = x_vals
    x = dict(zip(pg.lengths, values[pairs.lengths_order].tolist()))
    y = dict(zip(y_vertices, y_vals.tolist()))
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

    pairs = PairArrays.of(pg)
    active = np.zeros(len(pairs.u), dtype=bool)
    active[pairs.index(initial_variables(pg))] = True
    cuts: list[tuple[frozenset, int, float]] = []
    cut_keys: set[tuple[frozenset, int]] = set()
    crossing = np.zeros((0, len(pairs.u)), dtype=bool)

    for _ in range(max_rounds):
        cols = np.flatnonzero(active)
        x_vals, y_vals, mu, rho, cut_duals = _solve_master(
            pairs, backend, cols, crossing, cuts, y_vertices
        )
        x, y = _solution_dicts(pg, pairs, cols, x_vals, y_vals, y_vertices)

        new_cuts = separate_cuts(pg, x, y, tol=feas_tol)
        new_cuts = [(side, v) for side, v in new_cuts if (side, v) not in cut_keys]
        priced = _price_variables(pairs, active, crossing, mu, rho, cut_duals, price_tol)
        if not new_cuts and not priced:
            x, y = canonicalize(pg, x, y)
            objective = lp_objective(pg, x)
            sol = LpSolution(x, y, objective)
            return sol, CutCertificate(tuple(cuts))
        rows = []
        for side, v in new_cuts:
            row = pairs.crossing(side)
            crossed = compress(x.values(), row[pairs.lengths_order].tolist())
            cuts.append((side, v, sum(crossed) - 2.0 * y[v]))
            cut_keys.add((side, v))
            rows.append(row)
        if rows:
            crossing = np.vstack([crossing, rows])
        active[pairs.index(priced)] = True
    raise LpError(f"cutting-plane loop did not converge within {max_rounds} rounds")


def _solve_master(pairs, backend, cols, crossing, cuts, y_vertices):
    """Solve the master over the active columns ``cols`` and the recorded cuts.

    Returns the x and y values, the degree duals by vertex (0 at the root),
    the root-degree dual and the cut duals in recorded order.
    """
    root = pairs.root
    nx = len(cols)
    ny = len(y_vertices)
    u, v = pairs.u[cols], pairs.v[cols]
    yidx = np.zeros(pairs.vertex_count, dtype=np.intp)
    yidx[y_vertices] = np.arange(ny)

    c = np.zeros(nx + ny)
    c[:nx] = pairs.lengths[cols] - pairs.profits[cols]

    # degree rows x(delta(v)) - 2 y_v = 0, then y_a = x_ab = y_b per positive edge
    pos_cols = np.flatnonzero(pairs.positive[cols])
    a_eq = np.zeros((ny + 2 * len(pos_cols), nx + ny))
    for ends in (u, v):
        at = np.flatnonzero(ends != root)
        a_eq[yidx[ends[at]], at] = 1.0
    a_eq[np.arange(ny), nx + np.arange(ny)] = -2.0
    rows = ny + np.arange(2 * len(pos_cols))
    a_eq[rows, nx + yidx[np.column_stack([u[pos_cols], v[pos_cols]]).ravel()]] = 1.0
    a_eq[rows, np.repeat(pos_cols, 2)] = -1.0

    # root degree at most 2, then one row 2 y_w - x(delta(S)) <= 0 per cut
    a_ub = np.zeros((1 + len(cuts), nx + ny))
    a_ub[0, :nx] = pairs.at_root[cols]
    a_ub[1:, :nx] = np.where(crossing[:, cols], -1.0, 0.0)
    a_ub[np.arange(1, 1 + len(cuts)), nx + yidx[[w for _, w, _ in cuts]]] = 2.0
    b_ub = np.zeros(1 + len(cuts))
    b_ub[0] = 2.0

    bounds = [(0.0, 1.0) if p else (0.0, None) for p in pairs.positive[cols].tolist()]
    bounds.extend([(0.0, 1.0)] * ny)

    res = backend.solve(c, a_eq, np.zeros(len(a_eq)), a_ub, b_ub, bounds)
    mu = np.zeros(pairs.vertex_count)
    mu[y_vertices] = res.eq_duals[:ny]
    return res.x[:nx], res.x[nx:], mu, res.ub_duals[0], res.ub_duals[1:]


def _price_variables(pairs, active, crossing, mu, rho, cut_duals, tol):
    """Omitted zero-profit pairs with reduced cost below -tol, in pair order.

    rc = L - mu[u] - mu[v] - rho [root in pair] + sum_j dual_j [pair crosses
    cut j].  The cut terms are added one cut at a time in recorded order, so
    every reduced cost is summed in the same order as a per-pair loop.
    """
    rc = pairs.lengths - mu[pairs.u] - mu[pairs.v]
    rc[pairs.at_root] -= rho
    for row, dual in zip(crossing, cut_duals):
        if dual != 0.0:
            np.add(rc, dual, out=rc, where=row)
    priced = ~active & ~pairs.positive & (rc < -tol)
    return pairs.keys(np.flatnonzero(priced))


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
    pairs = PairArrays.of(pg)
    names = [xname(k) for k in pairs.keys()]
    for i, (side, wit, _) in enumerate(cert.cuts):
        body = " + ".join(compress(names, pairs.crossing(side).tolist()))
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
