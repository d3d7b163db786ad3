"""Test-only oracles and checkers, independent of the solver paths they check.

``lift_to_aux`` lifts a relaxation pair onto the auxiliary graph and
``check_pctsp_feasible`` checks the lifted pair; ``decompose_by_lp`` solves
for tree weights with ``scipy.optimize.linprog`` over every rooted subtree of
its support; ``matching_by_dp`` pairs points by exhaustive dynamic
programming; ``apply_threshold_split`` and
``check_threshold_split`` replay one threshold of a ``SplitRecorder`` and
assert the post-split guarantees; ``check_lp_solution`` replays the
feasibility of a relaxation solution; ``max_flow_by_dict`` and
``cut_at_least_by_dict`` are the Edmonds-Karp flow on dict rows that the
solver used before its flat-array kernel, kept to check that kernel bit for
bit and to judge connectivity in ``check_pctsp_feasible``;
``optimum_by_enumeration`` is the exhaustive optimum over traversal vectors
that checks the MIP of ``pcrpp.solvers.exact_oracle`` up to 12 edges.  None
of them runs in a solve, so they live here rather than in the ``pcrpp``
package, whose import then stays free of ``scipy.optimize``.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from pcrpp.core import Instance, connected_to, ekey, pair_lookup
from pcrpp.lp import LpSolution, separate_cuts
from pcrpp.preprocess import PreprocessedGraph
from pcrpp.splitoff import SplitOp, SplitRecorder
from pcrpp.treedecomp import DecompositionError, TreeDistribution


def _residual(capacities: dict[tuple[int, int], float]) -> dict[int, dict[int, float]]:
    adj: dict[int, dict[int, float]] = {}
    for (u, v), cap in capacities.items():
        if cap <= 0.0:
            continue
        adj.setdefault(u, {})[v] = adj.setdefault(u, {}).get(v, 0.0) + cap
        adj.setdefault(v, {})[u] = adj.setdefault(v, {}).get(u, 0.0) + cap
    return adj


def _reach(res: dict[int, dict[int, float]], s: int, t=None) -> dict[int, int]:
    """BFS predecessors over arcs with residual above 1e-12, stopping once t is reached."""
    pred = {s: s}
    queue = deque([s])
    while queue and t not in pred:
        v = queue.popleft()
        for u in sorted(res.get(v, {})):
            if u not in pred and res[v][u] > 1e-12:
                pred[u] = v
                queue.append(u)
    return pred


def _augment(res: dict[int, dict[int, float]], s: int, t: int) -> float:
    """One BFS augmentation; returns the pushed amount (0 when t unreachable)."""
    pred = _reach(res, s, t)
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


def max_flow_by_dict(
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
    return value, frozenset(_reach(res, s))


def cut_at_least_by_dict(
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


@dataclass(frozen=True)
class SplitTrace:
    ops: tuple[SplitOp, ...]
    order: tuple[int, ...]


def apply_threshold_split(
    sol: LpSolution,
    delta: float,
    pg: PreprocessedGraph,
    recorder: SplitRecorder | None = None,
) -> tuple[dict[tuple[int, int], float], dict[int, float], SplitTrace]:
    """Split off every vertex whose relaxation value lies below the threshold.

    Returns the post-split edge vector on the preprocessed graph, the vertex
    vector after the below-threshold values drop to zero, and the recorded
    trace of auxiliary-graph operations.
    """
    recorder = recorder or SplitRecorder(pg, sol)
    b = recorder.boundary(delta)
    x = recorder.state(b)
    y = {
        v: (val if v == pg.root or val >= delta else 0.0) for v, val in sol.y.items()
    }
    trace = SplitTrace(recorder.ops[: recorder.prefix[b]], tuple(v for v, _ in recorder.groups[:b]))
    return x, y, trace


def check_threshold_split(pg, sol, delta, xt, yt, tol=1e-6):
    """Assert the five post-split guarantees; raises AssertionError otherwise."""
    root = pg.root
    full = {k: xt.get(k, 0.0) for k in pg.lengths}
    check_lp_solution(pg, LpSolution(full, dict(yt), 0.0), tol=tol)
    for v, val in sol.y.items():
        if v == root:
            continue
        want = 0.0 if val < delta else val
        if abs(yt[v] - want) > tol:
            raise AssertionError(f"vertex dichotomy violated at {v}")
        if val < delta:
            deg = sum(x for k, x in xt.items() if v in k)
            if deg > tol:
                raise AssertionError(f"split vertex {v} keeps degree {deg}")
    for key in pg.pos_edges:
        star = sol.x[key]
        want = 0.0 if star < delta else star
        if abs(xt.get(key, 0.0) - want) > tol:
            raise AssertionError(f"positive-edge dichotomy violated on {key}")
    before = sum(pg.lengths[k] * val for k, val in sol.x.items())
    after = sum(pg.lengths[k] * val for k, val in xt.items())
    if after > before + tol:
        raise AssertionError(f"split increased total length {before} -> {after}")


def matching_by_dp(points, dist) -> tuple[float, list[tuple[int, int]]]:
    """Exhaustive pairing oracle for small point sets (bitmask over pairs)."""
    points = sorted(points)
    k = len(points)
    if k % 2 != 0:
        raise ValueError("odd number of points cannot be perfectly matched")
    if k > 16:
        raise ValueError("oracle limited to 16 points")
    full = (1 << k) - 1
    best: dict[int, tuple[float, list]] = {0: (0.0, [])}
    for mask in range(1, full + 1):
        if bin(mask).count("1") % 2 != 0:
            continue
        i = (mask & -mask).bit_length() - 1
        entries = []
        for j in range(i + 1, k):
            if mask & (1 << j):
                rest = mask & ~(1 << i) & ~(1 << j)
                if rest in best:
                    cost, pairs = best[rest]
                    entries.append((cost + pair_lookup(dist, points[i], points[j]), pairs + [ekey(points[i], points[j])]))
        if entries:
            best[mask] = min(entries, key=lambda t: (t[0], t[1]))
    return best[full]


def _enumerate_rooted_trees(support: list, root: int, cap: int) -> list:
    """All subtrees of the support that contain the root, empty tree included."""
    found = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        base = frontier.pop()
        verts = {root}
        for u, v in base:
            verts.add(u)
            verts.add(v)
        for key in support:
            u, v = key
            if key in base:
                continue
            if (u in verts) == (v in verts):
                continue
            grown = base | {key}
            if grown not in found:
                found.add(grown)
                if len(found) > cap:
                    raise ValueError("support too rich for tree enumeration")
                frontier.append(grown)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def lift_to_aux(x, y, pg: PreprocessedGraph):
    """Lift a feasible pair onto the auxiliary graph, halving the root edges.

    The root copy of the auxiliary graph is vertex ``pg.vertex_count``.
    """
    root, copy = pg.root, pg.vertex_count
    xbar: dict[tuple[int, int], float] = {}
    deg_r = 0.0
    for k, val in x.items():
        if val == 0.0:
            continue
        if root in k:
            other = k[0] if k[1] == root else k[1]
            half = val / 2.0
            xbar[ekey(root, other)] = half
            xbar[ekey(copy, other)] = half
            deg_r += val
        else:
            xbar[k] = val
    xbar[ekey(root, copy)] = 2.0 - 0.5 * deg_r
    ybar = dict(y)
    ybar[copy] = 1.0
    check_pctsp_feasible(xbar, ybar, root, copy)
    return xbar, ybar


def check_pctsp_feasible(xbar, ybar, root: int, copy: int, tol: float = 1e-6) -> None:
    """Raise ValueError unless the lifted pair is feasible on the auxiliary graph."""
    if abs(ybar.get(copy, 0.0) - 1.0) > tol:
        raise ValueError("root copy must have vertex value one")
    if xbar.get(ekey(root, copy), 0.0) < 1.0 - tol:
        raise ValueError("chord value below one")
    degrees: dict[int, float] = {}
    for (u, v), val in xbar.items():
        if val < -tol:
            raise ValueError(f"negative edge value on {(u, v)}")
        degrees[u] = degrees.get(u, 0.0) + val
        degrees[v] = degrees.get(v, 0.0) + val
    if degrees.get(root, 0.0) > 2.0 + tol:
        raise ValueError("root degree exceeds two")
    for v, val in ybar.items():
        if v == root:
            continue
        if abs(degrees.get(v, 0.0) - 2.0 * val) > tol:
            raise ValueError(f"degree mismatch at {v}")
    support = {k: val for k, val in xbar.items() if val > 1e-12}
    for v, val in sorted(ybar.items()):
        if v == root or val <= tol:
            continue
        if max_flow_by_dict(support, v, root)[0] < 2.0 * val - tol:
            raise ValueError(f"connectivity cut violated for {v}")


def decompose_by_lp(xbar, ybar, root: int, copy: int, cap: int = 200_000) -> TreeDistribution:
    """Desk-scale oracle: solve for tree weights directly from the marginals."""
    e0 = ekey(root, copy)
    support = sorted(
        k for k, val in xbar.items() if val > 1e-12 and (k != e0 or val > 1.0 + 1e-12)
    )
    targets_edge = {k: xbar[k] - (1.0 if k == e0 else 0.0) for k in support}
    trees = _enumerate_rooted_trees(support, root, cap)

    vert_rows = []
    for v, val in sorted(ybar.items()):
        if v in (root, copy):
            continue
        if val > 1e-12 or any(v in k for k in support):
            vert_rows.append((v, val))

    n = len(trees)
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    for key in support:
        row = np.zeros(n)
        for j, tr in enumerate(trees):
            if key in tr:
                row[j] = 1.0
        rows.append(row)
        rhs.append(targets_edge[key])
    for v, val in vert_rows:
        row = np.zeros(n)
        for j, tr in enumerate(trees):
            if v == root or any(v in k for k in tr):
                row[j] = 1.0
        rows.append(row)
        rhs.append(val)
    rows.append(np.ones(n))
    rhs.append(1.0)

    m = len(rows)
    a_eq = np.zeros((m, n + 2 * m))
    a_eq[:, :n] = np.array(rows)
    for i in range(m):
        a_eq[i, n + 2 * i] = 1.0
        a_eq[i, n + 2 * i + 1] = -1.0
    c = np.zeros(n + 2 * m)
    c[n:] = 1.0
    res = linprog(c, A_eq=a_eq, b_eq=np.array(rhs), bounds=[(0.0, None)] * (n + 2 * m), method="highs")
    if not res.success or res.fun > 1e-7:
        raise DecompositionError("no tree distribution matches the marginals")
    weights = res.x[:n]
    keep = [(trees[j], weights[j]) for j in range(n) if weights[j] > 1e-9]
    return TreeDistribution(
        trees=tuple(edges for edges, _ in keep),
        weights=tuple(w for _, w in keep),
    )


def optimum_by_enumeration(inst: Instance) -> float:
    """Exhaustive optimum over the traversal vectors in {0, 1, 2} per edge.

    A vector is feasible when every degree is even and its support is
    connected to the root; its value is the length walked plus the profit
    left.  Takes 3^m vectors, so keep m at 12 or less.  The zero vector is
    always feasible.
    """
    m = len(inst.edges)
    vecs = np.array(list(itertools.product((0, 1, 2), repeat=m)), dtype=np.int8)
    incidence = np.zeros((m, inst.vertex_count), dtype=np.int8)
    for i, e in enumerate(inst.edges):
        incidence[i, e.u] = 1
        incidence[i, e.v] = 1
    even = ~((vecs @ incidence) & 1).any(axis=1)
    values = vecs @ np.array([e.length for e in inst.edges]) + (vecs == 0) @ np.array(
        [e.profit for e in inst.edges]
    )
    feasible = (
        idx
        for idx in np.lexsort((np.arange(len(vecs)), values))
        if even[idx] and connected_to([(e.u, e.v) for e, k in zip(inst.edges, vecs[idx]) if k], inst.root)
    )
    return float(values[next(feasible)])
