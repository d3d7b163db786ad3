"""Top-level algorithms: best-of-many, the reduction baseline, the exact MIP oracle."""
from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .candidates import Candidate, build_candidate, edge_profit_core
from .core import (
    Edge,
    Instance,
    Walk,
    bfs,
    ekey,
    euler_tour,
    neighbours,
    objective,
    pair_lookup,
    reconstruct_path,
    shortest_paths,
    weighted_adjacency,
)
from .lp import EXACT_MIP_OPTIONS, run_highs, solve_pcrpp_lp
from .preprocess import preprocess
from .splitoff import SplitRecorder
from .treedecomp import project_to_hat, stage_distribution

RATIO_BOUND = 1.6
VALUE_TIE = 1e-12
PCTSP_CAP = 12  # most representatives pctsp_solve_exact takes: 2**12 subsets
STAGE_TOL = 1e-6  # slack of the stage checks on tree weights, marginals and length


class CheckError(AssertionError):
    """An in-run check failed; the message names the check, where it ran and the margin."""


@dataclass(frozen=True)
class Solution:
    walk: Walk
    value: float
    lower_bound: float | None = None
    stats: dict = field(default_factory=dict)


def _better(cand: Candidate, best: Candidate) -> bool:
    if cand.value < best.value - VALUE_TIE:
        return True
    if abs(cand.value - best.value) <= VALUE_TIE:
        return cand.walk.edge_count < best.walk.edge_count
    return False


def best_of_many(inst: Instance) -> Solution:
    """Enumerate candidates over outer thresholds, trees and inner thresholds.

    The splitting work is recorded once; each outer threshold replays the
    recorded operations back to its boundary.  The returned walk is the
    cheapest candidate, never worse than the trivial walk, and its value is
    checked against 1.6 times the relaxation bound.
    """
    run = SolveRun(inst)
    return run.finish(run.stages())


class SolveRun:
    """One ``best_of_many`` solve in three steps, open to a caller between them.

    Constructing the run preprocesses the instance and solves the LP;
    ``stages()`` splits once and yields the checked stages; ``finish`` rounds
    them into candidates and returns the Solution.  The ``t_*`` stats count
    only time spent inside these steps.
    """

    def __init__(self, inst: Instance):
        t0 = time.perf_counter()
        self.inst = inst
        self.pg = preprocess(inst)
        t1 = time.perf_counter()
        self.sol, self.cert = solve_pcrpp_lp(self.pg)
        t2 = time.perf_counter()
        self.t_lp = t2 - t1
        self.t_split = 0.0
        self.t_run = t2 - t0

    def stages(self):
        """Split once; then, lazily, one checked stage per outer threshold.

        A stage is (threshold, edge vector at its boundary, projected tree
        distribution).
        """
        t0 = time.perf_counter()
        recorder = SplitRecorder(self.pg, self.sol)
        self.t_split = time.perf_counter() - t0
        self.t_run += self.t_split
        return self._stages(recorder)

    def _stages(self, recorder):
        pg = self.pg
        for delta in recorder.thresholds:
            t0 = time.perf_counter()
            # every non-root vertex has a group, so distinct thresholds give
            # strictly increasing boundaries
            boundary = recorder.boundary(delta)
            xt = recorder.state(boundary)
            yt = {
                v: (val if v == pg.root or val >= delta else 0.0)
                for v, val in self.sol.y.items()
            }
            ghat = project_to_hat(stage_distribution(recorder, boundary), pg)
            _check_stage(ghat, xt, yt, pg, delta)
            self.t_run += time.perf_counter() - t0
            yield delta, xt, ghat

    def finish(self, stages) -> Solution:
        """Best candidate over the stages, checked against the ratio bound."""
        t0, t_before = time.perf_counter(), self.t_run
        inst, pg = self.inst, self.pg
        best = Candidate(Walk.trivial(inst.root), objective(inst, Walk.trivial(inst.root)), ("trivial",))
        generated = 1
        sp_cache: dict = {}
        core_cache: dict[frozenset, Candidate] = {}
        for delta, xt, ghat in stages:
            for ti, tree in enumerate(ghat.trees):
                gammas = sorted(
                    {xt.get(k, 0.0) for k in tree if k in pg.pos_edges and xt.get(k, 0.0) > 0.0}
                )
                for gamma in gammas:
                    core = edge_profit_core(tree, xt, gamma, pg)
                    generated += 1
                    cached = core_cache.get(core)
                    if cached is None:
                        cached = build_candidate(
                            inst, pg, core, (delta, ti, gamma), sp_cache=sp_cache
                        )
                        core_cache[core] = cached
                    cand = Candidate(cached.walk, cached.value, (delta, ti, gamma))
                    if _better(cand, best):
                        best = cand

        bound = RATIO_BOUND * self.sol.objective + 1e-6
        if best.value > bound:
            raise CheckError(
                f"ratio bound check failed in finish: value {best.value} exceeds"
                f" {RATIO_BOUND} x LB {self.sol.objective} + 1e-06 = {bound} by {best.value - bound}"
            )
        # stages drawn lazily inside this step count here, not in t_before
        t_total = t_before + time.perf_counter() - t0
        stats = {
            "candidates": generated,
            "best": best.provenance,
            "lp_cuts": len(self.cert.cuts),
            "t_lp": self.t_lp,
            "t_split": self.t_split,
            "t_other": max(t_total - self.t_lp - self.t_split, 0.0),
        }
        return Solution(best.walk, best.value, lower_bound=self.sol.objective, stats=stats)


def _check_stage(ghat, xt, yt, pg, delta):
    """Raise CheckError unless the stage's trees reproduce (xt, yt) within ``STAGE_TOL``."""
    where = f"at stage {delta} (tolerance {STAGE_TOL})"
    total = ghat.total_weight
    if abs(total - 1.0) > STAGE_TOL:
        raise CheckError(
            f"tree weight check failed {where}: weights sum to {total}, off by {total - 1.0}"
        )
    edge_marg = ghat.edge_marginals()
    for key in pg.pos_edges:
        want, got = xt.get(key, 0.0), edge_marg.get(key, 0.0)
        if abs(got - want) > STAGE_TOL:
            raise CheckError(
                f"edge marginal check failed {where}: {got} on positive edge {key} against x {want},"
                f" off by {got - want}"
            )
    vert_marg = ghat.vertex_marginals(pg.root)
    for v, want in yt.items():
        if v == pg.root:
            continue
        got = vert_marg.get(v, 0.0)
        if abs(got - want) > STAGE_TOL:
            raise CheckError(
                f"vertex marginal check failed {where}: {got} at vertex {v} against y {want},"
                f" off by {got - want}"
            )
    expect = ghat.expected_length(lambda k: pg.lengths[k])
    budget = sum(pg.lengths[k] * val for k, val in xt.items())
    if expect > budget + STAGE_TOL:
        raise CheckError(
            f"tree length check failed {where}: expected length {expect} exceeds the vector"
            f" length {budget} by {expect - budget}"
        )


def exact_oracle(inst: Instance) -> Solution:
    """Exact optimum by HiGHS MIP on the instance graph, with lazy connectivity cuts.

    Per edge e, x_e in {0, 1, 2} traversals and w_e in {0, 1} with w_e <= x_e
    (its profit collected); per vertex v, y_v in {0, 1} (visited) with
    x_e <= 2 y_u, 2 y_v on e = uv and y_root = 1, and an integer k_v with
    x(delta(v)) = 2 k_v.  Off the root x(delta(v)) >= 2 y_v.  While the
    support of x has a component C without the root, x(delta(C)) >= 2 y_v is
    added for every v in C and the MIP is solved again.  The MIP minimises
    the length walked minus the profit collected.  The walk is the Euler tour
    of the rounded counts; its objective is the returned value and must agree
    with the MIP's.

    No code of the approximation path runs here, so the optimum checks it;
    the two share only ``lp.run_highs``, the checked handoff to HiGHS, which
    solves the MIP with ``EXACT_MIP_OPTIONS`` and gets its rows as they are
    built.  Column lower bounds are zero there, so y_root = 1 is a row.  No
    scipy package is imported.
    """
    m, n, root = len(inst.edges), inst.vertex_count, inst.root
    X, W, Y, K = 0, m, 2 * m, 2 * m + n  # offsets of the four variable blocks
    ncols = 2 * m + 2 * n
    cost = np.zeros(ncols)
    cost[X:W] = [e.length for e in inst.edges]
    cost[W:Y] = [-e.profit for e in inst.edges]
    upper = np.concatenate([np.full(m, 2.0), np.ones(m + n), np.full(n, 2.0 * m)])
    starts, indices, values = [0], [], []  # the rows' nonzeros, row after row
    lo, hi = [], []

    def row(coefs: dict[int, float], low: float, high: float) -> None:
        indices.extend(coefs)
        values.extend(coefs.values())
        starts.append(len(indices))
        lo.append(low)
        hi.append(high)

    def crossing(side) -> dict[int, float]:
        return {X + i: 1.0 for i, e in enumerate(inst.edges) if (e.u in side) != (e.v in side)}

    row({Y + root: 1.0}, 1.0, 1.0)
    for i, e in enumerate(inst.edges):
        row({W + i: 1.0, X + i: -1.0}, -np.inf, 0.0)
        row({X + i: 1.0, Y + e.u: -2.0}, -np.inf, 0.0)
        row({X + i: 1.0, Y + e.v: -2.0}, -np.inf, 0.0)
    for v in range(n):
        row({**crossing({v}), K + v: -2.0}, 0.0, 0.0)
        if v != root:
            row({**crossing({v}), Y + v: -2.0}, 0.0, np.inf)
    while True:
        highs = run_highs(
            EXACT_MIP_OPTIONS, np.ones(ncols, dtype=np.int32), "exact oracle MIP", f"instance {inst.name!r}",
            cost, upper, lo, hi, starts, indices, values,
        )
        x = highs.getSolution().col_value
        counts = Counter(
            {ekey(e.u, e.v): round(x[X + i]) for i, e in enumerate(inst.edges) if x[X + i] > 0.5}
        )
        # one cut row per vertex of each support component that misses the root
        adj = neighbours(counts)
        seen = set(bfs(adj, root))
        if adj.keys() <= seen:
            break
        for start in sorted(adj.keys() - seen):
            if start not in seen:
                side = bfs(adj, start).keys()
                seen |= side
                cut = crossing(side)
                for v in sorted(side):
                    row({**cut, Y + v: -2.0}, 0.0, np.inf)
    walk = euler_tour(counts, root)
    value = objective(inst, walk)
    mip_value = highs.getInfo().objective_function_value + inst.total_profit
    # relative to the largest value any traversal vector within the bounds can take
    tol = 1e-9 * max(1.0, sum(2.0 * e.length + e.profit for e in inst.edges))
    if abs(value - mip_value) > tol:
        raise CheckError(
            f"oracle walk check failed on instance {inst.name!r}: walk value {value} against"
            f" MIP objective {mip_value} (tolerance {tol}), off by {value - mip_value}"
        )
    return Solution(walk, value, lower_bound=value)


def pctsp_solve_exact(nodes, dist, penalties, root, cap: int = PCTSP_CAP) -> list:
    """Optimal visit set and order by subset DP over the representatives."""
    nodes = sorted(nodes)
    k = len(nodes)
    if k > cap:
        raise ValueError(f"{k} representatives exceed the exact cap {cap}")
    if k == 0:
        return []

    total_penalty = 0.0  # added left to right, as builtin sum does only before Python 3.12
    for s in nodes:
        total_penalty += penalties[s]
    dp = {}
    parent = {}
    for i, s in enumerate(nodes):
        dp[(1 << i, i)] = pair_lookup(dist, root, s)
        parent[(1 << i, i)] = None
    for mask in range(1, 1 << k):
        for i in range(k):
            if not mask & (1 << i) or (mask, i) not in dp:
                continue
            base = dp[(mask, i)]
            for j in range(k):
                if mask & (1 << j):
                    continue
                nmask = mask | (1 << j)
                cost = base + pair_lookup(dist, nodes[i], nodes[j])
                if (nmask, j) not in dp or cost < dp[(nmask, j)] - 1e-15:
                    dp[(nmask, j)] = cost
                    parent[(nmask, j)] = (mask, i)

    best_value = total_penalty
    best_state = None
    for mask in range(1, 1 << k):
        skipped = 0.0
        for i in range(k):
            if not mask & (1 << i):
                skipped += penalties[nodes[i]]
        for i in range(k):
            if mask & (1 << i) and (mask, i) in dp:
                value = dp[(mask, i)] + pair_lookup(dist, nodes[i], root) + skipped
                if value < best_value - 1e-15:
                    best_value = value
                    best_state = (mask, i)
    if best_state is None:
        return []
    seq = []
    state = best_state
    while state is not None:
        seq.append(nodes[state[1]])
        state = parent[state]
    seq.reverse()
    return seq


def _pctsp_greedy(nodes, dist, penalties, root) -> list:
    """Nearest-improving fallback when the representative count exceeds the cap."""
    visited = []
    cur = root
    remaining = sorted(nodes)
    while remaining:
        best_s = None
        best_gain = 0.0
        for s in remaining:
            detour = pair_lookup(dist, cur, s) + pair_lookup(dist, s, root) - pair_lookup(dist, cur, root)
            gain = penalties[s] - detour
            if gain > best_gain + 1e-15:
                best_gain = gain
                best_s = s
        if best_s is None:
            break
        visited.append(best_s)
        remaining.remove(best_s)
        cur = best_s
    return visited


def pctsp_reduction(inst: Instance, cap: int = PCTSP_CAP) -> Solution:
    """Baseline: one representative vertex per positive edge, then stitch back.

    Builds the subdivided graph with two half-length edges per positive edge,
    takes the metric complete graph on the root and the representatives,
    solves PCTSP on it exactly (greedily above ``cap`` representatives), and
    walks the selected edges in tour order via the nearer endpoint each time.

    The stitched walk is deliberately not compared with the trivial walk at
    the root, even when it costs more: the baseline reports what the
    reduction itself returns, and its factor-two loss on the barrier family
    is what ``test_barrier_regression`` and ``test_reduction_barrier`` pin.
    """
    t_start = time.perf_counter()
    positive = [i for i, e in enumerate(inst.edges) if e.profit > 0.0]
    if not positive:
        walk = Walk.trivial(inst.root)
        return Solution(walk, objective(inst, walk), stats={"exact": True, "visited": 0})

    n = inst.vertex_count
    rep_of = {i: n + j for j, i in enumerate(positive)}
    halves = []
    for i, e in enumerate(inst.edges):
        if e.profit > 0.0:
            halves.append(Edge(e.u, rep_of[i], e.length / 2.0, 0.0))
            halves.append(Edge(e.v, rep_of[i], e.length / 2.0, 0.0))
        else:
            halves.append(e)
    adj = weighted_adjacency(n + len(positive), halves)

    reps = [rep_of[i] for i in positive]
    terminals = [inst.root] + reps
    dist = {}
    for a in terminals:
        dvals, _ = shortest_paths(adj, a)
        for b in terminals:
            if a < b:
                dist[(a, b)] = dvals[b]
    penalties = {rep_of[i]: inst.edges[i].profit for i in positive}

    exact = len(reps) <= cap
    if exact:
        visited = pctsp_solve_exact(reps, dist, penalties, inst.root, cap=cap)
    else:
        visited = _pctsp_greedy(reps, dist, penalties, inst.root)

    edge_of_rep = {rep_of[i]: i for i in positive}
    orig_adj = inst.adjacency()
    sp = {}

    def paths_from(v):
        if v not in sp:
            sp[v] = shortest_paths(orig_adj, v)
        return sp[v]

    seq = [inst.root]
    cur = inst.root
    for s in visited:
        e = inst.edges[edge_of_rep[s]]
        dvals, preds = paths_from(cur)
        first, second = (e.u, e.v)
        if dvals[e.v] < dvals[e.u] - 1e-15 or (
            abs(dvals[e.v] - dvals[e.u]) <= 1e-15 and e.v < e.u
        ):
            first, second = (e.v, e.u)
        seq.extend(reconstruct_path(preds, cur, first)[1:])
        seq.append(second)
        cur = second
    dvals, preds = paths_from(cur)
    seq.extend(reconstruct_path(preds, cur, inst.root)[1:])
    walk = Walk(tuple(seq))
    value = objective(inst, walk)
    stats = {
        "exact": exact,
        "visited": len(visited),
        "t_total": time.perf_counter() - t_start,
    }
    return Solution(walk, value, stats=stats)
