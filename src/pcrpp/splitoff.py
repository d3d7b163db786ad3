"""Complete splitting-off with cut preservation and the threshold split.

A split at a vertex repeatedly moves mass from two incident edges onto the
chord between the chosen neighbours until the vertex is isolated, keeping
every required root-to-vertex min cut intact.  Candidate neighbour pairs are
scanned by descending value and the first pair admitting positive mass is
taken with the largest admissible amount, computed exactly from one min-cut
probe per demand (see ``_max_feasible``).

The splitting loop works in a merged view of the root-copy construction:
the working vector lives on the preprocessed graph while the mass retired
onto the distinguished root-copy chord is tracked in a scalar.  Each merged
operation expands into one or two recorded operations on the auxiliary
graph (a root-incident pair expands into the two balanced halves, a root
drop becomes the pair of the root with its copy), which is exactly the shape
the tree decomposition later undoes.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import ekey
from .lp import SUPPORT_FLOOR, LpSolution, capacity_adjacency, cut_at_least, max_flow_min_cut
from .preprocess import PreprocessedGraph

PRECISION = 1e-9
DEMAND_SLACK = 1e-9


class SplitError(RuntimeError):
    """No feasible splitting operation although the vertex still has degree."""


@dataclass(frozen=True)
class SplitOp:
    vertex: int
    left: int
    right: int
    amount: float


def _set_value(x, adj, key, val):
    """Store val on the edge in x and ``adj``, or drop it at or below ``SUPPORT_FLOOR``."""
    u, v = key
    if val > SUPPORT_FLOOR:
        x[key] = val
        adj.setdefault(u, {})[v] = val
        adj.setdefault(v, {})[u] = val
    else:
        x.pop(key, None)
        if u in adj:
            adj[u].pop(v, None)
        if v in adj:
            adj[v].pop(u, None)


def _max_feasible(x, adj, delta_fn, demands, root, hi):
    """Largest amount up to ``hi`` that keeps every demand, or 0.0.

    Splitting eps off lowers each root cut by exactly 2 eps or leaves it
    unchanged (Mader 1978; Frank 1992, "On a theorem of Mader").  So with
    the candidate applied at ``hi``, a demand whose probe falls short is
    short on a cut that lost 2 hi, since the others keep a value that
    already met it; with f its full cut value at ``hi``, that cut is worth
    f + 2 (hi - eps) at eps, and the demand admits hi - (demand - f) / 2.
    The amount is the smallest admitted one; at or below ``PRECISION`` the
    candidate admits nothing.  x and ``adj`` are restored before returning.
    """
    deltas = delta_fn(hi)
    saved = [(key, x.get(key, 0.0)) for key, _ in deltas]
    for key, d in deltas:
        _set_value(x, adj, key, x.get(key, 0.0) + d)
    eps = hi
    for t in sorted(demands):
        need = demands[t]
        if not cut_at_least(adj, t, root, need - DEMAND_SLACK):
            f, _ = max_flow_min_cut(adj, t, root)
            eps = min(eps, hi - (need - f) / 2.0)
            if eps <= PRECISION:
                eps = 0.0
                break
    for key, old in saved:
        _set_value(x, adj, key, old)
    return eps


def _candidates(adj, root, v):
    """Ordered candidate operations at v.

    Entries are sorted by descending edge value with vertex-id tie-break; the
    root mass counts as the two balanced halves, so a root entry and its
    mirror sit at half the merged value.  ``adj`` holds only values above
    ``SUPPORT_FLOOR``, as ``complete_split`` and ``_set_value`` store them.
    """
    nbrs = adj.get(v, {})
    entries = []
    root_val = nbrs.get(root, 0.0)
    for u in sorted(nbrs):
        val = nbrs[u]
        if u == root:
            entries.append((val / 2.0, root, "root"))
            entries.append((val / 2.0, -1, "rootcopy"))
        else:
            entries.append((val, u, "plain"))
    entries.sort(key=lambda t: (-t[0], t[1]))
    cands = []
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            ki, kj = entries[i][2], entries[j][2]
            if {ki, kj} == {"root", "rootcopy"}:
                cands.append(("rootdrop", None, None, root_val / 2.0))
            elif "rootcopy" in (ki, kj):
                continue
            elif "root" in (ki, kj):
                u = entries[j][1] if ki == "root" else entries[i][1]
                cands.append(("rootpair", root, u, min(root_val, nbrs[u])))
            else:
                a, b = entries[i][1], entries[j][1]
                cands.append(("pair", a, b, min(nbrs[a], nbrs[b])))
    return cands


def complete_split(
    x: dict[tuple[int, int], float],
    root: int,
    v: int,
    demands: dict[int, float],
    aux_copy: int,
    e0: float,
) -> tuple[dict[tuple[int, int], float], list[SplitOp], float]:
    """Zero out the degree of v while preserving all demanded root cuts.

    ``aux_copy`` is the root copy and ``e0`` the mass on its chord: a root
    drop moves mass onto the chord and is recorded as the pair of the root
    with its copy.  Raises SplitError when the remaining degree cannot be
    split, which for feasible relaxation solutions indicates a bug or
    inconsistent demands.
    """
    if v == root or v in demands or root in demands:
        raise ValueError("demands must exclude the root and the split vertex")
    x = dict(x)
    adj = capacity_adjacency(x)
    ops: list[SplitOp] = []
    guard = 0
    while True:
        degree = sum(adj.get(v, {}).values())
        if degree <= PRECISION:
            break
        guard += 1
        if guard > 64 * (len(adj) + 2):
            raise SplitError(f"splitting at vertex {v} did not converge")
        chosen = None
        for kind, a, b, cap in _candidates(adj, root, v):
            if kind == "pair" or kind == "rootpair":
                def deltas(eps, a=a, b=b):
                    return [
                        (ekey(v, a), -eps),
                        (ekey(v, b), -eps),
                        (ekey(a, b), eps),
                    ]
            else:  # rootdrop: merged x loses 2*eps on the root edge
                def deltas(eps):
                    return [(ekey(v, root), -2.0 * eps)]
            eps = _max_feasible(x, adj, deltas, demands, root, cap)
            if eps > PRECISION:
                chosen = (kind, a, b, eps, deltas)
                break
        if chosen is None:
            raise SplitError(
                f"no feasible splitting pair at vertex {v} with remaining degree {degree}"
            )
        kind, a, b, eps, deltas = chosen
        for key, d in deltas(eps):
            _set_value(x, adj, key, x.get(key, 0.0) + d)
        if kind == "pair":
            ops.append(SplitOp(v, *ekey(a, b), eps))
        elif kind == "rootpair":
            half = eps / 2.0
            ops.append(SplitOp(v, *ekey(root, b), half))
            ops.append(SplitOp(v, *ekey(aux_copy, b), half))
        else:
            e0 = e0 + eps
            ops.append(SplitOp(v, *ekey(root, aux_copy), eps))
    return x, ops, e0


def split_every_vertex(x, e0: float, y: dict[int, float], root: int, copy: int):
    """Split off every vertex but the root and its copy, in the merged view.

    Vertices go in nondecreasing order of their values with vertex-id
    tie-break, each keeping the root cuts of the vertices still pending.
    Returns the operations, the (vertex, operation count) groups and the
    (edge vector, chord mass) state at every vertex boundary.  Raises
    SplitError when mass is left after the last vertex.
    """
    order = sorted((v for v in y if v not in (root, copy)), key=lambda v: (y[v], v))
    states: list[tuple[dict, float]] = [(dict(x), e0)]
    groups: list[tuple[int, int]] = []
    ops: list[SplitOp] = []
    for i, v in enumerate(order):
        demands = {t: 2.0 * y[t] for t in order[i + 1:] if y[t] > SUPPORT_FLOOR}
        x, vops, e0 = complete_split(x, root, v, demands, copy, e0)
        ops.extend(vops)
        groups.append((v, len(vops)))
        states.append((dict(x), e0))
    residue = sum(abs(val) for val in x.values())
    if residue > 1e-6:
        raise SplitError(f"residual mass {residue} on {sorted(x)} after splitting every vertex")
    return tuple(ops), tuple(groups), states


def root_copy(pg: PreprocessedGraph) -> int:
    """Id of the root copy on the auxiliary graph: the first id past the vertices."""
    return pg.vertex_count


class SplitRecorder:
    """One full splitting pass over all non-root vertices, replayable per threshold.

    The state at every vertex boundary is kept so any threshold maps to a
    stored prefix of the recorded operations.  ``thresholds`` are the outer
    thresholds: the distinct positive values of the split vertices, sorted.
    """

    def __init__(self, pg: PreprocessedGraph, sol: LpSolution):
        self.root, self.copy = pg.root, root_copy(pg)
        self.y = dict(sol.y)
        x = {k: val for k, val in sol.x.items() if val > SUPPORT_FLOOR}
        deg_r = sum(val for k, val in x.items() if self.root in k)
        self.ops, self.groups, self.states = split_every_vertex(
            x, 2.0 - 0.5 * deg_r, self.y, self.root, self.copy
        )
        self.prefix = [0]
        for _, cnt in self.groups:
            self.prefix.append(self.prefix[-1] + cnt)
        self.thresholds = sorted({self.y[v] for v, _ in self.groups if self.y[v] > 0.0})

    def boundary(self, delta: float) -> int:
        """Number of leading groups whose vertex value falls below the threshold."""
        count = 0
        for v, _ in self.groups:
            if self.y[v] < delta:
                count += 1
            else:
                break
        return count

    def state(self, boundary: int) -> tuple[dict, float]:
        x, e0 = self.states[boundary]
        return dict(x), e0
