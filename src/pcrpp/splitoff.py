"""Complete splitting-off with cut preservation and the threshold split.

A split at a vertex repeatedly moves mass from two incident edges onto the
chord between the chosen neighbours until the vertex is isolated, keeping
every required root-to-vertex min cut intact.  Candidate neighbour pairs are
scanned by descending value and the first pair admitting positive mass is
taken with the largest admissible amount, computed exactly from one min-cut
probe per demand (see ``_max_feasible``).  A splitting pass keeps one
``FlowNetwork`` of the working vector for all its vertices, edited in step
with it by ``_set_value``, since the state after one vertex is the start of
the next; candidates, the degree test and every probe read that network.

A move that isolates the split vertex v needs no probe (Lovász 1976, the
complete splitting of a degree-2 vertex).  Take any t other than v and any
set S with t inside and the root outside.  If v is in S, the cut of S after
the move equals the cut of S without v before it; otherwise it equals the
cut of S with v before it.  Both are t-root cuts, so no root cut of t
drops.  Pairs at or below ``SUPPORT_FLOOR`` leave a few 1e-12 at most,
far inside ``DEMAND_SLACK``.  One behaviour differs from probing: a state
already short of a demand by more than ``DEMAND_SLACK``, possible only at
the LP point itself since separation checks cuts to ``FEAS_TOL``, has an
isolating move split in full, which leaves that cut no lower than it was,
where probes would shorten or reject the move.

The splitting loop works in a merged view of the root-copy construction:
the working vector lives on the preprocessed graph, and the mass retired
onto the distinguished root-copy chord is read off the recorded root drops.
Each merged operation expands into one or two recorded operations on the
auxiliary graph (a root-incident pair expands into the two balanced halves,
a root drop becomes the pair of the root with its copy), which is exactly
the shape the tree decomposition later undoes.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import ekey, endpoints
from .lp import SUPPORT_FLOOR, FlowNetwork, LpSolution, cut_at_least, max_flow_min_cut
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


def _set_value(x, net, key, val):
    """Store val on the edge in x and ``net``, or drop it at or below ``SUPPORT_FLOOR``."""
    if val > SUPPORT_FLOOR:
        x[key] = val
    else:
        x.pop(key, None)
    net.set_capacity(*key, val)


def _max_feasible(x, net, v, move, demands, root, hi):
    """Largest amount up to ``hi`` that keeps every demand, or 0.0.

    ``move`` lists the candidate's (edge, coefficient) pairs: at amount eps
    each edge changes by coefficient * eps.  The candidate is applied at
    ``hi``; when that leaves the split vertex v without live pairs it keeps
    every demand (module docstring) and ``hi`` is returned with no probe.
    Otherwise splitting eps off lowers each root cut by exactly 2 eps or
    leaves it unchanged (Mader 1978; Frank 1992, "On a theorem of Mader").
    So a demand whose probe falls short at ``hi`` is short on a cut that
    lost 2 hi, since the others keep a value that already met it; with f
    its full cut value at ``hi``, that cut is worth f + 2 (hi - eps) at eps,
    and the demand admits hi - (demand - f) / 2.  The amount is the smallest
    admitted one; at or below ``PRECISION`` the candidate admits nothing.
    An amount of ``hi`` leaves the candidate applied in x and ``net``; for a
    smaller one both are restored before returning.
    """
    if hi <= PRECISION:
        return 0.0
    saved = [(key, x.get(key, 0.0)) for key, _ in move]
    for key, c in move:
        _set_value(x, net, key, x.get(key, 0.0) + c * hi)
    if not net.row(v):
        return hi
    eps = hi
    for t in sorted(demands):
        need = demands[t]
        if not cut_at_least(net, t, root, need - DEMAND_SLACK):
            f, _ = max_flow_min_cut(net, t, root)
            eps = min(eps, hi - (need - f) / 2.0)
            if eps <= PRECISION:
                eps = 0.0
                break
    if eps < hi:
        for key, old in saved:
            _set_value(x, net, key, old)
    return eps


def _candidates(nbrs, root, v):
    """Ordered candidate operations at v as (tag, a, b, cap, move), lazily.

    Entries are (value, id) pairs sorted by descending value with id
    tie-break; the root mass counts as the two balanced halves, the root's
    at its id and the copy's at id -1, which sorts it first of the two.  A
    pair of plain entries or of the root with a plain entry moves mass onto
    their chord (coefficients -1, -1, +1); the two halves together drop the
    root edge (-2); the copy's half pairs with nothing else.  ``nbrs`` is v's
    row of the working network, ``FlowNetwork.row(v)``: its values are the
    ones above ``SUPPORT_FLOOR``, as ``_set_value`` stores them.
    """
    entries = [(val, u) for u, val in nbrs.items() if u != root]
    if root in nbrs:
        entries += [(nbrs[root] / 2.0, root), (nbrs[root] / 2.0, -1)]
    entries.sort(key=lambda t: (-t[0], t[1]))
    for i, (_, a) in enumerate(entries):
        for _, b in entries[i + 1:]:
            if (a, b) == (-1, root):
                yield "rootdrop", None, None, nbrs[root] / 2.0, [(ekey(v, root), -2)]
            elif -1 not in (a, b):
                p, q = (b, a) if b == root else (a, b)
                move = [(ekey(v, p), -1), (ekey(v, q), -1), (ekey(p, q), 1)]
                yield "rootpair" if p == root else "pair", p, q, min(nbrs[p], nbrs[q]), move


def complete_split(
    x: dict[tuple[int, int], float],
    root: int,
    v: int,
    demands: dict[int, float],
    aux_copy: int,
    net: FlowNetwork,
) -> tuple[dict[tuple[int, int], float], list[SplitOp]]:
    """Zero out the degree of v while preserving all demanded root cuts.

    ``aux_copy`` is the root copy: a root drop moves mass onto its chord and
    is recorded as the pair of the root with its copy, so the chord mass is
    read off those operations.  ``net`` is the network of x, edited in step
    with the split and left holding the returned vector.  A candidate that
    ``_max_feasible`` admits in full is already applied, so only a shortened
    amount is applied here.  Returns a fresh edge vector and the operations.
    Raises SplitError when the remaining degree cannot be split, which for
    feasible relaxation solutions indicates a bug or inconsistent demands.
    """
    if v == root or v in demands or root in demands:
        raise ValueError("demands must exclude the root and the split vertex")
    x = dict(x)
    # x holds the live pairs, and chords join v's neighbours, so the vertices
    # with live pairs stay these
    limit = 64 * (len(endpoints(x)) + 2)
    ops: list[SplitOp] = []
    guard = 0
    while True:
        nbrs = net.row(v)
        degree = sum(nbrs.values())
        if degree <= PRECISION:
            break
        guard += 1
        if guard > limit:
            raise SplitError(f"splitting at vertex {v} did not converge")
        for kind, a, b, hi, move in _candidates(nbrs, root, v):
            eps = _max_feasible(x, net, v, move, demands, root, hi)
            if eps > PRECISION:
                break
        else:
            raise SplitError(
                f"no feasible splitting pair at vertex {v} with remaining degree {degree}"
            )
        if eps < hi:
            for key, c in move:
                _set_value(x, net, key, x.get(key, 0.0) + c * eps)
        if kind == "pair":
            ops.append(SplitOp(v, *ekey(a, b), eps))
        elif kind == "rootpair":
            half = eps / 2.0
            ops.append(SplitOp(v, *ekey(root, b), half))
            ops.append(SplitOp(v, *ekey(aux_copy, b), half))
        else:
            ops.append(SplitOp(v, *ekey(root, aux_copy), eps))
    return x, ops


def split_every_vertex(x, y: dict[int, float], root: int, copy: int):
    """Split off every vertex but the root and its copy, in the merged view.

    Vertices go in nondecreasing order of their values with vertex-id
    tie-break, each keeping the root cuts of the vertices still pending.
    One ``FlowNetwork`` serves the whole pass: each vertex's split starts
    from the network the previous one left.  Returns the operations, the
    (vertex, operation count) groups and the edge vector at every vertex
    boundary; the chord mass is read off the root drops among the
    operations.  Raises SplitError when mass is left after the last vertex.
    """
    order = sorted((v for v in y if v not in (root, copy)), key=lambda v: (y[v], v))
    states: list[dict] = [dict(x)]
    groups: list[tuple[int, int]] = []
    ops: list[SplitOp] = []
    net = FlowNetwork(x)
    for i, v in enumerate(order):
        demands = {t: 2.0 * y[t] for t in order[i + 1:] if y[t] > SUPPORT_FLOOR}
        x, vops = complete_split(x, root, v, demands, copy, net)
        ops.extend(vops)
        groups.append((v, len(vops)))
        states.append(x)
    residue = sum(abs(val) for val in x.values())
    if residue > 1e-6:
        raise SplitError(f"residual mass {residue} on {sorted(x)} after splitting every vertex")
    return tuple(ops), tuple(groups), states


def root_copy(pg: PreprocessedGraph) -> int:
    """Id of the root copy on the auxiliary graph: the first id past the vertices."""
    return pg.vertex_count


class SplitRecorder:
    """One full splitting pass over all non-root vertices, replayable per threshold.

    The edge vector at every vertex boundary is kept so any threshold maps
    to a stored prefix of the recorded operations.  ``thresholds`` are the
    outer thresholds: the distinct positive values of the split vertices,
    sorted.  ``chord`` is the mass on the root-copy chord after the whole
    pass, read off the recorded root drops: 2 - deg(root) / 2 plus the
    amount of every (root, copy) operation, added in operation order.
    """

    def __init__(self, pg: PreprocessedGraph, sol: LpSolution):
        self.root, self.copy = pg.root, root_copy(pg)
        self.y = dict(sol.y)
        x = {k: val for k, val in sol.x.items() if val > SUPPORT_FLOOR}
        deg_r = 0.0  # added left to right, as builtin sum does only before Python 3.12
        for k, val in x.items():
            if self.root in k:
                deg_r += val
        self.ops, self.groups, self.states = split_every_vertex(x, self.y, self.root, self.copy)
        self.chord = 2.0 - 0.5 * deg_r
        for op in self.ops:
            if (op.left, op.right) == ekey(self.root, self.copy):
                self.chord += op.amount
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

    def state(self, boundary: int) -> dict:
        return dict(self.states[boundary])
