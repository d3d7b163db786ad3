"""Core extraction, parity correction and assembly of one candidate walk."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import (
    Instance,
    Walk,
    bfs,
    connected_to,
    ekey,
    euler_tour,
    neighbours,
    objective,
    odd_vertices,
    pair_lookup,
    reconstruct_path,
    shortest_paths,
)
from .lp import EXACT_MIP_OPTIONS, LpError, run_highs
from .preprocess import PreprocessedGraph, restore


@dataclass(frozen=True)
class Candidate:
    walk: Walk
    value: float
    provenance: tuple


def edge_profit_core(
    tree: frozenset, x: dict[tuple[int, int], float], gamma: float, pg: PreprocessedGraph
) -> frozenset:
    """Union of the root paths to every positive tree edge with value >= gamma.

    The result is the minimal root-containing subtree of ``tree`` spanning
    those edges, as a frozenset of pair keys.
    """
    root = pg.root
    targets = set()
    for key in tree:
        if key in pg.pos_edges and x.get(key, 0.0) >= gamma:
            targets.update(key)
    if not targets:
        return frozenset()
    parent = bfs(neighbours(tree), root)
    edges: set = set()
    for t in targets:
        if t not in parent:
            raise ValueError(f"qualifying endpoint {t} is not connected to the root")
        w = t
        while parent[w] is not None:
            prev = parent[w]
            key = ekey(prev, w)
            if key in edges:
                break
            edges.add(key)
            w = prev
    return frozenset(edges)


def _pairings(points: list):
    """Every perfect pairing of ``points``: the first point with each later one in turn."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for i, b in enumerate(rest):
        for tail in _pairings(rest[:i] + rest[i + 1:]):
            yield [(first, b), *tail]


def _pairing_by_mip(points: list, dist) -> list[tuple[int, int]]:
    """Minimum-length perfect pairing by a 0/1 MIP: one column per pair, one row = 1 per point."""
    k = len(points)
    ends = np.array([(i, j) for i in range(k) for j in range(i + 1, k)], dtype=np.int32)
    ncols = len(ends)
    cost = [pair_lookup(dist, points[i], points[j]) for i, j in ends.tolist()]
    one = np.ones(k)
    # point i's row: the k - 1 pairs with an end at i, in pair order
    highs = run_highs(
        EXACT_MIP_OPTIONS, np.ones(ncols, dtype=np.int32), "pairing MIP", f"points {points}",
        cost, np.ones(ncols), one, one,
        np.arange(0, 2 * ncols + 1, k - 1), np.argsort(ends.ravel(), kind="stable") // 2, np.ones(2 * ncols),
    )
    x = np.array(highs.getSolution().col_value)
    chosen = ends[x > 0.5]
    matched = np.bincount(chosen.ravel(), minlength=k)
    if np.abs(x - np.round(x)).max() > 1e-6 or (matched != 1).any():
        raise LpError(f"pairing MIP on points {points} returned no perfect matching: {x.tolist()}")
    return [(points[i], points[j]) for i, j in chosen.tolist()]


def min_perfect_matching(points, dist) -> list[tuple[int, int]]:
    """Exact minimum-length perfect pairing of an even point set, as sorted pairs.

    Up to four points the (k-1)!! <= 3 pairings are compared in the order
    of ``_pairings`` and the first of minimal length is kept.  From six
    points on, the pairing is a MIP solved by HiGHS with both gaps at zero,
    through the bindings ``pcrpp.lp`` loaded; each such call costs under a
    millisecond, many times the comparison of three pairings.
    """
    points = sorted(points)
    if len(points) % 2 != 0:
        raise ValueError("odd number of points cannot be perfectly matched")
    if len(points) > 4:
        return _pairing_by_mip(points, dist)
    return min(_pairings(points), key=lambda pairs: sum(pair_lookup(dist, a, b) for a, b in pairs))


def _pairing_paths(inst: Instance, targets, sp_cache) -> Counter:
    """Edge counts of the shortest paths of an exact minimum-length target pairing."""
    adj = inst.adjacency()
    cache = sp_cache if sp_cache is not None else {}
    for t in targets:
        if t not in cache:
            cache[t] = shortest_paths(adj, t)
    dist = {}
    for i, a in enumerate(targets):
        for b in targets[i + 1:]:
            d = cache[a][0][b]
            if d == float("inf"):
                raise ValueError(f"targets {a} and {b} lie in different components")
            dist[(a, b)] = d
    counts: Counter = Counter()
    for a, b in min_perfect_matching(targets, dist):
        path = reconstruct_path(cache[a][1], a, b)
        for u, v in zip(path, path[1:]):
            counts[ekey(u, v)] += 1
    return counts


def min_tjoin(inst: Instance, targets, sp_cache=None) -> Counter:
    """Minimum-length edge multiset whose odd-degree set equals the targets.

    Pairs the targets by an exact matching under the shortest-path metric and
    expands each pair to its path; edge copies cancel in pairs, which keeps
    parity and never increases the length.
    """
    targets = sorted(set(targets))
    if len(targets) % 2 != 0:
        raise ValueError("odd target set admits no parity correction")
    if not targets:
        return Counter()
    paths = _pairing_paths(inst, targets, sp_cache)
    return Counter({k: 1 for k, m in paths.items() if m % 2})


def build_candidate(
    inst: Instance,
    pg: PreprocessedGraph,
    core: frozenset,
    provenance: tuple,
    sp_cache=None,
) -> Candidate:
    """Restore a core, correct parities, and read off the Eulerian walk."""
    if not core:
        walk = Walk.trivial(inst.root)
        return Candidate(walk, objective(inst, walk), provenance)
    restored = restore(pg, Counter(core))
    if not connected_to(restored, inst.root):
        raise AssertionError("restored core is disconnected from the root")
    join = min_tjoin(inst, odd_vertices(restored), sp_cache=sp_cache)
    combined = restored + join
    if odd_vertices(combined):
        raise AssertionError("parity correction left an odd vertex")
    if not connected_to(combined, inst.root):
        # the cancelled copies cut the walk apart: keep every path copy
        paths = _pairing_paths(inst, sorted(odd_vertices(restored)), sp_cache)
        combined = restored + paths
    walk = euler_tour(combined, inst.root)
    return Candidate(walk, objective(inst, walk), provenance)
