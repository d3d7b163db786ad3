"""Core extraction, parity correction and assembly of one candidate walk."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

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


def min_perfect_matching(points, dist) -> list[tuple[int, int]]:
    """Exact minimum-length perfect pairing of an even point set."""
    points = sorted(points)
    if len(points) % 2 != 0:
        raise ValueError("odd number of points cannot be perfectly matched")
    if not points:
        return []
    if len(points) == 2:
        return [(points[0], points[1])]
    import networkx as nx  # here, so that `import pcrpp` does not pay ~0.14 s for it

    graph = nx.Graph()
    graph.add_nodes_from(points)
    for i, a in enumerate(points):
        for b in points[i + 1:]:
            graph.add_edge(a, b, weight=pair_lookup(dist, a, b))
    matching = nx.min_weight_matching(graph)
    return sorted(ekey(a, b) for a, b in matching)


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
