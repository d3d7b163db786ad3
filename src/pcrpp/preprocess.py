"""Vertex copying and shortest-path completion of the input graph.

The completion turns the instance into a complete graph in which positive
edges are pairwise vertex-disjoint, the root touches none of them, and every
zero-profit edge carries the exact shortest-path distance, realized by the
path through the stored Dijkstra predecessors of its smaller endpoint.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import (
    ABS_TOL,
    INF,
    Edge,
    Instance,
    ekey,
    reconstruct_path,
    shortest_paths,
    weighted_adjacency,
)


@dataclass(frozen=True, eq=False)
class CopiedGraph:
    """Instance graph after the copying step, before completion.

    ``copy_map`` sends every vertex to the instance vertex it copies (an
    instance vertex to itself); each copy c is tied to ``copy_map[c]`` by a
    zero-length tether edge.
    """

    vertex_count: int
    root: int
    edges: tuple[Edge, ...]
    copy_map: dict[int, int]


@dataclass(frozen=True, eq=False)
class PairArrays:
    """Per-pair data of the complete graph, indexed like ``np.triu_indices(n, 1)``.

    That index order is the sorted order of the pair keys (u, v) with u < v,
    which is also the key order of ``PreprocessedGraph.lengths``, so a
    boolean mask over pairs lists its pairs in sorted key order.  The arrays
    are read-only.
    """

    vertex_count: int
    u: np.ndarray
    v: np.ndarray
    lengths: np.ndarray
    profits: np.ndarray
    positive: np.ndarray
    at_root: np.ndarray

    def __post_init__(self):
        for arr in (self.u, self.v, self.lengths, self.profits, self.positive, self.at_root):
            arr.flags.writeable = False

    def index(self, keys) -> np.ndarray:
        """Pair index of each key (u, v), u < v."""
        k = np.array(keys, dtype=np.intp).reshape(-1, 2)
        u, v, n = k[:, 0], k[:, 1], self.vertex_count
        return u * (2 * n - u - 1) // 2 + v - u - 1

    def keys(self, idx=slice(None)) -> list[tuple[int, int]]:
        return list(zip(self.u[idx].tolist(), self.v[idx].tolist()))

    def crossing(self, sides) -> np.ndarray:
        """One row per side: which pairs have exactly one endpoint in it."""
        inside = np.zeros((len(sides), self.vertex_count), dtype=bool)
        for row, side in zip(inside, sides):
            row[list(side)] = True
        return inside[:, self.u] != inside[:, self.v]


@dataclass(frozen=True, eq=False)
class PreprocessedGraph:
    """Complete graph with one edge per vertex pair and back-maps to the input.

    ``lengths`` and ``profits`` are keyed by the pairs (u, v), u < v, in
    sorted order, and ``pairs`` holds the same data as arrays in that order.
    ``preds[u]`` is the Dijkstra predecessor of every vertex on the copied
    graph from source u, so ``reconstruct_path(preds[u], u, v)`` is the path
    a zero-profit pair (u, v) stands for.
    """

    copied: CopiedGraph
    lengths: dict[tuple[int, int], float]
    profits: dict[tuple[int, int], float]
    pos_edges: frozenset
    pairs: PairArrays
    preds: tuple[tuple[int | None, ...], ...]

    @property
    def vertex_count(self) -> int:
        return self.copied.vertex_count

    @property
    def root(self) -> int:
        return self.copied.root


def copy_vertices(inst: Instance) -> CopiedGraph:
    """Detach the root from positive edges and separate bundled positive edges.

    Every positive edge at the root moves to a fresh copy tied back with a
    zero-length, zero-profit tether; a non-root vertex is copied once per
    positive edge only when it has more than one.
    """
    ends: list[list[int]] = [[e.u, e.v] for e in inst.edges]
    tethers: list[tuple[int, int]] = []
    next_id = inst.vertex_count
    copy_map = {v: v for v in range(inst.vertex_count)}

    def positive_at(v: int) -> list[int]:
        out = []
        for i, e in enumerate(inst.edges):
            if e.profit > 0.0 and v in ends[i]:
                out.append(i)
        return out

    for i in positive_at(inst.root):
        ends[i][ends[i].index(inst.root)] = next_id
        copy_map[next_id] = inst.root
        tethers.append((inst.root, next_id))
        next_id += 1

    for v in range(inst.vertex_count):
        if v == inst.root:
            continue
        incident = positive_at(v)
        if len(incident) <= 1:
            continue
        for i in incident:
            ends[i][ends[i].index(v)] = next_id
            copy_map[next_id] = v
            tethers.append((v, next_id))
            next_id += 1

    edges = [
        Edge(*ekey(a, b), inst.edges[i].length, inst.edges[i].profit)
        for i, (a, b) in enumerate(ends)
    ]
    for a, b in tethers:
        edges.append(Edge(*ekey(a, b), 0.0, 0.0))
    return CopiedGraph(
        vertex_count=next_id,
        root=inst.root,
        edges=tuple(edges),
        copy_map=copy_map,
    )


def complete(copied: CopiedGraph) -> PreprocessedGraph:
    """Complete the copied graph with zero-profit shortest-path edges.

    Raises ValueError naming the smallest vertex that the root cannot reach.
    """
    n = copied.vertex_count
    adj = weighted_adjacency(n, copied.edges)
    positive = {ekey(e.u, e.v): e for e in copied.edges if e.profit > 0.0}
    lengths: dict[tuple[int, int], float] = {}
    profits: dict[tuple[int, int], float] = {}
    preds = []
    for u in range(n):
        dist, pred = shortest_paths(adj, u)
        preds.append(tuple(pred.values()))
        for v in range(u + 1, n):
            key = (u, v)
            e = positive.get(key)
            if e is not None:
                lengths[key] = e.length
                profits[key] = e.profit
                continue
            if dist[v] == INF:
                from_root, _ = shortest_paths(adj, copied.root)
                bad = min(w for w in range(n) if from_root[w] == INF)
                raise ValueError(
                    f"preprocess: vertex {bad} cannot be reached from the root {copied.root}"
                )
            lengths[key] = dist[v]
            profits[key] = 0.0

    first, second = np.triu_indices(n, 1)
    pairs = PairArrays(
        vertex_count=n,
        u=first,
        v=second,
        lengths=np.fromiter(lengths.values(), float),
        profits=np.fromiter(profits.values(), float),
        positive=np.fromiter((k in positive for k in lengths), bool),
        at_root=(first == copied.root) | (second == copied.root),
    )
    pg = PreprocessedGraph(copied, lengths, profits, frozenset(positive), pairs, tuple(preds))
    _check_properties(pg)
    return pg


def preprocess(inst: Instance) -> PreprocessedGraph:
    return complete(copy_vertices(inst))


def _check_properties(pg: PreprocessedGraph) -> None:
    root = pg.root
    incident: Counter = Counter()
    for u, v in pg.pos_edges:
        if root in (u, v):
            raise AssertionError("root incident to a positive edge")
        incident[u] += 1
        incident[v] += 1
    if incident and max(incident.values()) > 1:
        raise AssertionError("vertex incident to two positive edges")


def restore(pg: PreprocessedGraph, selected: Counter) -> Counter:
    """Map a complete-graph edge multiset back to an instance edge multiset.

    Positive edges return to their originating edges, zero-profit edges
    expand along their shortest paths, and copies merge back via ``copy_map``;
    tether steps collapse to nothing.  Multiplicities are positive (callers
    pass ``Counter(core)``).  The total length is preserved exactly, which
    is asserted.
    """
    copy_map = pg.copied.copy_map
    counts: Counter = Counter()
    expect = 0.0
    for key, mult in selected.items():
        if key not in pg.lengths:
            raise ValueError(f"edge {key} is not in the preprocessed graph")
        expect += mult * pg.lengths[key]
        if key in pg.pos_edges:
            a, b = copy_map[key[0]], copy_map[key[1]]
            counts[ekey(a, b)] += mult
            continue
        path = reconstruct_path(pg.preds[key[0]], *key)
        for a, b in zip(path, path[1:]):
            oa, ob = copy_map[a], copy_map[b]
            if oa == ob:
                continue
            counts[ekey(oa, ob)] += mult

    inst_lengths: dict[tuple[int, int], float] = {}
    for e in pg.copied.edges:
        oa, ob = copy_map[e.u], copy_map[e.v]
        if oa != ob:
            inst_lengths[ekey(oa, ob)] = e.length
    got = sum(m * inst_lengths[k] for k, m in counts.items())
    if abs(got - expect) > ABS_TOL * max(1.0, abs(expect)):
        raise AssertionError(f"restoration length {got} != selected length {expect}")
    return counts
