"""Instance model, walks, edge multisets and elementary graph routines.

Vertex ids are 1-based in files and 0-based in memory.  After parsing, the
instance is restricted to the component of the root; the in-memory id of a
surviving vertex is its rank among the surviving 1-based ids.
"""
from __future__ import annotations

import heapq
import math
from collections import Counter, deque
from dataclasses import dataclass
from typing import NamedTuple

ABS_TOL = 1e-9

INF = math.inf


class ParseError(ValueError):
    """An instance or its file violates the format or the model invariants."""


def ekey(u: int, v: int) -> tuple[int, int]:
    """Canonical unordered-pair key."""
    return (u, v) if u < v else (v, u)


class Edge(NamedTuple):
    u: int
    v: int
    length: float
    profit: float


@dataclass(frozen=True)
class Instance:
    """Rooted undirected graph with a nonnegative length and profit per edge."""

    vertex_count: int
    root: int
    edges: tuple[Edge, ...]
    dropped_profit: float = 0.0
    opt_max: float | None = None
    name: str = ""

    def __post_init__(self):
        bad = model_violation(self.vertex_count, self.root, self.edges)
        if bad is not None:
            i, message = bad
            raise ParseError(f"{message}: {self.edges[i] if i >= 0 else self.root}")
        if self.opt_max is not None and not math.isfinite(self.opt_max):
            raise ParseError(f"non-finite opt_max: {self.opt_max}")

    @property
    def total_profit(self) -> float:
        return sum(e.profit for e in self.edges)

    def edge_lookup(self) -> dict[tuple[int, int], int]:
        return {ekey(e.u, e.v): i for i, e in enumerate(self.edges)}

    def adjacency(self) -> dict[int, list[tuple[int, float]]]:
        return weighted_adjacency(self.vertex_count, self.edges)


def model_violation(vertex_count: int, root: int, edges) -> tuple[int, str] | None:
    """First model invariant the data breaks, as (edge index, message).

    The index is -1 when the root is out of range.  Endpoints must be in
    range and distinct, each vertex pair may carry one edge, and lengths and
    profits must be finite and nonnegative.
    """
    if not 0 <= root < vertex_count:
        return -1, "root out of range"
    seen: set[tuple[int, int]] = set()
    for i, e in enumerate(edges):
        if not (0 <= e.u < vertex_count and 0 <= e.v < vertex_count):
            return i, "edge endpoint out of range"
        if e.u == e.v:
            return i, "loop edge"
        for what, val in (("length", e.length), ("profit", e.profit)):
            if not math.isfinite(val):
                return i, f"non-finite {what}"
            if val < 0:
                return i, f"negative {what}"
        key = ekey(e.u, e.v)
        if key in seen:
            return i, "duplicate edge"
        seen.add(key)
    return None


def weighted_adjacency(vertex_count: int, edges) -> dict[int, list[tuple[int, float]]]:
    """Sorted (neighbour, length) lists of an undirected edge list."""
    adj: dict[int, list[tuple[int, float]]] = {v: [] for v in range(vertex_count)}
    for e in edges:
        adj[e.u].append((e.v, e.length))
        adj[e.v].append((e.u, e.length))
    for lst in adj.values():
        lst.sort()
    return adj


def neighbours(pairs) -> dict[int, list[int]]:
    """Neighbour lists of an undirected edge collection given as vertex pairs."""
    adj: dict[int, list[int]] = {}
    for u, v in pairs:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def endpoints(pairs) -> frozenset:
    """Vertices incident to an edge collection given as vertex pairs."""
    return frozenset(v for pair in pairs for v in pair)


def bfs(adj, start: int) -> dict[int, int | None]:
    """Breadth-first predecessor map from the start; its keys are the reached set.

    ``adj[v]`` iterates the neighbours of v, and a vertex missing from ``adj``
    has none.
    """
    pred: dict[int, int | None] = {start: None}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in adj.get(v, ()):
            if u not in pred:
                pred[u] = v
                queue.append(u)
    return pred


def pair_lookup(table, a: int, b: int) -> float:
    """Value of the unordered pair {a, b} in a table keyed by either orientation.

    A vertex is at distance zero from itself.
    """
    if a == b:
        return 0.0
    return table[(a, b)] if (a, b) in table else table[(b, a)]


@dataclass(frozen=True)
class Walk:
    """Closed walk given as the visited vertex sequence, root first and last."""

    vertices: tuple[int, ...]

    @classmethod
    def trivial(cls, root: int) -> "Walk":
        return cls((root,))

    @property
    def edge_count(self) -> int:
        return len(self.vertices) - 1

    def edge_multiset(self) -> Counter:
        return Counter(ekey(a, b) for a, b in zip(self.vertices, self.vertices[1:]))


def check_walk(inst: Instance, walk: Walk) -> None:
    """Raise ValueError unless the walk is rooted, closed and edge-valid."""
    seq = walk.vertices
    if not seq:
        raise ValueError("empty vertex sequence")
    if seq[0] != inst.root or seq[-1] != inst.root:
        raise ValueError("walk must start and end at the root")
    known = inst.edge_lookup()
    for a, b in zip(seq, seq[1:]):
        if ekey(a, b) not in known:
            raise ValueError(f"walk uses a nonexistent edge {a}-{b}")


def objective(inst: Instance, walk: Walk) -> float:
    """Walk length plus the profits of all edges the walk never traverses."""
    check_walk(inst, walk)
    known = inst.edge_lookup()
    traversed = walk.edge_multiset()
    total = 0.0
    for key, mult in traversed.items():
        total += mult * inst.edges[known[key]].length
    for key, idx in known.items():
        if key not in traversed:
            total += inst.edges[idx].profit
    return total


def connected_to(pairs, root: int) -> bool:
    """Whether every endpoint of the vertex pairs is reachable from the root along them.

    True when there are no pairs.
    """
    return endpoints(pairs) <= bfs(neighbours(pairs), root).keys()


def odd_vertices(counts: Counter) -> frozenset:
    """Odd-degree vertices of an edge multiset given as a Counter of pair keys."""
    deg: Counter = Counter()
    for (u, v), m in counts.items():
        deg[u] += m
        deg[v] += m
    return frozenset(v for v, d in deg.items() if d % 2 == 1)


def euler_tour(counts: Counter, root: int) -> Walk:
    """Closed walk from the root traversing every pair key exactly its count.

    Hierholzer edge splicing; the smallest available neighbour is taken first
    so the tour is deterministic.
    """
    if not counts:
        return Walk((root,))
    if odd_vertices(counts):
        raise ValueError("multigraph has an odd-degree vertex")
    if not connected_to(counts, root):
        raise ValueError("multigraph support is not connected to the root")
    adj: dict[int, Counter] = {}
    for (u, v), mult in counts.items():
        adj.setdefault(u, Counter())[v] += mult
        adj.setdefault(v, Counter())[u] += mult

    stack = [root]
    tour: list[int] = []
    while stack:
        v = stack[-1]
        nxt = None
        for u in sorted(adj[v]):
            if adj[v][u] > 0:
                nxt = u
                break
        if nxt is None:
            tour.append(stack.pop())
        else:
            adj[v][nxt] -= 1
            adj[nxt][v] -= 1
            stack.append(nxt)
    tour.reverse()
    return Walk(tuple(tour))


def shortest_paths(
    adj: dict[int, list[tuple[int, float]]], source: int
) -> tuple[dict[int, float], dict[int, int | None]]:
    """Single-source Dijkstra; unreachable vertices keep distance infinity.

    Neighbours are relaxed in ascending id order and the heap breaks distance
    ties on the vertex id, which fixes one canonical predecessor per target.
    """
    dist = {v: INF for v in adj}
    pred: dict[int, int | None] = {v: None for v in adj}
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    done: set[int] = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done or d > dist[v]:
            continue
        done.add(v)
        for u, w in adj[v]:
            nd = d + w
            if nd < dist[u]:
                dist[u] = nd
                pred[u] = v
                heapq.heappush(heap, (nd, u))
    return dist, pred


def reconstruct_path(pred: dict[int, int | None], source: int, target: int) -> list[int]:
    path = [target]
    while path[-1] != source:
        prev = pred[path[-1]]
        if prev is None:
            raise ValueError(f"no path from {source} to {target}")
        path.append(prev)
    path.reverse()
    return path


def parse_instance(text, name: str = "") -> Instance:
    """Parse the whitespace-separated instance format.

    Line 1 holds ``n m r``; the next ``m`` lines hold ``u v w p`` with
    1-based endpoints.  ``#`` lines are comments and an optional
    ``OPTMAX value`` line carries a published maximization optimum.
    """
    if hasattr(text, "read"):
        text = text.read()
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty instance file")
    header = lines[0].split()
    if len(header) != 3:
        raise ParseError(f"malformed header: {lines[0]!r}")
    try:
        n, m, root1 = (int(tok) for tok in header)
    except ValueError as exc:
        raise ParseError(f"malformed header: {lines[0]!r}") from exc
    if n <= 0 or m < 0:
        raise ParseError("malformed header: nonpositive sizes")

    opt_max: float | None = None
    edges: list[Edge] = []
    edge_lines: list[str] = []
    for ln in lines[1:]:
        toks = ln.split()
        if toks[0].upper() == "OPTMAX":
            if len(toks) != 2:
                raise ParseError(f"malformed OPTMAX line: {ln!r}")
            if opt_max is not None:
                raise ParseError(f"repeated OPTMAX line: {ln!r}")
            try:
                opt_max = float(toks[1])
            except ValueError as exc:
                raise ParseError(f"malformed OPTMAX line: {ln!r}") from exc
            if not math.isfinite(opt_max):
                raise ParseError(f"non-finite OPTMAX: {ln!r}")
            continue
        if len(toks) != 4:
            raise ParseError(f"malformed edge line: {ln!r}")
        try:
            u1, v1 = int(toks[0]), int(toks[1])
            w, p = float(toks[2]), float(toks[3])
        except ValueError as exc:
            raise ParseError(f"malformed edge line: {ln!r}") from exc
        edges.append(Edge(*ekey(u1 - 1, v1 - 1), w, p))
        edge_lines.append(ln)
    bad = model_violation(n, root1 - 1, edges)
    if bad is not None:
        i, message = bad
        raise ParseError(f"{message}: {edge_lines[i] if i >= 0 else lines[0]!r}")
    if len(edges) != m:
        raise ParseError(f"expected {m} edge lines, found {len(edges)}")

    # Restrict to the root component; profits of removed edges are reported
    # separately so objective constants stay explicit.
    root = root1 - 1
    reach = bfs(neighbours((e.u, e.v) for e in edges), root)
    keep = sorted(reach)
    remap = {old: new for new, old in enumerate(keep)}
    kept: list[Edge] = []
    dropped = 0.0
    for e in edges:
        if e.u in reach:
            kept.append(Edge(remap[e.u], remap[e.v], e.length, e.profit))
        else:
            dropped += e.profit
    return Instance(
        vertex_count=len(keep),
        root=remap[root],
        edges=tuple(kept),
        dropped_profit=dropped,
        opt_max=opt_max,
        name=name,
    )


def serialize_instance(inst: Instance) -> str:
    lines = [f"{inst.vertex_count} {len(inst.edges)} {inst.root + 1}"]
    for e in inst.edges:
        lines.append(f"{e.u + 1} {e.v + 1} {e.length!r} {e.profit!r}")
    if inst.opt_max is not None:
        lines.append(f"OPTMAX {inst.opt_max!r}")
    return "\n".join(lines) + "\n"
