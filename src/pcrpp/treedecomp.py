"""Tree distributions that preserve the profit-edge coupling.

The threshold-split recorder splits every non-root vertex off an auxiliary
graph that carries a copy of the root joined by a zero-length chord.
Undoing the recorded operations in reverse from a vertex boundary yields a
weighted tree list whose edge and vertex marginals track that boundary's
vector minus one unit on the chord.  Undoing one operation moves chord mass
of the operation back through the restored vertex: trees holding the chord
and missing the vertex take it as a two-edge detour; trees already holding
the vertex swap the chord for the side edge that keeps them acyclic, and
the other side edge is booked as a pendant on a tree that misses the
vertex.  Merging the root copy back projects the list onto the preprocessed
graph.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import bfs, ekey, endpoints, neighbours
from .preprocess import PreprocessedGraph
from .splitoff import SplitOp, SplitRecorder, root_copy

WEIGHT_FLOOR = 1e-12


class DecompositionError(RuntimeError):
    """Internal failure: the constructed list misses its marginals."""


@dataclass(frozen=True, eq=False)
class TreeDistribution:
    """Weighted trees, each a frozenset of pair keys.

    A tree's vertices are the endpoints of its edges and the root.
    """

    trees: tuple[frozenset, ...]
    weights: tuple[float, ...]

    def edge_marginals(self) -> dict[tuple[int, int], float]:
        marg: dict[tuple[int, int], float] = {}
        for tree, w in zip(self.trees, self.weights):
            for key in tree:
                marg[key] = marg.get(key, 0.0) + w
        return marg

    def vertex_marginals(self, root: int) -> dict[int, float]:
        marg: dict[int, float] = {}
        for tree, w in zip(self.trees, self.weights):
            for v in endpoints(tree) | {root}:
                marg[v] = marg.get(v, 0.0) + w
        return marg

    def expected_length(self, length_of) -> float:
        total = 0.0
        for tree, w in zip(self.trees, self.weights):
            total += w * sum(length_of(key) for key in tree)
        return total

    @property
    def total_weight(self) -> float:
        return sum(self.weights)


def _contains(edges: frozenset, z: int, root: int) -> bool:
    if z == root:
        return True
    return any(z in key for key in edges)


def _undo_step(trees: list, op: SplitOp, root: int) -> None:
    v, eps = op.vertex, op.amount
    chord = ekey(op.left, op.right)
    side_left = ekey(v, op.left)
    side_right = ekey(v, op.right)

    # trees holding the chord: those missing v first, each part in list order
    holders = sorted(
        (_contains(edges, v, root), i)
        for i, (w, edges) in enumerate(trees)
        if w > 0.0 and chord in edges
    )

    need = eps
    pendants: list[tuple[tuple[int, int], int, float]] = []
    appended: list = []
    for busy, i in holders:
        if need <= WEIGHT_FLOOR:
            break
        w, edges = trees[i]
        take = min(need, w)
        if busy:
            remainder = edges - {chord}
            if v in bfs(neighbours(remainder), op.left):
                newedges = remainder | {side_right}
                pendants.append((side_left, op.left, take))
            else:
                newedges = remainder | {side_left}
                pendants.append((side_right, op.right, take))
        else:
            newedges = (edges - {chord}) | {side_left, side_right}
        trees[i][0] = w - take
        appended.append([take, newedges])
        need -= take
    if need > 1e-9:
        raise DecompositionError(
            f"chord {chord} carries too little tree mass while undoing {op}"
        )
    trees.extend(appended)

    for pendant_edge, anchor, amount in pendants:
        rem = amount
        adds = []
        for i, (w, edges) in enumerate(trees):
            if rem <= WEIGHT_FLOOR:
                break
            if w <= 0.0 or _contains(edges, v, root):
                continue
            if not _contains(edges, anchor, root):
                continue
            take = min(rem, w)
            trees[i][0] = w - take
            adds.append([take, edges | {pendant_edge}])
            rem -= take
        if rem > 1e-9:
            raise DecompositionError(
                f"no host tree for pendant {pendant_edge} while undoing {op}"
            )
        trees.extend(adds)

    # trees drawn down to nothing would only be walked past by later scans
    trees[:] = [tree for tree in trees if tree[0] != 0.0]
    if len(trees) > 4096:
        _compact(trees)


def _compact(trees: list) -> None:
    merged: dict[frozenset, float] = {}
    for w, edges in trees:
        if w > WEIGHT_FLOOR:
            merged[edges] = merged.get(edges, 0.0) + w
    trees[:] = [[w, edges] for edges, w in merged.items()]


def stage_distribution(recorder: SplitRecorder, boundary: int) -> TreeDistribution:
    """Replay the recorded splitting back to a vertex boundary.

    The operations past the boundary are undone in reverse, starting from
    the chord mass of the whole pass, which the recorder reads off its root
    drops: weight chord - 1 on the two-vertex chord tree.  Exact split
    amounts leave a chord mass of 2, so that weight is 1; the sum-to-one
    check below rejects any shortfall.
    """
    root = recorder.root
    lam = min(max(recorder.chord - 1.0, 0.0), 1.0)
    trees: list = [[lam, frozenset({ekey(root, recorder.copy)})]]
    for op in reversed(recorder.ops[recorder.prefix[boundary]:]):
        _undo_step(trees, op, root)
    _compact(trees)
    total = 0.0  # added left to right, as builtin sum does only before Python 3.12
    for w, _ in trees:
        total += w
    if abs(total - 1.0) > 1e-9:
        raise DecompositionError(f"tree weights sum to {total}")
    return TreeDistribution(
        trees=tuple(edges for _, edges in trees),
        weights=tuple(w / total for w, _ in trees),
    )


def _project_tree(edges: frozenset, pg: PreprocessedGraph, copy_id: int) -> frozenset:
    """Merge the copy into the root; drop the longer root end of the root-copy path.

    The copy is the largest id, so it is the second element of its keys.
    """
    root = pg.root
    out = {ekey(root, u) if v == copy_id else (u, v) for u, v in edges if (u, v) != (root, copy_id)}
    pred = bfs(neighbours(edges), root)
    last = pred.get(copy_id, root)
    if last != root:
        first = last
        while pred[first] != root:
            first = pred[first]
        if first != last:
            end = max((first, last), key=lambda a: (pg.lengths[ekey(root, a)], -a))
            out.discard(ekey(root, end))
    if len(out) != len(endpoints(out) | {root}) - 1:
        raise DecompositionError(f"projected edge set {sorted(out)} is not a tree")
    return frozenset(out)


def project_to_hat(dist: TreeDistribution, pg: PreprocessedGraph) -> TreeDistribution:
    """Merge the root copy back and break the one cycle this may close.

    A tree holding the root and the copy closes its own root-copy path; the
    longer of that path's two root-incident edges is dropped (ties drop the
    edge to the smaller vertex id).  Such an edge is zero-profit, so the
    positive edges and the vertex sets are untouched.  Every projected tree
    must couple each positive edge with its two endpoints, which is checked
    exactly.
    """
    copy_id = root_copy(pg)
    merged: dict[frozenset, float] = {}
    for tree, w in zip(dist.trees, dist.weights):
        if w <= WEIGHT_FLOOR:
            continue
        projected = _project_tree(tree, pg, copy_id)
        merged[projected] = merged.get(projected, 0.0) + w
    out = TreeDistribution(trees=tuple(merged), weights=tuple(merged.values()))
    for tree in out.trees:
        verts = endpoints(tree) | {pg.root}
        for key in pg.pos_edges:
            u, v = key
            present = key in tree
            if present != (u in verts) or present != (v in verts):
                raise DecompositionError(f"coupling violated on {key}")
    return out
