from collections import Counter
from dataclasses import replace

import pytest

from pcrpp.core import Edge, Instance, ekey, parse_instance
from pcrpp.preprocess import CopiedGraph, complete, copy_vertices, preprocess, restore
from conftest import random_suite


def test_copy_root_positive_edge(single_pos):
    copied = copy_vertices(single_pos)
    # fresh copy 2, tether r-2 of (0, 0), positive edge now 2-a with (1, 5)
    assert copied.vertex_count == 3
    assert copied.copy_map[2] == 0
    by_pair = {ekey(e.u, e.v): e for e in copied.edges}
    assert by_pair[(0, 2)].length == 0.0 and by_pair[(0, 2)].profit == 0.0
    assert by_pair[(1, 2)].length == 1.0 and by_pair[(1, 2)].profit == 5.0


def test_copy_single_positive_off_root_unchanged(barrier):
    copied = copy_vertices(barrier)
    assert copied.vertex_count == 3
    assert copied.copy_map == {0: 0, 1: 1, 2: 2}


def test_copy_vertex_with_two_positive_edges():
    inst = parse_instance("4 3 1\n1 2 1 0\n2 3 1 4\n2 4 1 6\n")
    copied = copy_vertices(inst)
    # vertex 1 owns both positive edges: copies 4 and 5, tethers (0,0)
    assert copied.vertex_count == 6
    assert copied.copy_map[4] == 1 and copied.copy_map[5] == 1
    by_pair = {ekey(e.u, e.v): e for e in copied.edges}
    assert by_pair[(1, 4)].length == 0.0 and by_pair[(1, 4)].profit == 0.0
    assert by_pair[(1, 5)].length == 0.0 and by_pair[(1, 5)].profit == 0.0
    positives = sorted(k for k, e in by_pair.items() if e.profit > 0)
    assert positives == [(2, 4), (3, 5)]


def test_complete_barrier(barrier):
    # all-pairs shortest paths by enumeration: ra=0.1, rb=1, ab kept positive
    pg = preprocess(barrier)
    assert pg.vertex_count == 3
    assert pg.lengths[(0, 1)] == pytest.approx(0.1)
    assert pg.lengths[(0, 2)] == pytest.approx(1.0)
    assert pg.lengths[(1, 2)] == pytest.approx(1.0)
    assert pg.profits[(1, 2)] == pytest.approx(1.3)
    assert pg.pos_edges == frozenset({(1, 2)})


def test_complete_single_positive(single_pos):
    pg = preprocess(single_pos)
    # vertices r=0, a=1, copy=2: r-copy tether 0, r-a shortest path 1, copy-a positive
    assert pg.vertex_count == 3
    assert pg.lengths[(0, 2)] == 0.0
    assert pg.lengths[(0, 1)] == pytest.approx(1.0)
    assert pg.lengths[(1, 2)] == pytest.approx(1.0)
    assert pg.profits[(1, 2)] == 5.0
    assert pg.pos_edges == frozenset({(1, 2)})


def test_complete_zero_profit_is_metric_closure(zero_profit):
    pg = preprocess(zero_profit)
    assert pg.pos_edges == frozenset()
    assert pg.lengths[(0, 2)] == pytest.approx(2.0)  # direct 2 = via-middle 2


def test_complete_names_unreachable_vertex():
    # only parse_instance restricts to the root's component; an Instance may
    # hold a vertex the root cannot reach
    inst = Instance(3, 0, (Edge(0, 1, 1.0, 5.0),))
    with pytest.raises(ValueError, match=r"^preprocess: vertex 2 cannot be reached from the root 0$"):
        preprocess(inst)


def test_pair_table_in_sorted_pair_order():
    for inst in random_suite(10):
        pg = preprocess(inst)
        pairs = pg.pairs
        keys = list(pg.lengths)
        assert keys == sorted(keys) == list(pg.profits) == pairs.keys()
        assert pairs.lengths.tolist() == list(pg.lengths.values())
        assert pairs.profits.tolist() == list(pg.profits.values())
        assert pairs.positive.tolist() == [k in pg.pos_edges for k in keys]
        assert pairs.at_root.tolist() == [pg.root in k for k in keys]
        for arr in (pairs.u, pairs.v, pairs.lengths, pairs.profits, pairs.positive, pairs.at_root):
            assert not arr.flags.writeable


def test_properties_on_random_instances():
    for inst in random_suite(40):
        pg = preprocess(inst)
        root = pg.root
        incident = Counter()
        for u, v in pg.pos_edges:
            assert root not in (u, v)  # root touches no positive edge
            incident[u] += 1
            incident[v] += 1
        assert all(c == 1 for c in incident.values())
        assert pg.vertex_count <= inst.vertex_count + 2 * len(inst.edges)
        # zero-profit lengths obey the triangle inequality
        n = pg.vertex_count
        zp = [k for k in pg.lengths if k not in pg.pos_edges]
        dist = {k: pg.lengths[k] for k in zp}
        for u, v in zp:
            for z in range(n):
                if z in (u, v):
                    continue
                kz1, kz2 = ekey(u, z), ekey(z, v)
                if kz1 in dist and kz2 in dist:
                    assert dist[(u, v)] <= dist[kz1] + dist[kz2] + 1e-9


def test_restore_empty(single_pos):
    pg = preprocess(single_pos)
    assert restore(pg, Counter()) == {}


def test_restore_rejects_a_key_outside_the_graph(single_pos):
    pg = preprocess(single_pos)
    with pytest.raises(ValueError, match="not in the preprocessed graph"):
        restore(pg, Counter({(0, pg.vertex_count): 1}))


def _path_graph(*profits: float) -> CopiedGraph:
    """The path 0-1-...-k of unit edges with the given profits, copied by hand (no tethers)."""
    edges = tuple(Edge(i, i + 1, 1.0, p) for i, p in enumerate(profits))
    n = len(profits) + 1
    return CopiedGraph(n, 0, edges, {v: v for v in range(n)})


def test_complete_rejects_a_positive_edge_at_the_root():
    with pytest.raises(AssertionError, match="^root incident to a positive edge$"):
        complete(_path_graph(2.0, 0.0))


def test_complete_rejects_a_vertex_on_two_positive_edges():
    with pytest.raises(AssertionError, match="^vertex incident to two positive edges$"):
        complete(_path_graph(0.0, 2.0, 3.0))


def test_restore_rejects_lengths_its_paths_do_not_add_up_to():
    # the pair (0, 2) claims length 5 but stands for the path 0-1-2 of length 2
    pg = complete(_path_graph(0.0, 0.0))
    wrong = replace(pg, lengths={**pg.lengths, (0, 2): 5.0})
    assert restore(pg, Counter({(0, 2): 1})) == {(0, 1): 1, (1, 2): 1}
    with pytest.raises(AssertionError, match="^restoration length 2.0 != selected length 5.0$"):
        restore(wrong, Counter({(0, 2): 1}))


def test_restore_tether_plus_positive(single_pos):
    pg = preprocess(single_pos)
    out = restore(pg, Counter({(0, 2): 1, (1, 2): 1}))
    assert out == {(0, 1): 1}


def test_restore_barrier_triangle(barrier):
    pg = preprocess(barrier)
    out = restore(pg, Counter({(0, 1): 1, (1, 2): 1, (0, 2): 1}))
    assert out == {(0, 1): 1, (1, 2): 1, (0, 2): 1}
    lengths = {ekey(e.u, e.v): e.length for e in barrier.edges}
    assert sum(m * lengths[k] for k, m in out.items()) == pytest.approx(2.1)


def test_restore_length_matches_selection_random():
    for inst in random_suite(25):
        pg = preprocess(inst)
        lengths = {ekey(e.u, e.v): e.length for e in inst.edges}
        keys = sorted(pg.lengths)
        pick = Counter({k: 1 + (i % 2) for i, k in enumerate(keys[::2])})
        expect = sum(pg.lengths[k] * m for k, m in pick.items())
        out = restore(pg, pick)
        assert sum(m * lengths[k] for k, m in out.items()) == pytest.approx(expect, abs=1e-9)
