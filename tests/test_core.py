import io
import math
import random
from collections import Counter

import pytest

from pcrpp.core import (
    Edge,
    Instance,
    ParseError,
    Walk,
    check_walk,
    connected_to,
    ekey,
    euler_tour,
    objective,
    odd_vertices,
    parse_instance,
    reconstruct_path,
    serialize_instance,
    shortest_paths,
)
from conftest import barrier_text, random_suite


def test_parse_header_echo():
    text = "3 3 1\n1 2 1 0\n2 3 1 2\n1 3 1 0\n"
    inst = parse_instance(text)
    assert inst.vertex_count == 3
    assert inst.root == 0
    assert len(inst.edges) == 3
    assert parse_instance(io.StringIO(text)) == inst


def test_parse_barrier_matches_construction(barrier):
    by_pair = {(e.u, e.v): e for e in barrier.edges}
    assert by_pair[(0, 1)].length == 0.1 and by_pair[(0, 1)].profit == 0.0
    assert by_pair[(1, 2)].length == 1.0 and by_pair[(1, 2)].profit == 1.3
    assert by_pair[(0, 2)].length == 1.0 and by_pair[(0, 2)].profit == 0.0
    assert barrier.edges[1].profit == pytest.approx(1 + 3 * 0.1, abs=1e-12)


@pytest.mark.parametrize(
    "text,message",
    [
        ("3 3\n", "malformed header"),
        ("", "empty instance file"),
        ("# only a comment\n\n", "empty instance file"),
        ("3 1 x\n1 2 1 0\n", "malformed header: '3 1 x'"),
        ("0 0 1\n", "malformed header: nonpositive sizes"),
        ("3 -1 1\n", "malformed header: nonpositive sizes"),
        ("3 1 1\n1 2 1 0\nOPTMAX 1 2\n", "malformed OPTMAX line: 'OPTMAX 1 2'"),
        ("3 1 1\n1 2 1\n", "malformed edge line: '1 2 1'"),
        ("3 1 1\n1 2 1 0 5\n", "malformed edge line: '1 2 1 0 5'"),
        ("3 1 1\n1 b 1 0\n", "malformed edge line: '1 b 1 0'"),
        ("3 1 1\n1 2 one 0\n", "malformed edge line: '1 2 one 0'"),
        ("3 1 1\n1 2 -1 0\n", "negative length"),
        ("3 1 1\n1 2 1 -2\n", "negative profit"),
        ("3 2 1\n1 2 1 0\n2 1 2 0\n", "duplicate edge"),
        ("3 1 1\n2 2 1 0\n", "loop edge"),
        ("3 1 4\n1 2 1 0\n", "root out of range"),
        ("2 2 1\n1 2 1 0\n", "expected 2 edge lines"),
        ("3 1 1\n1 2 nan 0\n", "non-finite length"),
        ("3 1 1\n1 2 inf 0\n", "non-finite length"),
        ("3 1 1\n1 2 1 nan\n", "non-finite profit"),
        ("3 1 1\n1 2 1 inf\n", "non-finite profit"),
        ("3 1 1\n1 4 1 0\n", "edge endpoint out of range"),
        ("3 1 1\n1 2 1 0\nOPTMAX nan\n", "non-finite OPTMAX: 'OPTMAX nan'"),
        ("3 1 1\n1 2 1 0\nOPTMAX inf\n", "non-finite OPTMAX: 'OPTMAX inf'"),
        ("3 1 1\n1 2 1 0\nOPTMAX 2\nOPTMAX 3\n", "repeated OPTMAX line: 'OPTMAX 3'"),
        ("3 1 1\n1 2 1 0\nOPTMAX two\n", "malformed OPTMAX line: 'OPTMAX two'"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(ParseError, match=message):
        parse_instance(text)


@pytest.mark.parametrize(
    "args,message",
    [
        ((2, 5, (Edge(0, 7, -1.0, math.nan),)), "root out of range"),
        ((2, 0, (Edge(0, 7, 1.0, 0.0),)), "edge endpoint out of range"),
        ((2, 0, (Edge(1, 1, 1.0, 0.0),)), "loop edge"),
        ((2, 0, (Edge(0, 1, math.nan, 0.0),)), "non-finite length"),
        ((2, 0, (Edge(0, 1, 1.0, math.inf),)), "non-finite profit"),
        ((2, 0, (Edge(0, 1, 1.0, -1.0),)), "negative profit"),
        ((2, 0, (Edge(0, 1, 1.0, 0.0), Edge(1, 0, 2.0, 0.0))), "duplicate edge"),
        ((2, 0, (Edge(0, 1, 1.0, 0.0),), 0.0, math.nan), "non-finite opt_max"),
        ((2, 0, (Edge(0, 1, 1.0, 0.0),), 0.0, -math.inf), "non-finite opt_max"),
    ],
)
def test_instance_rejects_model_violations(args, message):
    with pytest.raises(ParseError, match=message):
        Instance(*args)


def test_parse_comments_and_optmax():
    inst = parse_instance("# comment\n2 1 1\n1 2 1 3\nOPTMAX 2.5\n")
    assert inst.opt_max == 2.5
    assert inst.total_profit == 3.0
    assert serialize_instance(inst).splitlines()[-1] == "OPTMAX 2.5"
    assert parse_instance(serialize_instance(inst)) == inst


def test_parse_restricts_to_root_component():
    inst = parse_instance("4 2 1\n1 2 1 0\n3 4 1 5\n")
    assert inst.vertex_count == 2
    assert len(inst.edges) == 1
    assert inst.dropped_profit == 5.0


def test_parse_serialize_roundtrip():
    for inst in random_suite(20):
        again = parse_instance(serialize_instance(inst))
        assert again.vertex_count == inst.vertex_count
        assert again.root == inst.root
        assert again.edges == inst.edges


def test_objective_trivial_walk_is_total_profit(barrier):
    assert objective(barrier, Walk.trivial(barrier.root)) == barrier.total_profit
    assert objective(barrier, Walk.trivial(barrier.root)) == pytest.approx(1.3)


def test_objective_barrier_tour(barrier):
    # r -> a -> b -> r: lengths 0.1 + 1 + 1, every profit collected
    assert objective(barrier, Walk((0, 1, 2, 0))) == pytest.approx(2.1)


def test_objective_rejects_unknown_edge():
    path = parse_instance("3 2 1\n1 2 1 0\n2 3 1 0\n")
    with pytest.raises(ValueError, match="nonexistent edge"):
        objective(path, Walk((0, 2, 0)))
    with pytest.raises(ValueError, match="root"):
        objective(path, Walk((1, 2, 1)))


def test_objective_nonnegative_random():
    rng = random.Random(5)
    for inst in random_suite(30):
        assert objective(inst, Walk.trivial(inst.root)) >= 0.0
        # a closed walk along a random edge from the root, when one exists
        nbrs = [e for e in inst.edges if inst.root in (e.u, e.v)]
        if nbrs:
            e = rng.choice(nbrs)
            other = e.v if e.u == inst.root else e.u
            walk = Walk((inst.root, other, inst.root))
            assert objective(inst, walk) >= 0.0


def test_connected_to():
    assert connected_to([], 0)
    assert connected_to([(0, 1), (1, 2)], 1)
    assert connected_to(Counter({(1, 2): 2, (0, 1): 1}), 0)
    assert not connected_to([(0, 1), (2, 3)], 0)
    assert not connected_to([(1, 2)], 0)


def test_odd_vertices():
    assert odd_vertices(Counter()) == frozenset()
    assert odd_vertices(Counter([(0, 1)])) == frozenset({0, 1})
    assert odd_vertices(Counter([(0, 1), (1, 2), (0, 2)])) == frozenset()


def test_odd_vertices_even_cardinality_random():
    rng = random.Random(11)
    for _ in range(50):
        edges = [(rng.randrange(8), rng.randrange(8)) for _ in range(12)]
        edges = [(u, v) for u, v in edges if u != v]
        assert len(odd_vertices(Counter(ekey(u, v) for u, v in edges))) % 2 == 0


def test_euler_tour_empty():
    assert euler_tour(Counter(), 7) == Walk((7,))


def test_euler_tour_triangle():
    walk = euler_tour(Counter([(0, 1), (1, 2), (0, 2)]), 0)
    assert walk.vertices[0] == walk.vertices[-1] == 0
    assert walk.edge_count == 3
    assert walk.edge_multiset() == Counter({(0, 1): 1, (1, 2): 1, (0, 2): 1})


def test_euler_tour_doubled_edge():
    walk = euler_tour(Counter([(0, 1), (0, 1)]), 0)
    assert walk.vertices == (0, 1, 0)


def test_euler_tour_rejects_odd_degree():
    with pytest.raises(ValueError, match="odd-degree"):
        euler_tour(Counter([(0, 1)]), 0)


def test_euler_tour_rejects_disconnected():
    with pytest.raises(ValueError, match="connected"):
        euler_tour(Counter([(0, 1), (0, 1), (2, 3), (2, 3)]), 0)
    with pytest.raises(ValueError, match="connected"):
        euler_tour(Counter([(1, 2), (1, 2)]), 0)


def test_euler_tour_multiset_equality_random():
    # build an even connected multigraph by following a random closed walk
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 7)
        seq = [0]
        for _ in range(rng.randint(1, 14)):
            seq.append(rng.randrange(n))
        seq.append(0)
        edges = [(a, b) for a, b in zip(seq, seq[1:]) if a != b]
        if not edges:
            continue
        m = Counter(ekey(a, b) for a, b in edges)
        walk = euler_tour(m, 0)
        assert walk.edge_multiset() == m
        assert walk.vertices[0] == walk.vertices[-1] == 0


def test_shortest_paths_source_zero(barrier):
    dist, _ = shortest_paths(barrier.adjacency(), 0)
    assert dist[0] == 0.0


def test_shortest_paths_barrier():
    # exhaustive enumeration on 3 vertices: d(a) = 0.1, d(b) = min(1, 1.1) = 1
    inst = parse_instance(barrier_text(0.1))
    dist, pred = shortest_paths(inst.adjacency(), 0)
    assert dist[1] == pytest.approx(0.1)
    assert dist[2] == pytest.approx(1.0)
    assert pred[2] == 0


def test_shortest_paths_unreachable():
    adj = {0: [(1, 1.0)], 1: [(0, 1.0)], 2: []}
    dist, pred = shortest_paths(adj, 0)
    assert math.isinf(dist[2])
    with pytest.raises(ValueError, match="^no path from 0 to 2$"):
        reconstruct_path(pred, 0, 2)


def test_check_walk_rejects_an_empty_sequence(barrier):
    with pytest.raises(ValueError, match="^empty vertex sequence$"):
        check_walk(barrier, Walk(()))
