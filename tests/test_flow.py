"""The flat-array flow kernel against the dict Edmonds-Karp flow it replaced.

``max_flow_by_dict`` and ``cut_at_least_by_dict`` (``tests/oracles.py``) are
the solver's former Edmonds-Karp code on dict rows, which sorted a row on
every visit.  The kernel on a ``FlowNetwork`` must give the same floats and
sides, its early exit must stop at the first augmentation whose value
reaches the demand, and a network edited through ``set_capacity`` must flow
as one built from the edited capacities.
"""
import math
import random

import pytest

from pcrpp import lp
from pcrpp.lp import SUPPORT_FLOOR, FlowNetwork, cut_at_least, max_flow_min_cut, solve_pcrpp_lp
from pcrpp.preprocess import preprocess
from conftest import FRACTIONAL_INSTANCES
from oracles import _augment, _residual, cut_at_least_by_dict, max_flow_by_dict

# tiny, threshold-sized, tied and non-representable capacities
SPECIAL = (1e-13, 1e-12, 0.1, 0.2, 0.3, 0.5, 0.5, 1.0, 1.0, 1.0 / 3.0, 0.0)


def _random_capacities(rng: random.Random, n: int, dense: bool) -> dict:
    p = rng.uniform(0.5, 1.0) if dense else min(1.0, rng.uniform(1.0, 3.0) / n)
    caps = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                cap = rng.choice(SPECIAL) if rng.random() < 0.6 else rng.uniform(0.0, 2.0)
                key = (u, v) if rng.random() < 0.5 else (v, u)
                caps[key] = caps.get(key, 0.0) + cap
    # both orientations of one pair add up
    if caps and rng.random() < 0.3:
        u, v = rng.choice(sorted(caps))
        caps[(v, u)] = caps.get((v, u), 0.0) + rng.choice(SPECIAL)
    items = list(caps.items())
    rng.shuffle(items)
    return dict(items)


def _random_cases():
    cases = []
    for seed in range(160):
        rng = random.Random(7000 + seed)
        n = rng.randint(2, 40)
        caps = _random_capacities(rng, n, dense=seed % 2 == 1)
        s, t = rng.sample(range(n), 2)
        cases.append((f"random-{seed}", caps, s, t))
    return cases


def _separation_cases():
    """The supports ``separate_cuts`` sees on FRACTIONAL_INSTANCES, every non-root vertex against the root.

    A vertex outside the support has no arcs; its flow is still a case.
    """
    seen = []
    real = lp.separate_cuts

    def record(pg, x, y, tol=lp.FEAS_TOL):
        seen.append(dict(x))
        return real(pg, x, y, tol)

    cases = []
    for i, inst in enumerate(FRACTIONAL_INSTANCES):
        pg = preprocess(inst)
        lp.separate_cuts = record
        try:
            solve_pcrpp_lp(pg)
        finally:
            lp.separate_cuts = real
        vertices = [v for v in range(pg.vertex_count) if v != pg.root]
        for j, caps in enumerate(seen):
            cases += [(f"frac{i}-round{j}-v{v}", caps, v, pg.root) for v in vertices]
        seen.clear()
    return cases


CASES = _random_cases() + _separation_cases()


def _oracle_values(caps, s, t) -> list[float]:
    """Flow value after each augmentation of the dict flow, 0.0 first."""
    res = _residual(caps)
    res.setdefault(s, {})
    res.setdefault(t, {})
    values = [0.0]
    while (push := _augment(res, s, t)) > 0.0:
        values.append(values[-1] + push)
    return values


def _needs(values: list[float]) -> list[float]:
    v = values[-1]
    return sorted(
        {0.0, 1e-12, v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf),
         v + 1e-12, v - 1e-12, *values[1:]}
    )


def _shuffled_rows(adj: dict, rng: random.Random) -> dict:
    out = {}
    for u, row in adj.items():
        items = list(row.items())
        rng.shuffle(items)
        out[u] = dict(items)
    return out


def _shuffled(caps: dict, rng: random.Random) -> dict:
    items = list(caps.items())
    rng.shuffle(items)
    return dict(items)


def _state(net: FlowNetwork) -> tuple:
    return list(net.head), list(net.cap), list(net.out)


def test_cases_cover_the_awkward_inputs():
    assert len(CASES) > 200
    sizes = [len({w for key in caps for w in key}) for _, caps, _, _ in CASES]
    assert max(sizes) >= 35
    flows = [len(_oracle_values(caps, s, t)) - 1 for _, caps, s, t in CASES]
    assert max(flows) >= 10
    assert sum(f == 0 for f in flows) >= 5
    caps_seen = {c for _, caps, _, _ in CASES for c in caps.values()}
    assert {1e-13, 1e-12, 0.1, 0.2, 0.3} <= caps_seen


@pytest.mark.parametrize("name, caps, s, t", CASES, ids=[c[0] for c in CASES])
def test_kernel_matches_dict_flow(name, caps, s, t):
    net = FlowNetwork(caps)
    net.grow(max(s, t) + 1)
    before = _state(net)
    values = _oracle_values(caps, s, t)
    full = values[-1]

    # the full flow: same float and same minimum-cut side
    want = max_flow_by_dict(caps, s, t)
    got = max_flow_min_cut(net, s, t)
    assert got[0].hex() == want[0].hex() == full.hex()
    assert got[1] == want[1]

    rng = random.Random(name)
    rows = _shuffled_rows(_residual(caps), rng)
    shuffled = FlowNetwork(_shuffled(caps, rng))
    for need in _needs(values):
        # the early exit stops at the first augmentation that reaches the demand
        value, side = max_flow_min_cut(net, s, t, need=need)
        if need <= full:
            assert side is None
            reached = next(x for x in values if x >= need)
            assert value.hex() == reached.hex()
            assert value >= need
        else:
            assert value.hex() == full.hex()
            assert side == want[1]
        # the split probe decides the same boolean, whatever the input order
        assert cut_at_least(shuffled, s, t, need) == cut_at_least_by_dict(rows, s, t, need)

    assert _state(net) == before


def test_source_equals_sink_is_rejected():
    with pytest.raises(ValueError, match="source equals sink"):
        max_flow_min_cut(FlowNetwork({(0, 1): 1.0}), 1, 1)


def test_nan_demand_counts_as_met():
    # as in the comparisons the dict flow's callers made: value < nan is false
    net = FlowNetwork({(0, 1): 1.0})
    rows = _residual({(0, 1): 1.0})
    assert max_flow_min_cut(net, 0, 1, need=math.nan) == (0.0, None)
    assert cut_at_least(net, 0, 1, math.nan) is cut_at_least_by_dict(rows, 0, 1, math.nan) is True


@pytest.mark.parametrize(
    "caps",
    [
        {(0, 1): 1.0, (1, 2): 0.0, (2, 0): 0.5, (1, 0): 0.25},
        {(0, 1): 1.0, (1, 2): 1e-12, (2, 3): 0.5},
        {(0, 1): 1e-13, (1, 0): 1e-13, (1, 2): 2.0},
        {(0, 1): 1.0, (1, 0): 1e-12, (3, 2): float("nan")},
    ],
)
def test_flow_network_sums_pairs_and_drops_the_floor(caps):
    # each vertex's arcs: the pairs of summing every orientation of a pair,
    # above the floor, in increasing head order, each with its reverse arc
    summed = {}
    for (u, v), cap in caps.items():
        if not cap <= 0.0:  # a NaN passes, and its pair is dropped below
            summed.setdefault(u, {})[v] = summed.setdefault(u, {}).get(v, 0.0) + cap
            summed.setdefault(v, {})[u] = summed.setdefault(v, {}).get(u, 0.0) + cap
    want = {u: sorted((v, c) for v, c in row.items() if c > SUPPORT_FLOOR) for u, row in summed.items()}
    net = FlowNetwork(caps)
    got = {u: [(net.head[a], net.cap[a]) for a in arcs] for u, arcs in enumerate(net.out)}
    assert {u: row for u, row in got.items() if row} == {u: row for u, row in want.items() if row}
    for u, arcs in enumerate(net.out):
        for a in arcs:
            assert net.head[a ^ 1] == u and net.cap[a ^ 1] == net.cap[a]
    assert all(net.row(u) == dict(row) for u, row in want.items())


def _edited_cases():
    """(name, capacities, edits, s, t): edits are (u, v, capacity) in order."""
    base = {(0, 1): 1.0, (1, 2): 0.5, (2, 3): 1.0, (0, 2): 0.25, (1, 3): 0.75, (3, 4): 2.0}
    cases = [
        ("raise", base, [(1, 2, 1.5)], 0, 3),
        ("lower-to-floor", base, [(1, 3, SUPPORT_FLOOR)], 0, 3),
        ("lower-below-floor", base, [(2, 3, 1e-13), (1, 3, 0.1)], 0, 4),
        ("zero-then-back", base, [(0, 1, 0.0), (0, 1, 0.3)], 0, 4),
        ("zero-stays", base, [(1, 2, 0.0)], 0, 3),
        ("new-arc", base, [(0, 3, 0.4)], 0, 4),
        ("new-arc-reversed", base, [(4, 1, 0.6)], 4, 0),
        ("new-faint-arc", base, [(0, 4, 1e-13)], 0, 4),
        ("vertex-past-end", base, [(3, 7, 0.9), (7, 0, 0.2)], 0, 7),
        ("sink-without-arcs", base, [(3, 4, 0.0)], 0, 4),
        ("source-without-arcs", base, [(0, 1, 0.0), (0, 2, 1e-12)], 0, 3),
        ("sink-past-end", base, [], 0, 9),
        ("source-past-end", base, [(1, 2, 0.7)], 11, 2),
    ]
    for seed in range(40):
        rng = random.Random(8000 + seed)
        n = rng.randint(3, 14)
        caps = _random_capacities(rng, n, dense=seed % 2 == 0)
        edits = []
        for _ in range(rng.randint(1, 8)):
            u, v = rng.sample(range(n + 2), 2)  # ids up to n + 1 lie past the end
            c = rng.choice(SPECIAL) if rng.random() < 0.6 else rng.uniform(0.0, 2.0)
            edits.append((u, v, c))
        s, t = rng.sample(range(n + 2), 2)
        cases.append((f"random-{seed}", caps, edits, s, t))
    return cases


EDITED = _edited_cases()


@pytest.mark.parametrize("name, caps, edits, s, t", EDITED, ids=[c[0] for c in EDITED])
def test_edited_network_matches_a_fresh_dict_flow(name, caps, edits, s, t):
    # the network edited through its setter flows as the dict flow on the
    # edited capacities: the setter stores a pair's total, not an orientation
    net = FlowNetwork(caps)
    edited = {}
    for (u, v), c in caps.items():
        if c > 0.0:
            key = (min(u, v), max(u, v))
            edited[key] = edited.get(key, 0.0) + c
    for u, v, c in edits:
        net.set_capacity(u, v, c)
        edited[(min(u, v), max(u, v))] = c
    want = max_flow_by_dict(edited, s, t)
    got = max_flow_min_cut(net, s, t)
    assert got[0].hex() == want[0].hex()
    assert got[1] == want[1]
    assert all(c == 0.0 or c > SUPPORT_FLOOR for c in net.cap)
    rows = _residual(edited)
    for need in _needs(_oracle_values(edited, s, t)):
        assert cut_at_least(net, s, t, need) == cut_at_least_by_dict(rows, s, t, need)
