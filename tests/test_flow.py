"""The early-exit flow kernel against the per-augmentation dict flow it replaced.

``max_flow_by_dict`` and ``cut_at_least_by_dict`` (``tests/oracles.py``) are
the solver's former Edmonds-Karp code, which sorted a row on every visit.
The kernel must give the same floats and sides, and its early exit must
stop at the first augmentation whose value reaches the demand.
"""
import math
import random

import pytest

from pcrpp import lp
from pcrpp.lp import capacity_adjacency, cut_at_least, max_flow_min_cut, solve_pcrpp_lp
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
    """The supports ``separate_cuts`` sees on FRACTIONAL_INSTANCES, every witness against the root."""
    seen = []
    real = lp.capacity_adjacency

    def record(capacities):
        seen.append(dict(capacities))
        return real(capacities)

    cases = []
    for i, inst in enumerate(FRACTIONAL_INSTANCES):
        pg = preprocess(inst)
        lp.capacity_adjacency = record
        try:
            solve_pcrpp_lp(pg)
        finally:
            lp.capacity_adjacency = real
        for j, caps in enumerate(seen):
            vertices = sorted({w for key in caps for w in key} - {pg.root})
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
    adj = capacity_adjacency(caps)
    before = {u: dict(row) for u, row in adj.items()}
    values = _oracle_values(caps, s, t)
    full = values[-1]

    # the full flow: same float and same minimum-cut side
    want = max_flow_by_dict(caps, s, t)
    got = max_flow_min_cut(adj, s, t)
    assert got[0].hex() == want[0].hex() == full.hex()
    assert got[1] == want[1]

    rows = _shuffled_rows(adj, random.Random(name))
    for need in _needs(values):
        # the early exit stops at the first augmentation that reaches the demand
        value, side = max_flow_min_cut(adj, s, t, need=need)
        if need <= full:
            assert side is None
            reached = next(x for x in values if x >= need)
            assert value.hex() == reached.hex()
            assert value >= need
        else:
            assert value.hex() == full.hex()
            assert side == want[1]
        # the split probe decides the same boolean, whatever the row order
        assert cut_at_least(rows, s, t, need) == cut_at_least_by_dict(rows, s, t, need)

    assert adj == before


def test_source_equals_sink_is_rejected():
    with pytest.raises(ValueError, match="source equals sink"):
        max_flow_min_cut(capacity_adjacency({(0, 1): 1.0}), 1, 1)


def test_nan_demand_counts_as_met():
    # as in the comparisons the dict flow's callers made: value < nan is false
    adj = capacity_adjacency({(0, 1): 1.0})
    assert max_flow_min_cut(adj, 0, 1, need=math.nan) == (0.0, None)
    assert cut_at_least(adj, 0, 1, math.nan) is cut_at_least_by_dict(adj, 0, 1, math.nan) is True
