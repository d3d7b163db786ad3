"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The random suite is fixed by seed: 198 generated instances plus the two
stored fractional ones, all with at most 6 vertices, at most 9 edges and
integer lengths and profits up to 10.
"""
import itertools
import math
import random
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from pcrpp.candidates import min_tjoin
from pcrpp.cli import gen_random, run_bench, summarize
from pcrpp.core import ekey, endpoints, odd_vertices, parse_instance, serialize_instance
from pcrpp.lp import LpSolution, solve_pcrpp_lp
from pcrpp.preprocess import preprocess
from pcrpp.ratiocheck import (
    RatioParams,
    length_factor,
    skip_factor,
    fixed_threshold_terms,
    verify_bound,
)
from pcrpp.solvers import best_of_many, exact_oracle, pctsp_reduction
from pcrpp.splitoff import SplitRecorder
from pcrpp.treedecomp import project_to_hat, stage_distribution
from conftest import FRACTIONAL_INSTANCES, acceptance_suite, barrier_text, random_suite
from oracles import apply_threshold_split, check_threshold_split


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


@pytest.fixture(scope="module")
def solved_suite():
    """Each suite instance with its relaxation solution and split recording."""
    out = []
    for inst in acceptance_suite():
        pg = preprocess(inst)
        sol, _ = solve_pcrpp_lp(pg)
        recorder = SplitRecorder(pg, sol)
        out.append((inst, pg, sol, recorder))
    return out


def test_sandwich_property(solved_suite, suite_optima):
    start = time.perf_counter()
    with criterion("sandwich"):
        assert len(solved_suite) >= 200
        for (inst, pg, lp_sol, _), (same, oracle) in zip(solved_suite, suite_optima, strict=True):
            assert same == inst
            sol = best_of_many(inst)
            opt = oracle.value
            assert sol.lower_bound == pytest.approx(lp_sol.objective, abs=1e-9)
            assert sol.lower_bound <= opt + 1e-6
            assert opt <= sol.value + 1e-6
            assert sol.value <= 1.6 * sol.lower_bound + 1e-6
            red = pctsp_reduction(inst)
            assert red.stats["exact"]
            assert red.value <= 2.0 * opt + 1e-6
        assert time.perf_counter() - start < 600.0


def test_barrier_regression():
    start = time.perf_counter()
    with criterion("barrier-regression"):
        for eps in (0.1, 0.01):
            inst = parse_instance(barrier_text(eps), name=f"barrier{eps}")
            alg = best_of_many(inst)
            opt = exact_oracle(inst)
            assert alg.value == opt.value
            assert abs(alg.value - (1.0 + 3.0 * eps)) <= 1e-12
            red = pctsp_reduction(inst)
            assert abs(red.value - (2.0 + eps)) <= 1e-12
            if eps == 0.01:
                assert red.value / alg.value >= 1.94
        assert time.perf_counter() - start < 1.0


def test_tree_decomposition_contract(solved_suite):
    with criterion("tree-decomposition"):
        for inst, pg, sol, recorder in solved_suite:
            seen = set()
            for delta in recorder.thresholds:
                boundary = recorder.boundary(delta)
                if boundary in seen:
                    continue
                seen.add(boundary)
                xt = recorder.state(boundary)
                yt = {
                    v: (val if v == pg.root or val >= delta else 0.0)
                    for v, val in sol.y.items()
                }
                ghat = project_to_hat(stage_distribution(recorder, boundary), pg)
                assert abs(ghat.total_weight - 1.0) <= 1e-9
                marg = ghat.edge_marginals()
                for key in pg.pos_edges:
                    assert abs(marg.get(key, 0.0) - xt.get(key, 0.0)) <= 1e-6
                vmarg = ghat.vertex_marginals(pg.root)
                for v, want in yt.items():
                    if v != pg.root:
                        assert abs(vmarg.get(v, 0.0) - want) <= 1e-6
                expect = ghat.expected_length(lambda k: pg.lengths[k])
                budget = sum(pg.lengths[k] * val for k, val in xt.items())
                assert expect <= budget + 1e-6
                for tree in ghat.trees:
                    verts = endpoints(tree) | {pg.root}
                    for key in pg.pos_edges:
                        inside = key in tree
                        assert inside == (key[0] in verts) == (key[1] in verts)


def test_threshold_split_clauses(solved_suite):
    with criterion("threshold-split"):
        for inst, pg, sol, recorder in solved_suite:
            for delta in recorder.thresholds:
                xt, yt, _ = apply_threshold_split(sol, delta, pg, recorder=recorder)
                check_threshold_split(pg, sol, delta, xt, yt, tol=1e-6)


def brute_force_tjoin_cost(inst, targets):
    lengths = [e.length for e in inst.edges]
    best = None
    want = frozenset(targets)
    for mask in itertools.product((0, 1), repeat=len(inst.edges)):
        counts = Counter(
            {ekey(e.u, e.v): 1 for i, e in enumerate(inst.edges) if mask[i]}
        )
        if odd_vertices(counts) != want:
            continue
        cost = sum(lengths[i] for i in range(len(lengths)) if mask[i])
        if best is None or cost < best:
            best = cost
    return best


def test_tjoin_oracle_equivalence():
    with criterion("tjoin-oracle"):
        rng = random.Random(90)
        lengths_of = lambda inst: {ekey(e.u, e.v): e.length for e in inst.edges}
        trials = 0
        seed = 0
        while trials < 200:
            seed += 1
            n = rng.randint(2, 5)
            mmax = min(8, n * (n - 1) // 2)
            m = rng.randint(n - 1, mmax)
            inst = gen_random(10_000 + seed, n, m, wmax=9, pmax=5, pos_density=0.4)
            verts = list(range(inst.vertex_count))
            size = rng.choice([s for s in (0, 2, 4) if s <= len(verts)])
            targets = sorted(rng.sample(verts, size))
            want = brute_force_tjoin_cost(inst, targets)
            if want is None:
                continue
            join = min_tjoin(inst, targets)
            assert odd_vertices(join) == frozenset(targets)
            lengths = lengths_of(inst)
            got = sum(m * lengths[k] for k, m in join.items())
            assert got == pytest.approx(want, abs=1e-9)
            trials += 1


def test_ratio_certificate():
    start = time.perf_counter()
    with criterion("ratio-certificate"):
        params = RatioParams()
        assert length_factor(params) < 1.59862255
        assert skip_factor(params) < 1.57780982
        cert = verify_bound(params, 1e-8)
        assert cert.certified < 1.59872206
        assert abs(cert.argmax - 0.94817979) < 1e-4
        assert cert.conclusive
        assert time.perf_counter() - start < 300.0


def test_golden_ratio_identity():
    with criterion("golden-ratio"):
        delta = (3.0 - math.sqrt(5.0)) / 2.0
        gold = (1.0 + math.sqrt(5.0)) / 2.0
        for term in fixed_threshold_terms(delta, 1.0):
            assert abs(term - gold) <= 1e-12


def test_shared_trace_equivalence():
    with criterion("shared-trace"):
        instances = random_suite(48, base_seed=20_000, max_n=5, max_m=7) + list(
            FRACTIONAL_INSTANCES
        )
        assert len(instances) >= 50
        for inst in instances:
            pg = preprocess(inst)
            sol, _ = solve_pcrpp_lp(pg)
            recorder = SplitRecorder(pg, sol)
            for delta in recorder.thresholds:
                xt, yt, _ = apply_threshold_split(sol, delta, pg, recorder=recorder)
                fresh = stage_distribution(SplitRecorder(pg, LpSolution(xt, yt, 0.0)), 0)
                replay = stage_distribution(recorder, recorder.boundary(delta))
                assert replay.trees == fresh.trees
                assert replay.weights == fresh.weights


def test_bench_with_optmax_files(tmp_path):
    with criterion("bench-optmax"):
        paths = []
        for seed in range(40):
            inst = gen_random(30_000 + seed, 2 + seed % 4, max(1 + seed % 4, (2 + seed % 4) - 1))
            opt = exact_oracle(inst).value
            text = serialize_instance(inst).rstrip()
            text += f"\nOPTMAX {inst.total_profit - opt!r}\n"
            p = tmp_path / f"k{seed}.txt"
            p.write_text(text)
            paths.append(p)
        records, csv_text, rows = run_bench(paths)
        assert all(r.error is None for r in records)
        for rec in records:
            assert rec.alg_gap is not None and rec.alg_gap >= -1e-6
            assert rec.lp_gap is not None and rec.lp_gap >= -1e-6
        again = summarize(records)
        assert again == rows
        allrow = [r for r in rows if r["family"] == "All"][0]
        gaps = [r.alg_gap for r in records if r.alg_gap is not None]
        assert allrow["avg_alg_gap"] == sum(gaps) / len(gaps)
        assert allrow["max_alg_gap"] == max(gaps)
        assert allrow["count"] == len(records)
