import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_array

from pcrpp import lp
from pcrpp.candidates import min_perfect_matching
from pcrpp.cli import gen_random
from pcrpp.core import parse_instance
from pcrpp.lp import (
    FlowNetwork,
    HighsBackend,
    LpError,
    _price_variables,
    column_blocks,
    initial_variables,
    master_model,
    max_flow_min_cut,
    separate_cuts,
    solve_pcrpp_lp,
    write_lp_text,
)
from pcrpp.preprocess import preprocess
from pcrpp.solvers import exact_oracle
from conftest import FRACTIONAL_INSTANCES, barrier_text, dense_lp_value, linprog_master, random_suite
from oracles import check_lp_solution


def test_max_flow_two_vertices():
    value, side = max_flow_min_cut(FlowNetwork({(0, 1): 3.0}), 0, 1)
    assert value == pytest.approx(3.0)
    assert side == frozenset({0})


def test_max_flow_bottleneck_path():
    value, side = max_flow_min_cut(FlowNetwork({(0, 1): 2.0, (1, 2): 1.0}), 0, 2)
    assert value == pytest.approx(1.0)
    assert side in (frozenset({0}), frozenset({0, 1}))
    assert 0 in side and 2 not in side


def test_max_flow_barrier_cut():
    # x on the barrier triangle; the two cuts separating a from r have
    # values 2 ({a}) and 2 ({a,b}), so the flow is 2
    caps = {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}
    value, side = max_flow_min_cut(FlowNetwork(caps), 1, 0)
    assert value == pytest.approx(2.0)
    assert 1 in side and 0 not in side


def test_solve_barrier(barrier):
    pg = preprocess(barrier)
    sol, cert = solve_pcrpp_lp(pg)
    assert sol.objective == pytest.approx(1.3, abs=1e-9)
    assert max(abs(v) for v in sol.x.values()) <= 1e-7
    assert sol.y[1] == 0.0 and sol.y[2] == 0.0
    check_lp_solution(pg, sol)
    assert sol.objective == pytest.approx(dense_lp_value(pg), abs=1e-7)


def test_solve_single_positive(single_pos):
    # objective 5 - 3t over the coupled variable, optimal at t = 1
    pg = preprocess(single_pos)
    sol, _ = solve_pcrpp_lp(pg)
    assert sol.objective == pytest.approx(2.0, abs=1e-9)
    assert sol.x[(1, 2)] == pytest.approx(1.0)
    assert sol.x[(0, 2)] == pytest.approx(1.0)
    assert sol.x[(0, 1)] == pytest.approx(1.0)
    assert sol.objective == pytest.approx(dense_lp_value(pg), abs=1e-7)


def test_solve_zero_profit(zero_profit):
    pg = preprocess(zero_profit)
    sol, _ = solve_pcrpp_lp(pg)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert max(abs(v) for v in sol.x.values()) <= 1e-9


def test_separation_zero_vector_violates():
    inst = parse_instance("3 3 1\n1 2 1 0\n2 3 1 0\n1 3 1 0\n")
    pg = preprocess(inst)
    x = {k: 0.0 for k in pg.lengths}
    cuts = separate_cuts(pg, x, {0: 1.0, 1: 0.5, 2: 0.0})
    assert cuts == [(frozenset({1}), 1)]


def test_separation_feasible_empty(barrier):
    pg = preprocess(barrier)
    sol, _ = solve_pcrpp_lp(pg)
    assert separate_cuts(pg, sol.x, sol.y) == []


def test_separation_no_demand(barrier):
    pg = preprocess(barrier)
    x = {k: 0.0 for k in pg.lengths}
    assert separate_cuts(pg, x, {0: 1.0, 1: 0.0, 2: 0.0}) == []


def test_matches_dense_lp_on_random_instances():
    for inst in random_suite(25, base_seed=4000, max_n=5, max_m=7):
        pg = preprocess(inst)
        sol, _ = solve_pcrpp_lp(pg)
        assert sol.objective == pytest.approx(dense_lp_value(pg), abs=1e-6)
        check_lp_solution(pg, sol)


def test_lower_bounds_oracle_on_random_instances():
    for inst in random_suite(40, base_seed=4100):
        pg = preprocess(inst)
        sol, _ = solve_pcrpp_lp(pg)
        opt = exact_oracle(inst).value
        assert sol.objective <= opt + 1e-6


def test_objective_invariant_under_vertex_permutation():
    rng = random.Random(77)
    for inst in random_suite(8, base_seed=4200, max_n=5, max_m=7):
        base = solve_pcrpp_lp(preprocess(inst))[0].objective
        perm = list(range(inst.vertex_count))
        rng.shuffle(perm)
        from pcrpp.core import Edge, Instance

        permuted = Instance(
            inst.vertex_count,
            perm[inst.root],
            tuple(
                Edge(min(perm[e.u], perm[e.v]), max(perm[e.u], perm[e.v]), e.length, e.profit)
                for e in inst.edges
            ),
        )
        other = solve_pcrpp_lp(preprocess(permuted))[0].objective
        assert other == pytest.approx(base, abs=1e-6)


def test_round_cap_reports_nonconvergence(monkeypatch):
    from pcrpp import lp
    from conftest import FRACTIONAL_INSTANCES

    monkeypatch.setattr(lp, "MAX_ROUNDS", 1)
    pg = preprocess(FRACTIONAL_INSTANCES[0])
    with pytest.raises(lp.LpError, match="did not converge within 1 rounds"):
        solve_pcrpp_lp(pg)


class RecordingBackend(HighsBackend):
    def __init__(self):
        self.calls = []

    def solve(self, *master):
        res = super().solve(*master)
        self.calls.append((master, res))
        return res


def test_backend_matches_linprog_reference():
    # every master of the cutting-plane loop, solved again through linprog:
    # the same model and options must give the same vertex and duals
    backend = RecordingBackend()
    insts = FRACTIONAL_INSTANCES + tuple(random_suite(30, base_seed=4500, max_n=8, max_m=16))
    for inst in insts:
        solve_pcrpp_lp(preprocess(inst), backend=backend)
    assert len(backend.calls) > len(insts)
    for master, res in backend.calls:
        cost, _, row_lower, _, indptr, indices, values = master
        ref, n_ub = linprog_master(*master)
        dense = csr_array((values, indices, indptr), shape=(len(row_lower), len(cost)))
        canonical = csr_array(dense.toarray())
        assert np.array_equal(canonical.indptr, indptr)
        assert np.array_equal(canonical.indices, indices)
        assert np.array_equal(canonical.data, values)
        assert np.array_equal(res.x, ref.x)
        assert np.array_equal(res.row_duals[:n_ub], ref.ineqlin.marginals)
        assert np.array_equal(res.row_duals[n_ub:], ref.eqlin.marginals)
        assert res.objective == ref.fun


class HandoffBackend(HighsBackend):
    """Checks each master's dtypes and records the bytes alive when it arrives."""

    def __init__(self, base: int):
        self.base = base
        self.readings = []

    def solve(self, *master):
        live = tracemalloc.get_traced_memory()[0] - self.base
        _, _, _, _, indptr, indices, values = master
        assert indptr.dtype == np.int32 and indices.dtype == np.int32
        assert values.dtype == np.float64
        self.readings.append((live, sum(a.nbytes for a in master)))
        return super().solve(*master)


def test_master_handoff_keeps_only_the_master_alive():
    # The master reaches the backend with int32 row starts and column
    # indices, and with none of its assembly's intermediates alive.  Beyond
    # the master, what is alive is the loop's own state: every recorded
    # cut's side and key, the crossing matrix and witnesses of the master
    # cuts only, and the column blocks.  At the largest master of this
    # solve, 1.15 MB was alive for a 0.38 MB master (1.16 MB while the
    # master went over by columns, 1.12 MB before the loop kept its column
    # blocks, 1.34 MB for 0.53 MB while every recorded cut was a master
    # row); at the commit that still held the
    # assembly (int64 indices, the sort key and order, the block arrays)
    # it was 3.91 MB for 0.70 MB, and from about its 20th master on more
    # than the 1.5 MB bound below was alive beyond the master.
    pg = preprocess(gen_random(0, 16, 32))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        backend = HandoffBackend(tracemalloc.get_traced_memory()[0])
        solve_pcrpp_lp(pg, backend=backend)
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(backend.readings) > 20
    for live, master in backend.readings:
        assert live - master <= 1.5e6, (live, master)


def test_backend_reports_failed_status():
    # x <= 1 and the row x = 2 admit no solution
    one = np.array([1.0])
    with pytest.raises(LpError, match=r"model status 'Infeasible' on a 1 x 1 master"):
        HighsBackend().solve(one, one, 2 * one, 2 * one, np.array([0, 1]), np.array([0]), one)


def test_reused_instance_answers_like_a_fresh_one():
    # one backend through real masters that cross the size gate both ways,
    # an infeasible master and a small one again: each result is the one a
    # fresh backend returns, bit for bit.  A small master leaves its instance
    # kept and the next small one reuses it; a large master or an error
    # leaves none kept
    recorder = RecordingBackend()
    solve_pcrpp_lp(preprocess(gen_random(0, 16, 32)), backend=recorder)
    masters = [master for master, _ in recorder.calls]
    small = [m for m in masters if len(m[6]) <= lp.REUSE_NNZ]
    large = next(m for m in masters if len(m[6]) > lp.REUSE_NNZ)
    one = np.array([1.0])
    infeasible = (one, one, 2 * one, 2 * one, np.array([0, 1]), np.array([0]), one)
    backend = HighsBackend()
    kept = []
    for master in (small[0], small[1], large, small[2], infeasible, small[3]):
        if master is infeasible:
            with pytest.raises(LpError, match="model status 'Infeasible'"):
                backend.solve(*master)
        else:
            got, want = backend.solve(*master), HighsBackend().solve(*master)
            assert np.array_equal(got.x, want.x)
            assert np.array_equal(got.row_duals, want.row_duals)
            assert got.objective == want.objective
        kept.append(backend._highs)
    assert kept[0] is not None and kept[1] is kept[0]
    assert kept[2] is None and kept[3] is not None
    assert kept[4] is None and kept[5] is not None


@pytest.mark.parametrize(
    "position, bad, message",
    [
        (0, np.nan, "LP model cost 1 is nan"),
        (0, np.inf, "LP model cost 1 is inf"),
        (0, -np.inf, "LP model cost 1 is -inf"),
        (6, np.nan, "LP model matrix value 1 is nan"),
        (6, np.inf, "LP model matrix value 1 is inf"),
        (1, np.nan, "LP model column upper bound 1 is nan"),
        (2, np.nan, "LP model row lower bound 1 is nan"),
        (3, np.nan, "LP model row upper bound 1 is nan"),
    ],
)
def test_backend_rejects_non_finite_data(position, bad, message):
    # HiGHS took a NaN cost and reported an optimal point with objective NaN
    two = np.ones(2)
    master = [two, two, -two, two, np.array([0, 1, 2]), np.array([0, 1]), two]
    master[position] = np.array([1.0, bad])
    with pytest.raises(LpError, match=f"^{message}$"):
        HighsBackend().solve(*master)


def test_backend_rejects_a_model_highs_changes():
    # HiGHS drops a matrix value below 1e-9 with a warning, which would make
    # this 1 x 1 master infeasible instead of solving it
    one = np.array([1.0])
    with pytest.raises(LpError, match=r"passModel status kWarning on a 1 x 1 master"):
        HighsBackend().solve(one, one, one, 2 * one, np.array([0, 1]), np.array([0]), 1e-12 * one)


MALFORMED_MODELS = """
import numpy as np
from pcrpp.lp import HighsBackend, LpError

one, two = np.array([1.0]), np.ones(2)
cases = [
    # a 1 x 2 model whose row points at column 5
    (two, two, one, one, np.array([0, 2]), np.array([0, 5]), two),
    (two, one, one, one, np.array([0, 2]), np.array([0, 1]), two),
    (two, two, one, two, np.array([0, 2]), np.array([0, 1]), two),
    (two, two, one, one, np.array([0, 1, 2]), np.array([0, 1]), two),
    (two, two, one, one, np.array([1, 2]), np.array([0, 1]), two),
    (two, two, two, two, np.array([0, 2, 1]), np.array([0, 1]), two),
    (two, two, one, one, np.array([0, 3]), np.array([0, 1]), two),
    (two, two, one, one, np.array([0, 2]), np.array([0, 1]), one),
    (two, two, one, one, np.array([0, 2]), np.array([-1, 0]), two),
]
for case in cases:
    try:
        HighsBackend().solve(*case)
    except LpError as exc:
        print(exc)
    else:
        print("accepted")
"""


def test_backend_rejects_malformed_model():
    # HiGHS's passModel flags a column index out of range, but a run on that
    # instance crashed the interpreter: probe in a child process, where a
    # crash fails the test
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", MALFORMED_MODELS],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "LP model entry 1 (row 0) has column index 5, outside the 2 columns",
        "LP model has 1 column upper bounds for 2 columns",
        "LP model has 2 row upper bounds for 1 rows",
        "LP model has 3 row starts for 1 rows",
        "LP model row 0 starts at entry 1, not 0",
        "LP model row 2 starts at entry 1, before row 1 at 2",
        "LP model rows end at entry 3 but it has 2 column indices and 2 values",
        "LP model rows end at entry 2 but it has 2 column indices and 1 values",
        "LP model entry 0 (row 0) has column index -1, outside the 2 columns",
    ]


@pytest.mark.parametrize(
    "position, bad, message",
    [
        (1, [1.0], "LP model has 1 column upper bounds for 3 columns"),
        (3, [1.0], "LP model has 1 row upper bounds for 2 rows"),
        (4, [0, 3], "LP model has 2 row starts for 2 rows"),
        (4, [1, 2, 3], "LP model row 0 starts at entry 1, not 0"),
        (4, [0, 3, 2], "LP model row 2 starts at entry 2, before row 1 at 3"),
        (6, [1.0, 1.0], "LP model rows end at entry 3 but it has 3 column indices and 2 values"),
        (5, [0, 2, 3], r"LP model entry 2 \(row 1\) has column index 3, outside the 3 columns"),
    ],
)
def test_check_model_rejects_malformed_rows(position, bad, message):
    # _check_model runs before HiGHS sees the arrays, so this stays in process;
    # the model is 2 x 3, rows {0, 2} and {1}
    three, two = np.ones(3), np.ones(2)
    model = [three, three, two, two, np.array([0, 2, 3]), np.array([0, 2, 1]), three]
    model[position] = np.array(bad)
    with pytest.raises(LpError, match=f"^{message}$"):
        lp._check_model(*model)


@pytest.fixture
def held_models(monkeypatch):
    """(arguments, ``getLp()``) of every ``passModel`` while the test runs, in call order."""
    records = []

    class HoldingHighs(lp._core._Highs):
        def passModel(self, *model):
            status = super().passModel(*model)
            records.append((model, self.getLp()))
            return status

    monkeypatch.setattr(lp._core, "_Highs", HoldingHighs)
    return records


def test_highs_holds_the_column_wise_transpose_of_the_rows_it_is_handed(held_models):
    # Every model reaches HiGHS by rows, and passModel turns it into the
    # column-wise LP that HiGHS holds and solves: for the LP masters, the
    # pairing MIP and the oracle's MIP alike, that LP is the transpose of
    # the rows handed in, entry for entry, with the same costs and bounds
    for inst in (gen_random(0, 12, 24), *FRACTIONAL_INSTANCES):
        solve_pcrpp_lp(preprocess(inst))
    masters = len(held_models)
    dist = {(a, b): float((a * 7 + b * 3) % 11 + 1) for a in range(6) for b in range(a + 1, 6)}
    min_perfect_matching(list(range(6)), dist)
    exact_oracle(parse_instance((CORPUS / "rnd37.txt").read_text(), name="rnd37"))
    assert masters > 1 + len(FRACTIONAL_INSTANCES) and len(held_models) > masters + 1
    for model, held in held_models:
        ncols, nrows, nnz, fmt, _, _, cost, col_lower, col_upper, row_lower, row_upper = model[:11]
        starts, indices, values, integrality = model[11:]
        assert fmt == lp._core.MatrixFormat.kRowwise
        matrix = held.a_matrix_
        assert matrix.format_ == lp._core.MatrixFormat.kColwise
        assert (matrix.num_row_, matrix.num_col_) == (nrows, ncols) and len(values) == nnz
        want = csr_array((values, indices, starts), shape=(nrows, ncols)).tocsc()
        assert np.array_equal(matrix.start_, want.indptr)
        assert np.array_equal(matrix.index_, want.indices)
        assert np.array_equal(matrix.value_, want.data)
        for got, handed in (
            (held.col_cost_, cost), (held.col_lower_, col_lower), (held.col_upper_, col_upper),
            (held.row_lower_, row_lower), (held.row_upper_, row_upper),
        ):
            assert np.array_equal(got, handed)
        if integrality.any():
            assert np.array_equal([int(kind) for kind in held.integrality_], integrality)


def test_lp_text_dump(barrier):
    pg = preprocess(barrier)
    _, cert = solve_pcrpp_lp(pg)
    text = write_lp_text(pg, cert)
    assert text.startswith("Minimize")
    assert "Subject To" in text and "Bounds" in text and text.rstrip().endswith("End")

    # one cut row per recorded cut in the master's sign convention:
    # -1 on exactly the pairs across its side, +2 on the witness, <= 0
    frac = preprocess(FRACTIONAL_INSTANCES[0])
    _, cert = solve_pcrpp_lp(frac)
    rows = [
        line for line in write_lp_text(frac, cert).splitlines() if line.startswith(" cut_")
    ]
    assert cert.cuts and len(rows) == len(cert.cuts)
    n = frac.vertex_count
    for i, ((side, wit, _), line) in enumerate(zip(cert.cuts, rows)):
        body = " ".join(
            f"-1.0 x_{u}_{v}"
            for u in range(n)
            for v in range(u + 1, n)
            if (u in side) != (v in side)
        )
        assert line == f" cut_{i}: {body} +2.0 y_{wit} <= 0.0"


DUMP_INSTANCES = (
    [parse_instance(barrier_text(0.1), name="barrier")]
    + list(FRACTIONAL_INSTANCES)
    + random_suite(6, base_seed=4200)
    + [gen_random(0, 12, 24)]
)


def _dump_optimum(pg, cert, path) -> float:
    """The optimum HiGHS reads back from ``write_lp_text``'s dump, written to ``path``."""
    path.write_text(write_lp_text(pg, cert))
    highs = lp._core._Highs()
    highs.passOptions(lp.HIGHS_OPTIONS)
    assert highs.readModel(str(path)) == lp._core.HighsStatus.kOk
    highs.run()
    assert highs.getModelStatus() == lp._core.HighsModelStatus.kOptimal
    return highs.getInfo().objective_function_value


@pytest.mark.parametrize("inst", DUMP_INSTANCES, ids=[f"{i}-{x.name}" for i, x in enumerate(DUMP_INSTANCES)])
def test_lp_dump_is_the_solved_model(inst, tmp_path):
    # HiGHS reads the dump back; with the recorded cuts and the constant
    # profit sum of the positive edges it is the relaxation that was solved
    pg = preprocess(inst)
    sol, cert = solve_pcrpp_lp(pg)
    objective = _dump_optimum(pg, cert, tmp_path / "model.lp")
    assert abs(objective - sol.objective) <= 1e-7 * max(1.0, abs(sol.objective))


# gen_random(0, 16, 32) records 98 cuts whose partner cut is recorded too
MASTER_ROW_INSTANCES = [(gen_random(0, 16, 32), 98)] + [(inst, None) for inst in FRACTIONAL_INSTANCES]


@pytest.mark.parametrize(
    "inst, duplicates", MASTER_ROW_INSTANCES, ids=[x.name for x, _ in MASTER_ROW_INSTANCES]
)
def test_master_has_one_row_per_distinct_cut(inst, duplicates, tmp_path):
    # A cut (S, w) recorded after (S, partner(w)) stays in the certificate
    # but gets no master row: y_w = y_partner(w) makes the two rows one.
    pg = preprocess(inst)
    backend = RecordingBackend()
    sol, cert = solve_pcrpp_lp(pg, backend=backend)
    partner = {}
    for a, b in pg.pos_edges:
        partner[a], partner[b] = b, a
    keys = [(side, w) for side, w, _ in cert.cuts]
    pairs_both = sum((side, partner.get(w)) in set(keys) for side, w in keys) // 2
    if duplicates is not None:
        assert pairs_both == duplicates
    distinct = {(side, frozenset({w, partner.get(w, w)})) for side, w in keys}
    assert len(distinct) == len(keys) - pairs_both
    # the witnesses of the master rows: every cut whose partner cut came no earlier
    kept = [w for i, (side, w) in enumerate(keys) if (side, partner.get(w)) not in keys[:i]]
    assert len(kept) == len(distinct)

    y_vertices = [v for v in range(pg.vertex_count) if v != pg.root]
    ny, npos = len(y_vertices), len(pg.pos_edges)
    seen = []
    for master, _ in backend.calls:
        cost, _, row_lower, _, indptr, indices, values = master
        nrows = len(row_lower)
        ncuts = int(np.isneginf(row_lower).sum()) - 1
        assert nrows == 1 + ncuts + ny + 2 * npos
        # each cut row has +2 on its witness's y column, the last ny columns
        dense = csr_array((values, indices, indptr), shape=(nrows, len(cost))).toarray()
        rows, ycols = np.nonzero(dense[1:1 + ncuts, -ny:] == 2.0)
        assert rows.tolist() == list(range(ncuts))
        assert [y_vertices[j] for j in ycols.tolist()] == kept[:ncuts]
        seen.append(ncuts)
    assert seen == sorted(seen) and seen[0] == 0 and seen[-1] == len(distinct)

    # the dump still lists every recorded cut, and its optimum is the lower bound
    objective = _dump_optimum(pg, cert, tmp_path / "model.lp")
    assert abs(objective - sol.objective) <= 1e-7 * max(1.0, abs(sol.objective))


CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "frac-small"
# rnd37's pricing adds columns in its fifth round, after four rounds on one column set
BLOCK_INSTANCES = (
    [gen_random(0, 16, 32)]
    + list(FRACTIONAL_INSTANCES)
    + [parse_instance((CORPUS / "rnd37.txt").read_text(), name="rnd37")]
)


@pytest.mark.parametrize("inst", BLOCK_INSTANCES, ids=[x.name for x in BLOCK_INSTANCES])
def test_cached_column_blocks_match_a_master_built_from_scratch(inst, monkeypatch):
    # The loop builds its column blocks again only after pricing adds
    # columns.  Each master it hands the backend must equal the one both
    # builder steps make from scratch out of that round's active pairs and
    # master cuts, which are tracked here from the pricing results and the
    # certificate alone.
    pg = preprocess(inst)
    pairs = pg.pairs
    priced, built = [], []
    real_price, real_blocks = lp._price_variables, lp.column_blocks

    def price(*args):
        priced.append(real_price(*args))
        return priced[-1]

    def blocks(*args):
        built.append(len(priced))
        return real_blocks(*args)

    monkeypatch.setattr(lp, "_price_variables", price)
    monkeypatch.setattr(lp, "column_blocks", blocks)
    backend = RecordingBackend()
    _, cert = solve_pcrpp_lp(pg, backend=backend)
    assert len(priced) == len(backend.calls)
    # step one runs first and then after each round that priced columns in
    assert built == [0] + [r + 1 for r, idx in enumerate(priced) if idx.size]
    if inst.name == "rnd37":
        assert [r for r, idx in enumerate(priced) if idx.size] == [0, 4]

    partner = {}
    for a, b in pg.pos_edges:
        partner[a], partner[b] = b, a
    keys = [(side, w) for side, w, _ in cert.cuts]
    kept = [(side, w) for i, (side, w) in enumerate(keys) if (side, partner.get(w)) not in keys[:i]]
    y_vertices = [v for v in range(pg.vertex_count) if v != pg.root]
    active = np.zeros(len(pairs.u), dtype=bool)
    active[pairs.index(initial_variables(pg))] = True
    for (master, _), idx in zip(backend.calls, priced):
        cols = np.flatnonzero(active)
        ncuts = int(np.isneginf(master[2]).sum()) - 1
        sides = [side for side, _ in kept[:ncuts]]
        want = master_model(
            column_blocks(pg, cols, y_vertices),
            pairs.crossing(sides)[:, cols],
            [w for _, w in kept[:ncuts]],
        )
        for got, ref in zip(master, want):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        active[idx] = True


def _price_oracle(pg, active, sides, mu, rho, cut_duals, tol):
    """Per-pair scalar pricing: omitted zero-profit pairs with rc below -tol."""
    root = pg.root
    active_set = set(active)
    added = []
    for u in range(pg.vertex_count):
        for v in range(u + 1, pg.vertex_count):
            key = (u, v)
            if key in active_set or key in pg.pos_edges:
                continue
            rc = pg.lengths[key]
            if u != root:
                rc -= mu[u]
            if v != root:
                rc -= mu[v]
            if root in key:
                rc -= rho
            for side, dual in zip(sides, cut_duals):
                if (u in side) != (v in side):
                    rc += dual
            if rc < -tol:
                added.append(key)
    return added


def test_pricing_matches_scalar_oracle():
    # integer lengths with half-integer degree duals put many reduced costs at
    # or near zero, where the tiny cut duals decide the sign
    rng = random.Random(4400)
    dual_choices = (0.0, 0.0, -0.0, -1.0, -0.5, 1e-7, -1e-7, 3e-8, -2e-7, 0.25)
    nonempty = empty = 0
    for inst in random_suite(40, base_seed=4400, max_n=7, max_m=12):
        pg = preprocess(inst)
        n = pg.vertex_count
        if n < 2:
            continue
        pairs = pg.pairs
        for _ in range(5):
            # the solver always keeps the root pairs active; a random subset
            # without them also exercises the root dual
            active = {k for k in pg.lengths if rng.random() < 0.3}
            if rng.random() < 0.5:
                active.update(initial_variables(pg))
            active = sorted(active)
            mask = np.zeros(len(pairs.u), dtype=bool)
            mask[pairs.index(active)] = True
            mu = {v: rng.choice((0.0, 0.5, 1.0, 2.5, -1.0, 1e-7)) for v in range(n)}
            mu[pg.root] = 0.0
            rho = rng.choice((0.0, -1.0, -0.5, -1e-7, 1.0))
            sides = [
                frozenset(v for v in range(n) if v != pg.root and rng.random() < 0.5)
                for _ in range(rng.randrange(0, 12))
            ]
            cut_duals = np.array([rng.choice(dual_choices) for _ in sides])
            mu_arr = np.array([mu[v] for v in range(n)])
            got = _price_variables(pairs, mask, pairs.crossing(sides), mu_arr, rho, cut_duals, 1e-7)
            want = _price_oracle(pg, active, sides, mu, rho, cut_duals, 1e-7)
            assert pairs.keys(got) == want
            nonempty += bool(want)
            empty += not want
    assert nonempty >= 20 and empty >= 20
