import contextlib
import io
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from pcrpp import lp, ratiocheck, solvers, splitoff
from pcrpp.cli import (
    BenchRecord,
    bench_instance,
    convert_optimum,
    family_of,
    gen_random,
    main,
    parse_bench_csv,
    records_to_csv,
    run_bench,
)
from pcrpp.core import Walk, parse_instance, serialize_instance
from pcrpp.lp import solve_pcrpp_lp, write_lp_text
from pcrpp.preprocess import preprocess
from pcrpp.solvers import exact_oracle
from pcrpp.splitoff import SplitRecorder
from pcrpp.treedecomp import DecompositionError, project_to_hat, stage_distribution
from conftest import FRACTIONAL_INSTANCES, barrier_text

RND37 = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "frac-small" / "rnd37.txt"


def test_convert_optimum_formula():
    inst = parse_instance("3 2 1\n1 2 1 4\n2 3 1 6\n")
    assert convert_optimum(inst, 4.0) == pytest.approx(6.0)
    assert convert_optimum(inst, inst.total_profit) == pytest.approx(0.0)


def test_convert_optimum_barrier(barrier):
    # the maximization optimum of the barrier is 0 (stay at the root)
    assert convert_optimum(barrier, 0.0) == pytest.approx(1.3)


def test_gen_random_deterministic():
    a = gen_random(1, 4, 5)
    b = gen_random(1, 4, 5)
    assert a.edges == b.edges
    assert a.vertex_count == 4 and len(a.edges) == 5


def test_gen_random_zero_density():
    inst = gen_random(3, 5, 6, pos_density=0.0)
    assert all(e.profit == 0.0 for e in inst.edges)


def test_gen_random_single_edge():
    inst = gen_random(2, 2, 1)
    assert len(inst.edges) == 1


def test_gen_random_infeasible():
    with pytest.raises(ValueError, match="infeasible"):
        gen_random(1, 4, 2)
    with pytest.raises(ValueError, match="infeasible"):
        gen_random(1, 3, 4)


def test_run_bench_barrier(tmp_path):
    path = tmp_path / "barrier.txt"
    path.write_text(barrier_text(0.1))
    records, csv_text, rows = run_bench([path])
    rec = records[0]
    assert rec.error is None
    assert rec.alg == pytest.approx(1.3)
    assert rec.red == pytest.approx(2.1)
    assert rec.opt_lp == pytest.approx(1.3, abs=1e-9)
    assert rec.opt == pytest.approx(1.3)  # filled by the oracle
    assert rec.alg_gap == pytest.approx(0.0, abs=1e-6)
    assert rec.red_gap == pytest.approx(100.0 * 0.8 / 1.3, abs=1e-4)
    assert rec.better == "ALG"
    assert csv_text.splitlines()[0].startswith("name,vertices,edges,opt,alg,red,opt_lp")


def test_run_bench_empty():
    records, csv_text, rows = run_bench([])
    assert records == []
    assert csv_text.splitlines() == [
        "name,vertices,edges,opt,alg,red,opt_lp,alg_gap,red_gap,lp_gap,t_lp,t_split,t_other,better"
    ]
    assert rows == []


def test_run_bench_uses_optmax_when_present(tmp_path):
    inst = gen_random(11, 4, 5)
    opt = exact_oracle(inst).value
    opt_max = inst.total_profit - opt
    path = tmp_path / "known.txt"
    path.write_text(serialize_instance(inst).rstrip() + f"\nOPTMAX {opt_max!r}\n")
    records, _, _ = run_bench([path])
    assert records[0].opt == pytest.approx(opt)
    assert records[0].alg_gap is not None and records[0].alg_gap >= -1e-6


def test_run_bench_records_failures(tmp_path):
    good = tmp_path / "g.txt"
    good.write_text(barrier_text(0.1))
    bad = tmp_path / "b.txt"
    bad.write_text("3 1 9\n1 2 1 0\n")
    records, _, _ = run_bench([good, bad])
    assert records[0].error is None
    assert records[1].error is not None


def test_csv_roundtrip_at_printed_precision(tmp_path):
    paths = []
    for seed in (21, 22):
        inst = gen_random(seed, 4, 5)
        p = tmp_path / f"r{seed}.txt"
        p.write_text(serialize_instance(inst))
        paths.append(p)
    records, csv_text, _ = run_bench(paths)
    parsed = parse_bench_csv(csv_text)
    for rec, row in zip(records, parsed):
        for col in ("opt", "alg", "red", "opt_lp", "alg_gap", "red_gap", "lp_gap"):
            raw = row[col]
            mine = getattr(rec, col)
            if mine is None:
                assert raw == ""
            else:
                assert f"{mine:.6f}" == raw


def test_summary_matches_row_recomputation(tmp_path):
    paths = []
    for seed in (31, 32, 33):
        inst = gen_random(seed, 4, 5)
        p = tmp_path / f"s{seed}.txt"
        p.write_text(serialize_instance(inst))
        paths.append(p)
    records, _, rows = run_bench(paths)
    allrow = [r for r in rows if r["family"] == "All"][0]
    gaps = [r.alg_gap for r in records if r.alg_gap is not None]
    assert allrow["count"] == len(records)
    assert allrow["avg_alg_gap"] == sum(gaps) / len(gaps)
    assert allrow["max_alg_gap"] == max(gaps)
    assert allrow["alg_better"] == sum(1 for r in records if r.better == "ALG")


def test_family_prefix():
    assert family_of("D16") == "D"
    assert family_of("ALBAIDA2") == "ALBAIDA"
    assert family_of("gen42") == "gen"


def test_cli_solve(tmp_path, capsys):
    path = tmp_path / "b.txt"
    path.write_text(barrier_text(0.1))
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert "value 1.300000" in out
    assert "walk 1" in out


def test_cli_solve_reports_the_gap_to_optmax(tmp_path, capsys):
    # barrier: total profit 1.3, optimum 1.3, so OPTMAX 0.26 puts OPT at 1.04
    path = tmp_path / "b.txt"
    path.write_text(barrier_text(0.1) + "OPTMAX 0.26\n")
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert "opt 1.040000" in out
    assert "alg_gap_percent 25.000000" in out


def test_cli_solve_dumps(tmp_path, capsys):
    path = tmp_path / "b.txt"
    path.write_text(barrier_text(0.1))
    lp_path = tmp_path / "model.lp"
    trees_path = tmp_path / "trees.json"
    assert main([
        "solve", str(path), "--dump-lp", str(lp_path), "--dump-trees", str(trees_path)
    ]) == 0
    assert lp_path.read_text().startswith("Minimize")
    json.loads(trees_path.read_text())


def _dump_args(tmp_path):
    """Arguments of a solve of FRACTIONAL_INSTANCES[0] with both dumps, and the dump paths."""
    path = tmp_path / "f.txt"
    path.write_text(serialize_instance(FRACTIONAL_INSTANCES[0]))
    lp_path = tmp_path / "model.lp"
    trees_path = tmp_path / "trees.json"
    args = ["solve", str(path), "--dump-lp", str(lp_path), "--dump-trees", str(trees_path)]
    return args, lp_path, trees_path


def test_cli_solve_dumps_fractional(tmp_path, capsys):
    # fractional y: the trees dump holds one entry per threshold
    args, lp_path, trees_path = _dump_args(tmp_path)
    assert main(args) == 0
    dumped = json.loads(trees_path.read_text())

    pg = preprocess(parse_instance((tmp_path / "f.txt").read_text()))
    sol, cert = solve_pcrpp_lp(pg)
    recorder = SplitRecorder(pg, sol)
    assert len(recorder.thresholds) > 1
    assert list(dumped) == [f"{delta:.9f}" for delta in recorder.thresholds]
    for delta in recorder.thresholds:
        stage = dumped[f"{delta:.9f}"]
        assert sum(tree["weight"] for tree in stage) == pytest.approx(1.0, abs=1e-9)
        dist = project_to_hat(stage_distribution(recorder, recorder.boundary(delta)), pg)
        assert stage == [
            {"weight": w, "edges": sorted(map(list, t))}
            for t, w in zip(dist.trees, dist.weights)
        ]

    rows = [line for line in lp_path.read_text().splitlines() if line.startswith(" cut_")]
    assert cert.cuts and len(rows) == len(cert.cuts)


def test_cli_solve_dumps_come_from_one_run(tmp_path, capsys, monkeypatch):
    # one LP solve and one splitting pass serve both dumps and the solve
    calls = Counter()

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(solvers, "solve_pcrpp_lp")
    count(solvers, "SplitRecorder")
    # under whatever name a caller imports them, each LP solve builds one
    # backend and each recorder runs one splitting pass
    count(lp, "HighsBackend")
    count(splitoff, "split_every_vertex")
    args, lp_path, trees_path = _dump_args(tmp_path)
    assert main(args) == 0
    assert lp_path.exists() and trees_path.exists()
    assert calls == {
        "solve_pcrpp_lp": 1, "SplitRecorder": 1, "HighsBackend": 1, "split_every_vertex": 1
    }


def test_cli_solve_writes_lp_dump_when_a_stage_fails(tmp_path, capsys, monkeypatch):
    def fail(dist, pg):
        raise DecompositionError("stage fails on purpose")

    monkeypatch.setattr(solvers, "project_to_hat", fail)
    args, lp_path, trees_path = _dump_args(tmp_path)
    # a typed run-time failure is reported as bench records it, with exit code 3
    assert main(args) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: DecompositionError: stage fails on purpose\n"
    assert captured.out == ""
    pg = preprocess(FRACTIONAL_INSTANCES[0])
    assert lp_path.read_text() == write_lp_text(pg, solve_pcrpp_lp(pg)[1])
    # the trees dump holds only stages the solve checked, and none passed
    assert not trees_path.exists()


def test_cli_solve_reports_a_failed_check(tmp_path, capsys, monkeypatch):
    # an in-run check failure ends the solve like the typed errors, without a traceback
    monkeypatch.setattr(solvers, "RATIO_BOUND", 0.5)
    path = tmp_path / "f.txt"
    path.write_text(serialize_instance(FRACTIONAL_INSTANCES[0]))
    assert main(["solve", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: CheckError: ratio bound check failed in finish: value ")
    assert captured.err.count("\n") == 1


def test_csv_roundtrip_with_comma_in_name():
    rec = BenchRecord(name="a,b", vertices=3, edges=2, alg=1.5, better="tie")
    text = records_to_csv([rec])
    [row] = parse_bench_csv(text)
    assert row["name"] == "a,b"
    assert row["vertices"] == "3"
    assert row["edges"] == "2"
    assert row["alg"] == "1.500000"
    assert row["better"] == "tie"
    assert list(row) == text.splitlines()[0].split(",")


def test_cli_oracle_and_reduce(tmp_path, capsys):
    path = tmp_path / "b.txt"
    path.write_text(barrier_text(0.1))
    assert main(["oracle", str(path)]) == 0
    assert "value 1.300000" in capsys.readouterr().out
    assert main(["reduce", str(path)]) == 0
    assert "value 2.100000" in capsys.readouterr().out


def test_cli_oracle_solves_a_20_edge_instance(capsys):
    assert len(parse_instance(RND37.read_text()).edges) == 20
    assert main(["oracle", str(RND37)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "value 33.000000"


def test_cli_bench_fills_opt_and_gaps_on_a_20_edge_instance(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    assert main(["bench", "--out", str(csv_path), str(RND37)]) == 0
    [row] = parse_bench_csv(csv_path.read_text())
    assert (row["name"], row["opt"], row["alg"], row["alg_gap"]) == ("rnd37", "33.000000", "35.000000", "6.060606")


def test_cli_reduce_greedy_fallback(tmp_path, capsys):
    path = tmp_path / "f.txt"
    path.write_text(serialize_instance(FRACTIONAL_INSTANCES[1]))
    assert main(["reduce", "--cap", "1", str(path)]) == 0
    assert "exact_pctsp 0" in capsys.readouterr().out


def test_cli_bench_exit_codes(tmp_path, capsys):
    good = tmp_path / "g.txt"
    good.write_text(barrier_text(0.1))
    assert main(["bench", str(good)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.txt"
    bad.write_text("junk\n")
    assert main(["bench", str(good), str(bad)]) == 2
    capsys.readouterr()


def test_bench_instance_credits_a_reduction_that_beats_alg(barrier, monkeypatch):
    # the barrier's best walk stays at the root (1.3); a reduction claiming 0.65 wins
    monkeypatch.setattr(solvers, "pctsp_reduction", lambda inst, cap: solvers.Solution(Walk.trivial(0), 0.65))
    rec = bench_instance(barrier)
    assert (rec.alg, rec.red, rec.opt) == (pytest.approx(1.3), 0.65, pytest.approx(1.3))
    assert rec.better == "RED"
    assert rec.red_gap == pytest.approx(-50.0)


def test_cli_bench_writes_the_csv_to_out(tmp_path, capsys):
    good = tmp_path / "g.txt"
    good.write_text(barrier_text(0.1))
    csv_path = tmp_path / "bench.csv"
    assert main(["bench", "--out", str(csv_path), str(good)]) == 0
    assert "name,vertices" not in capsys.readouterr().out
    [row] = parse_bench_csv(csv_path.read_text())
    assert (row["name"], row["opt"], row["alg"], row["red"]) == ("g", "1.300000", "1.300000", "2.100000")


def test_cli_bench_summary_follows_a_redirected_stdout(tmp_path):
    good = tmp_path / "g.txt"
    good.write_text(barrier_text(0.1))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["bench", "--out", str(tmp_path / "bench.csv"), str(good)]) == 0
    header, family, total = (line.split() for line in buf.getvalue().splitlines())
    assert header[:3] == ["family", "count", "avg_alg_gap"]
    assert family[:2] == ["g", "1"]
    assert total[:2] == ["All", "1"]


def test_cli_verify_ratio_coarse(capsys):
    # coarse grid: certificate prints but the slack dominates
    assert main(["verify-ratio", "--step", "1e-2"]) == 2
    out = capsys.readouterr().out
    assert "conclusive      no" in out
    assert "certified=" in out


@pytest.mark.parametrize("step, code, lines", [
    ("1e-4", 2, [
        "ratio certificate",
        "  window          [0.36621005, 0.99678328]  beta 1.9809442",
        "  grid step       0.0001",
        "  grid points     6307",
        "  grid maximum    1.5986225466 at xi 0.9482100500",
        "  slack           0.9948021587",
        "  certified bound 2.5934247053",
        "  conclusive      no (slack dominates)",
        "step=0.0001",
        "points=6307",
        "grid_max=1.5986225466",
        "argmax=0.9482100500",
        "slack=0.9948021587",
        "certified=2.5934247053",
        "conclusive=0",
    ]),
    ("1e-7", 0, [
        "ratio certificate",
        "  window          [0.36621005, 0.99678328]  beta 1.9809442",
        "  grid step       1e-07",
        "  grid points     6305734",
        "  grid maximum    1.5986225582 at xi 0.9481797500",
        "  slack           0.0009948022",
        "  certified bound 1.5996173603",
        "  conclusive      yes",
        "step=1e-07",
        "points=6305734",
        "grid_max=1.5986225582",
        "argmax=0.9481797500",
        "slack=0.0009948022",
        "certified=1.5996173603",
        "conclusive=1",
    ]),
])
def test_cli_verify_ratio_prints_the_pinned_certificate(step, code, lines, capsys):
    # the printed certificate, line for line, so it cannot drift with the sweep's internals
    assert main(["verify-ratio", "--step", step]) == code
    assert capsys.readouterr().out.splitlines() == lines


def test_cli_verify_ratio_filter_failure_returns_three(capsys, monkeypatch):
    # a float64 curve off by more than the filter bound fails the run, not the input
    real = ratiocheck._curve_array

    def corrupted(p, xs, dtype=np.longdouble):
        vals = real(p, xs, dtype)
        return vals + 1e-6 if dtype is np.float64 else vals

    monkeypatch.setattr(ratiocheck, "_curve_array", corrupted)
    assert main(["verify-ratio", "--step", "1e-5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: FilterBoundError: float64 curve value ")


@pytest.mark.parametrize("args, message", [
    (["--step", "nan"], "error: step must be finite and positive, got nan"),
    (["--beta", "nan"], "error: beta must be finite, got nan"),
    (["--kappa", "1.0"], "error: the slope bound 32/(1 - kappa) is infinite at kappa = 1"),
])
def test_cli_verify_ratio_rejects_bad_input(args, message, capsys):
    assert main(["verify-ratio", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == message


def test_cli_gen_random_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "inst.txt"
    assert main([
        "gen-random", "--seed", "5", "-n", "4", "-m", "4", "-o", str(out_path)
    ]) == 0
    inst = parse_instance(out_path.read_text())
    assert inst.vertex_count == 4
    assert len(inst.edges) == 4
    # without -o the same text goes to stdout
    capsys.readouterr()
    assert main(["gen-random", "--seed", "5", "-n", "4", "-m", "4"]) == 0
    assert capsys.readouterr().out == out_path.read_text()


def test_cli_parse_error_returns_one(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("nope\n")
    assert main(["oracle", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
