import json

import pytest

from pcrpp.cli import (
    convert_optimum,
    family_of,
    gen_random,
    main,
    parse_bench_csv,
    run_bench,
)
from pcrpp.core import parse_instance, serialize_instance
from pcrpp.lp import LpError
from pcrpp.solvers import exact_oracle
from conftest import FRACTIONAL_INSTANCES, barrier_text


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


def test_cli_dumps_use_lp_settings(tmp_path):
    # the dumps solve the LP with the same round cap as the solve itself
    path = tmp_path / "frac1.txt"
    path.write_text(serialize_instance(FRACTIONAL_INSTANCES[0]))
    lp_path = tmp_path / "model.lp"
    with pytest.raises(LpError, match="did not converge within 1 rounds"):
        main(["solve", str(path), "--lp-max-rounds", "1", "--dump-lp", str(lp_path)])
    assert not lp_path.exists()


def test_cli_oracle_and_reduce(tmp_path, capsys):
    path = tmp_path / "b.txt"
    path.write_text(barrier_text(0.1))
    assert main(["oracle", str(path)]) == 0
    assert "value 1.300000" in capsys.readouterr().out
    assert main(["reduce", str(path)]) == 0
    assert "value 2.100000" in capsys.readouterr().out


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


def test_cli_verify_ratio_coarse(capsys):
    # coarse grid: certificate prints but the slack dominates
    assert main(["verify-ratio", "--step", "1e-2"]) == 2
    out = capsys.readouterr().out
    assert "conclusive      no" in out
    assert "certified=" in out


def test_cli_gen_random_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "inst.txt"
    assert main([
        "gen-random", "--seed", "5", "-n", "4", "-m", "4", "-o", str(out_path)
    ]) == 0
    inst = parse_instance(out_path.read_text())
    assert inst.vertex_count == 4
    assert len(inst.edges) == 4


def test_cli_parse_error_returns_one(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("nope\n")
    assert main(["oracle", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
