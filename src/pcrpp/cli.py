"""Command-line harness: solve, oracle, reduce, bench, verify-ratio, gen-random."""
from __future__ import annotations

import argparse
import json
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .core import Edge, Instance, ParseError, parse_instance, serialize_instance
from .lp import solve_pcrpp_lp
from .preprocess import preprocess
from .ratiocheck import RatioParams, verify_bound
from .solvers import SolverConfig, best_of_many, exact_oracle, pctsp_reduction
from .splitoff import SplitRecorder
from .treedecomp import AuxGraph, project_to_hat, stage_distribution

CSV_COLUMNS = [
    "name",
    "vertices",
    "edges",
    "opt",
    "alg",
    "red",
    "opt_lp",
    "alg_gap",
    "red_gap",
    "lp_gap",
    "t_lp",
    "t_split",
    "t_other",
    "better",
]


@dataclass
class BenchRecord:
    name: str
    vertices: int = 0
    edges: int = 0
    opt: float | None = None
    alg: float | None = None
    red: float | None = None
    opt_lp: float | None = None
    alg_gap: float | None = None
    red_gap: float | None = None
    lp_gap: float | None = None
    t_lp: float = 0.0
    t_split: float = 0.0
    t_other: float = 0.0
    better: str = ""
    error: str | None = None


def convert_optimum(inst: Instance, opt_max: float) -> float:
    """Published maximization optimum turned into the minimization optimum."""
    return inst.total_profit - opt_max


def gen_random(
    seed: int, n: int, m: int, wmax: int = 10, pmax: int = 10, pos_density: float = 0.5
) -> Instance:
    """Seed-deterministic connected instance with integer lengths and profits."""
    if n < 1 or m < max(n - 1, 0) or m > n * (n - 1) // 2:
        raise ValueError(f"infeasible parameters n={n} m={m}")
    rng = random.Random(seed)
    pairs = []
    used = set()
    for v in range(1, n):
        u = rng.randrange(v)
        pairs.append((u, v))
        used.add((u, v))
    free = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in used
    ]
    rng.shuffle(free)
    pairs.extend(free[: m - len(pairs)])
    pairs.sort()
    edges = []
    for u, v in pairs:
        w = rng.randint(1, max(wmax, 1))
        p = rng.randint(1, max(pmax, 1)) if rng.random() < pos_density else 0
        edges.append(Edge(u, v, float(w), float(p)))
    return Instance(
        vertex_count=n, root=0, edges=tuple(edges), name=f"rnd{seed}"
    )


def _gap(value: float, opt: float) -> float | None:
    if abs(opt) <= 1e-12:
        return 0.0 if abs(value - opt) <= 1e-9 else None
    return 100.0 * (value - opt) / opt


def bench_instance(inst: Instance, cfg: SolverConfig) -> BenchRecord:
    rec = BenchRecord(name=inst.name or "?", vertices=inst.vertex_count, edges=len(inst.edges))
    alg = best_of_many(inst, cfg)
    red = pctsp_reduction(inst, cap=cfg.pctsp_cap)
    rec.alg = alg.value
    rec.red = red.value
    rec.opt_lp = alg.lower_bound
    rec.t_lp = alg.stats.get("t_lp", 0.0)
    rec.t_split = alg.stats.get("t_split", 0.0)
    rec.t_other = alg.stats.get("t_other", 0.0)
    opt = None
    if inst.opt_max is not None:
        opt = convert_optimum(inst, inst.opt_max)
    elif len(inst.edges) <= cfg.oracle_cap:
        opt = exact_oracle(inst, cap=cfg.oracle_cap).value
    rec.opt = opt
    if opt is not None:
        rec.alg_gap = _gap(rec.alg, opt)
        rec.red_gap = _gap(rec.red, opt)
        if rec.opt_lp is not None:
            rec.lp_gap = 100.0 * (opt - rec.opt_lp) / opt if abs(opt) > 1e-12 else 0.0
    if rec.alg < rec.red - 1e-9:
        rec.better = "ALG"
    elif rec.red < rec.alg - 1e-9:
        rec.better = "RED"
    else:
        rec.better = "tie"
    return rec


def _bench_worker(args) -> BenchRecord:
    path, cfg = args
    try:
        inst = parse_instance(Path(path).read_text(), name=Path(path).stem)
        return bench_instance(inst, cfg)
    except Exception as exc:  # failures are recorded, the run continues
        return BenchRecord(name=Path(path).stem, error=f"{type(exc).__name__}: {exc}")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def records_to_csv(records: list[BenchRecord]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        lines.append(",".join(_fmt(getattr(rec, col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def parse_bench_csv(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    out = []
    for ln in lines[1:]:
        row = dict(zip(header, ln.split(",")))
        out.append(row)
    return out


def family_of(name: str) -> str:
    prefix = "".join(ch for ch in name if not ch.isdigit())
    return prefix or name


def summarize(records: list[BenchRecord]) -> list[dict]:
    """Family rows plus an All row; aggregates recompute from the records."""
    families: dict[str, list[BenchRecord]] = {}
    for rec in records:
        if rec.error:
            continue
        families.setdefault(family_of(rec.name), []).append(rec)
    rows = []
    for fam in sorted(families) + ["All"]:
        group = (
            families[fam]
            if fam != "All"
            else [r for g in families.values() for r in g]
        )
        if not group:
            continue
        gaps = [r.alg_gap for r in group if r.alg_gap is not None]
        rgaps = [r.red_gap for r in group if r.red_gap is not None]
        lgaps = [r.lp_gap for r in group if r.lp_gap is not None]
        rows.append(
            {
                "family": fam,
                "count": len(group),
                "avg_alg_gap": sum(gaps) / len(gaps) if gaps else None,
                "max_alg_gap": max(gaps) if gaps else None,
                "avg_red_gap": sum(rgaps) / len(rgaps) if rgaps else None,
                "max_red_gap": max(rgaps) if rgaps else None,
                "avg_lp_gap": sum(lgaps) / len(lgaps) if lgaps else None,
                "max_lp_gap": max(lgaps) if lgaps else None,
                "alg_better": sum(1 for r in group if r.better == "ALG"),
                "red_better": sum(1 for r in group if r.better == "RED"),
                "tie": sum(1 for r in group if r.better == "tie"),
            }
        )
    return rows


def run_bench(paths, cfg: SolverConfig | None = None, jobs: int = 1):
    """Per-instance records, their CSV text and the family summary rows."""
    cfg = cfg or SolverConfig()
    work = [(str(p), cfg) for p in paths]
    if jobs > 1 and len(work) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_bench_worker, work))
    else:
        records = [_bench_worker(w) for w in work]
    return records, records_to_csv(records), summarize(records)


def _print_summary(rows, out=sys.stdout):
    cols = [
        ("family", 10),
        ("count", 6),
        ("avg_alg_gap", 12),
        ("max_alg_gap", 12),
        ("avg_red_gap", 12),
        ("max_red_gap", 12),
        ("avg_lp_gap", 11),
        ("max_lp_gap", 11),
        ("alg_better", 10),
        ("red_better", 10),
        ("tie", 4),
    ]
    print(" ".join(name.rjust(width) for name, width in cols), file=out)
    for row in rows:
        cells = []
        for name, width in cols:
            val = row[name]
            if isinstance(val, float):
                cells.append(f"{val:.2f}".rjust(width))
            else:
                cells.append(str(val if val is not None else "").rjust(width))
        print(" ".join(cells), file=out)


def _walk_str(walk) -> str:
    return "->".join(str(v + 1) for v in walk.vertices)


def _cmd_solve(args) -> int:
    inst = parse_instance(Path(args.instance).read_text(), name=Path(args.instance).stem)
    cfg = SolverConfig(
        lp_max_rounds=args.lp_max_rounds,
        lp_feas_tol=args.feas_tol,
        lp_price_tol=args.price_tol,
        verify=not args.no_verify,
    )
    if args.dump_lp or args.dump_trees:
        _debug_dumps(inst, cfg, args)
    sol = best_of_many(inst, cfg)
    print(f"value {sol.value:.6f}")
    print(f"lower_bound {sol.lower_bound:.6f}")
    print(f"walk {_walk_str(sol.walk)}")
    if inst.opt_max is not None:
        opt = convert_optimum(inst, inst.opt_max)
        print(f"opt {opt:.6f}")
        if abs(opt) > 1e-12:
            print(f"alg_gap_percent {100.0 * (sol.value - opt) / opt:.6f}")
    for key in ("candidates", "lp_cuts", "t_lp", "t_split", "t_other"):
        print(f"{key} {sol.stats.get(key)}")
    return 0


def _debug_dumps(inst, cfg: SolverConfig, args) -> None:
    pg = preprocess(inst)
    sol, cert = solve_pcrpp_lp(
        pg,
        max_rounds=cfg.lp_max_rounds,
        feas_tol=cfg.lp_feas_tol,
        price_tol=cfg.lp_price_tol,
    )
    if args.dump_lp:
        from .lp import write_lp_text

        Path(args.dump_lp).write_text(write_lp_text(pg, cert))
    if args.dump_trees:
        recorder = SplitRecorder(pg, sol)
        aux = AuxGraph(pg, pg.vertex_count)
        payload = {}
        thresholds = sorted({v for k, v in sol.y.items() if k != pg.root and v > 0.0})
        for delta in thresholds:
            boundary = recorder.boundary(delta)
            dist = project_to_hat(stage_distribution(recorder, boundary, aux), pg)
            payload[f"{delta:.9f}"] = [
                {"weight": w, "edges": sorted(map(list, t.edges))}
                for t, w in zip(dist.trees, dist.weights)
            ]
        Path(args.dump_trees).write_text(json.dumps(payload, indent=1))


def _cmd_oracle(args) -> int:
    inst = parse_instance(Path(args.instance).read_text(), name=Path(args.instance).stem)
    sol = exact_oracle(inst, cap=args.cap)
    print(f"value {sol.value:.6f}")
    print(f"walk {_walk_str(sol.walk)}")
    return 0


def _cmd_reduce(args) -> int:
    inst = parse_instance(Path(args.instance).read_text(), name=Path(args.instance).stem)
    sol = pctsp_reduction(inst, cap=args.cap)
    print(f"value {sol.value:.6f}")
    print(f"walk {_walk_str(sol.walk)}")
    print(f"exact_pctsp {int(sol.stats.get('exact', True))}")
    return 0


def _cmd_bench(args) -> int:
    cfg = SolverConfig(oracle_cap=args.oracle_cap, pctsp_cap=args.pctsp_cap)
    records, csv_text, rows = run_bench(args.instances, cfg, jobs=args.jobs)
    if args.out:
        Path(args.out).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
    _print_summary(rows)
    failures = [r for r in records if r.error]
    for rec in failures:
        print(f"FAILED {rec.name}: {rec.error}", file=sys.stderr)
    return 2 if failures else 0


def _cmd_verify_ratio(args) -> int:
    params = RatioParams(args.kappa0, args.kappa, args.beta)
    cert = verify_bound(params, args.step, jobs=args.jobs)
    print("ratio certificate")
    print(f"  window          [{params.kappa0}, {params.kappa}]  beta {params.beta}")
    print(f"  grid step       {cert.step}")
    print(f"  grid points     {cert.points}")
    print(f"  grid maximum    {cert.grid_max:.10f} at xi {cert.argmax:.10f}")
    print(f"  slack           {cert.slack:.10f}")
    print(f"  certified bound {cert.certified:.10f}")
    print(f"  conclusive      {'yes' if cert.conclusive else 'no (slack dominates)'}")
    for line in cert.as_lines():
        print(line)
    return 0 if cert.conclusive else 2


def _cmd_gen_random(args) -> int:
    inst = gen_random(args.seed, args.n, args.m, args.wmax, args.pmax, args.pos_density)
    text = serialize_instance(inst)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pcrpp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the best-of-many solver on one instance")
    p.add_argument("instance")
    p.add_argument("--lp-max-rounds", type=int, default=10_000)
    p.add_argument("--feas-tol", type=float, default=1e-7)
    p.add_argument("--price-tol", type=float, default=1e-7)
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--dump-lp", metavar="PATH")
    p.add_argument("--dump-trees", metavar="PATH")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="exhaustive exact optimum for small instances")
    p.add_argument("instance")
    p.add_argument("--cap", type=int, default=12)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("reduce", help="PCTSP-reduction baseline")
    p.add_argument("instance")
    p.add_argument("--cap", type=int, default=12)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("bench", help="benchmark a list of instance files")
    p.add_argument("instances", nargs="*")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--oracle-cap", type=int, default=12)
    p.add_argument("--pctsp-cap", type=int, default=12)
    p.add_argument("--out", metavar="CSV")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify-ratio", help="certify the approximation constant")
    p.add_argument("--step", type=float, default=1e-8)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--kappa0", type=float, default=RatioParams().kappa0)
    p.add_argument("--kappa", type=float, default=RatioParams().kappa)
    p.add_argument("--beta", type=float, default=RatioParams().beta)
    p.set_defaults(func=_cmd_verify_ratio)

    p = sub.add_parser("gen-random", help="write a random connected instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--wmax", type=int, default=10)
    p.add_argument("--pmax", type=int, default=10)
    p.add_argument("--pos-density", type=float, default=0.5)
    p.add_argument("-o", "--out", metavar="PATH")
    p.set_defaults(func=_cmd_gen_random)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
