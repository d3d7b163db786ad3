"""Command-line harness: solve, oracle, reduce, bench, verify-ratio, gen-random.

Each command imports the layers it runs when it runs, so ``verify-ratio``
loads no solver layer and a solve does not load the ratio certifier.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .core import Edge, Instance, parse_instance, serialize_instance

# typed failures of a run on valid input, by defining submodule; ``main``
# reports them with exit code 3
RUN_ERRORS = {
    "lp": "LpError",
    "splitoff": "SplitError",
    "treedecomp": "DecompositionError",
    "solvers": "CheckError",
    "ratiocheck": "FilterBoundError",
}


def _run_errors() -> tuple:
    """The ``RUN_ERRORS`` classes of the loaded submodules.

    A run can only raise one whose submodule it has loaded, so the rest are
    not imported just to be matched.
    """
    modules = ((sys.modules.get(f"{__package__}.{module}"), name) for module, name in RUN_ERRORS.items())
    return tuple(getattr(module, name) for module, name in modules if module is not None)


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


CSV_COLUMNS = [f.name for f in fields(BenchRecord) if f.name != "error"]


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


def bench_instance(inst: Instance, *, pctsp_cap: int | None = None) -> BenchRecord:
    """One instance's record; a cap left at None is the solver's default.

    OPT is the file's ``OPTMAX`` when it has one, else the exact oracle's.
    """
    from .solvers import PCTSP_CAP, best_of_many, exact_oracle, pctsp_reduction

    pctsp_cap = PCTSP_CAP if pctsp_cap is None else pctsp_cap
    rec = BenchRecord(name=inst.name or "?", vertices=inst.vertex_count, edges=len(inst.edges))
    alg = best_of_many(inst)
    red = pctsp_reduction(inst, cap=pctsp_cap)
    rec.alg = alg.value
    rec.red = red.value
    rec.opt_lp = alg.lower_bound
    rec.t_lp = alg.stats.get("t_lp", 0.0)
    rec.t_split = alg.stats.get("t_split", 0.0)
    rec.t_other = alg.stats.get("t_other", 0.0)
    if inst.opt_max is not None:
        opt = convert_optimum(inst, inst.opt_max)
    else:
        opt = exact_oracle(inst).value
    rec.opt = opt
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


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def records_to_csv(records: list[BenchRecord]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow([_fmt(getattr(rec, col)) for col in CSV_COLUMNS])
    return out.getvalue()


def parse_bench_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text, newline="")))


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


def run_bench(paths, *, pctsp_cap: int | None = None):
    """Per-instance records, their CSV text and the family summary rows.

    A cap left at None is the solver's default.
    """
    records = []
    for path in map(Path, paths):
        try:
            inst = parse_instance(path.read_text(), name=path.stem)
            records.append(bench_instance(inst, pctsp_cap=pctsp_cap))
        except Exception as exc:  # failures are recorded, the run continues
            records.append(BenchRecord(name=path.stem, error=f"{type(exc).__name__}: {exc}"))
    return records, records_to_csv(records), summarize(records)


def _print_summary(rows, out=None):  # None: the sys.stdout of call time
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
    """Solve once; the dumps come from this run, the LP dump before splitting."""
    from .lp import write_lp_text
    from .solvers import SolveRun

    inst = parse_instance(Path(args.instance).read_text(), name=Path(args.instance).stem)
    run = SolveRun(inst)
    if args.dump_lp:
        Path(args.dump_lp).write_text(write_lp_text(run.pg, run.cert))
    stages = run.stages()
    if args.dump_trees:
        stages = list(stages)
        payload = {
            f"{delta:.9f}": [
                {"weight": w, "edges": sorted(map(list, t))}
                for t, w in zip(ghat.trees, ghat.weights)
            ]
            for delta, _, ghat in stages
        }
        Path(args.dump_trees).write_text(json.dumps(payload, indent=1))
    sol = run.finish(stages)
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


def _cmd_oracle(args) -> int:
    from .solvers import exact_oracle

    inst = parse_instance(Path(args.instance).read_text(), name=Path(args.instance).stem)
    sol = exact_oracle(inst)
    print(f"value {sol.value:.6f}")
    print(f"walk {_walk_str(sol.walk)}")
    return 0


def _cmd_reduce(args) -> int:
    from .solvers import PCTSP_CAP, pctsp_reduction

    inst = parse_instance(Path(args.instance).read_text(), name=Path(args.instance).stem)
    sol = pctsp_reduction(inst, cap=PCTSP_CAP if args.cap is None else args.cap)
    print(f"value {sol.value:.6f}")
    print(f"walk {_walk_str(sol.walk)}")
    print(f"exact_pctsp {int(sol.stats.get('exact', True))}")
    return 0


def _cmd_bench(args) -> int:
    records, csv_text, rows = run_bench(args.instances, pctsp_cap=args.pctsp_cap)
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
    from .ratiocheck import RatioParams, verify_bound

    given = {name: getattr(args, name) for name in ("kappa0", "kappa", "beta")}
    params = RatioParams(**{name: value for name, value in given.items() if value is not None})
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
    """The argument parser; a default of None stands for the default of the layer that runs."""
    parser = argparse.ArgumentParser(prog="pcrpp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the best-of-many solver on one instance")
    p.add_argument("instance")
    p.add_argument("--dump-lp", metavar="PATH")
    p.add_argument("--dump-trees", metavar="PATH")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="exact optimum by HiGHS MIP")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("reduce", help="PCTSP-reduction baseline")
    p.add_argument("instance")
    p.add_argument("--cap", type=int)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("bench", help="benchmark a list of instance files")
    p.add_argument("instances", nargs="*")
    p.add_argument("--pctsp-cap", type=int)
    p.add_argument("--out", metavar="CSV")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify-ratio", help="certify the approximation constant")
    p.add_argument("--step", type=float, default=1e-8)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--kappa0", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--beta", type=float)
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _run_errors() as exc:  # evaluated once an exception reaches it
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
