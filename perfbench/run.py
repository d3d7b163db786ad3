"""pcrpp benchmark: one workload per run, one call at a time, every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload lp-ladder --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0

``--workload all`` runs every workload untraced and traced, each run in a
child process of its own, and ends with one JSON object over all of them.

Workloads are built in ``workloads.py`` and described in ``README.md``.
Each is a closed loop: the next call starts when the previous one returned,
in this one process, with no pool.  With ``--trace 0`` the run repeats
untraced passes over the workload and prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics.  A human-readable report comes first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Spans of the reported traced pass and the determinism
record go to ``.perfbench_out/`` at the repository root.

The run exits with 2, printing no result, when ``src/pcrpp`` is missing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(SRC))

import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, totals  # noqa: E402

SETUP_REPEATS = 5  # the first in this process, the others in fresh interpreters
RATIO_BOUND = 1.6
BOUND_TOL = 1e-6
VALUE_TOL = 1e-9

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "ratio_mean": "ratio",
    "ratio_max": "ratio",
}
PER_LAYER = {
    "preprocess.s": "s",
    "lp.s": "s",
    "lp.backend_s": "s",
    "lp.separate_s": "s",
    "lp.self_s": "s",
    "lp.rounds": "count",
    "lp.cuts": "count",
    "lp.maxflow_calls": "count",
    "splitoff.s": "s",
    "splitoff.ops": "count",
    "splitoff.cut_probes": "count",
    "treedecomp.s": "s",
    "treedecomp.stages": "count",
    "treedecomp.trees": "count",
    "candidates.s": "s",
    "candidates.tjoin_s": "s",
    "candidates.euler_s": "s",
    "candidates.generated": "count",
    "candidates.cores": "count",
    "candidates.built": "count",
    "candidates.cache_hit_ratio": "ratio",
    "solvers.self_s": "s",
    "ratiocheck.s": "s",
    "ratiocheck.points": "count",
    "ratiocheck.points_per_s": "1/s",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
    "wall.pass_s": "s",
    "proc.threads": "count",
}
# With solvers.self_s these add up to the traced solve time.
LAYER_TIMES = ("preprocess.s", "lp.s", "splitoff.s", "treedecomp.s", "candidates.s")


@dataclass
class Outcome:
    """One call of a pass: its times, its result and what the gate found."""

    name: str
    wall: float
    result: tuple  # (value, lower bound) or (error,) of a solve; a certificate's fields
    problems: list
    expected: bool = False  # the failure is the one the reference records
    first_span: int = 0
    extra: object = None  # the Solution or BoundCertificate
    probe_index: int = 0  # the last speed sample taken before the call
    seconds: float = 0.0  # wall time at reference speed


# --------------------------------------------------------------------- set-up


def limit_pools() -> None:
    """Keep BLAS/OpenMP pools within the cores this process may use."""
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cores)


def setup(workload: str, seed: int):
    """Import pcrpp, build the inputs and warm up; returns (seconds, inputs).

    The seconds are at reference speed, like every timed call.
    """
    before = speed.sample()
    t0 = perf_counter()
    import pcrpp

    inputs = workloads.build(workload, seed)
    workloads.warm_up(workload)
    elapsed = perf_counter() - t0
    if not Path(pcrpp.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"pcrpp was imported from {pcrpp.__file__}, not from {SRC}")
    return speed.scale(elapsed, before, speed.sample()), inputs


def setup_in_fresh_interpreter(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


# ----------------------------------------------------------------- the gate


def check_solve(inst, sol, error: str | None, ref: dict) -> tuple[list, bool]:
    """Problems with one best_of_many result, and whether they are the known ones."""
    if error is not None:
        return [f"raised {error}"], ref.get("error") == error
    from pcrpp.core import ekey, objective

    problems = []
    value, lb = sol.value, sol.lower_bound
    if not lb - VALUE_TOL <= value <= RATIO_BOUND * lb + BOUND_TOL:
        problems.append(f"value {value!r} outside [LB, 1.6 LB] with LB {lb!r}")
    seq = sol.walk.vertices
    edges = {ekey(e.u, e.v) for e in inst.edges}
    closed = bool(seq) and seq[0] == inst.root == seq[-1]
    if not closed or any(ekey(a, b) not in edges for a, b in zip(seq, seq[1:])):
        problems.append("walk is not a closed walk from the root")
    elif abs(objective(inst, sol.walk) - value) > VALUE_TOL:
        problems.append(f"objective {objective(inst, sol.walk)!r} != returned value {value!r}")
    if "value" in ref and (
        abs(value - ref["value"]) > VALUE_TOL or abs(lb - ref["lower_bound"]) > VALUE_TOL
    ):
        problems.append(
            f"(value, LB) ({value!r}, {lb!r}) != reference ({ref['value']!r}, {ref['lower_bound']!r})"
        )
    return problems, False


CERT_FIELDS = ("step", "points", "grid_max", "argmax", "slack", "certified", "conclusive")


def check_certificate(cert, ref: dict) -> list:
    problems = [] if cert.conclusive else ["certificate is inconclusive"]
    for key in CERT_FIELDS:
        if getattr(cert, key) != ref[key]:
            problems.append(f"{key} {getattr(cert, key)!r} != reference {ref[key]!r}")
    return problems


# ------------------------------------------------------------------- passes


def solve_pass(insts, reference: dict, probe: speed.SpeedProbe, tracer: Tracer | None = None) -> list:
    from pcrpp.solvers import best_of_many

    out = []
    for name, inst in insts:
        first = len(tracer.spans) if tracer else 0
        index = probe.tick()
        t0 = perf_counter()
        try:
            sol = tracer.call("solve", best_of_many, inst) if tracer else best_of_many(inst)
            error = None
        except Exception as exc:  # a failing solve is counted, the pass goes on
            sol, error = None, f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - t0
        problems, expected = check_solve(inst, sol, error, reference.get(name, {}))
        result = (error,) if sol is None else (sol.value, sol.lower_bound)
        out.append(Outcome(name, wall, result, problems, expected, first, sol, index))
    return finish_pass(out, probe)


def certify_pass(step: float, reference: dict, probe: speed.SpeedProbe, tracer: Tracer | None = None) -> list:
    from pcrpp.ratiocheck import RatioParams, verify_bound

    index = probe.tick()
    t0 = perf_counter()
    if tracer:
        cert = tracer.call("ratiocheck", verify_bound, RatioParams(), step, jobs=1)
    else:
        cert = verify_bound(RatioParams(), step, jobs=1)
    wall = perf_counter() - t0
    result = tuple(getattr(cert, key) for key in CERT_FIELDS)
    problems = check_certificate(cert, reference)
    return finish_pass([Outcome("verify_bound", wall, result, problems, extra=cert, probe_index=index)], probe)


def finish_pass(outcomes: list, probe: speed.SpeedProbe) -> list:
    """Take the closing speed sample and scale every call of the pass with it."""
    probe.tick(force=True)
    for o in outcomes:
        o.seconds = probe.scaled(o.wall, o.probe_index)
    return outcomes


def run_passes(run_one, seconds: float, traced: bool) -> dict:
    """Alternate untraced (and traced) passes until the next cycle would overrun."""
    kinds = ("plain", "traced") if traced else ("plain",)
    passes: dict[str, list] = {kind: [] for kind in kinds}
    start = perf_counter()
    while True:
        t0 = perf_counter()
        for kind in kinds:
            passes[kind].append(run_one(kind))
        cycle = perf_counter() - t0
        if perf_counter() - start + cycle > seconds:
            return passes


def pass_time(outcomes: list) -> float:
    return sum(o.seconds for o in outcomes)


def wall_time(outcomes: list) -> float:
    return sum(o.wall for o in outcomes)


# ------------------------------------------------------------------ metrics


def ratio_stats(outcomes: list) -> tuple[float, float]:
    """Mean and max of ALG/LB over the solves that passed, or the certificate's.

    For ``certify`` the mean slot holds the grid maximum and the max slot the
    certified bound, both bounds on ALG/LB.
    """
    if outcomes[0].name == "verify_bound":
        cert = outcomes[0].extra
        return cert.grid_max, cert.certified
    ratios = [
        o.result[0] / o.result[1] if o.result[1] > 0 else 1.0
        for o in outcomes
        if not o.problems
    ]
    if not ratios:
        return 0.0, 0.0
    return statistics.fmean(ratios), max(ratios)


def layer_metrics(spans: list, outcomes: list, require_fractional: bool) -> tuple[dict, list]:
    """Per-layer metrics of one traced pass, and problems found in its trace.

    Span times are scaled to reference speed by the pass's own factor, so the
    layers still add up to ``trace.pass_s``.
    """
    dur, self_t, count = totals(spans)
    factor = pass_time(outcomes) / wall_time(outcomes)
    for table in (dur, self_t):
        for name in table:
            table[name] *= factor
    kept: dict[str, list] = {}
    for name, _, _, _, value in spans:
        if value is not None:
            kept.setdefault(name, []).append(value)
    cores = count["candidates.core"]
    m = {
        "preprocess.s": dur["preprocess"],
        "lp.s": dur["lp"],
        "lp.backend_s": dur["lp.backend"],
        "lp.separate_s": dur["lp.separate"],
        "lp.self_s": self_t["lp"],
        "lp.rounds": count["lp.backend"],
        "lp.cuts": sum(cuts for cuts, _ in kept.get("lp", [])),
        "lp.maxflow_calls": count["lp.maxflow"],
        "splitoff.s": dur["splitoff"],
        "splitoff.ops": sum(kept.get("splitoff", [])),
        "splitoff.cut_probes": count["splitoff.cut_probe"],
        "treedecomp.s": dur["treedecomp.stage"] + dur["treedecomp.project"],
        "treedecomp.stages": count["treedecomp.stage"],
        "treedecomp.trees": sum(kept.get("treedecomp.project", [])),
        "candidates.s": dur["candidates.core"] + dur["candidates.build"],
        "candidates.tjoin_s": dur["candidates.tjoin"],
        "candidates.euler_s": dur["candidates.euler"],
        # best_of_many counts the trivial walk as one candidate per solve.
        "candidates.generated": count["solve"] + cores,
        "candidates.cores": cores,
        "candidates.built": count["candidates.build"],
        "candidates.cache_hit_ratio": 1.0 - count["candidates.build"] / cores if cores else 0.0,
        "solvers.self_s": self_t["solve"],
        "ratiocheck.s": dur["ratiocheck"],
        "ratiocheck.points": 0,
        "ratiocheck.points_per_s": 0.0,
    }
    problems = []
    if outcomes[0].name == "verify_bound":
        points = outcomes[0].extra.points
        m["ratiocheck.points"] = points
        m["ratiocheck.points_per_s"] = points / dur["ratiocheck"]
        return m, problems
    # Cross-check the trace against what each solve reports about itself.
    bounds = [o.first_span for o in outcomes] + [len(spans)]
    for o, lo, hi in zip(outcomes, bounds, bounds[1:]):
        mine = spans[lo:hi]
        lp = [s[4] for s in mine if s[0] == "lp"]
        if o.extra is not None:
            generated = 1 + sum(1 for s in mine if s[0] == "candidates.core")
            if (generated, lp[0][0]) != (o.extra.stats["candidates"], o.extra.stats["lp_cuts"]):
                problems.append(f"{o.name}: trace counts disagree with the solve's own stats")
        if require_fractional and not (lp and lp[0][1]):
            problems.append(f"{o.name}: relaxation no longer has a fractional y")
    return m, problems


def thread_count() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    raise RuntimeError("no thread count in /proc/self/status")


def median_pass(passes: list) -> list:
    """The pass whose time is the (lower) median of the run's passes."""
    ordered = sorted(passes, key=pass_time)
    return ordered[(len(ordered) - 1) // 2]


# -------------------------------------------------------------- determinism


def code_key() -> str:
    """A hash of the pcrpp sources and the benchmark's own files.

    Runs are compared only with earlier runs of the same code and inputs, so
    a change that lowers a count or moves a value within the reference
    tolerance is not taken for nondeterminism.
    """
    digest = hashlib.sha256()
    files = list((SRC / "pcrpp").rglob("*.py")) + list(HERE.rglob("*"))
    for path in sorted(p for p in files if p.is_file() and "__pycache__" not in p.parts):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def determinism_problems(workload: str, seed: int, record: dict) -> list:
    """Compare this run's values and counts with an earlier run of the same code."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"determinism-{workload}-seed{seed}-{code_key()}.json"
    problems = []
    record = json.loads(json.dumps(record))  # tuples become lists, as when stored
    stored = json.loads(path.read_text()) if path.exists() else {}
    for key, value in record.items():
        if key not in stored:
            stored[key] = value
        elif stored[key] != value:
            problems.append(f"{key} differs from an earlier run of this code, workload and seed")
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return problems


# --------------------------------------------------------------------- main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Every workload, untraced then traced, each run in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
            )
            *report, last = proc.stdout.splitlines()
            print("\n".join(report))
            result = json.loads(last)
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, value in result["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pcrpp" / "__init__.py").is_file():
        print(f"error: no pcrpp source at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    limit_pools()
    setup_s, inputs = setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(setup_s))
        return 0
    setups = [setup_s] + [
        setup_in_fresh_interpreter(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)
    ]
    reference = json.loads(workloads.REFERENCE_FILE.read_text())[args.workload]

    traced_spans: list[list] = []
    kernel = speed.longdouble_kernel if args.workload == "certify" else speed.solver_kernel
    probe = speed.SpeedProbe(kernel)
    one_pass = certify_pass if args.workload == "certify" else solve_pass

    def run_one(kind):
        if kind == "plain":
            return one_pass(inputs, reference, probe)
        with Tracer() as tracer:
            outcomes = one_pass(inputs, reference, probe, tracer)
        traced_spans.append(tracer.spans)
        return outcomes

    passes = run_passes(run_one, args.seconds, traced=bool(args.trace))
    every = [o for kind in passes.values() for p in kind for o in p]
    failed = [o for o in every if o.problems]
    gate = [f"{o.name}: {msg}" for o in failed if not o.expected for msg in o.problems]

    # Determinism: every pass of the run, and earlier runs of this code, agree exactly.
    results = [[(o.name, list(o.result)) for o in sorted(p, key=lambda o: o.name)]
               for kind in passes.values() for p in kind]
    if any(r != results[0] for r in results):
        gate.append("per-call results differ between passes of this run")
    record = {"results": results[0]}

    plain = passes["plain"]
    plain_times = [pass_time(p) for p in plain]
    ratio_mean, ratio_max = ratio_stats(plain[0])
    if args.trace:
        traced = passes["traced"]
        chosen = median_pass(traced)
        spans = traced_spans[traced.index(chosen)]
        fractional = args.workload == "frac-small"
        counts_per_pass = [
            {k: v for k, v in layer_metrics(s, p, fractional)[0].items() if PER_LAYER[k] == "count"}
            for s, p in zip(traced_spans, traced)
        ]
        if any(c != counts_per_pass[0] for c in counts_per_pass):
            gate.append("layer counts differ between traced passes of this run")
        metrics, trace_problems = layer_metrics(spans, chosen, fractional)
        gate.extend(trace_problems)
        metrics["trace.pass_s"] = pass_time(chosen)
        metrics["trace.overhead_s"] = (
            statistics.median(pass_time(p) for p in traced) - statistics.median(plain_times)
        )
        metrics["wall.pass_s"] = statistics.median(wall_time(p) for p in plain)
        metrics["proc.threads"] = thread_count()
        record["counts"] = counts_per_pass[0]
        OUT_DIR.mkdir(exist_ok=True)
        t0 = spans[0][1] if spans else 0.0
        (OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "columns": ["name", "start_s", "end_s", "parent", "kept"],
            "spans": [[n, s - t0, e - t0, p, k] for n, s, e, p, k in spans],
        }))
        units = PER_LAYER
    else:
        # Each call's median over the run's passes filters slow stretches of
        # the machine out of single calls; pass_s is one pass made of those.
        per_call = [
            statistics.median(o.seconds for p in plain for o in p if o.name == name)
            for name in sorted({o.name for o in plain[0]})
        ]
        metrics = {
            "setup_s": statistics.median(setups),
            "pass_s": sum(per_call),
            "op_p50_s": statistics.median(per_call),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ratio_mean": ratio_mean,
            "ratio_max": ratio_max,
        }
        units = END_TO_END
    gate.extend(determinism_problems(args.workload, args.seed, record))

    calls = len(plain[0])
    what = "verify_bound call" if args.workload == "certify" else "best_of_many solves"
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cores {len(os.sched_getaffinity(0))}")
    print(f"setup_s {statistics.median(setups):.6f} (median of {len(setups)}: "
          + ", ".join(f"{s:.4f}" for s in setups) + ")")
    label = "certify_s" if args.workload == "certify" else "solve_s"
    for kind, runs in passes.items():
        print(f"{label} per {kind} pass ({calls} {what}), wall / at reference speed: "
              + ", ".join(f"{wall_time(p):.4f}/{pass_time(p):.4f}" for p in runs))
    print(f"fail_share {len(failed)}/{len(every)} = {len(failed) / len(every):.6f}")
    for o in {o.name: o for o in failed}.values():
        tag = "known failure" if o.expected else "FAILED"
        print(f"  {tag}: {o.name}: {'; '.join(o.problems)}")
    print(f"ratio_mean {ratio_mean!r}  ratio_max {ratio_max!r}")
    if args.trace and args.workload != "certify":
        layers = sum(metrics[k] for k in LAYER_TIMES) + metrics["solvers.self_s"]
        print(f"layer times + solvers.self_s = {layers:.6f} s of trace.pass_s "
              f"{metrics['trace.pass_s']:.6f} s")
    for msg in gate:
        print(f"GATE: {msg}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value!r} {units[name]}")
    print(json.dumps({
        "correct": not gate,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
