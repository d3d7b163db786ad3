"""Regenerate the frac-small corpus and the benchmark's reference outputs.

Run from the repository root, never inside a timed region:

    python3 perfbench/make_corpus.py

The corpus is the first ``COUNT`` generator seeds whose relaxation has a
fractional vertex value; the search solves one LP per seed.  The reference
holds each instance's (value, lower bound), or the error it raises, and the
certificate at seed 0.  Both are written by the code they will later check,
so run this only on a commit whose outputs are trusted.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from pcrpp.cli import gen_random  # noqa: E402
from pcrpp.core import serialize_instance  # noqa: E402
from pcrpp.lp import solve_pcrpp_lp  # noqa: E402
from pcrpp.preprocess import preprocess  # noqa: E402
from pcrpp.ratiocheck import RatioParams, verify_bound  # noqa: E402
from pcrpp.solvers import best_of_many  # noqa: E402

import workloads  # noqa: E402

SEARCH = {"n": 8, "m": 20, "wmax": 10, "pmax": 30, "pos_density": 0.2}
COUNT = 80


def search() -> tuple[list[int], int]:
    found = []
    seed = 0
    while len(found) < COUNT:
        inst = gen_random(seed, **SEARCH)
        sol, _ = solve_pcrpp_lp(preprocess(inst))
        if workloads.has_fractional_y(sol.y):
            found.append(seed)
        seed += 1
    return found, seed


def write_corpus() -> None:
    seeds, searched = search()
    workloads.CORPUS_DIR.mkdir(parents=True, exist_ok=True)
    for old in workloads.CORPUS_DIR.glob("*.txt"):
        old.unlink()
    names = []
    for seed in seeds:
        name = f"rnd{seed}"
        text = serialize_instance(gen_random(seed, **SEARCH))
        (workloads.CORPUS_DIR / f"{name}.txt").write_text(text)
        names.append(name)
    params = {
        "generator": "pcrpp.cli.gen_random(seed, n, m, wmax, pmax, pos_density)",
        **SEARCH,
        "rule": f"the first {COUNT} seeds from 0 up whose LP has some y in "
        f"({workloads.FRACTIONAL_TOL}, 1 - {workloads.FRACTIONAL_TOL})",
        "seeds_searched": searched,
        "instances": names,
    }
    (workloads.CORPUS_DIR / "params.json").write_text(json.dumps(params, indent=1) + "\n")


def solve_reference(insts) -> dict:
    out = {}
    for name, inst in insts:
        try:
            sol = best_of_many(inst)
        except Exception as exc:  # a failing input is kept and recorded
            out[name] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        out[name] = {"value": sol.value, "lower_bound": sol.lower_bound}
    return out


def main() -> int:
    write_corpus()
    step = workloads.CERTIFY_STEP
    cert = verify_bound(RatioParams(), step)
    reference = {
        "lp-ladder": solve_reference(workloads.ladder_instances()),
        "frac-small": solve_reference(workloads.corpus_instances()),
        "certify": {
            "step": cert.step,
            "points": cert.points,
            "grid_max": cert.grid_max,
            "argmax": cert.argmax,
            "slack": cert.slack,
            "certified": cert.certified,
            "conclusive": cert.conclusive,
        },
    }
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
