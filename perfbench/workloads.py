"""Inputs of the benchmark workloads, built from the benchmark seed.

The instance sets and the ``certify`` grid step are fixed; the seed sets the
order in which the instances are solved.  A per-seed instance draw would
make the workload's cost swing with the seed: at 12 vertices one
``gen_random`` draw took 0.01 s and another 51 s, and relabelling the
vertices of one instance moved its solve time by up to a factor of three.

pcrpp is imported inside the functions so that its import is part of the
timed set-up.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS_DIR = HERE / "corpus" / "frac-small"
REFERENCE_FILE = HERE / "reference.json"

WORKLOADS = ("lp-ladder", "frac-small", "certify")

# (generator seed, vertex count); every rung has 2n edges.
LADDER = ((0, 8), (0, 12), (0, 16), (0, 20), (0, 24))

CERTIFY_STEP = 1e-7  # must stay <= 1.38e-7, or the slack pushes the bound past 1.6
FRACTIONAL_TOL = 1e-6


def has_fractional_y(y: dict) -> bool:
    """The relaxation's vertex values include one strictly inside (0, 1)."""
    return any(FRACTIONAL_TOL < val < 1.0 - FRACTIONAL_TOL for val in y.values())


def ladder_instances() -> list:
    from pcrpp.cli import gen_random

    return [(f"rnd{s}-n{n}", gen_random(s, n, 2 * n)) for s, n in LADDER]


def corpus_params() -> dict:
    return json.loads((CORPUS_DIR / "params.json").read_text())


def corpus_instances() -> list:
    from pcrpp.core import parse_instance

    out = []
    for name in corpus_params()["instances"]:
        text = (CORPUS_DIR / f"{name}.txt").read_text()
        out.append((name, parse_instance(text, name=name)))
    return out


def build(workload: str, seed: int):
    """The workload's inputs: named instances in seed order, or a grid step."""
    if workload == "certify":
        return CERTIFY_STEP
    if workload == "lp-ladder":
        insts = ladder_instances()
    elif workload == "frac-small":
        insts = corpus_instances()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(insts)
    return insts


def warm_up(workload: str) -> None:
    """One small call through the same code, so lazy set-up is not timed."""
    if workload == "certify":
        from pcrpp.ratiocheck import RatioParams, verify_bound

        verify_bound(RatioParams(), 1e-4)
    else:
        from pcrpp.cli import gen_random
        from pcrpp.solvers import best_of_many

        best_of_many(gen_random(0, 6, 10))
