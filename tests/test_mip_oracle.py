"""The exact MIP oracle against the enumeration, and the sandwich on stored instances."""
import json
from pathlib import Path

import pytest

from pcrpp.core import parse_instance
from pcrpp.solvers import RATIO_BOUND, best_of_many, exact_oracle
from conftest import FRACTIONAL_INSTANCES, random_suite
from oracles import mip_optimum

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "frac-small"
# the first six stored instances; rnd37 needs split amounts below their caps
CORPUS_SUBSET = ("rnd10", "rnd18", "rnd19", "rnd20", "rnd27", "rnd37")


def test_mip_optimum_matches_the_enumeration():
    insts = [*random_suite(40, base_seed=4000, max_n=7, max_m=11), *FRACTIONAL_INSTANCES]
    assert max(len(inst.edges) for inst in insts) == 10
    for inst in insts:
        value, counts = mip_optimum(inst)
        assert value == pytest.approx(exact_oracle(inst).value, abs=1e-6), inst.name
        # the counts price out to the value: length walked plus profit left
        kept = {(e.u, e.v): e for e in inst.edges}
        walked = sum(kept[k].length * c for k, c in counts.items())
        left = sum(e.profit for k, e in kept.items() if k not in counts)
        assert walked + left == pytest.approx(value, abs=1e-6), inst.name


def test_stored_instances_sit_in_the_sandwich():
    assert set(CORPUS_SUBSET) <= set(json.loads((CORPUS / "params.json").read_text())["instances"])
    for name in CORPUS_SUBSET:
        inst = parse_instance((CORPUS / f"{name}.txt").read_text(), name=name)
        assert len(inst.edges) == 20
        opt, _ = mip_optimum(inst)
        sol = best_of_many(inst)
        assert sol.lower_bound <= opt + 1e-6, name
        assert opt <= sol.value + 1e-6, name
        assert sol.value <= RATIO_BOUND * sol.lower_bound + 1e-6, name
