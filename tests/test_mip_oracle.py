"""The exact MIP oracle against the enumeration, and the sandwich on stored instances."""
import json
from pathlib import Path

import pytest

from pcrpp import lp, solvers
from pcrpp.core import objective, parse_instance
from pcrpp.lp import LpError
from pcrpp.solvers import RATIO_BOUND, CheckError, best_of_many, exact_oracle
from conftest import random_suite
from oracles import optimum_by_enumeration

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "frac-small"
# the first six stored instances; rnd37 needs split amounts below their caps
CORPUS_SUBSET = ("rnd10", "rnd18", "rnd19", "rnd20", "rnd27", "rnd37")


def test_exact_oracle_matches_the_enumeration(suite_optima):
    # 40 denser instances, then the acceptance suite's 198 and its two fractional ones
    denser = random_suite(40, base_seed=4000, max_n=7, max_m=11)
    solved = [(inst, exact_oracle(inst)) for inst in denser] + suite_optima
    assert len(solved) == 240
    assert max(len(inst.edges) for inst, _ in solved) == 10
    for inst, sol in solved:
        assert sol.value == pytest.approx(optimum_by_enumeration(inst), abs=1e-9), inst.name
        assert sol.value == objective(inst, sol.walk) == sol.lower_bound, inst.name


def test_stored_instances_sit_in_the_sandwich():
    assert set(CORPUS_SUBSET) <= set(json.loads((CORPUS / "params.json").read_text())["instances"])
    for name in CORPUS_SUBSET:
        inst = parse_instance((CORPUS / f"{name}.txt").read_text(), name=name)
        assert len(inst.edges) == 20
        opt = exact_oracle(inst).value
        sol = best_of_many(inst)
        assert sol.lower_bound <= opt + 1e-6, name
        assert opt <= sol.value + 1e-6, name
        assert sol.value <= RATIO_BOUND * sol.lower_bound + 1e-6, name


def test_exact_oracle_names_the_instance_when_the_mip_is_not_optimal(single_pos, monkeypatch):
    # presolve alone solves this MIP, so it is switched off for the time limit to stop HiGHS
    options = lp._exact_mip_options()
    options.presolve = "off"
    options.time_limit = 0.0
    monkeypatch.setattr(solvers, "EXACT_MIP_OPTIONS", options)
    with pytest.raises(
        LpError,
        match="^exact oracle MIP failed: HiGHS model status 'Time limit reached' on instance 'single'$",
    ):
        exact_oracle(single_pos)


def test_exact_oracle_walk_value_must_match_the_mip_objective(single_pos, monkeypatch):
    monkeypatch.setattr(solvers, "objective", lambda inst, walk: objective(inst, walk) + 1.0)
    with pytest.raises(CheckError, match="^oracle walk check failed on instance 'single': walk value 3.0 against"):
        exact_oracle(single_pos)
