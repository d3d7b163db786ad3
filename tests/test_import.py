"""What ``import pcrpp`` loads, and how it shares scipy's HiGHS extension."""
import json
import os
import subprocess
import sys
import types
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import pytest
import scipy
from scipy.optimize import linprog

import pcrpp
from pcrpp import lp
from pcrpp.core import serialize_instance
from pcrpp.solvers import best_of_many
from conftest import FRACTIONAL_INSTANCES

SRC = Path(__file__).resolve().parents[1] / "src"
CORPUS = SRC.parent / "perfbench" / "corpus" / "frac-small"

# One small LP for linprog, and best_of_many on the instance text in argv[1].
SOLVE_BOTH = """
from scipy.optimize import linprog
from pcrpp import best_of_many, parse_instance

res = linprog([-1.0, -2.0], A_ub=[[1.0, 1.0]], b_ub=[1.0], bounds=(0, 1), method="highs")
sol = best_of_many(parse_instance(sys.argv[1]))
report["linprog"] = [res.status, res.fun]
report["solve"] = [sol.value, sol.lower_bound, list(sol.walk.vertices)]
print(json.dumps(report))
"""

PCRPP_FIRST = """
import json, sys
import pcrpp, pcrpp.cli

report = {"loaded": sorted(m for m in ("scipy.optimize", "networkx") if m in sys.modules)}
import scipy.optimize
report["shared"] = sys.modules["scipy.optimize._highspy._core"] is pcrpp.lp._core
""" + SOLVE_BOTH

SCIPY_FIRST = """
import json, sys
import scipy.optimize
core = sys.modules["scipy.optimize._highspy._core"]
import pcrpp

report = {"shared": pcrpp.lp._core is core}
""" + SOLVE_BOTH

# Every module name in sys.modules after running the statements in argv[1], on the last line.
LOADED_BY = """
import json, sys
exec(sys.argv[1])
print(json.dumps(sorted(sys.modules)))
"""

EXPORTS = [
    "AlphaComponents", "BoundCertificate", "Candidate", "CheckError", "CutCertificate",
    "DecompositionError", "Edge", "FlowNetwork", "Instance", "LpError", "LpSolution", "ParseError",
    "PreprocessedGraph", "RatioParams", "Solution", "SplitError", "SplitOp", "SplitRecorder",
    "TreeDistribution", "Walk", "alpha_components", "best_of_many", "build_candidate",
    "candidates", "complete", "complete_split", "copy_vertices", "core",
    "edge_profit_core", "euler_tour", "exact_oracle", "fixed_threshold_terms", "lp",
    "max_flow_min_cut", "min_perfect_matching", "min_tjoin", "objective", "odd_vertices",
    "parse_instance", "pctsp_reduction", "pctsp_solve_exact", "preprocess", "project_to_hat",
    "ratiocheck", "restore", "separate_cuts", "serialize_instance", "shortest_paths",
    "solve_pcrpp_lp", "solvers", "splitoff", "stage_distribution", "treedecomp", "verify_bound",
]


def run_child(script: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", script, serialize_instance(FRACTIONAL_INSTANCES[0])],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def expected():
    res = linprog([-1.0, -2.0], A_ub=[[1.0, 1.0]], b_ub=[1.0], bounds=(0, 1), method="highs")
    sol = best_of_many(FRACTIONAL_INSTANCES[0])
    return {
        "linprog": [res.status, res.fun],
        "solve": [sol.value, sol.lower_bound, list(sol.walk.vertices)],
    }


def test_import_loads_neither_scipy_optimize_nor_networkx(expected):
    report = run_child(PCRPP_FIRST)
    assert report["loaded"] == []
    # a later scipy.optimize reuses the extension module pcrpp loaded
    assert report["shared"] is True
    assert report["linprog"] == expected["linprog"]
    assert report["solve"] == expected["solve"]


def test_import_after_scipy_optimize_reuses_its_extension(expected):
    report = run_child(SCIPY_FIRST)
    assert report["shared"] is True
    assert report["linprog"] == expected["linprog"]
    assert report["solve"] == expected["solve"]


def test_missing_highs_extension_names_version_and_directory(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, lp.HIGHS_CORE)
    with pytest.raises(ImportError) as info:
        lp._load_highs_core(tmp_path)
    assert f"scipy {scipy.__version__}" in str(info.value)
    assert str(tmp_path) in str(info.value)
    assert info.value.name == lp.HIGHS_CORE
    assert lp.HIGHS_CORE not in sys.modules


def test_broken_highs_extension_leaves_no_module_behind(tmp_path, monkeypatch):
    (tmp_path / ("_core" + EXTENSION_SUFFIXES[0])).write_bytes(b"")
    monkeypatch.delitem(sys.modules, lp.HIGHS_CORE)
    with pytest.raises(ImportError, match="file too short"):
        lp._load_highs_core(tmp_path)
    assert lp.HIGHS_CORE not in sys.modules


def test_highs_loader_unregisters_a_module_that_fails_to_run(tmp_path, monkeypatch):
    # a source stand-in, since a broken extension fails in module_from_spec, before registration
    monkeypatch.setattr(lp, "EXTENSION_SUFFIXES", [".py"])
    monkeypatch.delitem(sys.modules, lp.HIGHS_CORE)
    broken, working = tmp_path / "broken", tmp_path / "working"
    broken.mkdir()
    working.mkdir()
    (broken / "_core.py").write_text("raise RuntimeError('stand-in fails to run')\n")
    (working / "_core.py").write_text("VALUE = 1\n")
    with pytest.raises(RuntimeError, match="stand-in fails to run"):
        lp._load_highs_core(broken)
    assert lp.HIGHS_CORE not in sys.modules
    module = lp._load_highs_core(working)
    assert module.VALUE == 1
    assert sys.modules[lp.HIGHS_CORE] is module
    assert lp._load_highs_core(broken) is module  # the registered module is reused


def test_highs_directory_is_found_without_importing_scipy():
    assert lp._highs_directory() == Path(scipy.__file__).parent / "optimize" / "_highspy"


def test_missing_scipy_is_named(monkeypatch):
    monkeypatch.setattr(lp, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match="^scipy is not installed") as info:
        lp._highs_directory()
    assert info.value.name == "scipy"


def loaded_by(statements: str) -> set:
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_BY, statements],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    # the statements may print; the module list is the last line
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_pcrpp_loads_core_and_preprocess_only():
    loaded = loaded_by("import pcrpp")
    assert {m for m in loaded if m.startswith("pcrpp")} == {"pcrpp", "pcrpp.core", "pcrpp.preprocess"}
    assert "scipy" not in loaded
    assert lp.HIGHS_CORE not in loaded


def test_ratio_certificate_loads_no_solver_layer():
    loaded = loaded_by(
        "import pcrpp.ratiocheck\n"
        "pcrpp.ratiocheck.verify_bound(pcrpp.ratiocheck.RatioParams(), 1e-4)"
    )
    unwanted = {
        "pcrpp.lp", "pcrpp.splitoff", "pcrpp.treedecomp", "pcrpp.candidates", "pcrpp.solvers",
        "pcrpp.cli", "scipy", lp.HIGHS_CORE, "multiprocessing", "networkx",
    }
    assert "pcrpp.ratiocheck" in loaded
    assert loaded & unwanted == set()


def test_exports_are_the_defining_modules_objects():
    assert pcrpp.__all__ == EXPORTS
    for name in EXPORTS:
        value = getattr(pcrpp, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"pcrpp.{name}"]
        else:
            assert getattr(sys.modules[value.__module__], name) is value
            assert value.__module__.startswith("pcrpp.")
    # the function, not the submodule of the same name
    assert isinstance(pcrpp.preprocess, types.FunctionType)
    assert set(EXPORTS) <= set(dir(pcrpp))
    with pytest.raises(AttributeError, match="'pcrpp' has no attribute 'no_such_name'"):
        pcrpp.no_such_name


def test_submodule_attribute_imports_on_access(monkeypatch):
    import pcrpp.splitoff  # noqa: F401

    monkeypatch.delattr(pcrpp, "splitoff")
    assert "splitoff" not in vars(pcrpp)
    assert pcrpp.splitoff is sys.modules["pcrpp.splitoff"]


def test_solve_through_the_cli_loads_neither_scipy_nor_the_certifier():
    loaded = loaded_by(
        "import pcrpp.cli, pcrpp.solvers\n"
        "pcrpp.solvers.best_of_many(pcrpp.cli.gen_random(0, 6, 10))"
    )
    assert lp.HIGHS_CORE in loaded
    assert "pcrpp.solvers" in loaded
    assert loaded & {"scipy", "scipy.optimize", "pcrpp.ratiocheck"} == set()


def test_cli_verify_ratio_loads_no_solver_layer():
    loaded = loaded_by('from pcrpp.cli import main\nmain(["verify-ratio", "--step", "1e-4"])')
    unwanted = {
        "pcrpp.lp", "pcrpp.solvers", "pcrpp.splitoff", "pcrpp.treedecomp", "pcrpp.candidates",
        "scipy", lp.HIGHS_CORE,
    }
    assert "pcrpp.ratiocheck" in loaded
    assert loaded & unwanted == set()


def test_exact_oracle_loads_no_scipy_package():
    # the oracle's MIP goes through lp.run_highs, on the HiGHS extension pcrpp.lp loaded
    loaded = loaded_by(
        "from pcrpp.cli import main\n"
        f"assert main(['oracle', {str(CORPUS / 'rnd37.txt')!r}]) == 0\n"
    )
    assert {"pcrpp.solvers", lp.HIGHS_CORE} <= loaded
    assert loaded & {"scipy", "scipy.optimize"} == set()


def test_solves_pairing_four_and_six_points_without_networkx():
    # networkx set to None in sys.modules: any import of it raises ImportError.
    # rnd325 pairs four points (compared directly), rnd37 six (the HiGHS MIP).
    loaded = loaded_by(
        "import sys\n"
        "from pathlib import Path\n"
        "sys.modules['networkx'] = None\n"
        "from pcrpp import candidates, parse_instance\n"
        "from pcrpp.solvers import best_of_many\n"
        "sizes = []\n"
        "match = candidates.min_perfect_matching\n"
        "candidates.min_perfect_matching = lambda pts, dist: sizes.append(len(pts)) or match(pts, dist)\n"
        "for name in ('rnd325', 'rnd37'):\n"
        f"    inst = parse_instance(Path({str(CORPUS)!r}, name + '.txt').read_text())\n"
        "    assert best_of_many(inst).value == 35.0, name\n"
        "assert {4, 6} <= set(sizes), sizes\n"
        "assert sys.modules.pop('networkx') is None\n"
    )
    assert {m for m in loaded if m.partition(".")[0] == "networkx"} == set()
    assert lp.HIGHS_CORE in loaded
