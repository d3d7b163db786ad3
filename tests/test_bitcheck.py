"""``tools/bitcheck.py --diff``: the report of what moved between two output files."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BITCHECK = Path(__file__).resolve().parents[1] / "tools" / "bitcheck.py"
GOLDEN = Path(__file__).resolve().parent / "bitcheck_golden.json"
GOLDEN_LABELS = ("frac-small/rnd10", "frac-small/rnd37", "lp-ladder/rnd0-n12")
GOLDEN_SECTIONS = ("best_of_many", "lp")


def _load_bitcheck():
    spec = importlib.util.spec_from_file_location("bitcheck", BITCHECK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bitcheck(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends its own paths
    return _load_bitcheck()


def golden_text(bitcheck) -> str:
    """The ``GOLDEN_SECTIONS`` of ``record`` for ``GOLDEN_LABELS``, as the tool writes JSON."""
    insts = dict(bitcheck.instances())
    table = {}
    for label in GOLDEN_LABELS:
        rec = bitcheck.record(insts[label])
        table[label] = {section: rec[section] for section in GOLDEN_SECTIONS}
    return json.dumps(table, sort_keys=True, indent=1) + "\n"


def write_golden() -> None:
    """Rewrite ``bitcheck_golden.json`` from the current sources."""
    GOLDEN.write_text(golden_text(_load_bitcheck()))


def test_pipeline_outputs_match_the_golden(bitcheck):
    """Value, bound, walk, LP point, cuts and LP dump hash of three instances, bit for bit.

    Floats are written with ``repr``, so the texts agree exactly when every
    output does.  A change that moves values on purpose regenerates the
    file from the repository root and lists what moved, as
    ``tools/bitcheck.py --diff`` prints it:

        PYTHONPATH=src python3 -c 'import sys; sys.path.insert(0, "tests"); import test_bitcheck; test_bitcheck.write_golden()'
    """
    assert golden_text(bitcheck) == GOLDEN.read_text()


def _record(
    value=3.0, bound=2.5, walk=(0, 1, 0), cuts=(), ops=(), stages=(), oracle=3.0, lp_text="0",
    rounds="0",
):
    return {
        "best_of_many": {"value": value, "lower_bound": bound, "walk": list(walk), "stats": {}},
        "lp": {"x": [], "y": [], "objective": 2.5, "cuts": list(cuts), "lp_text_sha256": lp_text},
        "split": {"ops": list(ops), "groups": [], "chord": 0.0, "stages": list(stages)},
        "pctsp_reduction": 3.0,
        "exact_oracle": oracle,
        "lp_rounds": {"masters": 1, "sha256": rounds},
    }


def test_diff_of_equal_files_reports_nothing_moved(bitcheck, tmp_path, capsys):
    table = {"a": _record(), "b": {**_record(), "best_of_many": "LpError: boom"}}
    for name in ("old.json", "new.json"):
        (tmp_path / name).write_text(json.dumps(table))
    assert bitcheck.main(["--diff", str(tmp_path / "old.json"), str(tmp_path / "new.json")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "2 instances in both files, value or lower bound moved on 0",
        "walks differ on 0 instances",
        "cuts differ on 0 instances",
        "split operations differ on 0 instances",
        "stage trees differ on 0 instances",
        "LP dumps differ on 0 instances",
        "LP rounds differ on 0 instances",
        "any other output differs on 0 instances",
    ]


def test_diff_lists_moved_values_and_counts_the_rest(bitcheck):
    old = {
        "a": _record(),
        "b": _record(),
        "c": _record(),
        "d": _record(),
        "gone": _record(),
    }
    new = {
        "a": _record(value=2.75, walk=(0, 2, 0)),
        "b": _record(bound=2.625, cuts=[[[1], 1, 0.5]], ops=[[1, 0, 2, "0.5"]]),
        "c": {**_record(), "best_of_many": "DecompositionError: coupling violated"},
        "d": _record(stages=[[0, []]], oracle=2.0),
        "added": _record(),
    }
    assert bitcheck.diff(old, new) == [
        "gone: only in the old file",
        "added: only in the new file",
        "a: value 3.0 -> 2.75",
        "b: lower_bound 2.5 -> 2.625",
        "c: value 3.0 -> 'DecompositionError: coupling violated',"
        " lower_bound 2.5 -> 'DecompositionError: coupling violated'",
        "4 instances in both files, value or lower bound moved on 3",
        "walks differ on 2 instances",
        "cuts differ on 1 instances",
        "split operations differ on 1 instances",
        "stage trees differ on 1 instances",
        "LP dumps differ on 0 instances",
        "LP rounds differ on 0 instances",
        "any other output differs on 2 instances",
    ]


def test_diff_counts_a_changed_lp_dump_on_its_own(bitcheck, tmp_path, capsys):
    # a new dump format moves only the dump hash: no value, nor any other output
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, lp_text in zip(paths, ("0", "1")):
        path.write_text(json.dumps({"a": _record(), "b": _record(lp_text=lp_text)}))
    assert bitcheck.main(["--diff", *map(str, paths)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "2 instances in both files, value or lower bound moved on 0",
        "walks differ on 0 instances",
        "cuts differ on 0 instances",
        "split operations differ on 0 instances",
        "stage trees differ on 0 instances",
        "LP dumps differ on 1 instances",
        "LP rounds differ on 0 instances",
        "any other output differs on 0 instances",
    ]


def test_diff_counts_lp_rounds_on_their_own(bitcheck, tmp_path, capsys):
    # a backend change that moves a master or a result, but no recorded
    # output, moves only the per-round count
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, rounds in zip(paths, ("0", "1")):
        path.write_text(json.dumps({"a": _record(), "b": _record(rounds=rounds)}))
    assert bitcheck.main(["--diff", *map(str, paths)]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "LP rounds differ on 1 instances",
        "any other output differs on 0 instances",
    ]


@pytest.mark.parametrize("without", ["old", "new"])
def test_diff_reads_a_file_without_lp_rounds_as_not_recorded(bitcheck, tmp_path, capsys, without):
    # a file written before the section existed, such as a base commit's,
    # leaves it out of every comparison: equal outputs otherwise exit 0
    tables = {"old": {"a": _record()}, "new": {"a": _record(rounds="1")}}
    del tables[without]["a"]["lp_rounds"]
    paths = []
    for name, table in tables.items():
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(table))
    assert bitcheck.main(["--diff", *map(str, paths)]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        f"LP rounds not recorded in the {without} file",
        "any other output differs on 0 instances",
    ]
    tables["new"]["a"]["exact_oracle"] = 2.0
    assert bitcheck.diff(tables["old"], tables["new"])[-1] == "any other output differs on 1 instances"
