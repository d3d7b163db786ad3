"""``tools/bitcheck.py --diff``: the report of what moved between two output files."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BITCHECK = Path(__file__).resolve().parents[1] / "tools" / "bitcheck.py"


@pytest.fixture
def bitcheck(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends its own paths
    spec = importlib.util.spec_from_file_location("bitcheck", BITCHECK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(
    value=3.0, bound=2.5, walk=(0, 1, 0), cuts=(), ops=(), stages=(), oracle=3.0, lp_text="0"
):
    return {
        "best_of_many": {"value": value, "lower_bound": bound, "walk": list(walk), "stats": {}},
        "lp": {"x": [], "y": [], "objective": 2.5, "cuts": list(cuts), "lp_text_sha256": lp_text},
        "split": {"ops": list(ops), "groups": [], "chord": 0.0, "stages": list(stages)},
        "pctsp_reduction": 3.0,
        "exact_oracle": oracle,
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
        "any other output differs on 0 instances",
    ]
