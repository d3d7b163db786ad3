"""Write every solver output for a fixed instance set as canonical JSON.

Run from the repository root against the sources under ``src``:

    python3 tools/bitcheck.py OUT.json

The instances are the 200 of the acceptance suite (``tests/conftest.py``),
the 80 stored ``frac-small`` instances and the 5 ``lp-ladder`` instances of
the benchmark (``perfbench/workloads.py``).  For each one the file holds:

- ``best_of_many``: value, lower bound, walk and stats without the ``t_*``
  timings;
- ``solve_pcrpp_lp``: x, y and the cut certificate (side, witness, slack);
- a SHA-256 of ``write_lp_text`` for that certificate;
- the ``SplitRecorder`` pass over that LP solution: every operation as
  ``[vertex, left, right, repr(amount)]``, the (vertex, operation count)
  groups and the final chord mass;
- for each distinct stage boundary of that pass, in threshold order, the
  trees of ``project_to_hat(stage_distribution(...))`` as
  ``[sorted edge list, repr(weight)]`` in their constructed order, or the
  error the stage raises;
- the ``pctsp_reduction`` and ``exact_oracle`` values; the exact oracle is a
  HiGHS MIP with no size cap, so it is recorded as a value on all 285
  instances;
- ``lp_rounds``: for that ``solve_pcrpp_lp`` call, the number of masters
  handed to the backend and one SHA-256 over each of them and each
  ``BackendResult`` (x, row duals and the objective's bits), in round
  order.  A master is hashed as HiGHS holds it after ``passModel``, read
  back with ``getLp()``: column costs and upper bounds, row bounds, then
  the column-wise starts, row indices and values, each array with its
  dtype and shape, as float64 and int32.  So the hash does not depend on
  how the master was handed over.

A call that raises is recorded as ``"Type: message"``.  Floats are written
with ``repr``, dicts with sorted keys and cut sides as sorted lists, so two
runs agree byte for byte exactly when every output agrees bit for bit.
Compare two source trees by running this script in each and comparing the
files with ``cmp``, or report what moved between two such files:

    python3 tools/bitcheck.py --diff OLD.json NEW.json

prints each instance whose ``best_of_many`` value or lower bound moved, as
``old -> new``, then how many instances differ in their walk, their cuts,
their split operations, their stage trees, their ``write_lp_text`` hash,
their ``lp_rounds`` and any other output.  Files written before
``lp_rounds`` existed lack it: the report then says it is not recorded and
leaves it out of every comparison.  It exits with 1 when anything compared
differs and 0 when the files agree.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from unittest.mock import patch

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

from conftest import acceptance_suite  # noqa: E402
import workloads  # noqa: E402

import numpy as np  # noqa: E402

from pcrpp import lp  # noqa: E402
from pcrpp.lp import HighsBackend, solve_pcrpp_lp, write_lp_text  # noqa: E402
from pcrpp.preprocess import preprocess  # noqa: E402
from pcrpp.solvers import best_of_many, exact_oracle, pctsp_reduction  # noqa: E402
from pcrpp.splitoff import SplitRecorder  # noqa: E402
from pcrpp.treedecomp import project_to_hat, stage_distribution  # noqa: E402


def instances() -> list:
    """(label, instance) for every instance checked, in a fixed order."""
    suite = acceptance_suite()
    out = [(f"acceptance/{i:03d}-{inst.name}", inst) for i, inst in enumerate(suite)]
    out += [(f"frac-small/{name}", inst) for name, inst in workloads.corpus_instances()]
    out += [(f"lp-ladder/{name}", inst) for name, inst in workloads.ladder_instances()]
    return out


def _pairs(table: dict) -> list:
    return [[list(k) if isinstance(k, tuple) else k, v] for k, v in sorted(table.items())]


def _guard(fn):
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the error is part of the output
        return f"{type(exc).__name__}: {exc}"


def _best(inst) -> dict:
    sol = best_of_many(inst)
    stats = {k: v for k, v in sol.stats.items() if not k.startswith("t_")}
    return {
        "value": sol.value,
        "lower_bound": sol.lower_bound,
        "walk": list(sol.walk.vertices),
        "stats": stats,
    }


class _HashingBackend(HighsBackend):
    """The default backend, hashing each master as HiGHS holds it and each result it returns."""

    def __init__(self):
        self.masters = 0
        self.sha = hashlib.sha256()
        held = self.held = []  # the model each passModel left in HiGHS

        class HoldingHighs(lp._core._Highs):
            def passModel(self, *model):
                status = super().passModel(*model)
                held.append(self.getLp())
                return status

        self.highs_type = HoldingHighs

    def solve(self, *master):
        with patch.object(lp._core, "_Highs", self.highs_type):
            res = super().solve(*master)
        held = self.held.pop()
        matrix = held.a_matrix_
        model = [
            np.asarray(a, dtype=np.float64)
            for a in (held.col_cost_, held.col_upper_, held.row_lower_, held.row_upper_)
        ]
        model += [np.asarray(a, dtype=np.int32) for a in (matrix.start_, matrix.index_)]
        model.append(np.asarray(matrix.value_, dtype=np.float64))
        for a in (*model, res.x, res.row_duals, np.float64(res.objective)):
            a = np.asarray(a)
            self.sha.update(f"{a.dtype.str}{a.shape}".encode())
            self.sha.update(a.tobytes())
        self.masters += 1
        return res


def _solve(inst) -> tuple:
    pg = preprocess(inst)
    backend = _HashingBackend()
    return (pg, *solve_pcrpp_lp(pg, backend=backend), backend)


def _lp(pg, sol, cert) -> dict:
    return {
        "x": _pairs(sol.x),
        "y": _pairs(sol.y),
        "objective": sol.objective,
        "cuts": [[sorted(side), wit, slack] for side, wit, slack in cert.cuts],
        "lp_text_sha256": hashlib.sha256(write_lp_text(pg, cert).encode()).hexdigest(),
    }


def _trees(pg, rec, boundary) -> list:
    dist = project_to_hat(stage_distribution(rec, boundary), pg)
    return [[sorted(map(list, tree)), repr(w)] for tree, w in zip(dist.trees, dist.weights)]


def _split(pg, sol) -> dict:
    rec = SplitRecorder(pg, sol)
    boundaries = sorted({rec.boundary(delta) for delta in rec.thresholds})
    return {
        "ops": [[op.vertex, op.left, op.right, repr(op.amount)] for op in rec.ops],
        "groups": [list(group) for group in rec.groups],
        "chord": rec.chord,
        "stages": [[b, _guard(lambda b=b: _trees(pg, rec, b))] for b in boundaries],
    }


def record(inst) -> dict:
    solved = _guard(lambda: _solve(inst))
    failed = solved if isinstance(solved, str) else None
    return {
        "best_of_many": _guard(lambda: _best(inst)),
        "lp": failed or _guard(lambda: _lp(*solved[:3])),
        "split": failed or _guard(lambda: _split(*solved[:2])),
        "pctsp_reduction": _guard(lambda: pctsp_reduction(inst).value),
        "exact_oracle": _guard(lambda: exact_oracle(inst).value),
        ROUNDS: failed or {"masters": solved[3].masters, "sha256": solved[3].sha.hexdigest()},
    }


def _field(out, key: str):
    """``out[key]`` of one output section; a failed call stands as its error text."""
    return out[key] if isinstance(out, dict) else out


# (name, section of a record, key in it) of each output the diff counts
COUNTED = (
    ("walks", "best_of_many", "walk"),
    ("cuts", "lp", "cuts"),
    ("split operations", "split", "ops"),
    ("stage trees", "split", "stages"),
    ("LP dumps", "lp", "lp_text_sha256"),  # a dump format change moves only this count
)
MOVED = ("value", "lower_bound")  # the best_of_many fields printed per instance
ROUNDS = "lp_rounds"  # the section counted whole; files written before it lack it


def _rest(rec: dict) -> dict:
    """The record without the outputs that the diff prints or counts."""
    drop = {"best_of_many": MOVED}
    for _, section, key in COUNTED:
        drop[section] = drop.get(section, ()) + (key,)
    return {
        section: {k: v for k, v in out.items() if k not in drop.get(section, ())}
        if isinstance(out, dict) else out
        for section, out in rec.items()
        if section != ROUNDS
    }


def _unrecorded(old: dict, new: dict) -> list[str]:
    """The files, "old" and "new", in which some record lacks the ``ROUNDS`` section."""
    tables = (("old", old), ("new", new))
    return [name for name, table in tables if any(ROUNDS not in rec for rec in table.values())]


def diff(old: dict, new: dict) -> list[str]:
    """Report lines for two ``record`` tables keyed by instance label."""
    lines = [f"{label}: only in the old file" for label in sorted(old.keys() - new.keys())]
    lines += [f"{label}: only in the new file" for label in sorted(new.keys() - old.keys())]
    common = sorted(old.keys() & new.keys())
    moved = 0
    for label in common:
        a, b = old[label]["best_of_many"], new[label]["best_of_many"]
        changes = [
            f"{key} {_field(a, key)!r} -> {_field(b, key)!r}"
            for key in MOVED
            if _field(a, key) != _field(b, key)
        ]
        if changes:
            moved += 1
            lines.append(f"{label}: " + ", ".join(changes))
    lines.append(f"{len(common)} instances in both files, value or lower bound moved on {moved}")
    for name, section, key in COUNTED:
        count = sum(
            _field(old[label][section], key) != _field(new[label][section], key)
            for label in common
        )
        lines.append(f"{name} differ on {count} instances")
    unrecorded = _unrecorded(old, new)
    if unrecorded:
        lines.append(f"LP rounds not recorded in the {' and the '.join(unrecorded)} file")
    else:
        count = sum(old[label][ROUNDS] != new[label][ROUNDS] for label in common)
        lines.append(f"LP rounds differ on {count} instances")
    rest = sum(_rest(old[label]) != _rest(new[label]) for label in common)
    lines.append(f"any other output differs on {rest} instances")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "--diff":
        old, new = (json.loads(Path(a).read_text()) for a in args[1:])
        print("\n".join(diff(old, new)))
        if _unrecorded(old, new):
            old, new = (
                {label: {k: v for k, v in rec.items() if k != ROUNDS} for label, rec in table.items()}
                for table in (old, new)
            )
        return int(old != new)
    if len(args) != 1 or args[0].startswith("--"):
        print(
            "usage: python3 tools/bitcheck.py OUT.json\n"
            "       python3 tools/bitcheck.py --diff OLD.json NEW.json",
            file=sys.stderr,
        )
        return 2
    out = {label: record(inst) for label, inst in instances()}
    text = json.dumps(out, sort_keys=True, indent=1)
    Path(args[0]).write_text(text + "\n")
    print(f"{len(out)} instances -> {args[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
