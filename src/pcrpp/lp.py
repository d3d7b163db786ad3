"""Cutting-plane solver for the relaxation on the preprocessed complete graph.

The program keeps a working set of edge variables (all positive edges, all
root-incident edges and the tether edges at first), separates violated
connectivity cuts with min-cut computations, and prices the omitted
zero-profit variables through their reduced costs.  The min cuts run an
Edmonds-Karp max-flow on a ``FlowNetwork``, a capacity network in flat arc
lists; ``separate_cuts`` builds one per round and shares it among the
round's witness flows, and ``splitoff`` edits one per splitting pass through
``FlowNetwork.set_capacity``.  The backend is any LP solver that returns an
optimal basic solution with row duals.  The default,
``HighsBackend``, drives the HiGHS build bundled with scipy through its
private bindings (``scipy.optimize._highspy._core``, verified with scipy 1.17
and HiGHS 1.12); it hands HiGHS the same model and options that
``scipy.optimize.linprog(method="highs")`` would, as numpy arrays through the
array overload of ``_Highs.passModel``.  ``linprog`` itself is used only in
the tests, as the reference.  ``run_highs`` is that checked handoff on its
own; the exact pairing MIP of ``candidates`` and the MIP of
``solvers.exact_oracle`` go through it too, each on a fresh HiGHS instance,
while one ``HighsBackend``, and so one LP solve, passes its masters of at
most ``REUSE_NNZ`` nonzeros into one kept instance.
``write_lp_text`` prints that master over every pair, with every recorded
cut and with the positive edges' profit sum as its objective constant, as
CPLEX LP text.

A round of ``solve_pcrpp_lp`` works on the master's columns.  The backend's
x stays an array over them; ``separate_cuts`` gets the active pairs with
x > 0, in pair order, which makes the same ``FlowNetwork``, arc for arc, as
the x over every pair would; and a new cut's recorded slack adds the x of
the crossing active columns one by one from +0.0, in column order, which
builtin ``sum`` does only before Python 3.12.  Only two steps cover every
pair, each one numpy expression: pricing's reduced costs and the crossing
rows of the round's new cuts.  The slack keeps the bits of the sum over
every pair in pair order: the terms left out are the inactive pairs' +0.0,
a sum from +0.0 never reaches -0.0, and adding +0.0 to any other float
changes no bit.  The master is built in two steps.
``column_blocks`` builds what depends on the column set alone: the root,
degree and coupling rows, the y block, the cost and the column bounds.  It
runs again only when pricing adds columns.  ``master_model`` adds the
round's cut rows.  ``write_lp_text`` runs the same two steps over every
pair.

The bindings are loaded from their file, without importing scipy's
package: ``importlib.util.find_spec`` locates scipy's directory, so neither
``scipy/__init__.py`` (about 6 ms) nor ``scipy/optimize/__init__.py``, which
imports all of ``scipy.optimize`` (about 0.6 s), runs in a solve.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path

import numpy as np

from .core import ekey
from .preprocess import PreprocessedGraph

FEAS_TOL = 1e-7
PRICE_TOL = 1e-7
SNAP_TOL = 1e-9
MAX_ROUNDS = 10_000
SUPPORT_FLOOR = 1e-12  # edge mass or residual capacity at or below this is absent


HIGHS_CORE = "scipy.optimize._highspy._core"


def _highs_directory() -> Path:
    """The directory of scipy's HiGHS extension, found without importing scipy."""
    spec = find_spec("scipy")
    if spec is None:
        raise ImportError("scipy is not installed; pcrpp.lp needs its HiGHS extension", name="scipy")
    return Path(spec.origin).parent / "optimize" / "_highspy"


def _load_highs_core(directory: Path):
    """scipy's HiGHS extension module, loaded from ``directory`` by its spec.

    Neither ``scipy`` nor ``scipy.optimize`` is imported.  An entry already
    in ``sys.modules`` (a prior ``import scipy.optimize``) is reused.
    Otherwise the module is registered under its own name before it runs,
    so a later ``import scipy.optimize`` reuses it instead of initialising
    a second copy of the pybind11 module.  A missing extension raises an
    ``ImportError`` that names scipy's version, read from its metadata.
    """
    module = sys.modules.get(HIGHS_CORE)
    if module is not None:
        return module
    stem = HIGHS_CORE.rpartition(".")[2]
    for suffix in EXTENSION_SUFFIXES:
        path = directory / (stem + suffix)
        if path.is_file():
            break
    else:
        from importlib.metadata import version

        raise ImportError(
            f"scipy {version('scipy')} has no HiGHS extension {stem}.* in {directory}"
            f" (suffixes tried: {', '.join(EXTENSION_SUFFIXES)})",
            name=HIGHS_CORE,
        )
    spec = spec_from_file_location(HIGHS_CORE, path)
    module = module_from_spec(spec)
    sys.modules[HIGHS_CORE] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[HIGHS_CORE]
        raise
    return module


_core = _load_highs_core(_highs_directory())


class LpError(RuntimeError):
    """LP backend failure or non-convergence of the cutting-plane loop."""


@dataclass(frozen=True)
class LpSolution:
    x: dict[tuple[int, int], float]
    y: dict[int, float]
    objective: float


@dataclass(frozen=True)
class CutCertificate:
    """Cuts added during the run; each was violated when recorded."""

    cuts: tuple[tuple[frozenset, int, float], ...]


@dataclass(frozen=True)
class BackendResult:
    x: np.ndarray
    objective: float
    row_duals: np.ndarray


def _linprog_options() -> _core.HighsOptions:
    """The options ``linprog(method="highs")`` sets: presolve on, dual simplex, no output."""
    options = _core.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = _core.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    return options


HIGHS_OPTIONS = _linprog_options()

# The largest master, in nonzeros, that HighsBackend passes into its kept
# HiGHS instance; a larger one gets a fresh instance.  Keeping the instance
# saves its set-up and teardown, about 0.1 ms a master.  Measured with
# perfbench/run.py on a 2-vCPU VM: passing every master into the kept
# instance raised lp-ladder's peak RSS from about 98 to 114 MB, as its
# masters grow to 73,400 nonzeros (heap fragmentation as their buffers are
# reallocated is the likely cause, not verified); a limit of 16,384 kept
# lp-ladder flat but raised frac-small's about 1.3 MB.  At 5,000 both stay
# within the spread of fresh instances, and 515 of frac-small's 534 masters
# (at most 12,676 nonzeros) and 26 of lp-ladder's 104 are at or below it.
REUSE_NNZ = 5_000


def _exact_mip_options() -> _core.HighsOptions:
    """The LP options with both MIP gaps at zero, so a MIP is solved to its exact optimum.

    The feasibility jump heuristic is off: it only looks for a first
    incumbent, and on a 15-column pairing MIP it took about 6 of the 7 ms
    of ``_Highs.run``.
    """
    options = _linprog_options()
    options.mip_rel_gap = 0.0
    options.mip_abs_gap = 0.0
    options.mip_heuristic_run_feasibility_jump = False
    return options


EXACT_MIP_OPTIONS = _exact_mip_options()


def _check_model(cost, col_upper, row_lower, row_upper, indptr, indices, values) -> None:
    """Reject a model HiGHS would misread: it checks neither the CSC arrays nor NaNs.

    Takes numpy arrays.  A row index at or past the row count made
    ``_Highs.run`` raise a C++ ``vector::reserve`` error or crash the
    interpreter with a segmentation fault instead of returning a status, and
    a NaN cost came back as an optimal solution with objective NaN.  Bounds
    may be infinite; costs and matrix values may not.
    """
    ncols, nrows = len(cost), len(row_lower)
    if len(col_upper) != ncols:
        raise LpError(f"LP model has {len(col_upper)} column upper bounds for {ncols} columns")
    if len(row_upper) != nrows:
        raise LpError(f"LP model has {len(row_upper)} row upper bounds for {nrows} rows")
    if len(indptr) != ncols + 1:
        raise LpError(f"LP model has {len(indptr)} column starts for {ncols} columns")
    if indptr[0] != 0:
        raise LpError(f"LP model column 0 starts at entry {indptr[0]}, not 0")
    back = np.flatnonzero(indptr[1:] < indptr[:-1])
    if back.size:
        j = int(back[0]) + 1
        raise LpError(
            f"LP model column {j} starts at entry {indptr[j]}, before column {j - 1} at {indptr[j - 1]}"
        )
    if not indptr[-1] == len(indices) == len(values):
        raise LpError(
            f"LP model columns end at entry {indptr[-1]} but it has {len(indices)} row indices"
            f" and {len(values)} values"
        )
    if indices.size and (indices.min() < 0 or indices.max() >= nrows):
        k = int(np.flatnonzero((indices < 0) | (indices >= nrows))[0])
        col = int(np.searchsorted(indptr, k, side="right")) - 1
        raise LpError(
            f"LP model entry {k} (column {col}) has row index {indices[k]}, outside the {nrows} rows"
        )
    for name, array, wrong in (
        ("cost", cost, ~np.isfinite(cost)),
        ("matrix value", values, ~np.isfinite(values)),
        ("column upper bound", col_upper, np.isnan(col_upper)),
        ("row lower bound", row_lower, np.isnan(row_lower)),
        ("row upper bound", row_upper, np.isnan(row_upper)),
    ):
        if wrong.any():
            k = int(np.argmax(wrong))
            raise LpError(f"LP model {name} {k} is {array[k]}")


class HighsBackend:
    """HiGHS through scipy's private bindings, returning primal values and row duals.

    ``solve`` takes a minimization over columns x >= 0 with upper bounds
    ``col_upper`` (inf for none), rows ``row_lower <= A x <= row_upper`` and A
    in CSC form.  It passes HiGHS the model and options that ``linprog``
    passes for the same LP with its rows split into A_ub (lower bound -inf)
    followed by A_eq, so both return the same solution.  ``linprog`` is used
    only in the tests: as this backend's reference and in the
    ``decompose_by_lp`` oracle (``tests/oracles.py``).

    The model goes in through the array overload of ``_Highs.passModel``,
    which reads the numpy arrays directly; no Python list or ``HighsLp`` is
    built.  That overload requires an integrality array of length ncols, all
    zeros (continuous) here: an empty one makes it fail.  ``run_highs`` does
    the handoff: a malformed model raises ``LpError`` before HiGHS sees it,
    and so does a ``passModel`` status other than OK (HiGHS warns when it
    changes the model, for example by dropping a matrix value below 1e-9).

    The handoff contract: the column starts and row indices arrive as int32,
    built so at the source by ``master_model``, and reach ``passModel`` as
    they are, without a second copy.  Other integer dtypes, from direct
    callers, are checked first and converted after.  Float64 arrays pass
    uncopied.  While HiGHS runs, the caller holds nothing but the master.

    One ``_Highs`` is kept between calls and each new master is passed into
    it, as long as the master has at most ``REUSE_NNZ`` nonzeros;
    ``solve_pcrpp_lp`` builds one backend per call, so the instance lives
    for one LP solve.  ``passModel`` clears the previous model, basis and
    solution, and the options stay as first passed: on the 1,045 masters
    of the 285 ``tools/bitcheck.py`` instances a reused instance returned
    the same x, duals and objective, bit for bit, as a fresh one.  A larger
    master gets a fresh instance, which is dropped when it returns, and the
    kept one is dropped before it runs; an ``LpError`` (any exception) drops
    the kept instance too.  The instance is made on first use, so a
    subclass need not call ``__init__``.
    """

    _highs = None  # the instance kept for the next small master

    def solve(self, cost, col_upper, row_lower, row_upper, indptr, indices, values) -> BackendResult:
        ncols, nrows = len(cost), len(row_lower)
        small = len(values) <= REUSE_NNZ
        highs = self._highs if small else None
        self._highs = None  # dropped before a large master runs, and on any error
        highs = run_highs(
            HIGHS_OPTIONS, np.zeros(ncols, dtype=np.int32),
            "LP backend", f"a {nrows} x {ncols} master (rows x columns)",
            cost, col_upper, row_lower, row_upper, indptr, indices, values,
            highs=highs,
        )
        solution = highs.getSolution()
        if small:
            self._highs = highs
        return BackendResult(
            np.array(solution.col_value),
            highs.getObjectiveValue(),
            np.array(solution.row_dual),
        )


def run_highs(
    options, integrality, label: str, model: str,
    cost, col_upper, row_lower, row_upper, indptr, indices, values, highs=None,
):
    """A ``_Highs`` that has solved the model to optimality, checked at every step.

    The model is the one ``HighsBackend.solve`` takes, and ``integrality``
    holds one int32 per column: 0 continuous, 1 integer.  It goes into
    ``highs``, an instance an earlier call returned for the same
    ``options``, or else into a fresh ``_Highs`` given ``options``.
    ``_check_model`` rejects a malformed model first.  A ``passModel``
    status other than OK or a model status other than optimal raises
    ``LpError``, as "``label`` failed: HiGHS <status> on ``model``".
    """
    cost, col_upper, row_lower, row_upper, values = (
        np.asarray(a, dtype=np.float64) for a in (cost, col_upper, row_lower, row_upper, values)
    )
    indptr, indices = np.asarray(indptr), np.asarray(indices)
    _check_model(cost, col_upper, row_lower, row_upper, indptr, indices, values)
    indptr, indices = indptr.astype(np.int32, copy=False), indices.astype(np.int32, copy=False)
    ncols, nrows = len(cost), len(row_lower)
    if highs is None:
        highs = _core._Highs()
        highs.passOptions(options)
    passed = highs.passModel(
        ncols, nrows, len(values), _core.MatrixFormat.kColwise, _core.ObjSense.kMinimize, 0.0,
        cost, np.zeros(ncols), col_upper, row_lower, row_upper, indptr, indices, values, integrality,
    )
    if passed != _core.HighsStatus.kOk:
        raise LpError(f"{label} failed: HiGHS passModel status {passed.name} on {model}")
    highs.run()
    status = highs.getModelStatus()
    if status != _core.HighsModelStatus.kOptimal:
        raise LpError(
            f"{label} failed: HiGHS model status {highs.modelStatusToString(status)!r} on {model}"
        )
    return highs


class FlowNetwork:
    """An undirected capacity network held in flat arc lists, for repeated max-flows.

    Arc ``a`` runs to ``head[a]`` with capacity ``cap[a]``, and ``a ^ 1`` is
    its reverse, with the same capacity: a pair {u, v}, u < v, owns the arcs
    2k (u to v) and 2k + 1.  ``out[v]`` is the tuple of v's out-arcs in
    increasing head order, so every search scans neighbours in increasing id
    order.  The network is built from an undirected capacity map: entries
    at most zero are skipped, the two orientations of a pair add up, and a
    pair whose sum is at most ``SUPPORT_FLOOR`` gets no arcs.

    ``set_capacity`` edits a pair in place.  A pair set to ``SUPPORT_FLOOR``
    or below keeps its arcs with capacity 0.0, but they leave both
    endpoints' tuples, so ``out`` holds only arcs of positive capacity; a
    pair that comes back, or a new one, has its arcs inserted in head order,
    and a vertex id past the end gets an empty tuple.  A 0.0 arc and its
    reverse are never crossed, so taking them out leaves every search's scan
    of the other arcs, and so every flow, amount and side, as it was.  The
    pair -> arc index the setter needs is built on its first call, so a
    network that is only flowed on, as ``separate_cuts``'s, never holds one.
    """

    __slots__ = ("head", "cap", "out", "_arcs")

    def __init__(self, capacities: dict[tuple[int, int], float]):
        summed: dict[tuple[int, int], float] = {}
        for (u, v), c in capacities.items():
            if c <= 0.0:
                continue
            key = (u, v) if u < v else (v, u)
            summed[key] = summed.get(key, 0.0) + c
        head: list[int] = []
        cap: list[float] = []
        for (u, v), c in summed.items():
            if c > SUPPORT_FLOOR:
                head += (v, u)
                cap += (c, c)
        rows: list[list[int]] = [[] for _ in range(max(head, default=-1) + 1)]
        for a in range(len(head)):
            rows[head[a ^ 1]].append(a)
        self.head, self.cap = head, cap
        self.out = [tuple(sorted(row, key=head.__getitem__)) for row in rows]
        self._arcs: dict[tuple[int, int], int] | None = None

    def grow(self, count: int) -> None:
        """Give every vertex id below ``count`` an out-arc tuple, empty for a new one."""
        if count > len(self.out):
            self.out += [()] * (count - len(self.out))

    def row(self, v: int) -> dict[int, float]:
        """v's pairs of positive capacity as ``{neighbour: capacity}``, in neighbour order."""
        if v >= len(self.out):
            return {}
        head, cap = self.head, self.cap
        return {head[a]: cap[a] for a in self.out[v]}

    def set_capacity(self, u: int, v: int, c: float) -> None:
        """Give the pair {u, v} capacity c both ways, or 0.0 when c is at most ``SUPPORT_FLOOR``."""
        if u > v:
            u, v = v, u
        head, cap = self.head, self.cap
        if self._arcs is None:
            self._arcs = {(head[a + 1], head[a]): a for a in range(0, len(head), 2)}
        a = self._arcs.get((u, v))
        live = c > SUPPORT_FLOOR
        if a is None:
            if not live:
                return
            a = self._arcs[u, v] = len(head)
            head += (v, u)
            cap += (0.0, 0.0)
            self.grow(v + 1)
        was_live = cap[a] > 0.0
        cap[a] = cap[a + 1] = c if live else 0.0
        out = self.out
        if live and not was_live:
            out[u] = tuple(sorted(out[u] + (a,), key=head.__getitem__))
            out[v] = tuple(sorted(out[v] + (a + 1,), key=head.__getitem__))
        elif was_live and not live:
            i, j = out[u].index(a), out[v].index(a + 1)
            out[u] = out[u][:i] + out[u][i + 1:]
            out[v] = out[v][:j] + out[v][j + 1:]


def _flow(net: FlowNetwork, s: int, t: int, need: float) -> tuple[float, list[int] | None]:
    """Edmonds-Karp s-t flow on ``net``, augmenting while the value is below ``need``.

    Returns the flow value and, when no augmenting path is left, the
    vertices reached from s in the residual graph by that last, failed
    search.  When the value reaches ``need`` they are ``None``.  The
    residual is one copy of ``net.cap``, and each search keeps its
    predecessor arcs in a list indexed by vertex.  Searches scan each
    vertex's arcs in increasing head order, and an arc is usable while its
    residual exceeds ``SUPPORT_FLOOR``.  The value only grows, so it reaches
    ``need`` exactly when the full flow does.  ``net`` is not changed,
    except that ``grow`` gives an s or t past its end an empty arc tuple.
    """
    if s == t:
        raise ValueError("source equals sink")
    net.grow(max(s, t) + 1)
    head, out = net.head, net.out
    n = len(out)
    res = net.cap[:]
    floor = SUPPORT_FLOOR
    value = 0.0
    while value < need:
        via = [-1] * n  # the arc each reached vertex was reached by
        via[s] = s  # any mark >= 0: the path walk stops at s
        queue = [s]
        for v in queue:
            for a in out[v]:
                u = head[a]
                if via[u] < 0 and res[a] > floor:
                    via[u] = a
                    queue.append(u)
            if via[t] >= 0:
                break
        else:
            return value, queue
        push = math.inf
        b = t
        while b != s:
            a = via[b]
            if res[a] < push:
                push = res[a]
            b = head[a ^ 1]
        b = t
        while b != s:
            a = via[b]
            res[a] -= push
            res[a ^ 1] += push
            b = head[a ^ 1]
        value += push
    return value, None


def max_flow_min_cut(
    net: FlowNetwork, s: int, t: int, need: float = math.inf
) -> tuple[float, frozenset | None]:
    """Max s-t flow on ``net`` and a minimum cut S with s inside.

    With ``need`` given the flow stops once its value reaches ``need`` and
    the result is ``(value, None)``: the cut is at least ``need``.  Otherwise
    the value is the exact maximum and the side is the set reached from s in
    the residual graph, read off the flow's last, failed search.
    ``cut_at_least`` asks the same question with a 1e-12 slack and without
    the side.
    """
    value, reached = _flow(net, s, t, need)
    if not value < need:  # a NaN demand counts as met, as the flow loop's exit test has it
        return value, None
    # Built through a dict, whose known size presizes the set's table.  A set
    # grown from the list enlarges its table in steps, up to twice as large,
    # and sides live as long as the cut certificate: built from the list, they
    # left an eight-pass lp-ladder run's VmHWM about 1 MB higher.
    return value, frozenset(dict.fromkeys(reached))


def cut_at_least(net: FlowNetwork, s: int, t: int, need: float) -> bool:
    """True when the min s-t cut on ``net`` is at least ``need``."""
    if need <= 1e-12:
        return True
    need -= 1e-12
    return not _flow(net, s, t, need)[0] < need


def initial_variables(pg: PreprocessedGraph) -> list[tuple[int, int]]:
    """Positive edges, root-incident edges and tethers seed the variable set."""
    root = pg.root
    keys = set(pg.pos_edges)
    for v in range(pg.vertex_count):
        if v != root:
            keys.add(ekey(root, v))
    keys.update(ekey(v, c) for c, v in pg.copied.copy_map.items() if c != v)
    return sorted(keys)


def separate_cuts(
    pg: PreprocessedGraph,
    x: dict[tuple[int, int], float],
    y: dict[int, float],
    tol: float = FEAS_TOL,
) -> list[tuple[frozenset, int]]:
    """Connectivity cuts violated by (x, y), one witness vertex at a time.

    For every v with positive y the min root-v cut under x is compared with
    the demand 2*y_v; an empty result certifies the cut constraints.  The
    support becomes one ``FlowNetwork`` per call, shared by every witness's
    flow, and each flow stops as soon as it meets its demand.  Pairs
    missing from x, or at most zero in it, have no arcs.
    """
    root = pg.root
    violated = []
    support = FlowNetwork(x)
    for v in sorted(y):
        if v == root or y[v] <= tol:
            continue
        _, side = max_flow_min_cut(support, v, root, need=2.0 * y[v] - tol)
        if side is not None:
            violated.append((side, v))
    return violated


def canonicalize(pg: PreprocessedGraph, x, y):
    """Snap values within ``SNAP_TOL`` of 0 or 1 and make coupled triples exactly equal."""
    for table in (x, y):
        for k, val in table.items():
            if abs(val) <= SNAP_TOL:
                table[k] = 0.0
            elif abs(val - 1.0) <= SNAP_TOL:
                table[k] = 1.0
    for u, v in pg.pos_edges:
        val = x[(u, v)]
        y[u] = val
        y[v] = val
    return x, y


def lp_objective(pg: PreprocessedGraph, x: dict[tuple[int, int], float]) -> float:
    total = 0.0
    for k, length in pg.lengths.items():
        total += length * x.get(k, 0.0)
    for k in sorted(pg.pos_edges):
        total += pg.profits[k] * (1.0 - x.get(k, 0.0))
    return total


def solve_pcrpp_lp(
    pg: PreprocessedGraph,
    backend=None,
) -> tuple[LpSolution, CutCertificate]:
    """Optimize the relaxation by separation and pricing until both are clean.

    Every violated cut (S, w) found is recorded, in the certificate and in
    ``write_lp_text``'s dump, but it becomes a master row only when no
    earlier cut has side S and witness partner(w), the other end of w's
    positive edge.  The master's rows y_a = x_ab = y_b make
    2 y_a - x(delta(S)) <= 0 and 2 y_b - x(delta(S)) <= 0 the same row, so
    the master keeps its optimum; HiGHS's presolve removed these rows as
    parallel anyway, 274 of the 854 rows of the last master of
    ``gen_random(0, 20, 40)``.  A dropped cut has no dual and adds nothing
    to a reduced cost.

    A round works on the master's columns, as the module docstring sets
    out; the x over every pair is built only on return.
    """
    backend = backend or HighsBackend()
    root = pg.root
    n = pg.vertex_count
    y_vertices = [v for v in range(n) if v != root]
    if not y_vertices:
        sol = LpSolution({k: 0.0 for k in pg.lengths}, {root: 1.0}, 0.0)
        return sol, CutCertificate(())

    pairs = pg.pairs
    active = np.zeros(len(pairs.u), dtype=bool)
    active[pairs.index(initial_variables(pg))] = True
    partner = {}
    for a, b in pg.pos_edges:
        partner[a], partner[b] = b, a
    cuts: list[tuple[frozenset, int, float]] = []
    cut_keys: set[tuple[frozenset, int]] = set()
    crossing = np.zeros((0, len(pairs.u)), dtype=bool)  # one row per master cut
    witnesses: list[int] = []
    blocks = column_blocks(pg, np.flatnonzero(active), y_vertices)

    for _ in range(MAX_ROUNDS):
        cols = blocks.cols
        x_vals, y_vals, mu, rho, cut_duals = _solve_master(
            pg, backend, blocks, crossing[:, cols], witnesses, y_vertices
        )
        y = dict(zip(y_vertices, y_vals.tolist()))
        y[root] = 1.0
        support = x_vals > 0.0
        x = dict(zip(pairs.keys(cols[support]), x_vals[support].tolist()))

        new_cuts = separate_cuts(pg, x, y, tol=FEAS_TOL)
        new_cuts = [(side, v) for side, v in new_cuts if (side, v) not in cut_keys]
        priced = _price_variables(pairs, active, crossing, mu, rho, cut_duals, PRICE_TOL)
        if not new_cuts and not priced.size:
            values = np.zeros(len(pairs.u))
            values[cols] = x_vals
            x, y = canonicalize(pg, dict(zip(pg.lengths, values.tolist())), y)
            objective = lp_objective(pg, x)
            sol = LpSolution(x, y, objective)
            return sol, CutCertificate(tuple(cuts))
        rows = pairs.crossing([side for side, _ in new_cuts])
        kept = []
        # the sum over every pair less its inactive pairs' +0.0 terms, which
        # change no bit, added left to right (module docstring)
        for (side, v), across in zip(new_cuts, rows[:, cols]):
            slack = 0.0
            for val in x_vals[across].tolist():
                slack += val
            cuts.append((side, v, slack - 2.0 * y[v]))
            keep = (side, partner.get(v)) not in cut_keys
            if keep:
                witnesses.append(v)
            kept.append(keep)
            cut_keys.add((side, v))
        if any(kept):
            crossing = np.vstack([crossing, rows[kept]])
        if priced.size:
            active[priced] = True
            blocks = column_blocks(pg, np.flatnonzero(active), y_vertices)
    raise LpError(f"cutting-plane loop did not converge within {MAX_ROUNDS} rounds")


def _solve_master(pg, backend, blocks, crossing, witnesses, y_vertices):
    """Solve the master over ``blocks``' columns and the master cuts.

    The handoff: ``master_model`` returns the master alone, so its
    assembly's intermediates are freed before ``backend.solve`` starts and
    only the master's arrays, and the column blocks they are built from,
    are alive here while HiGHS runs.  Its column starts and row indices are
    int32 from the start, which the backend passes on without a copy.
    Returns the x and y values, the degree duals by vertex (0 at the root),
    the root-degree dual and one dual per master cut, in the order of
    ``witnesses``.
    """
    res = backend.solve(*master_model(blocks, crossing, witnesses))
    nx, deg0 = len(blocks.cols), 1 + len(witnesses)
    mu = np.zeros(pg.pairs.vertex_count)
    mu[y_vertices] = res.row_duals[deg0:deg0 + len(y_vertices)]
    return res.x[:nx], res.x[nx:], mu, res.row_duals[0], res.row_duals[1:deg0]


@dataclass(frozen=True, eq=False)
class ColumnBlocks:
    """Step one of the master: every part of it that depends on the columns alone.

    The columns are the pairs ``cols``, in pair order, then the y column of
    each non-root vertex (``yidx`` maps a vertex to its place among them).
    ``cost``, ``col_upper`` and the CSC entries of the root row, the degree
    rows and the coupling rows are held without the cut rows: ``nrows``
    rows, the root row 0 and the degree rows from row 1 on.  Entry k comes
    after the cut entries of the columns below ``cuts_before[k]``: its own
    column's too, unless it is in the root row.  The arrays are read-only.
    """

    cols: np.ndarray
    yidx: np.ndarray
    nrows: int
    cost: np.ndarray
    col_upper: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    cuts_before: np.ndarray

    def __post_init__(self):
        for arr in (
            self.cols, self.yidx, self.cost, self.col_upper, self.indptr, self.indices,
            self.values, self.cuts_before,
        ):
            arr.flags.writeable = False


def column_blocks(pg, cols, y_vertices) -> ColumnBlocks:
    """Step one of the master over the pairs ``cols`` and the y columns of ``y_vertices``.

    Rows, the cut rows left out: root degree at most 2, the degree rows
    x(delta(v)) - 2 y_v = 0, then y_a = x_ab = y_b as two rows per positive
    column.
    """
    root, pairs = pg.root, pg.pairs
    nx, ny = len(cols), len(y_vertices)
    u, v = pairs.u[cols], pairs.v[cols]
    yidx = np.zeros(pairs.vertex_count, dtype=np.intp)
    yidx[y_vertices] = np.arange(ny)
    pos_cols = np.flatnonzero(pairs.positive[cols])
    nrows = 1 + ny + 2 * len(pos_cols)

    # (columns, rows, value) of the nonzeros, block by block
    at_root = np.flatnonzero(pairs.at_root[cols])
    u_cols = np.flatnonzero(u != root)
    v_cols = np.flatnonzero(v != root)
    cpl_rows = 1 + ny + np.arange(2 * len(pos_cols))
    blocks = (
        (at_root, np.zeros_like(at_root), 1.0),
        (u_cols, 1 + yidx[u[u_cols]], 1.0),
        (v_cols, 1 + yidx[v[v_cols]], 1.0),
        (nx + np.arange(ny), 1 + np.arange(ny), -2.0),
        (np.repeat(pos_cols, 2), cpl_rows, -1.0),
        (nx + yidx[np.column_stack([u[pos_cols], v[pos_cols]]).ravel()], cpl_rows, 1.0),
    )
    col = np.concatenate([c for c, _, _ in blocks])
    row = np.concatenate([r for _, r, _ in blocks], dtype=np.int32)
    val = np.concatenate([np.full(len(c), a) for c, _, a in blocks])
    # Each (column, row) occurs once.  Most blocks are already sorted runs
    # of this key, which the stable sort merges in linear time.
    order = np.argsort(col * nrows + row, kind="stable")
    col, row = col[order], row[order]
    indptr = np.zeros(nx + ny + 1, dtype=np.int32)
    np.cumsum(np.bincount(col, minlength=nx + ny), out=indptr[1:])

    cost = np.zeros(nx + ny)
    cost[:nx] = pairs.lengths[cols] - pairs.profits[cols]
    col_upper = np.concatenate((np.where(pairs.positive[cols], 1.0, np.inf), np.ones(ny)))
    return ColumnBlocks(
        cols, yidx, nrows, cost, col_upper, indptr, row, val[order], col + (row > 0)
    )


def master_model(blocks: ColumnBlocks, crossing, witnesses):
    """Step two: the master as ``HighsBackend.solve`` takes it, cost, bounds and int32 CSC arrays.

    Adds to ``blocks`` one row 2 y_w - x(delta(S)) <= 0 per cut (S, w), S
    given by its row of ``crossing``, over the blocks' pair columns, and w
    by ``witnesses``.  The cut rows follow the root row, so the degree and
    coupling rows move down by the cut count: linprog's A_ub over A_eq, an
    order on which HiGHS's choice among optimal vertices depends.  The cut
    entries fill the places that the blocks' entries leave between them.
    """
    ncuts, ncols = len(witnesses), len(blocks.cost)
    # the cut entries in column order, each column's in cut order; cuts_below[j]
    # counts those of the columns below j
    x_cols, x_cuts = np.nonzero(crossing.T)
    y_cols = len(blocks.cols) + blocks.yidx[witnesses]
    y_cuts = np.argsort(y_cols, kind="stable")
    cut_cols = np.concatenate((x_cols, y_cols[y_cuts]))
    cuts_below = np.zeros(ncols + 1, dtype=np.int32)
    np.cumsum(np.bincount(cut_cols, minlength=ncols), out=cuts_below[1:])

    fixed = np.arange(len(blocks.indices)) + cuts_below[blocks.cuts_before]
    is_cut = np.ones(len(fixed) + len(cut_cols), dtype=bool)
    is_cut[fixed] = False
    indices = np.empty(len(is_cut), dtype=np.int32)
    indices[fixed] = np.where(blocks.indices > 0, blocks.indices + ncuts, 0)
    indices[is_cut] = 1 + np.concatenate((x_cuts, y_cuts))
    values = np.empty(len(is_cut))
    values[fixed] = blocks.values
    values[is_cut] = np.repeat((-1.0, 2.0), (len(x_cols), ncuts))

    nrows = blocks.nrows + ncuts
    row_lower = np.zeros(nrows)
    row_lower[:1 + ncuts] = -np.inf
    row_upper = np.zeros(nrows)
    row_upper[0] = 2.0
    return (
        blocks.cost, blocks.col_upper, row_lower, row_upper,
        blocks.indptr + cuts_below, indices, values,
    )


def _price_variables(pairs, active, crossing, mu, rho, cut_duals, tol):
    """Omitted zero-profit pairs with reduced cost below -tol, as pair indices.

    rc = L - mu[u] - mu[v] - rho [root in pair] + sum_j dual_j [pair crosses
    cut j].  The cut terms are added one cut at a time in recorded order, so
    every reduced cost is summed in the same order as a per-pair loop.
    """
    rc = pairs.lengths - mu[pairs.u] - mu[pairs.v]
    rc[pairs.at_root] -= rho
    for row, dual in zip(crossing, cut_duals):
        if dual != 0.0:
            np.add(rc, dual, out=rc, where=row)
    return np.flatnonzero(~active & ~pairs.positive & (rc < -tol))


def write_lp_text(pg: PreprocessedGraph, cert: CutCertificate) -> str:
    """The master over every pair with the recorded cuts, in CPLEX LP text format (debug aid).

    ``master_model``'s arrays over every pair printed as they are, rows in the master's
    order with their entries in column order and the sense read off the row
    bounds.  Every recorded cut has a row, also the partner duplicates that
    ``solve_pcrpp_lp`` keeps out of its master, which are redundant.  The
    positive edges' profit sum is the objective constant, so the dump's
    optimum is the run's lower bound.  Numbers round-trip exactly.
    """
    pairs, ncuts = pg.pairs, len(cert.cuts)
    y_vertices = [v for v in range(pg.vertex_count) if v != pg.root]
    cost, col_upper, row_lower, row_upper, indptr, indices, values = master_model(
        column_blocks(pg, np.arange(len(pairs.u)), y_vertices),
        pairs.crossing([side for side, _, _ in cert.cuts]),
        [w for _, w, _ in cert.cuts],
    )
    cols = [f"x_{u}_{v}" for u, v in pg.lengths] + [f"y_{v}" for v in y_vertices]
    rows = ["root"] + [f"cut_{i}" for i in range(ncuts)] + [f"deg_{v}" for v in y_vertices]
    rows += [f"cpl_{u}_{v}_{s}" for u, v in pairs.keys(pairs.positive) for s in "ab"]
    # the CSC entries in column order, bucketed by row: a stable sort by row
    terms = [[] for _ in rows]
    entry_cols = np.repeat(np.arange(len(cols)), np.diff(indptr)).tolist()
    for i, a, j in zip(indices.tolist(), values.tolist(), entry_cols):
        terms[i].append(f"{a:+} {cols[j]}")
    objective = " ".join(f"{c:+} {name}" for c, name in zip(cost.tolist(), cols))
    constant = float(pairs.profits[pairs.positive].sum())
    lines = ["Minimize", f" obj: {objective} {constant:+}", "Subject To"]
    for name, body, lo, hi in zip(rows, terms, row_lower.tolist(), row_upper.tolist()):
        sense = f"= {hi}" if lo == hi else f"<= {hi}" if lo == -math.inf else f">= {lo}"
        lines.append(f" {name}: {' '.join(body)} {sense}")
    lines.append("Bounds")
    for name, ub in zip(cols, col_upper.tolist()):
        lines.append(f" 0 <= {name} <= {ub}" if ub < math.inf else f" 0 <= {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"
