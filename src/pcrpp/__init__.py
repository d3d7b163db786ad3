"""Prize-collecting rural postman solver library.

The exported names are bound on first use (PEP 562), so that importing
the package, or only ``pcrpp.ratiocheck``, does not load the LP stack
(``pcrpp.lp`` with scipy's HiGHS extension, which it loads without
importing scipy's package) or the other solver layers.
"""

from importlib import import_module

# Bound eagerly: once the submodule of the same name loads, Python would set
# ``pcrpp.preprocess`` to that module in place of the function.
from .preprocess import preprocess

# Submodule -> the names the package exports from it.
_EXPORTS = {
    "core": (
        "Edge",
        "Instance",
        "ParseError",
        "Walk",
        "euler_tour",
        "objective",
        "odd_vertices",
        "parse_instance",
        "serialize_instance",
        "shortest_paths",
    ),
    "preprocess": ("PreprocessedGraph", "complete", "copy_vertices", "restore"),
    "lp": (
        "CutCertificate",
        "LpError",
        "FlowNetwork",
        "LpSolution",
        "max_flow_min_cut",
        "separate_cuts",
        "solve_pcrpp_lp",
    ),
    "splitoff": ("SplitError", "SplitOp", "SplitRecorder", "complete_split"),
    "treedecomp": ("DecompositionError", "TreeDistribution", "project_to_hat", "stage_distribution"),
    "candidates": ("Candidate", "build_candidate", "edge_profit_core", "min_perfect_matching", "min_tjoin"),
    "solvers": ("CheckError", "Solution", "best_of_many", "exact_oracle", "pctsp_reduction", "pctsp_solve_exact"),
    "ratiocheck": (
        "AlphaComponents",
        "BoundCertificate",
        "RatioParams",
        "alpha_components",
        "fixed_threshold_terms",
        "verify_bound",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

# The submodule names are exported too, so `from pcrpp import *` binds them.
__all__ = sorted({*_EXPORTS, *_SOURCE})


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it in the package
        return import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
