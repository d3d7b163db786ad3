"""Prize-collecting rural postman solver library."""

from .core import (
    Edge,
    Instance,
    ParseError,
    Walk,
    euler_tour,
    objective,
    odd_vertices,
    parse_instance,
    serialize_instance,
    shortest_paths,
)
from .preprocess import PreprocessedGraph, complete, copy_vertices, preprocess, restore
from .lp import (
    CutCertificate,
    LpError,
    LpSolution,
    capacity_adjacency,
    max_flow_min_cut,
    separate_cuts,
    solve_pcrpp_lp,
)
from .splitoff import SplitError, SplitOp, SplitRecorder, complete_split
from .treedecomp import DecompositionError, TreeDistribution, project_to_hat, stage_distribution
from .candidates import Candidate, build_candidate, edge_profit_core, min_perfect_matching, min_tjoin
from .solvers import CheckError, Solution, best_of_many, exact_oracle, pctsp_reduction, pctsp_solve_exact
from .ratiocheck import AlphaComponents, BoundCertificate, RatioParams, alpha_components, fixed_threshold_terms, verify_bound

__all__ = [name for name in dir() if not name.startswith("_")]
