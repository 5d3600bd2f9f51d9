"""Exact halfspace (Tukey) depth via branch and cut.

The depth of a query point is found as the minimum-weight set of data
points whose removal lets one open halfspace exclude everything else: a
self-contained bounded-variable simplex kernel solves the relaxations, a
greedy elastic heuristic seeds the incumbent, hitting-set cuts over the
irreducible infeasible subsystems tighten the tree, a bisection variant
over guess-form programs cross-checks without a fixed epsilon (one search
loop serves both program forms), and a combinatorial oracle verifies
everything independently.  One LP over the alternative polytope
{y >= 0 : sum y_j a_j = 0, sum y_j = 1} serves every subsystem question:
its optimal vertex is a cut, and its Farkas ray, when it is infeasible, is
a strictly separating direction and so a depth certificate.
"""

from .binsearch import solve_depth_binary
from .cuts import Cut, CutPool, bis_cut, generate_cuts
from .elastic import ElasticSolution, chinneck_cover, solve_elastic
from .engine import (DepthResult, EngineConfig, MipForm, MipModel, Node,
                     NodeOutcome, SolveStats, expand, rounding_heuristic,
                     select_branch_variable, solve_depth)
from .model import (InfeasibleSystem, ParamBounds, PointSet, build_system,
                    compute_bigM, lattice_epsilon)
from .mps import render_mps, write_mps
from .oracle import (GeneralPositionError, is_depth_zero, oracle_depth_2d,
                     oracle_depth_general)
from .simplex import LpModel, LpSolution, LpStatus, Sense, solve_lp

__version__ = "0.1.0"

__all__ = [
    "PointSet", "InfeasibleSystem", "ParamBounds", "build_system",
    "compute_bigM", "lattice_epsilon",
    "LpModel", "LpSolution", "LpStatus", "Sense", "solve_lp",
    "ElasticSolution", "solve_elastic", "chinneck_cover",
    "Cut", "CutPool", "bis_cut", "generate_cuts",
    "MipForm", "MipModel", "Node", "NodeOutcome", "SolveStats",
    "DepthResult", "EngineConfig", "solve_depth",
    "select_branch_variable", "expand", "rounding_heuristic",
    "solve_depth_binary",
    "GeneralPositionError", "oracle_depth_2d", "oracle_depth_general",
    "is_depth_zero",
    "render_mps", "write_mps",
]
