"""Independent combinatorial depth computation used to verify the solvers.

The depth of the query equals, over all nonzero directions x, the minimum
total weight of rows with <x, a_j> <= 0, plus the weight of points equal to
the query.  In the plane this is an angular sweep; in general dimension the
minimum is attained at (or tiltable to) a direction orthogonal to some d-1
rows, so enumerating those candidate normals is exact for inputs in general
position.  The enumerators ``oracle_depth_2d`` and ``oracle_depth_general``
involve no linear programming, which is the point.  ``is_depth_zero`` is
the exception: it answers with one alternative LP through ``solve_lp``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .cuts import _alternative_lp
from .model import InfeasibleSystem
from .simplex import LpStatus, solve_lp

__all__ = [
    "GeneralPositionError",
    "oracle_depth_2d",
    "oracle_depth_general",
    "is_depth_zero",
    "GP_TOL",
]

GP_TOL = 1e-9


class GeneralPositionError(ValueError):
    """Input rows violate the general-position assumption of the enumerator."""


def _unit_rows(sys: InfeasibleSystem) -> np.ndarray:
    scaled = sys.rows / np.max(np.abs(sys.rows), axis=1)[:, None]
    return scaled / np.linalg.norm(scaled, axis=1)[:, None]


def oracle_depth_2d(sys: InfeasibleSystem, gp_tol: float = GP_TOL) -> int:
    """Exact planar depth by sweeping candidate directions around the circle.

    The count of rows with <x, a_j> <= 0 only changes where x crosses a
    row's orthogonal line, so it suffices to evaluate each boundary direction
    (the closed condition counts the boundary row there) and one interior
    direction per arc between consecutive boundaries.
    """

    if sys.dim != 2:
        raise ValueError("planar sweep requires dim == 2")
    if sys.n_rows == 0:
        return sys.zero_offset

    rows = _unit_rows(sys)
    perps = np.column_stack([-rows[:, 1], rows[:, 0]])
    boundary = np.vstack([perps, -perps])
    angles = np.sort(np.arctan2(boundary[:, 1], boundary[:, 0]))
    mids = (angles + np.diff(np.concatenate([angles, [angles[0] + 2 * math.pi]])) / 2)
    candidates = np.vstack([boundary,
                            np.column_stack([np.cos(mids), np.sin(mids)])])

    dots = rows @ candidates.T
    counted = dots <= gp_tol
    counts = sys.weights @ counted
    return int(counts.min()) + sys.zero_offset


def _subset_normals(rows: np.ndarray, combos: np.ndarray,
                    gp_tol: float) -> np.ndarray:
    """Unit normals to the span of each (d-1)-subset via cofactor expansion."""

    d = rows.shape[1]
    mats = rows[combos]  # (K, d-1, d)
    K = mats.shape[0]
    normals = np.empty((K, d))
    cols = np.arange(d)
    for i in range(d):
        minor = mats[:, :, cols != i]
        normals[:, i] = ((-1.0) ** i) * np.linalg.det(minor)
    norms = np.linalg.norm(normals, axis=1)
    if np.any(norms <= gp_tol):
        raise GeneralPositionError(
            "a (d-1)-subset of rows is linearly dependent")
    return normals / norms[:, None]


def oracle_depth_general(sys: InfeasibleSystem, gp_tol: float = GP_TOL) -> int:
    """Exact depth for rows in general position, any dimension.

    Candidates are the two unit normals of every (d-1)-subset T.  Rows lying
    on the candidate hyperplane (the subset itself, in general position) are
    not counted: linearly independent vectors admit a common strictly
    positive functional, so an infinitesimal tilt excludes them from the
    closed halfspace without flipping any strict sign.  If d or more rows
    land on one hyperplane the input is rejected as degenerate.

    Cost is C(n, d-1) * n inner products; meant for verification scale only.
    """

    d = sys.dim
    m = sys.n_rows
    if m == 0:
        return sys.zero_offset
    rows = _unit_rows(sys)
    w = sys.weights.astype(np.int64)

    if d == 1:
        signs = rows[:, 0]
        neg = int(w[signs < 0].sum())
        pos = int(w[signs > 0].sum())
        return min(neg, pos) + sys.zero_offset

    if m <= d:
        # In general position so few rows are linearly independent, hence a
        # direction strictly positive on all of them exists: depth is zero.
        if np.linalg.matrix_rank(rows, tol=gp_tol) < m:
            raise GeneralPositionError("rows are linearly dependent")
        return sys.zero_offset

    combos = np.array(list(itertools.combinations(range(m), d - 1)))
    normals = _subset_normals(rows, combos, gp_tol)
    dots = normals @ rows.T  # (K, m)

    on_plane = np.abs(dots) <= gp_tol
    if int(on_plane.sum(axis=1).max()) >= d:
        raise GeneralPositionError(
            "d or more rows lie on a common hyperplane through the origin")

    neg = (dots < -gp_tol) @ w
    pos = (dots > gp_tol) @ w
    best = int(min(neg.min(), pos.min()))
    return best + sys.zero_offset


def is_depth_zero(sys: InfeasibleSystem) -> bool:
    """True exactly when some direction strictly separates every data point.

    One solve of the alternative LP over every row (``cuts._alternative_lp``):
    by Gordan's theorem it is infeasible exactly when the strict system
    <a_j, x> > 0 has a solution.  Points equal to the query make strict
    separation impossible regardless of direction.
    """

    if sys.zero_offset > 0:
        return False
    if sys.n_rows == 0:
        return True
    sol = solve_lp(_alternative_lp(sys, list(range(sys.n_rows))))
    return sol.status is LpStatus.INFEASIBLE
