"""Independent combinatorial depth computation used to verify the solvers.

The depth of the query equals, over all nonzero directions x, the minimum
total weight of rows with <x, a_j> <= 0, plus the weight of points equal to
the query.  In the plane this is an angular sweep; in general dimension the
minimum is attained at (or tiltable to) a direction orthogonal to some d-1
rows, so enumerating those candidate normals is exact for inputs in general
position.  The enumerators ``oracle_depth_2d`` and ``oracle_depth_general``
involve no linear programming, which is the point.  ``is_depth_zero`` is
the exception: it answers with one alternative LP through ``solve_lp``.

The general enumeration costs C(n, d-1) * n inner products for n rows.  It
draws the subsets lazily and works through them one fixed-size chunk at a
time, so its memory is that of one chunk whatever n and d are: about 1 MB
where the whole subset family would need gigabytes (n=50, d=6).  A subset's
normal is its vector of signed cofactors, built by Laplace expansion one row
at a time over the whole chunk: about d * 2**(d-1) vector products per
chunk, which takes the whole enumeration a quarter to a half of the time
that d batched LU factorizations of the minors (numpy's ``det``) take at
d = 5-8.  This is the enumeration of Rousseeuw & Struyf (Stat. Comput. 8,
1998) and Dyckerhoff & Mozharovskyi (CSDA 98, 2016), without their
speed-ups.
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

# Entries of one chunk's normals-by-rows dot matrix: 2**16 float64 values
# (512 KB), so a chunk's arrays stay in L2 cache whatever n and d are.
_CHUNK_ENTRIES = 1 << 16

# Float64 sums of integer weights are exact while the total is below this.
_EXACT_FLOAT_SUM = 1 << 53


class GeneralPositionError(ValueError):
    """Input rows violate the general-position assumption of the enumerator."""


def _unit_rows(sys: InfeasibleSystem) -> np.ndarray:
    scaled = sys.rows / np.max(np.abs(sys.rows), axis=1)[:, None]
    return scaled / np.linalg.norm(scaled, axis=1)[:, None]


def oracle_depth_2d(sys: InfeasibleSystem) -> int:
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
    counted = dots <= GP_TOL
    counts = sys.weights @ counted
    return int(counts.min()) + sys.zero_offset


def _subset_normals(rows_t: np.ndarray, combos: np.ndarray) -> np.ndarray:
    """Unit normals to the span of each (d-1)-subset of the rows, which
    ``rows_t`` holds as columns.

    Normal i is the cofactor (-1)**i det(T without column i) of the
    subset's (d-1, d) matrix T, by Laplace expansion one row at a time:
    ``minors`` maps each set S of k+1 columns to the determinants, over the
    chunk, of the first k+1 rows restricted to S, and the next level expands
    each larger set along the next row.  For d = 2 that is exactly
    (a1, -a0).  numpy's ``det`` pivots and returns sign * exp(log|det|), so
    it rounds differently (not even a 1x1 determinant is exact there); on
    unit rows the two agree within 1e-12, which only a norm or an inner
    product within rounding of ``GP_TOL`` could tell.
    """

    d = rows_t.shape[0]
    entries = rows_t[:, combos.T]  # entries[j, r]: column j of each row r
    minors = {(j,): entries[j, 0] for j in range(d)}
    for r in range(1, d - 1):
        expanded = {}
        for cols in itertools.combinations(range(d), r + 1):
            det = 0.0
            for t, j in enumerate(cols):
                term = entries[j, r] * minors[cols[:t] + cols[t + 1:]]
                det = det - term if (r + t) % 2 else det + term
            expanded[cols] = det
        minors = expanded
    normals = np.empty((combos.shape[0], d))
    for i in range(d):
        minor = minors[tuple(j for j in range(d) if j != i)]
        normals[:, i] = minor if i % 2 == 0 else -minor
    norms = np.linalg.norm(normals, axis=1)
    if np.any(norms <= GP_TOL):
        raise GeneralPositionError(
            "a (d-1)-subset of rows is linearly dependent")
    return normals / norms[:, None]


def oracle_depth_general(sys: InfeasibleSystem) -> int:
    """Exact depth for rows in general position, any dimension.

    Candidates are the two unit normals of every (d-1)-subset T.  Rows lying
    on the candidate hyperplane (the subset itself, in general position) are
    not counted: linearly independent vectors admit a common strictly
    positive functional, so an infinitesimal tilt excludes them from the
    closed halfspace without flipping any strict sign.  If d or more rows
    land on one hyperplane the input is rejected as degenerate.

    Cost is C(n, d-1) * n inner products; meant for verification scale only.
    The subsets are drawn lazily, about 2**16 / n of them per chunk, so
    memory stays that of one chunk's normals and dot matrix.  Every subset is
    enumerated and passes both general-position tests, even once the depth
    reaches 0, so an input is rejected exactly when some subset fails one.
    Each side's weight and row count come from one product of its
    comparison matrix with [weights | 1]; the rows on the hyperplane are the
    rest, as every inner product is finite.  The sums are float64 (BLAS),
    which is exact: every partial sum is an integer no larger than the total
    weight or m, and that is below 2**53.  Past it the sums stay int64.
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
        if np.linalg.matrix_rank(rows, tol=GP_TOL) < m:
            raise GeneralPositionError("rows are linearly dependent")
        return sys.zero_offset

    total = int(w.sum())
    side_w = w.astype(np.float64) if total < _EXACT_FLOAT_SUM else w
    weigh = np.column_stack([side_w, np.ones_like(side_w)])
    rows_t = np.ascontiguousarray(rows.T)
    subsets = itertools.combinations(range(m), d - 1)
    per_chunk = max(1, _CHUNK_ENTRIES // m)
    best = total
    while True:
        flat = itertools.chain.from_iterable(
            itertools.islice(subsets, per_chunk))
        combos = np.fromiter(flat, np.intp).reshape(-1, d - 1)
        if not len(combos):
            return best + sys.zero_offset
        normals = _subset_normals(rows_t, combos)
        dots = normals @ rows_t  # (chunk, m)

        neg = (dots < -GP_TOL) @ weigh
        pos = (dots > GP_TOL) @ weigh
        # Every dot is finite, so the rest are those with |dot| <= GP_TOL.
        if (m - neg[:, 1] - pos[:, 1]).max() >= d:
            raise GeneralPositionError(
                "d or more rows lie on a common hyperplane through the origin")
        best = min(best, int(neg[:, 0].min()), int(pos[:, 0].min()))


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
