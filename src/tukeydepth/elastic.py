"""Elastic programs over the shifted row system and the greedy
minimum-removal-cover heuristic built on their sensitivity information.

The elastic program gives each active row <a_j, x> >= 1 a nonnegative
elastic variable e_j and minimizes sum_j w_j e_j over x free.  It is solved
in its LP dual form

    max 1.y  over  A^T y = 0,  0 <= y_j <= w_j,

with one column per row of the system and only d equality rows; removing
row j is the bound y_j <= 0.  Every basis of the dual form stays dual
feasible under such bound changes, so an elastic LP that removes more rows
than an earlier one derives from that one's final kernel state (see
``simplex``).  From the optimum,
x is the negated duals of the d equality rows, e_j = max(0, 1 - <a_j, x>)
on the active rows, and the row sensitivities (the row form's duals) are y.
The count of e_j above ``VIOL_TOL`` (NINF) ends the heuristic;
``greedy_row`` scores rows by the e_j and the sensitivities, for the
heuristic and for greedy branching alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import InfeasibleSystem
from .simplex import LpCounter, LpModel, LpSolution, Sense, solve_lp

__all__ = ["ElasticSolution", "solve_elastic", "greedy_row", "chinneck_cover",
           "VIOL_TOL"]

# An elastic variable above VIOL_TOL counts its row as violated.
VIOL_TOL = 1e-7


@dataclass(frozen=True)
class ElasticSolution:
    """Result of one elastic solve over the rows outside ``removed``.

    ``violations`` and ``sensitivities`` are full-length row vectors with
    zeros in removed positions, so indices line up with the system.  ``lp``
    is the solution of the dual-form LP (None when no row is active), the
    start of a later solve that removes more rows; its kernel has only d
    rows.
    """

    ninf: int
    violations: np.ndarray
    sensitivities: np.ndarray
    x: np.ndarray
    removed: frozenset
    lp: LpSolution | None = None

    @property
    def feasible(self) -> bool:
        return self.ninf == 0


def _elastic_model(sys: InfeasibleSystem, removed) -> LpModel:
    """min -1.y over A^T y = 0, 0 <= y_j <= w_j, with y_j <= 0 for a
    removed row: one column per row of the system, d equality rows."""

    upper = sys.weights.astype(float)
    upper[list(removed)] = 0.0
    return LpModel(np.full(sys.n_rows, -1.0), sys.rows.T,
                   [Sense.EQ] * sys.dim, np.zeros(sys.dim),
                   np.zeros(sys.n_rows), upper)


def solve_elastic(sys: InfeasibleSystem, removed: set[int] | frozenset[int],
                  counter: LpCounter | None = None,
                  start: LpSolution | np.ndarray | None = None
                  ) -> ElasticSolution:
    """Minimize sum(w_j * e_j) over <a_j, x> + e_j >= 1 for the rows not in
    ``removed``; x is unrestricted.  Solved in the dual form (see the
    module docstring), from ``start`` when given: the ``lp`` (or its
    ``basis_status``) of an earlier solve whose removed rows are a subset
    of these.

    The minimum exists (the objective is polyhedral and bounded below by
    zero), and it is zero exactly when the remaining strict system admits a
    common solution, so no artificial direction box is needed.
    """

    removed = frozenset(removed)
    n = sys.n_rows
    if len(removed) >= n:
        return ElasticSolution(0, np.zeros(n), np.zeros(n),
                               np.zeros(sys.dim), removed)

    sol = solve_lp(_elastic_model(sys, removed), counter=counter,
                   start=start)
    x = -sol.duals
    active = np.ones(n, dtype=bool)
    active[list(removed)] = False
    violations = np.where(active, np.maximum(0.0, 1.0 - sys.rows @ x), 0.0)
    ninf = int(np.count_nonzero(violations > VIOL_TOL))
    sensitivities = np.where(active, sol.primal, 0.0)
    return ElasticSolution(ninf, violations, sensitivities, x, removed, sol)


def greedy_row(sol: ElasticSolution, rows) -> int:
    """The row of ``rows`` whose removal ``sol`` scores highest: the
    violated row with the largest violation x |sensitivity|, else the row
    with the largest |sensitivity|; ties go to the lowest index."""

    idx = np.fromiter(rows, dtype=np.intp)
    score = np.abs(sol.sensitivities[idx])
    violations = sol.violations[idx]
    hit = violations > VIOL_TOL
    if hit.any():
        idx, score = idx[hit], violations[hit] * score[hit]
    return int(idx[score == score.max()].min())


def _mean_direction(sys: InfeasibleSystem):
    """The weighted mean of the unit rows, scaled so that every margin is at
    least 1, when each row's margin along the mean's unit direction clears
    ``VIOL_TOL``; else None.  Such a direction proves depth 0 by plain
    arithmetic, with no LP."""

    if not sys.n_rows:
        return None
    mean = sys.weights @ sys.rows
    low = float((sys.rows @ mean).min())
    # The same dot product np.linalg.norm takes of a 1-D array.
    if low > VIOL_TOL * math.sqrt(float(mean @ mean)):
        return mean / low
    return None


def chinneck_cover(sys: InfeasibleSystem, counter: LpCounter | None = None
                   ) -> tuple[set[int], np.ndarray, ElasticSolution | None]:
    """Greedy removal cover: rows whose deletion restores feasibility.

    First tries the weighted mean of the rows: when it separates every row
    with a unit margin above ``VIOL_TOL``, the cover is empty and no LP
    runs.  Otherwise solves the elastic program and, while a row is
    violated, deletes ``greedy_row`` of the current solution over the rows
    still alive (Chinneck's fast heuristic with a one-row candidate list);
    the one elastic LP over the larger deleted set derives from the current
    one and is the next step's solution.  A single violated row goes into
    the cover with no further LP: it alone blocks the current system.  At
    most n steps, each deleting one row for good.

    Returns (cover, x, root).  x is the scaled mean, or else the last
    elastic solution's direction: <a_j, x> >= 1 - VIOL_TOL on every row
    outside the cover, since the row taken last was its only violated
    one.  root is the first elastic solution, over all rows, and None when
    the mean closed the cover.
    """

    mean = _mean_direction(sys)
    if mean is not None:
        return set(), mean, None
    cover: set[int] = set()
    root = sol = solve_elastic(sys, cover, counter)
    while sol.ninf > 0:
        cover.add(greedy_row(sol, [j for j in range(sys.n_rows)
                                   if j not in cover]))
        if sol.ninf == 1:
            break
        sol = solve_elastic(sys, cover, counter, start=sol.lp)
    return cover, sol.x, root
