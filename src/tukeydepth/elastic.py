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
on the active rows, the row sensitivities (the row form's duals) are y, and
the optimal objective (SINF) is 1.y.  SINF, the count of e_j above
``VIOL_TOL`` (NINF), the e_j and the sensitivities drive both the
incumbent heuristic and the greedy branching score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import InfeasibleSystem
from .simplex import INF, LpCounter, LpModel, LpSolution, Sense, solve_lp

__all__ = ["ElasticSolution", "solve_elastic", "chinneck_cover", "VIOL_TOL"]

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

    sinf: float
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
        return ElasticSolution(0.0, 0, np.zeros(n), np.zeros(n),
                               np.zeros(sys.dim), removed)

    sol = solve_lp(_elastic_model(sys, removed), counter=counter,
                   start=start)
    x = -sol.duals
    active = np.ones(n, dtype=bool)
    active[list(removed)] = False
    violations = np.where(active, np.maximum(0.0, 1.0 - sys.rows @ x), 0.0)
    ninf = int(np.count_nonzero(violations > VIOL_TOL))
    sinf = -float(sol.objective_value) if ninf else 0.0
    sensitivities = np.where(active, sol.primal, 0.0)
    return ElasticSolution(sinf, ninf, violations, sensitivities, x, removed,
                           sol)


def _fast_candidates(sol: ElasticSolution, alive: list[int],
                     k: int) -> list[int]:
    """Top-k rows by violation x |sensitivity| among violated rows plus
    top-k by |sensitivity| among satisfied rows; ties go to the lower index."""

    viol = [(j, sol.violations[j] * abs(sol.sensitivities[j]))
            for j in alive if sol.violations[j] > VIOL_TOL]
    sat = [(j, abs(sol.sensitivities[j]))
           for j in alive if sol.violations[j] <= VIOL_TOL]
    viol.sort(key=lambda t: (-t[1], t[0]))
    sat.sort(key=lambda t: (-t[1], t[0]))
    picked = [j for j, _ in viol[:k]] + [j for j, _ in sat[:k]]
    return sorted(set(picked))


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
    runs.  Otherwise solves the elastic program and tries deleting each of
    at most two candidate rows: the violated row with the largest violation
    x |sensitivity| and the satisfied row with the largest |sensitivity|
    (Chinneck's fast candidate list, top one of each).  It permanently
    deletes the candidate whose removal gives the smallest SINF; that
    winning trial is the elastic solution of the next step.  Every trial
    derives from the current solution's LP.  Stops when nothing is
    violated; a single violated row is taken directly into the cover since
    it alone blocks feasibility of the current system.  Terminates in at
    most n steps because every step deletes at least one row for good.

    Returns (cover, x, root).  x is the scaled mean, or else the last
    elastic solution's direction: <a_j, x> >= 1 - VIOL_TOL on every row
    outside the cover, since the row taken directly was its only violated
    one.  root is the first elastic solution, over all rows, and None when
    the mean closed the cover.
    """

    mean = _mean_direction(sys)
    if mean is not None:
        return set(), mean, None
    cover: set[int] = set()
    root = sol = solve_elastic(sys, cover, counter)
    while sol.ninf > 0:
        alive = [j for j in range(sys.n_rows) if j not in cover]
        if sol.ninf == 1:
            only = next(j for j in alive if sol.violations[j] > VIOL_TOL)
            cover.add(only)
            break

        best_j = -1
        best_sinf = INF
        best_resolve: ElasticSolution | None = None
        for j in _fast_candidates(sol, alive, 1):
            trial = solve_elastic(sys, cover | {j}, counter, start=sol.lp)
            if trial.sinf < best_sinf - 1e-12:
                best_j, best_sinf, best_resolve = j, trial.sinf, trial
        cover.add(best_j)
        sol = best_resolve
    return cover, sol.x, root
