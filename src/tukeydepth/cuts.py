"""Hitting-set cut machinery: the alternative LP whose basic solutions are
the irreducible infeasible subsystems (IISs) of the shifted row system, and
the deduplicating pool shared across the search tree and across bisection
runs.

By Gordan's alternative, the strict system <a_j, x> > 0 over a row set J has
no solution exactly when the alternative polytope

    { y >= 0 : sum_j y_j a_j = 0, sum_j y_j = 1 }

is nonempty, and the supports of its vertices are exactly the IISs of J
(Gleeson & Ryan, ORSA J. Comput. 1990).  One LP over it therefore either
returns an IIS as the support of its basic optimum or, infeasible, returns a
Farkas ray whose first d entries give a strictly separating direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import InfeasibleSystem
from .simplex import INF, LpCounter, LpModel, LpStatus, Sense, solve_lp

__all__ = [
    "Cut",
    "CutPool",
    "bis_cut",
    "generate_cuts",
]

@dataclass(frozen=True)
class Cut:
    """Sorted row-index set C encoding the inequality sum_{j in C} s_j >= 1."""

    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("a cut needs at least one member")
        object.__setattr__(self, "members", tuple(sorted(set(self.members))))

    def violated_by(self, s_values: np.ndarray, tol: float = 1e-9) -> bool:
        return float(sum(s_values[j] for j in self.members)) < 1.0 - tol


class CutPool:
    """Deduplicated, insertion-ordered cut store."""

    def __init__(self):
        self._cuts: list[Cut] = []
        self._seen: set[tuple[int, ...]] = set()

    def insert(self, cut: Cut) -> bool:
        """Add a cut; returns False if an identical member set is present."""
        if cut.members in self._seen:
            return False
        self._seen.add(cut.members)
        self._cuts.append(cut)
        return True

    def snapshot(self) -> list[Cut]:
        return list(self._cuts)

    def __len__(self) -> int:
        return len(self._cuts)

    def __contains__(self, cut: Cut) -> bool:
        return cut.members in self._seen


def _alternative_lp(sys: InfeasibleSystem, active: list[int],
                   values=None) -> LpModel:
    """min sum_j c_j y_j over [A_active^T; 1^T] y = e_{d+1}, y >= 0, one
    column per row in ``active``.

    The cost is ``values`` clipped to [0, 1] (zero when None).  Clipping
    keeps every cost nonnegative, so the all-slack start, with every y_j at
    its lower bound 0, is dual feasible and the dual simplex alone reaches
    the optimum.
    """

    d = sys.dim
    k = len(active)
    cost = (np.zeros(k) if values is None
            else np.clip(np.asarray(values, dtype=float)[active], 0.0, 1.0))
    A = np.ones((d + 1, k))
    A[:d] = sys.rows[active].T
    rhs = np.zeros(d + 1)
    rhs[d] = 1.0
    return LpModel(cost, A, [Sense.EQ] * (d + 1), rhs, np.zeros(k),
                   np.full(k, INF))


def bis_cut(sys: InfeasibleSystem, active, counter: LpCounter | None = None,
            values=None) -> Cut | None:
    """The IIS at the optimal vertex of the alternative LP over ``active``,
    or None when those rows admit a common strict solution (the LP is
    infeasible).

    With ``values`` the relaxation's binary values, the vertex minimizes
    sum_j values_j y_j and so favours IISs of rows the relaxation keeps,
    whose cuts it violates (Pfetsch, SIAM J. Optim. 2008).  The members
    are every row with a basic y_j > 0, at most d + 1 of them.  No threshold
    above zero: dropping a true member could leave a satisfiable set and an
    invalid cut.
    """

    active = sorted(active)
    if not active:
        raise ValueError("active set must be nonempty")
    sol = solve_lp(_alternative_lp(sys, active, values), counter=counter)
    if sol.status is LpStatus.INFEASIBLE:
        return None
    if sol.status is not LpStatus.OPTIMAL:
        raise RuntimeError(f"alternative LP ended {sol.status}")
    return Cut(tuple(active[i] for i in np.flatnonzero(sol.primal > 0.0)))


def generate_cuts(sys: InfeasibleSystem, lp_binaries: np.ndarray, fixed1,
                  counter: LpCounter | None = None) -> list[Cut]:
    """At most one hitting-set cut for the current relaxation values: the
    IIS among the rows not fixed to 1 whose alternative-LP vertex minimizes
    the values' weighted sum.  Empty when those rows are jointly
    satisfiable."""

    active = [j for j in range(sys.n_rows) if j not in fixed1]
    if not active:
        return []
    cut = bis_cut(sys, active, counter, values=lp_binaries)
    return [cut] if cut is not None else []
