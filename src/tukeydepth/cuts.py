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

# A cut counts as violated when its members' values sum below 1 - CUT_TOL.
CUT_TOL = 1e-9
# One separation round returns at most this many cuts (the engine's other
# cut-loop constants are ``engine.MAX_CUT_ROUNDS`` and ``CUT_IMPROVE``).
CUTS_PER_ROUND = 3


@dataclass(frozen=True)
class Cut:
    """Sorted row-index set C encoding the inequality sum_{j in C} s_j >= 1."""

    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("a cut needs at least one member")
        object.__setattr__(self, "members", tuple(sorted(set(self.members))))

    def violated_by(self, s_values: np.ndarray) -> bool:
        return float(s_values[list(self.members)].sum()) < 1.0 - CUT_TOL


class CutPool:
    """Deduplicated, insertion-ordered cut store.  It keeps the cuts as the
    rows of a 0/1 matrix over the system's rows, so that one product finds
    every cut a point violates."""

    def __init__(self):
        self._cuts: list[Cut] = []
        self._index: dict[tuple[int, ...], int] = {}
        # A 0/1 row per cut over the system's rows, built on the first query;
        # the rows past ``_filled`` are spare capacity.
        self._matrix = np.zeros((0, 0))
        self._filled = 0

    def insert(self, cut: Cut) -> bool:
        """Add a cut; returns False if an identical member set is present."""
        if cut.members in self._index:
            return False
        self._index[cut.members] = len(self._cuts)
        self._cuts.append(cut)
        return True

    def violated(self, values: np.ndarray, skip=()) -> list[Cut]:
        """The cuts, in pool order, whose members' ``values`` (one per
        system row) sum below 1 - CUT_TOL, except those in ``skip``."""

        k = len(self._cuts)
        if not k:
            return []
        short = self._rows(len(values)) @ values < 1.0 - CUT_TOL
        if skip:
            short[[self._index[c.members] for c in skip]] = False
        return [self._cuts[i] for i in np.flatnonzero(short).tolist()]

    def _rows(self, width: int) -> np.ndarray:
        """The matrix over the pool's cuts and the system's ``width`` rows,
        with rows added for the cuts inserted since the last call (capacity
        doubles as it fills)."""

        k = len(self._cuts)
        if self._matrix.shape[0] < k:
            grown = np.zeros((max(2 * k, 16), width))
            if self._filled:
                grown[:self._filled] = self._matrix[:self._filled]
            self._matrix = grown
        for i in range(self._filled, k):
            self._matrix[i, list(self._cuts[i].members)] = 1.0
        self._filled = k
        return self._matrix[:k]

    def __len__(self) -> int:
        return len(self._cuts)

    def __contains__(self, cut: Cut) -> bool:
        return cut.members in self._index


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


def _vertex_cut(sol, active: list[int]) -> Cut | None:
    """The IIS at the alternative LP's optimal vertex: every row with a
    basic y_j > 0, at most d + 1 of them.  None when the LP is infeasible.
    No threshold above zero: dropping a true member could leave a
    satisfiable set and an invalid cut."""

    if sol.status is LpStatus.INFEASIBLE:
        return None
    if sol.status is not LpStatus.OPTIMAL:
        raise RuntimeError(f"alternative LP ended {sol.status}")
    return Cut(tuple(active[i] for i in np.flatnonzero(sol.primal > 0.0)))


def bis_cut(sys: InfeasibleSystem, active, counter: LpCounter | None = None,
            values=None) -> Cut | None:
    """The IIS at the optimal vertex of the alternative LP over ``active``,
    or None when those rows admit a common strict solution (the LP is
    infeasible).

    With ``values`` the relaxation's binary values, the vertex minimizes
    sum_j values_j y_j and so favours IISs of rows the relaxation keeps,
    whose cuts it violates (Pfetsch, SIAM J. Optim. 2008).
    """

    active = sorted(active)
    if not active:
        raise ValueError("active set must be nonempty")
    sol = solve_lp(_alternative_lp(sys, active, values), counter=counter)
    return _vertex_cut(sol, active)


def generate_cuts(sys: InfeasibleSystem, lp_binaries: np.ndarray, fixed1,
                  counter: LpCounter | None = None,
                  disjoint: bool = False) -> list[Cut]:
    """Up to ``CUTS_PER_ROUND`` hitting-set cuts for the current relaxation
    values, over the rows not fixed to 1 (Pfetsch, SIAM J. Optim. 2008).

    The first is ``bis_cut(..., values=lp_binaries)``, returned whether the
    values violate it or not; the batch goes on only when they do.  Each
    further one bounds to 0 the y column of the previous cut's member with
    the largest value (ties to the lowest row), which rules that IIS out,
    and re-solves derived from the previous cut LP: a bound change keeps
    its basis dual feasible.  With ``disjoint`` it bounds every member of
    the previous cut instead, so the cuts of the batch are pairwise
    disjoint.  The batch ends when the LP turns infeasible, at the first
    IIS the values do not violate (left out), or at ``CUTS_PER_ROUND``
    cuts.  Empty when the active rows are jointly satisfiable."""

    active = [j for j in range(sys.n_rows) if j not in fixed1]
    if not active:
        return []
    model = _alternative_lp(sys, active, lp_binaries)
    sol = solve_lp(model, counter=counter)
    cut = _vertex_cut(sol, active)
    active_rows = np.asarray(active)
    cuts = []
    while cut is not None:
        violated = cut.violated_by(lp_binaries)
        if cuts and not violated:
            break
        cuts.append(cut)
        if not violated or len(cuts) == CUTS_PER_ROUND:
            break
        # Members are sorted, as ``active`` is; argmax keeps the first,
        # that is the lowest, of tied members.
        at = np.searchsorted(active_rows, cut.members)
        if not disjoint:
            at = at[lp_binaries[list(cut.members)].argmax()]
        upper = model.upper.copy()
        upper[at] = 0.0
        model = LpModel(model.objective, model.row_coeffs, model.senses,
                        model.rhs, model.lower, upper)
        sol = solve_lp(model, counter=counter, start=sol.handover())
        cut = _vertex_cut(sol, active)
    return cuts
