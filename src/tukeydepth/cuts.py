"""Hitting-set cut machinery: the pseudo-knapsack variable selector, the
phase-1 basic-infeasible-subsystem generator, and the deduplicating pool
shared across the search tree and across bisection runs."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elastic import _phase1_lp
from .model import InfeasibleSystem
from .simplex import LpCounter, LpStatus, solve_lp

__all__ = [
    "Cut",
    "CutPool",
    "pseudo_knapsack_select",
    "bis_cut",
    "generate_cuts",
]

_FEAS_TOL = 1e-9


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


def pseudo_knapsack_select(values) -> set[int]:
    """Indices of a maximum-cardinality subset of [0,1] values summing below 1.

    Sorting ascending and taking the longest prefix with sum < 1 is optimal:
    any larger subset would contain k+1 items each at least as large as the
    k+1 smallest, whose sum already reaches 1.  Sums use correctly rounded
    accumulation so the answer does not depend on addition order.
    """

    vals = np.asarray(values, dtype=float)
    if vals.size and (vals.min() < -1e-12 or vals.max() > 1.0 + 1e-12):
        raise ValueError("values must lie in [0, 1]")
    order = sorted(range(vals.size), key=lambda i: (vals[i], i))
    chosen: set[int] = set()
    picked: list[float] = []
    for i in order:
        if math.fsum(picked + [vals[i]]) < 1.0:
            picked.append(float(vals[i]))
            chosen.add(i)
        else:
            break
    return chosen


def _shrink_support(rows: np.ndarray, y: np.ndarray, d: int) -> np.ndarray:
    """Caratheodory step: thin a nonnegative combination with sum(y a) = 0 and
    sum(y) = 1 down to at most d + 1 nonzero coefficients, preserving both
    identities, so the surviving rows still certify joint infeasibility."""

    sup = np.where(y > 0)[0]
    while sup.size > d + 1:
        M = np.vstack([rows[sup].T, np.ones(sup.size)])
        _, _, vt = np.linalg.svd(M)
        z = vt[-1]
        pos = z > 1e-13
        if not pos.any():
            z = -z
            pos = z > 1e-13
        if not pos.any():
            break
        t = np.min(y[sup][pos] / z[pos])
        y[sup] = y[sup] - t * z
        y[y < 1e-13] = 0.0
        sup = np.where(y > 0)[0]
    return sup


def bis_cut(sys: InfeasibleSystem, active, feas_tol: float = _FEAS_TOL,
            counter: LpCounter | None = None) -> Cut | None:
    """Phase-1 cut: minimize x0 over <a_j, x> + x0 >= 1 for j in the active
    set, x unrestricted, x0 >= 0.

    Returns None when the subsystem is feasible (x0* ~ 0).  Otherwise the
    rows carrying positive duals are tight at the optimum and their dual
    weights satisfy sum(y_j a_j) = 0, sum(y_j) = 1, y >= 0, which makes them
    a jointly infeasible subsystem; a basic optimum ordinarily gives at most
    d + 1 of them, and degenerate surplus is thinned away explicitly.
    """

    active = sorted(active)
    if not active:
        raise ValueError("active set must be nonempty")
    sol = solve_lp(_phase1_lp(sys, active), counter=counter)
    if sol.status is not LpStatus.OPTIMAL:
        raise RuntimeError(f"phase-1 subsystem LP ended {sol.status}")
    x0 = sol.objective_value
    if x0 <= feas_tol:
        return None

    y = np.maximum(sol.duals.copy(), 0.0)
    total = y.sum()
    if total <= 0:
        raise RuntimeError("positive infeasibility without positive duals")
    y /= total
    y[y <= 1e-9] = 0.0
    y /= y.sum()
    sup = _shrink_support(sys.rows[active], y, sys.dim)
    return Cut(tuple(active[i] for i in sup))


def generate_cuts(sys: InfeasibleSystem, lp_binaries: np.ndarray,
                  fixed1, fixed0, use_knapsack: bool = True,
                  feas_tol: float = _FEAS_TOL,
                  counter: LpCounter | None = None) -> list[Cut]:
    """Produce at most one hitting-set cut for the current relaxation values.

    With the knapsack route, the selected rows carry binary values summing
    below 1, so any infeasible subsystem found inside them yields a cut the
    current solution violates.  When that subsystem turns out feasible, the
    full unfixed row set is tried before giving up, which keeps generation
    productive at the cost of a possibly non-violated (still valid) cut.
    """

    fixed1 = set(fixed1)
    fixed0 = set(fixed0)
    unfixed = [j for j in range(sys.n_rows)
               if j not in fixed1 and j not in fixed0]
    full_active = [j for j in range(sys.n_rows) if j not in fixed1]
    if not full_active:
        return []

    if use_knapsack and unfixed:
        chosen = pseudo_knapsack_select(
            np.clip([lp_binaries[j] for j in unfixed], 0.0, 1.0))
        active = sorted(unfixed[i] for i in chosen)
        if active:
            cut = bis_cut(sys, active, feas_tol, counter)
            if cut is not None:
                return [cut]
    cut = bis_cut(sys, full_active, feas_tol, counter)
    return [cut] if cut is not None else []
