"""Elastic programs over the shifted row system and the greedy
minimum-removal-cover heuristic built on their sensitivity information.

Each active row <a_j, x> >= 1 gains a nonnegative elastic variable e_j and
the LP minimizes the weighted sum of the e_j.  The optimal objective (SINF),
the count of nonzero e_j (NINF), the per-row violations e_j and the per-row
duals (constraint sensitivities) drive both the incumbent heuristic and the
greedy branching score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import InfeasibleSystem
from .simplex import INF, LpCounter, LpModel, Sense, solve_lp

__all__ = ["ElasticSolution", "solve_elastic", "chinneck_cover", "VIOL_TOL"]

VIOL_TOL = 1e-7


@dataclass(frozen=True)
class ElasticSolution:
    """Result of one elastic solve.

    ``violations`` and ``sensitivities`` are full-length row vectors with
    zeros in removed positions, so indices line up with the system.
    """

    sinf: float
    ninf: int
    violations: np.ndarray
    sensitivities: np.ndarray
    x: np.ndarray

    @property
    def feasible(self) -> bool:
        return self.ninf == 0


def _elastic_lp(sys: InfeasibleSystem, active: list[int]) -> LpModel:
    d = sys.dim
    k = len(active)
    obj = np.concatenate([np.zeros(d), sys.weights[active].astype(float)])
    A = np.zeros((k, d + k))
    A[:, :d] = sys.rows[active]
    A[np.arange(k), d + np.arange(k)] = 1.0
    lower = np.concatenate([np.full(d, -INF), np.zeros(k)])
    upper = np.full(d + k, INF)
    return LpModel(obj, A, [Sense.GE] * k, np.ones(k), lower, upper)


def solve_elastic(sys: InfeasibleSystem, removed: set[int] | frozenset[int],
                  viol_tol: float = VIOL_TOL,
                  counter: LpCounter | None = None) -> ElasticSolution:
    """Minimize sum(w_j * e_j) over <a_j, x> + e_j >= 1 for the rows not in
    ``removed``; x is unrestricted.

    The minimum exists (the objective is polyhedral and bounded below by
    zero), and it is zero exactly when the remaining strict system admits a
    common solution, so no artificial direction box is needed.
    """

    active = [j for j in range(sys.n_rows) if j not in removed]
    violations = np.zeros(sys.n_rows)
    sensitivities = np.zeros(sys.n_rows)
    if not active:
        return ElasticSolution(0.0, 0, violations, sensitivities,
                               np.zeros(sys.dim))

    sol = solve_lp(_elastic_lp(sys, active), counter=counter)
    x = sol.primal[:sys.dim]
    e = sol.primal[sys.dim:]
    for pos, j in enumerate(active):
        violations[j] = e[pos]
        sensitivities[j] = sol.duals[pos]
    ninf = int(np.count_nonzero(violations > viol_tol))
    sinf = float(sol.objective_value)
    if ninf == 0:
        sinf = 0.0
    return ElasticSolution(sinf, ninf, violations, sensitivities, x)


def _fast_candidates(sol: ElasticSolution, alive: list[int], k: int,
                     viol_tol: float) -> list[int]:
    """Top-k rows by violation x |sensitivity| among violated rows plus
    top-k by |sensitivity| among satisfied rows; ties go to the lower index."""

    viol = [(j, sol.violations[j] * abs(sol.sensitivities[j]))
            for j in alive if sol.violations[j] > viol_tol]
    sat = [(j, abs(sol.sensitivities[j]))
           for j in alive if sol.violations[j] <= viol_tol]
    viol.sort(key=lambda t: (-t[1], t[0]))
    sat.sort(key=lambda t: (-t[1], t[0]))
    picked = [j for j, _ in viol[:k]] + [j for j, _ in sat[:k]]
    return sorted(set(picked))


def chinneck_cover(sys: InfeasibleSystem, variant: str = "fast",
                   k: int = 1, viol_tol: float = VIOL_TOL,
                   counter: LpCounter | None = None) -> set[int]:
    """Greedy removal cover: rows whose deletion restores feasibility.

    Solves the elastic program, tries deleting each candidate row, and
    permanently deletes the one whose removal gives the smallest SINF; that
    winning trial is the elastic solution of the next step.  Stops when
    nothing is violated; a single violated row is taken directly into the
    cover since it alone blocks feasibility of the current system.

    ``variant`` is "full" (candidates are all violated rows) or "fast"
    (top-k candidates by the sensitivity scores, k >= 1).  Terminates in at
    most n steps because every step deletes at least one row for good.
    """

    if variant not in ("full", "fast"):
        raise ValueError(f"unknown variant {variant!r}")
    if k < 1:
        raise ValueError(f"heuristic k must be at least 1, got {k}")
    cover: set[int] = set()
    sol = solve_elastic(sys, cover, viol_tol, counter)
    while sol.ninf > 0:
        alive = [j for j in range(sys.n_rows) if j not in cover]
        if sol.ninf == 1:
            only = next(j for j in alive if sol.violations[j] > viol_tol)
            cover.add(only)
            return cover

        if variant == "full":
            candidates = [j for j in alive if sol.violations[j] > viol_tol]
        else:
            candidates = _fast_candidates(sol, alive, k, viol_tol)

        best_j = -1
        best_sinf = INF
        best_resolve: ElasticSolution | None = None
        for j in candidates:
            trial = solve_elastic(sys, cover | {j}, viol_tol, counter)
            if trial.sinf < best_sinf - 1e-12:
                best_j, best_sinf, best_resolve = j, trial.sinf, trial
        cover.add(best_j)
        sol = best_resolve
    return cover
