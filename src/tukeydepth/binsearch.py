"""Exact depth by bisection over guess-form programs.

Each probe asks "can at most `guess` weighted rows be removed while the rest
keep a strictly positive margin?" and the engine answers by maximizing that
margin under the cardinality cap, stopping at the first positive witness.
No a-priori epsilon is needed, and the certified margin of the final answer
is itself a usable epsilon for the fixed-epsilon program.  Cuts found while
answering one probe are pooled and seed all later probes, and each probe's
root LP derives from the previous probe's: its rows only gain the new pool
cuts and the cardinality row's right-hand side.
"""

from __future__ import annotations

import time

import numpy as np

from .cuts import CutPool
from .elastic import chinneck_cover
from .engine import (BranchCutEngine, DepthResult, EngineConfig, MipForm,
                     MipModel, SolveStats, _Budget, _finalize, _info_log,
                     _non_cover)
from .model import InfeasibleSystem, ParamBounds

__all__ = ["solve_depth_binary"]


def _box_scaled_margin(sys: InfeasibleSystem, cover,
                       direction: np.ndarray) -> float:
    """Smallest non-cover row margin after scaling the direction onto the
    boundary of the [-1, 1]^d box, i.e. an epsilon the fixed-epsilon program
    could safely use."""

    keep = _non_cover(sys, cover)
    if not keep.any() or not np.any(direction):
        return 0.0
    scaled = direction * (1.0 / np.max(np.abs(direction)))
    return float(np.min(sys.rows[keep] @ scaled))


def solve_depth_binary(sys: InfeasibleSystem, cfg: EngineConfig | None = None,
                       pool: CutPool | None = None) -> DepthResult:
    """Bisection driver: lower = 1, upper = heuristic cover weight, probe the
    midpoint guess until the interval closes.  A heuristic cover of weight
    0 or 1 runs no probe; one the row mean closes runs no LP at all.

    A probe that finds no witness (no integral node with a margin above
    ``engine.EPS_POS``) proves the depth exceeds the guess; a witness pulls
    the upper bound down and is remembered as the certificate.  At most
    ceil(log2(initial upper)) + 1 probes run.  Every probe shares the
    solve's budget, which the heuristic already draws on, and a spent one
    ends the bisection with the depth bracketed in [lower, upper].
    """

    cfg = cfg or EngineConfig()
    budget = _Budget(cfg)
    stats = SolveStats()
    pool = pool if pool is not None else CutPool()

    best_cover, best_direction, root = chinneck_cover(sys, stats)
    best_cover = frozenset(best_cover)
    upper = sys.weight_of(best_cover)
    stats.heuristic_weight = upper

    log = _info_log(__name__)
    lower = 1
    exact = True
    engine = None
    while lower < upper:
        guess = (lower + upper) // 2
        stats.guesses += 1
        stats.guess_values.append(guess)
        mip = MipModel(sys, ParamBounds.for_system(sys, cfg.epsilon),
                       MipForm.GUESS, guess=guess)
        if log is not None:
            started, nodes0 = time.monotonic(), stats.nodes
        engine = BranchCutEngine(mip, cfg, pool, stats, budget, root,
                                 None if engine is None else engine.root_lp)
        witness, direction, exact = engine.run_guess()
        if exact and witness is None:
            lower = guess + 1
        elif exact:
            upper = guess
            best_cover, best_direction = witness, direction
        if log is not None:
            log.info("probe %d: guess %d, %s, %d nodes, %.2f s, depth in "
                     "[%d, %d]", stats.guesses, guess,
                     "budget spent" if not exact
                     else "no witness" if witness is None else "witness",
                     stats.nodes - nodes0, time.monotonic() - started,
                     lower, upper)
        if not exact:
            break

    result = _finalize(sys, best_cover, best_direction, stats, cfg, budget,
                       exact, upper if exact else lower, 0.0)
    result.epsilon = _box_scaled_margin(sys, best_cover, result.direction)
    return result
