import math

import numpy as np
import pytest

from tukeydepth import elastic
from tukeydepth.elastic import (VIOL_TOL, _fast_candidates, chinneck_cover,
                                solve_elastic)
from tukeydepth.model import PointSet, build_system
from tukeydepth.oracle import oracle_depth_2d
from tukeydepth.simplex import INF, LpCounter, LpModel, Sense, solve_lp

from conftest import (count_warm_starts, gaussian_system, screen_system,
                      skewed_arc_system)


def test_elastic_on_surrounding_triangle(simplex_sys):
    sol = solve_elastic(simplex_sys, set())
    assert sol.sinf > 0
    assert sol.ninf == 1
    # Hand optimum: push both axis rows to margin 1, pay 1 + sqrt(2) on the
    # third (unit-scaled diagonal) row.
    assert sol.sinf == pytest.approx(1 + math.sqrt(2), rel=1e-9)
    assert sol.violations[2] == pytest.approx(1 + math.sqrt(2), rel=1e-9)


def test_elastic_single_row_feasible():
    sys_ = build_system(PointSet(2, [[1, 0]], [0, 0]))
    sol = solve_elastic(sys_, set())
    assert sol.sinf == 0.0
    assert sol.ninf == 0
    assert sol.feasible


def test_elastic_all_removed():
    sys_ = build_system(PointSet(2, [[1, 0], [-1, 0]], [0, 0]))
    sol = solve_elastic(sys_, {0, 1})
    assert sol.sinf == 0.0
    assert sol.ninf == 0


def test_elastic_weights_scale_objective():
    ps = PointSet(1, [[1], [1], [-1]], [0])
    sys_ = build_system(ps)  # folded: weights [2, 1]
    sol = solve_elastic(sys_, set())
    # Removing nothing: optimum satisfies the weight-2 row, violates the
    # other; the elastic price is w * e = 1 * 2.
    assert sol.sinf == pytest.approx(2.0, rel=1e-9)


def test_cover_on_surrounding_triangle(simplex_sys):
    cover, _, _ = chinneck_cover(simplex_sys)
    assert simplex_sys.weight_of(cover) == 1
    post = solve_elastic(simplex_sys, cover)
    assert post.sinf <= 1e-9


def test_cover_feasible_system_is_empty(outside_sys):
    assert chinneck_cover(outside_sys)[0] == set()


def test_cover_square_corners(square_sys):
    cover, _, _ = chinneck_cover(square_sys)
    assert square_sys.weight_of(cover) == 2
    post = solve_elastic(square_sys, cover)
    assert post.sinf <= 1e-9


@pytest.mark.parametrize("seed", range(12))
def test_cover_feasibility_and_admissibility(seed):
    sys_, depth, _ = gaussian_system(3000 + seed, 8 + seed, 2 + seed % 3)
    cover, _, _ = chinneck_cover(sys_)
    post = solve_elastic(sys_, cover)
    assert post.sinf <= 1e-7, "cover must restore feasibility"
    assert sys_.weight_of(cover) + sys_.zero_offset >= depth
    assert len(cover) <= sys_.n_rows


def test_fast_candidates_contain_full_with_big_k(simplex_sys, square_sys):
    for sys_ in (simplex_sys, square_sys):
        sol = solve_elastic(sys_, set())
        alive = list(range(sys_.n_rows))
        fast = _fast_candidates(sol, alive, sys_.n_rows)
        full = [j for j in alive if sol.violations[j] > VIOL_TOL]
        assert set(full) <= set(fast)


def _top_candidates(sol, alive):
    """The violated row with the largest violation x |sensitivity| and the
    satisfied row with the largest |sensitivity|, each the lowest index
    among equal scores."""

    picked = set()
    for violated in (True, False):
        scores = {j: (sol.violations[j] * abs(sol.sensitivities[j])
                      if violated else abs(sol.sensitivities[j]))
                  for j in alive if (sol.violations[j] > VIOL_TOL) == violated}
        if scores:
            top = max(scores.values())
            picked.add(min(j for j, v in scores.items() if v == top))
    return picked


@pytest.mark.parametrize("seed", range(6))
def test_chinneck_tries_the_top_candidates(seed, monkeypatch):
    """Each step of the heuristic tries exactly the top violated and the
    top satisfied row of the step's elastic solution, each trial removing
    one of them on top of that solution's rows."""

    sys_, _, _ = gaussian_system(3100 + seed, 10 + seed, 2 + seed % 3)
    solve = elastic.solve_elastic
    solved, trials = {}, {}

    def spy(sys_, removed, counter=None, start=None):
        sol = solve(sys_, removed, counter, start=start)
        solved[id(sol.lp)] = sol
        if start is not None:
            trials.setdefault(id(start), set()).add(frozenset(removed))
        return sol

    monkeypatch.setattr(elastic, "solve_elastic", spy)
    chinneck_cover(sys_)
    assert trials
    for key, removed_sets in trials.items():
        step = solved[key]
        alive = [j for j in range(sys_.n_rows) if j not in step.removed]
        expected = _top_candidates(step, alive)
        assert _fast_candidates(step, alive, 1) == sorted(expected)
        assert removed_sets == {step.removed | {j} for j in expected}


def test_cover_weighted_duplicates():
    # Nine-fold duplicated surrounding triangle: the cover must pay weights.
    pts = [[1, 0]] * 3 + [[0, 1]] * 3 + [[-1, -1]] * 3
    sys_ = build_system(PointSet(2, pts, [0, 0]))
    assert sys_.n_rows == 3
    cover, _, _ = chinneck_cover(sys_)
    assert sys_.weight_of(cover) == 3
    assert oracle_depth_2d(sys_) == 3


def _row_form(sys_, removed):
    """min w.e over <a_j, x> + e_j >= 1 on the rows outside ``removed``,
    x free and e >= 0: one row per active data point."""

    active = [j for j in range(sys_.n_rows) if j not in removed]
    d, k = sys_.dim, len(active)
    A = np.zeros((k, d + k))
    A[:, :d] = sys_.rows[active]
    A[np.arange(k), d + np.arange(k)] = 1.0
    model = LpModel(np.concatenate([np.zeros(d), sys_.weights[active]]), A,
                    [Sense.GE] * k, np.ones(k),
                    np.concatenate([np.full(d, -INF), np.zeros(k)]),
                    np.full(d + k, INF))
    return model, active


@pytest.mark.parametrize("seed", range(8))
def test_dual_form_matches_row_form(seed, monkeypatch):
    """The dual-form elastic LP, cold and warm from the solution over a
    subset of its removed rows, reaches the row form's SINF and NINF; its
    violations are the row form's elastic values."""

    rng = np.random.default_rng(9100 + seed)
    sys_, _, _ = gaussian_system(9100 + seed, int(rng.integers(10, 31)),
                                 2 + seed % 4)
    n = sys_.n_rows
    accepted = count_warm_starts(monkeypatch)
    for _ in range(6):
        removed = frozenset(int(j) for j in rng.choice(
            n, size=int(rng.integers(0, n // 2 + 1)), replace=False))
        sub = frozenset(j for j in removed if rng.random() < 0.5)
        model, active = _row_form(sys_, removed)
        ref = solve_lp(model)
        e = ref.primal[sys_.dim:]
        ref_ninf = int(np.count_nonzero(e > VIOL_TOL))
        ref_sinf = ref.objective_value if ref_ninf else 0.0
        parent = solve_elastic(sys_, sub)
        cold = solve_elastic(sys_, removed)
        warm = solve_elastic(sys_, removed, start=parent.lp.basis_status)
        assert accepted[-1]
        for sol in (cold, warm):
            assert sol.removed == removed
            assert sol.ninf == ref_ninf
            assert sol.sinf == pytest.approx(ref_sinf, abs=1e-9, rel=1e-9)
            assert np.allclose(sol.violations[active], e, atol=1e-9)
            assert not sol.violations[list(removed)].any()
            assert not sol.sensitivities[list(removed)].any()


@pytest.mark.parametrize("seed", range(6))
def test_chinneck_trials_start_warm(seed, monkeypatch):
    """Every elastic solve of the heuristic after its first starts from the
    basis of the solution it extends, and every such start is accepted."""

    sys_, _, _ = gaussian_system(9200 + seed, 14 + 2 * seed, 2 + seed % 3)
    accepted = count_warm_starts(monkeypatch)
    calls = []
    solve = elastic.solve_elastic

    def spy(*args, **kwargs):
        calls.append(kwargs.get("start") is not None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(elastic, "solve_elastic", spy)
    chinneck_cover(sys_)
    assert len(calls) > 2
    assert calls == [False] + [True] * (len(calls) - 1)
    assert accepted == [True] * (len(calls) - 1)


@pytest.mark.parametrize("d", [2, 3])
def test_cold_wide_elastic_takes_few_pivots(d, monkeypatch):
    """Cold elastic LPs over 200-point clouds whose query is the outermost
    point, drawn as the screening benchmark draws them: the bound flips
    leave at most 2d + 2 dual pivots, and no primal pivot."""

    pivots = []
    solve = elastic.solve_lp

    def spy(*args, **kwargs):
        sol = solve(*args, **kwargs)
        pivots.append((sol.dual_pivots, sol.primal_pivots))
        return sol

    monkeypatch.setattr(elastic, "solve_lp", spy)
    for seed in range(1, 4):
        for k in range(d - 2, 40, 2):
            sys_ = screen_system(k, seed)
            assert sys_.n_rows == 200
            assert solve_elastic(sys_, set()).ninf == 0
    assert len(pivots) == 60
    assert max(p for p, _ in pivots) <= 2 * d + 2
    assert not any(p for _, p in pivots)


def _counted_cover(sys_):
    counter = LpCounter()
    return chinneck_cover(sys_, counter), counter.count


@pytest.mark.parametrize("k", range(4))
def test_row_mean_closes_outermost_query(k):
    sys_ = screen_system(k)
    (cover, x, root), lps = _counted_cover(sys_)
    assert cover == set() and root is None and lps == 0
    assert np.all(sys_.rows @ x >= 1 - VIOL_TOL)
    mean = sys_.weights @ sys_.rows
    assert np.allclose(x / np.linalg.norm(x), mean / np.linalg.norm(mean))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_row_mean_one_dimensional(sign):
    sys_ = build_system(PointSet(1, sign * np.array([[3.0], [1.0], [1.0]]),
                                 [0.0]))
    (cover, x, root), lps = _counted_cover(sys_)
    assert (cover, root, lps) == (set(), None, 0)
    assert x[0] == sign


def test_row_mean_misses_two_sided_line():
    sys_ = build_system(PointSet(1, [[3.0], [1.0], [-1.0]], [0.0]))
    (cover, _, root), lps = _counted_cover(sys_)
    assert sys_.weight_of(cover) == 1
    assert root is not None and lps >= 1


def test_row_mean_missing_skewed_arc_falls_to_lp():
    sys_ = skewed_arc_system()
    assert np.min(sys_.rows @ (sys_.weights @ sys_.rows)) < 0
    (cover, x, root), lps = _counted_cover(sys_)
    assert cover == set() and root is not None and lps >= 1
    assert np.all(sys_.rows @ x >= 1 - VIOL_TOL)


def test_row_mean_margin_below_tolerance_takes_lp():
    """A mean whose smallest unit margin is positive but below VIOL_TOL
    (here about 2.5e-8) is not trusted as a proof: the elastic LP decides."""

    eps = 5e-8
    sys_ = build_system(PointSet(2, [[1.0, 0.0], [-1.0, eps]], [0.0, 0.0]))
    mean = sys_.weights @ sys_.rows
    low = np.min(sys_.rows @ mean) / np.linalg.norm(mean)
    assert 0 < low < VIOL_TOL
    (cover, x, root), lps = _counted_cover(sys_)
    assert root is not None and lps >= 1
    assert np.all(sys_.rows[[j for j in range(2) if j not in cover]] @ x
                  >= 1 - VIOL_TOL)
