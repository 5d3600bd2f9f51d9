import math

import numpy as np
import pytest

from tukeydepth import elastic
from tukeydepth.elastic import (VIOL_TOL, ElasticSolution, chinneck_cover,
                                greedy_row, solve_elastic)
from tukeydepth.engine import solve_depth
from tukeydepth.model import PointSet, build_system
from tukeydepth.oracle import oracle_depth_2d
from tukeydepth.simplex import INF, LpCounter, LpModel, Sense, solve_lp

from conftest import (count_warm_starts, gaussian_system, screen_system,
                      skewed_arc_system)


def _sinf(sol):
    """The elastic optimum (SINF) of ``sol``: its dual-form objective
    negated, and 0.0 when no row is violated."""

    return -sol.lp.objective_value if sol.ninf else 0.0


def test_elastic_on_surrounding_triangle(simplex_sys):
    sol = solve_elastic(simplex_sys, set())
    assert _sinf(sol) > 0
    assert sol.ninf == 1
    # Hand optimum: push both axis rows to margin 1, pay 1 + sqrt(2) on the
    # third (unit-scaled diagonal) row.
    assert _sinf(sol) == pytest.approx(1 + math.sqrt(2), rel=1e-9)
    assert sol.violations[2] == pytest.approx(1 + math.sqrt(2), rel=1e-9)


def test_elastic_single_row_feasible():
    sys_ = build_system(PointSet(2, [[1, 0]], [0, 0]))
    sol = solve_elastic(sys_, set())
    assert _sinf(sol) == 0.0
    assert sol.ninf == 0
    assert sol.feasible


def test_elastic_all_removed():
    sys_ = build_system(PointSet(2, [[1, 0], [-1, 0]], [0, 0]))
    sol = solve_elastic(sys_, {0, 1})
    assert _sinf(sol) == 0.0
    assert sol.ninf == 0


def test_elastic_weights_scale_objective():
    ps = PointSet(1, [[1], [1], [-1]], [0])
    sys_ = build_system(ps)  # folded: weights [2, 1]
    sol = solve_elastic(sys_, set())
    # Removing nothing: optimum satisfies the weight-2 row, violates the
    # other; the elastic price is w * e = 1 * 2.
    assert _sinf(sol) == pytest.approx(2.0, rel=1e-9)


def test_cover_on_surrounding_triangle(simplex_sys):
    cover, _, _ = chinneck_cover(simplex_sys)
    assert simplex_sys.weight_of(cover) == 1
    post = solve_elastic(simplex_sys, cover)
    assert _sinf(post) <= 1e-9


def test_cover_feasible_system_is_empty(outside_sys):
    assert chinneck_cover(outside_sys)[0] == set()


def test_cover_square_corners(square_sys):
    cover, _, _ = chinneck_cover(square_sys)
    assert square_sys.weight_of(cover) == 2
    post = solve_elastic(square_sys, cover)
    assert _sinf(post) <= 1e-9


@pytest.mark.parametrize("seed", range(12))
def test_cover_feasibility_and_admissibility(seed):
    sys_, depth, _ = gaussian_system(3000 + seed, 8 + seed, 2 + seed % 3)
    cover, _, _ = chinneck_cover(sys_)
    post = solve_elastic(sys_, cover)
    assert _sinf(post) <= 1e-7, "cover must restore feasibility"
    assert sys_.weight_of(cover) + sys_.zero_offset >= depth
    assert len(cover) <= sys_.n_rows


def _reference_greedy_row(sol, rows):
    """``greedy_row`` spelled out: the violated row with the largest
    violation x |sensitivity|, else the row with the largest |sensitivity|,
    the lowest index among equal scores."""

    violated = [j for j in rows if sol.violations[j] > VIOL_TOL]
    if violated:
        scores = {j: sol.violations[j] * abs(sol.sensitivities[j])
                  for j in violated}
    else:
        scores = {j: abs(sol.sensitivities[j]) for j in rows}
    top = max(scores.values())
    return min(j for j, v in scores.items() if v == top)


@pytest.mark.parametrize("seed", range(6))
def test_chinneck_removes_the_greedy_row(seed, monkeypatch):
    """Each step of the heuristic runs one elastic solve: it removes
    ``greedy_row`` of the previous solution over the rows still alive, on
    top of that solution's rows, and starts from that solution's LP."""

    sys_, _, _ = gaussian_system(3100 + seed, 10 + seed, 2 + seed % 3)
    solve = elastic.solve_elastic
    solves = []

    def spy(sys_, removed, counter=None, start=None):
        sol = solve(sys_, removed, counter, start=start)
        solves.append((start, sol))
        return sol

    monkeypatch.setattr(elastic, "solve_elastic", spy)
    cover, x, root = chinneck_cover(sys_)
    assert len(solves) >= 2
    assert solves[0][0] is None and solves[0][1] is root
    steps = [sol for _, sol in solves]
    for prev, (start, sol) in zip(steps, solves[1:]):
        alive = [j for j in range(sys_.n_rows) if j not in prev.removed]
        j = _reference_greedy_row(prev, alive)
        assert greedy_row(prev, alive) == j
        assert prev.violations[j] > VIOL_TOL
        assert sol.removed == prev.removed | {j}
        assert start is prev.lp
    last = steps[-1]
    taken = ({_reference_greedy_row(last, range(sys_.n_rows))}
             if last.ninf else set())
    assert last.ninf <= 1
    assert cover == set(last.removed) | taken
    assert np.array_equal(x, last.x)


def _solution(violations, sensitivities):
    violations = np.asarray(violations, dtype=float)
    return ElasticSolution(int(np.count_nonzero(violations > VIOL_TOL)),
                           violations, np.asarray(sensitivities, dtype=float),
                           np.zeros(2), frozenset())


def test_greedy_row_ties_go_to_the_lowest_index():
    # Rows 1 and 3 tie at violation x |sensitivity| = 1; row 0 has the
    # largest |sensitivity| but is satisfied, row 4 is violated only within
    # VIOL_TOL.
    sol = _solution([0.0, 0.5, 0.25, 2.0, VIOL_TOL / 2],
                    [9.0, -2.0, 4.0, 0.5, 100.0])
    assert greedy_row(sol, range(5)) == 1
    assert greedy_row(sol, [4, 3, 2, 1, 0]) == 1
    assert greedy_row(sol, [0, 2, 3, 4]) == 2
    # With no violated row among the candidates, the largest |sensitivity|
    # wins, the lowest index among equals.
    assert greedy_row(sol, [0, 4]) == 4
    sol = _solution([0.0] * 4, [1.0, -3.0, 3.0, 2.0])
    assert greedy_row(sol, [3, 2, 1]) == 1
    assert greedy_row(sol, [0, 3]) == 3


def test_chinneck_breaks_ties_to_the_lowest_alive_row(square_sys, monkeypatch):
    """The square's four corner rows tie exactly at the root: the heuristic
    takes row 0, then the lowest-index best row among those left."""

    calls = []
    pick = elastic.greedy_row

    def spy(sol, rows):
        rows = list(rows)
        j = pick(sol, rows)
        calls.append((rows, j))
        return j

    monkeypatch.setattr(elastic, "greedy_row", spy)
    root = solve_elastic(square_sys, set())
    assert np.all(root.violations == root.violations[0])
    assert np.all(root.sensitivities == root.sensitivities[0])
    cover, _, _ = chinneck_cover(square_sys)
    assert calls[0] == ([0, 1, 2, 3], 0)
    removed = {0}
    for rows, j in calls[1:]:
        assert rows == [k for k in range(4) if k not in removed]
        assert j == _reference_greedy_row(solve_elastic(square_sys, removed),
                                          rows)
        removed.add(j)
    assert cover == removed and square_sys.weight_of(cover) == 2


def _two_candidate_cover(sys_):
    """The heuristic with a candidate list of two, as it stood before the
    list was cut to one: each step tries removing the top violated and the
    top satisfied row (each scored as by ``greedy_row``) and keeps the trial
    with the smaller SINF."""

    cover = set()
    sol = solve_elastic(sys_, cover)
    while sol.ninf > 0:
        alive = [j for j in range(sys_.n_rows) if j not in cover]
        violated = [j for j in alive if sol.violations[j] > VIOL_TOL]
        if len(violated) == 1:
            cover.add(violated[0])
            break
        satisfied = [j for j in alive if j not in violated]
        candidates = sorted(_reference_greedy_row(sol, group)
                            for group in (violated, satisfied) if group)
        best = None
        for j in candidates:
            trial = solve_elastic(sys_, cover | {j}, start=sol.lp)
            if best is None or _sinf(trial) < _sinf(best[1]) - 1e-12:
                best = (j, trial)
        cover.add(best[0])
        sol = best[1]
    return cover


def _corpus_system(i):
    # The acceptance corpus recipe (bench/workloads.corpus_shape).
    return gaussian_system(10_000 + i, 8 + (i * 7) % 23, 2 + i % 4)[0]


def _duplicate_grid_system(seed):
    """Integer points in {-2..2}^d against the origin, a third of them
    repeated: duplicates, points on the query and rows in no general
    position."""

    rng = np.random.default_rng(4400 + seed)
    d = 2 + seed % 3
    pts = rng.integers(-2, 3, size=(int(rng.integers(8, 25)), d))
    pts = np.vstack([pts, pts[rng.integers(0, len(pts), len(pts) // 3)]])
    return build_system(PointSet(d, pts.astype(float), np.zeros(d)))


@pytest.mark.parametrize("draw", [
    *(pytest.param(lambda i=i: _corpus_system(i), id=f"corpus-{i}")
      for i in range(0, 200, 7)),
    *(pytest.param(lambda s=s: _duplicate_grid_system(s), id=f"grid-{s}")
      for s in range(30)),
])
def test_cover_never_heavier_than_two_candidates(draw):
    sys_ = draw()
    cover, x, _ = chinneck_cover(sys_)
    assert solve_elastic(sys_, cover).ninf == 0
    off = [j for j in range(sys_.n_rows) if j not in cover]
    assert np.all(sys_.rows[off] @ x >= 1 - VIOL_TOL)
    assert sys_.weight_of(cover) <= sys_.weight_of(_two_candidate_cover(sys_))


def test_one_row_list_can_be_heavier_on_a_degenerate_grid():
    """The one-row list is a heuristic, not a dominance: on this duplicate
    grid (one of 300 seeds of the recipe above; 264 gave equal weights, 35 a
    lighter cover, this one a heavier) it deletes weight 6 where two
    candidates reach 5, the depth.  The exact solver still closes at 5."""

    sys_ = _duplicate_grid_system(266)
    assert sys_.weight_of(chinneck_cover(sys_)[0]) == 6
    assert sys_.weight_of(_two_candidate_cover(sys_)) == 5
    result = solve_depth(sys_)
    assert result.depth == 5 and result.exact


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
            assert _sinf(sol) == pytest.approx(ref_sinf, abs=1e-9, rel=1e-9)
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
    leave at most 2d + 2 dual pivots."""

    pivots = []
    solve = elastic.solve_lp

    def spy(*args, **kwargs):
        sol = solve(*args, **kwargs)
        pivots.append(sol.dual_pivots)
        return sol

    monkeypatch.setattr(elastic, "solve_lp", spy)
    for seed in range(1, 4):
        for k in range(d - 2, 40, 2):
            sys_ = screen_system(k, seed)
            assert sys_.n_rows == 200
            assert solve_elastic(sys_, set()).ninf == 0
    assert len(pivots) == 60
    assert max(pivots) <= 2 * d + 2


def _counted_cover(sys_):
    counter = LpCounter()
    return chinneck_cover(sys_, counter), counter.lps


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
