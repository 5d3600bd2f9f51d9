import math

import pytest

from tukeydepth.elastic import _fast_candidates, chinneck_cover, solve_elastic
from tukeydepth.model import PointSet, build_system
from tukeydepth.oracle import oracle_depth_2d

from conftest import gaussian_system


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
    for variant in ("full", "fast"):
        cover = chinneck_cover(simplex_sys, variant, 1)
        assert simplex_sys.weight_of(cover) == 1
        post = solve_elastic(simplex_sys, cover)
        assert post.sinf <= 1e-9


def test_cover_feasible_system_is_empty(outside_sys):
    assert chinneck_cover(outside_sys, "fast", 1) == set()


def test_cover_square_corners(square_sys):
    cover = chinneck_cover(square_sys, "fast", 1)
    assert square_sys.weight_of(cover) == 2
    post = solve_elastic(square_sys, cover)
    assert post.sinf <= 1e-9


def test_unknown_variant_rejected(simplex_sys):
    with pytest.raises(ValueError):
        chinneck_cover(simplex_sys, "greedy", 1)


@pytest.mark.parametrize("seed", range(12))
def test_cover_feasibility_and_admissibility(seed):
    sys_, depth, _ = gaussian_system(3000 + seed, 8 + seed, 2 + seed % 3)
    for variant in ("full", "fast"):
        cover = chinneck_cover(sys_, variant, 1)
        post = solve_elastic(sys_, cover)
        assert post.sinf <= 1e-7, "cover must restore feasibility"
        assert sys_.weight_of(cover) + sys_.zero_offset >= depth
        assert len(cover) <= sys_.n_rows


def test_fast_candidates_contain_full_with_big_k(simplex_sys, square_sys):
    for sys_ in (simplex_sys, square_sys):
        sol = solve_elastic(sys_, set())
        alive = list(range(sys_.n_rows))
        fast = _fast_candidates(sol, alive, sys_.n_rows, 1e-7)
        full = [j for j in alive if sol.violations[j] > 1e-7]
        assert set(full) <= set(fast)


def test_cover_weighted_duplicates():
    # Nine-fold duplicated surrounding triangle: the cover must pay weights.
    pts = [[1, 0]] * 3 + [[0, 1]] * 3 + [[-1, -1]] * 3
    sys_ = build_system(PointSet(2, pts, [0, 0]))
    assert sys_.n_rows == 3
    cover = chinneck_cover(sys_, "fast", 1)
    assert sys_.weight_of(cover) == 3
    assert oracle_depth_2d(sys_) == 3


@pytest.mark.parametrize("k", [0, -1])
def test_chinneck_rejects_k_below_one(square_sys, k):
    with pytest.raises(ValueError, match="at least 1"):
        chinneck_cover(square_sys, "fast", k)
