import math

import numpy as np
import pytest

from tukeydepth.binsearch import solve_depth_binary
from tukeydepth.engine import solve_depth
from tukeydepth.model import (InfeasibleSystem, ParamBounds, PointSet,
                              build_system, compute_bigM, lattice_epsilon)
from tukeydepth.oracle import oracle_depth_2d

from conftest import gaussian_system


def test_build_system_plain():
    ps = PointSet(2, [[1, 0], [0, 1], [-1, -1]], [0, 0])
    sys_ = build_system(ps)
    h = math.sqrt(0.5)
    assert np.allclose(sys_.rows, [[1, 0], [0, 1], [-h, -h]],
                       rtol=0, atol=1e-15)
    assert list(sys_.weights) == [1, 1, 1]
    assert sys_.zero_offset == 0


def test_build_system_folds_duplicates():
    ps = PointSet(2, [[1, 0], [1, 0], [-1, 0]], [0, 0])
    sys_ = build_system(ps)
    assert np.array_equal(sys_.rows, [[1, 0], [-1, 0]])
    assert list(sys_.weights) == [2, 1]


def test_build_system_zero_row_fold():
    ps = PointSet(2, [[3, 4]], [3, 4])
    sys_ = build_system(ps)
    assert sys_.n_rows == 0
    assert sys_.zero_offset == 1


def test_build_system_scaling_normalizes():
    ps = PointSet(2, [[3, 4], [0, 2]], [0, 0])
    sys_ = build_system(ps)
    assert np.allclose(np.linalg.norm(sys_.rows, axis=1), 1.0)


def test_build_system_unfolded_variant():
    ps = PointSet(2, [[1, 0], [1, 0], [0, 1]], [0, 0])
    sys_ = build_system(ps, fold_duplicates=False)
    assert sys_.n_rows == 3
    assert list(sys_.weights) == [1, 1, 1]


def _build_system_per_row(ps: PointSet, fold_duplicates: bool):
    """The row-at-a-time construction that build_system vectorizes."""

    zero_offset = 0
    kept = []
    for row in ps.points - ps.query[None, :]:
        if np.all(row == 0.0):
            zero_offset += 1
            continue
        row = row / np.max(np.abs(row))
        kept.append(row / np.linalg.norm(row))
    rows, weights = [], []
    for row in kept:
        for k, seen in enumerate(rows if fold_duplicates else ()):
            if seen.tobytes() == row.tobytes():
                weights[k] += 1
                break
        else:
            rows.append(row)
            weights.append(1)
    return (np.array(rows, dtype=float).reshape(len(rows), ps.dim),
            np.array(weights, dtype=np.int64), zero_offset)


def _reference_clouds(dim: int):
    """Clouds with zero rows, subnormal rows, repeated rows and wide scales,
    paired with their queries."""

    rng = np.random.default_rng(40 + dim)
    clouds = []
    # At the origin the tiny offsets below stay subnormal rows; elsewhere
    # they round away and leave zero rows.
    for query in (np.zeros(dim), rng.normal(size=dim)):
        clouds.append((np.zeros((0, dim)), query))
        for _ in range(10):
            n = int(rng.integers(1, 60))
            pts = rng.normal(size=(n, dim))
            pts *= 10.0 ** rng.uniform(-8, 8, size=(n, 1))
            pts += query
            picks = rng.integers(0, n, size=int(rng.integers(0, 4)))
            tiny = query + rng.normal(size=(2, dim)) * 5e-324
            pts = np.vstack([pts, pts[picks], np.tile(query, (2, 1)), tiny])
            clouds.append((rng.permutation(pts), query))
    # Every row one point, and no row repeated.
    for query in (np.zeros(dim), rng.normal(size=dim)):
        clouds.append((np.tile(query + rng.normal(size=dim), (7, 1)), query))
        clouds.append((query + rng.normal(size=(30, dim)), query))
    return clouds


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
@pytest.mark.parametrize("fold", [True, False])
def test_build_system_matches_per_row_reference(dim, fold):
    for pts, query in _reference_clouds(dim):
        ps = PointSet(dim, pts, query)
        sys_ = build_system(ps, fold_duplicates=fold)
        rows, weights, zero_offset = _build_system_per_row(ps, fold)
        assert np.array_equal(sys_.rows, rows)
        assert np.array_equal(sys_.weights, weights)
        assert sys_.zero_offset == zero_offset


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
@pytest.mark.parametrize("fold", [True, False])
def test_build_system_result_passes_the_public_checks(dim, fold):
    """``build_system`` hands its arrays over without the constructor's
    copy and checks; they are what those checks would accept and give the
    same bytes as a rebuild through the public constructor."""

    for pts, query in _reference_clouds(dim):
        sys_ = build_system(PointSet(dim, pts, query), fold_duplicates=fold)
        assert sys_.rows.dtype == np.float64 and sys_.rows.ndim == 2
        assert sys_.weights.dtype == np.int64
        assert not sys_.rows.flags.writeable
        assert not sys_.weights.flags.writeable
        assert (sys_.rows != 0.0).any(axis=1).all()
        assert (sys_.weights > 0).all()
        again = InfeasibleSystem(dim, sys_.rows, sys_.weights,
                                 sys_.zero_offset)
        assert again.rows.tobytes() == sys_.rows.tobytes()
        assert again.rows.shape == sys_.rows.shape
        assert again.weights.tobytes() == sys_.weights.tobytes()
        assert again.zero_offset == sys_.zero_offset


@pytest.mark.parametrize("seed", range(4))
def test_fold_keeps_signed_zeros_apart(seed):
    """Duplicates fold in first-occurrence order, and rows that differ only
    in the sign of a zero stay two rows, bit for bit as the loop gives
    them (``np.array_equal`` would call them equal).  Also on a cloud of
    one repeated row and on one where no row repeats."""

    rng = np.random.default_rng(90 + seed)
    base = np.array([[1.0, 0.0, 2.0], [1.0, -0.0, 2.0], [-0.0, 3.0, -0.0],
                     [0.0, 3.0, 0.0], [0.0, 3.0, -0.0], [4.0, -1.0, 0.5]])
    for pts in (base[rng.integers(0, len(base), size=40)],
                np.tile(base[seed], (9, 1)), rng.permutation(base)):
        ps = PointSet(3, pts, np.zeros(3))
        sys_ = build_system(ps)
        rows, weights, zero_offset = _build_system_per_row(ps, True)
        assert sys_.rows.tobytes() == rows.tobytes()
        assert np.array_equal(sys_.weights, weights)
        assert sys_.weights.dtype == np.int64
        assert sys_.zero_offset == zero_offset == 0
        # The base rows are distinct as bytes, and so are their scaled rows.
        assert sys_.n_rows == len({r.tobytes() for r in pts})
        assert sys_.weights.sum() == len(pts)


def test_weight_accounting():
    ps = PointSet(2, [[1, 0], [1, 0], [0, 0], [0, 1]], [0, 0])
    sys_ = build_system(ps)
    assert sys_.total_weight == 4
    assert sys_.zero_offset == 1
    assert int(sys_.weights.sum()) + sys_.zero_offset == ps.n_points


def test_rebuild_idempotent():
    rng = np.random.default_rng(3)
    ps = PointSet(3, rng.normal(size=(6, 3)), rng.normal(size=3))
    first = build_system(ps)
    rescaled = build_system(PointSet(3, first.rows, np.zeros(3)))
    assert np.allclose(first.rows, rescaled.rows, rtol=0, atol=1e-15)
    assert np.array_equal(first.weights, rescaled.weights)


def test_pointset_validation():
    with pytest.raises(ValueError):
        PointSet(0, [[1.0]], [0.0])
    with pytest.raises(ValueError):
        PointSet(2, [[1.0, 2.0]], [0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pointset_rejects_non_finite_coordinates(bad):
    pts = [[1.0, 2.0], [3.0, bad], [0.5, 0.5], [bad, bad]]
    with pytest.raises(ValueError, match="point 1 and 1 more"):
        PointSet(2, pts, [0.0, 0.0])
    with pytest.raises(ValueError, match="point 0 has"):
        PointSet(1, [[bad]], [0.0])
    with pytest.raises(ValueError, match="query"):
        PointSet(2, [[1.0, 2.0]], [bad, 0.0])


def test_pointset_rejects_an_offset_that_overflows():
    with pytest.raises(ValueError, match="point 1 has"):
        PointSet(2, [[0.0, 1.0], [1e308, 0.0], [-1e308, 0.0]], [-1e308, 0.0])
    ps = PointSet(2, [[1e308, 0.0], [-1e308, 1.0]], [0.0, 0.0])
    assert build_system(ps).n_rows == 2


def test_system_validation():
    with pytest.raises(ValueError):
        InfeasibleSystem(2, [[0.0, 0.0]], [1])
    with pytest.raises(ValueError):
        InfeasibleSystem(2, [[1.0, 0.0]], [0])
    with pytest.raises(ValueError):
        InfeasibleSystem(2, [[1.0, 0.0]], [-1])
    with pytest.raises(ValueError):
        InfeasibleSystem(2, [[1.0, 0.0], [0.0, 1.0]], [1])
    with pytest.raises(ValueError):
        InfeasibleSystem(2, [[1.0, 0.0]], [1], zero_offset=-1)


def test_arrays_readonly():
    sys_ = build_system(PointSet(2, [[1, 0]], [0, 0]))
    with pytest.raises(ValueError):
        sys_.rows[0, 0] = 5.0


def test_compute_bigM_examples():
    s1 = InfeasibleSystem(2, [[2.0, 0.0]], [1])
    assert compute_bigM(s1, 1.0) == pytest.approx(math.sqrt(2) * 2, rel=1e-12)
    s2 = build_system(PointSet(5, np.eye(5) * 3.0, np.zeros(5)))
    assert compute_bigM(s2, 1.0) == pytest.approx(math.sqrt(5), rel=1e-12)
    s3 = InfeasibleSystem(2, [[1.0, 0.0], [0.0, 3.0]], [1, 1])
    assert compute_bigM(s3, 2.0) == pytest.approx(math.sqrt(8) * 3, rel=1e-12)


def test_compute_bigM_empty():
    empty = InfeasibleSystem(2, np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError, match="empty system"):
        compute_bigM(empty, 1.0)


def test_lattice_epsilon_planar():
    eps = lattice_epsilon(1.0, 2, 1.0, 1.0)
    h = 1.0 / (2 * math.sqrt(2))
    assert eps == pytest.approx(math.sqrt(2) * (h / math.sqrt(2)), rel=1e-12)
    assert eps == pytest.approx(0.35355, abs=1e-5)


def test_lattice_epsilon_one_dimensional():
    # Exponent zero makes h = 1; the sine is clamped at 1.
    assert lattice_epsilon(0.5, 1, 2.0, 3.0) == pytest.approx(2.0 * 3.0)
    assert lattice_epsilon(4.0, 1, 1.0, 1.0) == pytest.approx(0.25)


def test_lattice_epsilon_small_in_dim3():
    h = (20 * math.sqrt(3)) ** -2
    assert h == pytest.approx(8.33e-4, rel=1e-2)
    eps = lattice_epsilon(10.0, 3, 1.0, 1.0)
    assert eps == pytest.approx(math.sqrt(3) * h / (10 * math.sqrt(3)),
                                rel=1e-12)


def test_param_bounds_validation():
    with pytest.raises(ValueError):
        ParamBounds(c=0.0, bigM=1.0)
    with pytest.raises(ValueError):
        ParamBounds(c=1.0, bigM=1.0, epsilon=-1e-9)


def test_param_bounds_lattice_constructor():
    sys_ = build_system(PointSet(2, [[3, 0], [0, 1], [-2, -2]], [0, 0]))
    b = ParamBounds.with_lattice_epsilon(sys_, m_box=3.0)
    assert b.epsilon == pytest.approx(
        lattice_epsilon(3.0, 2, 1.0, 1.0), rel=1e-12)
    assert b.bigM == pytest.approx(compute_bigM(sys_, 1.0), rel=1e-12)


def test_scaling_preserves_depth():
    """Rescaling each point's offset from the query by a positive factor
    leaves the depth alone, and both solvers prove it exactly at every scale:
    one common factor per cloud from 1e-8 to 1e8, and independent per-point
    factors spread over the same sixteen decades."""

    for seed in range(12):
        _, depth, pts = gaussian_system(9900 + seed, 10 + seed, 2)
        rng = np.random.default_rng(seed)
        factors = [np.full(len(pts), s) for s in (1e-8, 1e-4, 1e4, 1e8)]
        factors.append(10.0 ** rng.uniform(-8, 8, len(pts)))
        for f in factors:
            scaled = build_system(PointSet(2, pts * f[:, None], np.zeros(2)))
            assert oracle_depth_2d(scaled) == depth
            for solve in (solve_depth, solve_depth_binary):
                res = solve(scaled)
                assert res.depth == depth
                assert res.exact and res.certificate == "verified"
