import itertools
import math
import tracemalloc

import numpy as np
import pytest

from tukeydepth import oracle
from tukeydepth.model import InfeasibleSystem, PointSet, build_system
from tukeydepth.oracle import (GP_TOL, GeneralPositionError, is_depth_zero,
                               oracle_depth_2d, oracle_depth_general)

from conftest import gaussian_system, outside_hull_system, screen_system


def test_planar_examples(simplex_sys, square_sys, outside_sys):
    assert oracle_depth_2d(simplex_sys) == 1
    assert oracle_depth_2d(square_sys) == 2
    assert oracle_depth_2d(outside_sys) == 0


def test_planar_requires_dim2():
    sys_ = build_system(PointSet(3, [[1, 0, 0]], [0, 0, 0]))
    with pytest.raises(ValueError):
        oracle_depth_2d(sys_)


def test_one_dimensional_counts():
    sys_ = build_system(PointSet(1, [[-1], [1], [2]], [0]))
    assert oracle_depth_general(sys_) == 1
    lop = build_system(PointSet(1, [[5], [7]], [6]))
    assert oracle_depth_general(lop) == 1


def test_regular_tetrahedron_depth_one():
    pts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                   dtype=float)
    sys_ = build_system(PointSet(3, pts, np.zeros(3)))
    assert oracle_depth_general(sys_) == 1


def test_few_rows_is_depth_zero():
    sys_ = build_system(PointSet(3, [[1, 0, 0], [0, 1, 0]], [0, 0, 0]))
    assert oracle_depth_general(sys_) == 0
    lone = build_system(PointSet(4, [[1.0, 2.0, 3.0, 4.0]], [0, 0, 0, 0]))
    assert oracle_depth_general(lone) == 0


def test_zero_offset_added():
    ps = PointSet(2, [[1, 0], [0, 1], [-1, -1], [0, 0]], [0, 0])
    sys_ = build_system(ps)
    assert sys_.zero_offset == 1
    assert oracle_depth_2d(sys_) == 2
    assert oracle_depth_general(sys_) == 2


def test_degenerate_inputs_rejected(square_sys):
    # Antipodal rows share a line through the origin.
    with pytest.raises(GeneralPositionError):
        oracle_depth_general(square_sys)
    dup = InfeasibleSystem(3, [[1, 0, 0], [2, 0, 0], [0, 1, 0]], [1, 1, 1])
    with pytest.raises(GeneralPositionError):
        oracle_depth_general(dup)


def test_empty_system():
    empty = InfeasibleSystem(2, np.zeros((0, 2)), np.zeros(0, dtype=int),
                             zero_offset=3)
    assert oracle_depth_general(empty) == 3
    assert oracle_depth_2d(empty) == 3
    assert not is_depth_zero(empty)


@pytest.mark.parametrize("seed", range(100))
def test_sweep_matches_enumeration(seed):
    rng = np.random.default_rng(8800 + seed)
    n = int(rng.integers(3, 21))
    sys_, depth, _ = gaussian_system(8800 + seed, n, 2)
    assert oracle_depth_2d(sys_) == depth


@pytest.mark.parametrize("seed", range(10))
def test_affine_invariance(seed):
    sys_, depth, pts = gaussian_system(9100 + seed, 12, 3)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        while True:
            L = rng.normal(size=(3, 3))
            if np.linalg.cond(L) < 25:
                break
        mapped = build_system(PointSet(3, pts @ L.T, np.zeros(3)))
        assert oracle_depth_general(mapped) == depth


def test_depth_zero_examples(simplex_sys, outside_sys):
    assert is_depth_zero(outside_sys)
    assert not is_depth_zero(simplex_sys)
    with_zero = build_system(PointSet(2, [[1, 0], [0, 0]], [0, 0]))
    assert with_zero.zero_offset == 1
    assert not is_depth_zero(with_zero)


@pytest.mark.parametrize("seed", range(20))
def test_depth_zero_matches_oracle(seed):
    if seed < 10:
        sys_ = outside_hull_system(9400 + seed, 8 + seed, 2 + seed % 3)
        depth = oracle_depth_general(sys_)
    else:
        sys_, depth, _ = gaussian_system(9500 + seed, 10, 2 + seed % 3)
    assert is_depth_zero(sys_) == (depth == 0)


def test_depth_range():
    for seed in range(5):
        sys_, depth, _ = gaussian_system(9700 + seed, 11, 2)
        assert 0 <= depth <= sys_.total_weight


def det_normals(rows: np.ndarray, combos: np.ndarray) -> np.ndarray:
    """Reference: the cofactor normals of each (d-1)-subset by one LAPACK
    determinant per column, with the same norm test and normalization as
    the oracle."""

    d = rows.shape[1]
    mats = rows[combos]  # (K, d-1, d)
    normals = np.empty((mats.shape[0], d))
    cols = np.arange(d)
    for i in range(d):
        normals[:, i] = ((-1.0) ** i) * np.linalg.det(mats[:, :, cols != i])
    norms = np.linalg.norm(normals, axis=1)
    if np.any(norms <= GP_TOL):
        raise GeneralPositionError("a (d-1)-subset is linearly dependent")
    return normals / norms[:, None]


def unchunked_depth(sys_: InfeasibleSystem) -> int:
    """Reference: the enumeration in its direct form, every (d-1)-subset,
    determinant-based normal and inner product at once, with the on-plane
    test on |dot| and int64 weight sums.  Defined for d >= 2 and more rows
    than dimensions."""

    d, gp_tol = sys_.dim, GP_TOL
    rows = oracle._unit_rows(sys_)
    combos = np.array(list(itertools.combinations(range(sys_.n_rows), d - 1)))
    normals = det_normals(rows, combos)
    dots = normals @ rows.T
    if int((np.abs(dots) <= gp_tol).sum(axis=1).max()) >= d:
        raise GeneralPositionError("d or more rows on a hyperplane")
    w = sys_.weights.astype(np.int64)
    neg = (dots < -gp_tol) @ w
    pos = (dots > gp_tol) @ w
    return int(min(neg.min(), pos.min())) + sys_.zero_offset


def verdict(depth_fn, sys_):
    try:
        return depth_fn(sys_)
    except GeneralPositionError:
        return "rejected"


def chunks(n_rows: int, d: int) -> int:
    per_chunk = max(1, oracle._CHUNK_ENTRIES // n_rows)
    return -(-math.comb(n_rows, d - 1) // per_chunk)


@pytest.mark.parametrize("n, d", [(500, 2), (120, 3), (50, 4), (26, 5)])
def test_chunked_matches_unchunked_over_many_chunks(n, d):
    assert chunks(n, d) >= 3
    for seed in range(2):
        pts = np.random.default_rng([n, d, seed]).normal(size=(n, d))
        sys_ = build_system(PointSet(d, pts, np.zeros(d)))
        assert verdict(oracle_depth_general, sys_) == \
            verdict(unchunked_depth, sys_)


@pytest.mark.parametrize("chunk_entries", [1, 37, 64])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_chunk_boundaries_do_not_change_the_answer(chunk_entries, d,
                                                   monkeypatch):
    """Chunks of one subset, and chunks that leave a short last one, on
    clouds, clouds with folded duplicates and integer grids, of which many
    are rejected as degenerate."""

    monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", chunk_entries)
    rng = np.random.default_rng([chunk_entries, d])
    grid = np.array(list(itertools.product(range(-2, 3), repeat=d)), float)
    verdicts = set()
    for _ in range(12):
        pts = rng.normal(size=(int(rng.integers(d + 1, 13)), d))
        dup = pts[rng.integers(0, len(pts), size=4)]
        on_grid = grid[rng.choice(len(grid), size=d + 3, replace=False)]
        for cloud in (pts, np.vstack([pts, dup]), on_grid):
            sys_ = build_system(PointSet(d, cloud, np.zeros(d)))
            expected = verdict(unchunked_depth, sys_)
            assert verdict(oracle_depth_general, sys_) == expected
            verdicts.add(expected == "rejected")
    assert verdicts == {True, False}


def test_folded_duplicate_weights_match_unchunked():
    for d, n in [(2, 400), (3, 150), (4, 40)]:
        rng = np.random.default_rng(d)
        base = rng.normal(size=(n, d))
        pts = np.vstack([base, base[rng.integers(0, n, size=n)]])
        sys_ = build_system(PointSet(d, pts, np.zeros(d)))
        assert sys_.weights.max() > 1
        assert chunks(sys_.n_rows, d) >= 2
        assert oracle_depth_general(sys_) == unchunked_depth(sys_)


def test_weights_past_float_precision_stay_exact():
    """Side weights near 2**57 are summed in int64: float64 sums would
    round away their low bits."""

    rng = np.random.default_rng(5)
    for d in (2, 3):
        rows = rng.normal(size=(30, d))
        weights = rng.integers(2 ** 56, 2 ** 57, size=30) | 1
        sys_ = InfeasibleSystem(d, rows, weights)
        assert oracle_depth_general(sys_) == unchunked_depth(sys_)


@pytest.mark.parametrize("d, n", [(3, 200), (4, 60)])
def test_degenerate_subset_in_last_chunk_is_still_rejected(d, n):
    """Every row leans toward +e1, so the depth is 0 from the first chunk
    on; the last d rows lie on one hyperplane through the origin, which
    only the last d subsets can see.  The pass must still reach them."""

    rng = np.random.default_rng(d)
    rows = rng.normal(size=(n, d))
    rows[:, 0] = np.abs(rows[:, 0]) + 0.5
    rows[-1] = rows[-d:-1].sum(axis=0)
    sys_ = InfeasibleSystem(d, rows, np.ones(n, dtype=np.int64))
    per_chunk = oracle._CHUNK_ENTRIES // n
    assert math.comb(n, d - 1) - d >= per_chunk  # past the first chunk
    with pytest.raises(GeneralPositionError):
        unchunked_depth(sys_)
    with pytest.raises(GeneralPositionError):
        oracle_depth_general(sys_)
    healthy = InfeasibleSystem(d, rows[:-1], np.ones(n - 1, dtype=np.int64))
    assert oracle_depth_general(healthy) == 0


@pytest.mark.parametrize("n, d", [(200, 3), (24, 6)])
def test_memory_is_bounded_by_one_chunk(n, d):
    """A 200-point cloud in d=3 has 19900 subsets; built at once their
    normals and dot matrix took about 70 MB.  At n=24, d=6 (42504 subsets)
    the expansion holds two levels of one chunk's minors, at most 35
    vectors, at a time."""

    sys_, _, _ = gaussian_system(9900, n, d)
    tracemalloc.start()
    try:
        oracle_depth_general(sys_)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("d", range(2, 9))
def test_expanded_normals_match_determinants(d):
    rng = np.random.default_rng(d)
    rows = rng.normal(size=(3 * d, d))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    combos = np.array([rng.choice(len(rows), d - 1, replace=False)
                       for _ in range(400)])
    expanded = oracle._subset_normals(np.ascontiguousarray(rows.T), combos)
    reference = det_normals(rows, combos)
    assert np.abs(expanded - reference).max() <= 1e-12
    assert np.all(np.sum(expanded * reference, axis=1) > 0)
    if d == 2:
        # The exact cofactors (a1, -a0); the determinant reference is not
        # bit-exact even here, as numpy returns sign * exp(log|det|).
        a = rows[combos[:, 0]]
        exact = np.column_stack([a[:, 1], -a[:, 0]])
        exact /= np.linalg.norm(exact, axis=1)[:, None]
        assert np.array_equal(expanded, exact)


@pytest.mark.parametrize("d", range(2, 7))
def test_enumeration_needs_no_determinant(d, monkeypatch):
    sys_, _, _ = gaussian_system(9950 + d, 2 * d + 4, d)
    expected = unchunked_depth(sys_)

    def no_det(*args, **kwargs):
        raise AssertionError("np.linalg.det called")

    monkeypatch.setattr(np.linalg, "det", no_det)
    assert oracle_depth_general(sys_) == expected


def corpus_draw(i: int, attempt: int) -> InfeasibleSystem:
    """Attempt `attempt` of acceptance-corpus instance i: a Gaussian cloud
    of n = 8 + 7i mod 23 points in d = 2 + i mod 4 from seed
    10_000 + i + 7919 * attempt, against the origin."""

    n, d = 8 + (i * 7) % 23, 2 + i % 4
    rng = np.random.default_rng(10_000 + i + 7919 * attempt)
    return build_system(PointSet(d, rng.normal(size=(n, d)), np.zeros(d)))


@pytest.mark.parametrize("i", range(0, 200, 7))
def test_corpus_draws_match_determinant_reference(i):
    """The benchmark redraws a cloud whenever the oracle rejects it, so one
    flipped verdict would change its instances."""

    for attempt in range(3):
        sys_ = corpus_draw(i, attempt)
        assert verdict(oracle_depth_general, sys_) == \
            verdict(unchunked_depth, sys_)


@pytest.mark.parametrize("k", range(6))
def test_screen_draws_match_determinant_reference(k):
    for attempt in range(3):
        sys_ = screen_system(k, 1, attempt)
        assert verdict(oracle_depth_general, sys_) == \
            verdict(unchunked_depth, sys_)
