import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tukeydepth.cuts import Cut, CutPool, bis_cut, generate_cuts
from tukeydepth.model import InfeasibleSystem, PointSet, build_system
from tukeydepth.oracle import oracle_depth_2d, oracle_depth_general

from conftest import gaussian_system


def test_bis_cut_opposed_pair():
    sys_ = build_system(PointSet(1, [[1.0], [-1.0]], [0.0]))
    cut = bis_cut(sys_, {0, 1})
    assert cut is not None
    assert cut.members == (0, 1)


def test_bis_cut_feasible_returns_none():
    sys_ = build_system(PointSet(2, [[1, 0], [0, 1]], [0, 0]))
    assert bis_cut(sys_, {0}) is None
    assert bis_cut(sys_, {0, 1}) is None


def test_bis_cut_surrounding_triangle(simplex_sys):
    cut = bis_cut(simplex_sys, {0, 1, 2})
    assert cut is not None
    assert len(cut.members) <= simplex_sys.dim + 1
    # Any two of these rows admit a common direction, so the only infeasible
    # subsystem is the full triple.
    assert cut.members == (0, 1, 2)


def test_bis_cut_members_tight_and_infeasible():
    from tukeydepth.simplex import INF, LpModel, Sense, solve_lp
    tight_tol = 1e-7
    for seed in range(8):
        sys_, depth, _ = gaussian_system(4200 + seed, 10 + seed, 2 + seed % 3)
        if depth - sys_.zero_offset == 0:
            continue
        cut = bis_cut(sys_, range(sys_.n_rows))
        assert cut is not None
        assert len(cut.members) <= sys_.dim + 1
        # Members alone are still infeasible.
        assert bis_cut(sys_, cut.members) is not None
        # And they sit on the boundary at the full-set phase-1 optimum.
        d = sys_.dim
        k = sys_.n_rows
        A = np.zeros((k, d + 1))
        A[:, :d] = sys_.rows
        A[:, d] = 1.0
        obj = np.zeros(d + 1)
        obj[d] = 1.0
        sol = solve_lp(LpModel(obj, A, [Sense.GE] * k, np.ones(k),
                               np.concatenate([np.full(d, -INF), [0.0]]),
                               np.full(d + 1, INF)))
        activity = A @ sol.primal
        for j in cut.members:
            assert abs(activity[j] - 1.0) <= tight_tol


def _strictly_satisfiable(sys_, members) -> bool:
    """Depth zero of the member rows by the LP-free oracles."""

    sub = InfeasibleSystem(sys_.dim, sys_.rows[list(members)],
                           np.ones(len(members), dtype=int))
    oracle = oracle_depth_2d if sys_.dim == 2 else oracle_depth_general
    return oracle(sub) == 0


@pytest.mark.parametrize("weighted", [False, True], ids=["zero", "values"])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_bis_cut_is_irreducible(dim, weighted):
    """Every cut is an IIS: its members admit no common strict solution, and
    dropping any one of them leaves a set that does."""

    rng = np.random.default_rng(4400 + dim)
    checked = 0
    for seed in range(10):
        sys_, depth, _ = gaussian_system(4400 + 10 * dim + seed,
                                         8 + 2 * seed, dim)
        n = sys_.n_rows
        values = rng.uniform(0, 1, size=n) if weighted else None
        for active in (range(n), rng.choice(n, size=n - 3, replace=False)):
            cut = bis_cut(sys_, active, values=values)
            if cut is None:
                assert _strictly_satisfiable(sys_, sorted(active))
                continue
            assert set(cut.members) <= set(int(j) for j in active)
            assert not _strictly_satisfiable(sys_, cut.members)
            for j in cut.members:
                rest = [i for i in cut.members if i != j]
                assert not rest or _strictly_satisfiable(sys_, rest)
            checked += 1
    assert checked >= 10


def test_generate_cuts_root_fallback(simplex_sys):
    lp_binaries = np.full(3, 1.0 / 3.0)
    cuts = generate_cuts(simplex_sys, lp_binaries, set())
    assert [c.members for c in cuts] == [(0, 1, 2)]


def test_generate_cuts_all_ones_not_violated(simplex_sys):
    cuts = generate_cuts(simplex_sys, np.ones(3), set())
    for cut in cuts:
        assert not cut.violated_by(np.ones(3))


def test_generate_cuts_cover_fixed_leaves_feasible(simplex_sys):
    cuts = generate_cuts(simplex_sys, np.zeros(3), {2})
    assert cuts == []


def test_cut_normalizes_members():
    cut = Cut((3, 1, 1, 2))
    assert cut.members == (1, 2, 3)
    with pytest.raises(ValueError):
        Cut(())


def test_pool_dedup_and_order():
    pool = CutPool()
    assert pool.insert(Cut((0, 1)))
    assert not pool.insert(Cut((1, 0)))
    assert pool.insert(Cut((2,)))
    assert len(pool) == 2
    assert [c.members for c in pool.snapshot()] == [(0, 1), (2,)]
    assert Cut((0, 1)) in pool


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=3),
                max_size=12))
def test_pool_snapshots_extend_earlier_ones(member_lists):
    # A node LP warm-starts from a basis over an earlier snapshot's cut rows,
    # so every later snapshot must begin with every earlier one, duplicates
    # inserted in between or not.
    pool = CutPool()
    snapshots = [pool.snapshot()]
    for members in member_lists:
        pool.insert(Cut(tuple(members)))
        snapshots.append(pool.snapshot())
    for earlier, later in itertools.combinations(snapshots, 2):
        assert later[:len(earlier)] == earlier


def _minimal_covers(sys_):
    n = sys_.n_rows
    covers = []
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            remaining = [j for j in range(n) if j not in combo]
            if not remaining:
                feasible = True
            else:
                subsys = InfeasibleSystem(sys_.dim, sys_.rows[remaining],
                                          np.ones(len(remaining), dtype=int))
                feasible = oracle_depth_general(subsys) == 0
            if feasible:
                covers.append(set(combo))
    return [c for c in covers if not any(o < c for o in covers)]


def test_cut_validity_against_minimal_covers():
    for seed in (11, 13):
        sys_, depth, _ = gaussian_system(5200 + seed, 9, 2)
        if depth == 0:
            continue
        covers = _minimal_covers(sys_)
        produced = [bis_cut(sys_, range(sys_.n_rows))]
        produced += generate_cuts(sys_, np.full(sys_.n_rows, 0.2), set())
        for cut in produced:
            if cut is None:
                continue
            for cover in covers:
                assert cover & set(cut.members), (
                    f"cover {cover} misses cut {cut.members}")
