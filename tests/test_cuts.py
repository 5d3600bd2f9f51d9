import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tukeydepth import cuts, engine
from tukeydepth.cuts import (CUT_TOL, Cut, CutPool, bis_cut,
                             generate_cuts)
from tukeydepth.binsearch import solve_depth_binary
from tukeydepth.engine import EngineConfig, solve_depth
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


def _assert_irreducible(sys_, members):
    """An IIS: the members admit no common strict solution, and dropping
    any one of them leaves a set that does."""

    assert not _strictly_satisfiable(sys_, members)
    for j in members:
        rest = [i for i in members if i != j]
        assert not rest or _strictly_satisfiable(sys_, rest)


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
            _assert_irreducible(sys_, cut.members)
            checked += 1
    assert checked >= 10


def _separation_rounds(monkeypatch):
    """(system, values, fixed1, at the root) of every separation round both
    solvers run, in both node selections, on clouds of 14 to 21 points,
    d = 2 to 4.  The engine asks for disjoint cuts exactly at the root."""

    rounds, depths = [], []
    separate = engine.generate_cuts
    bound_and_cut = engine.BranchCutEngine.bound_and_cut

    def spy(sys_, values, fixed1, counter, disjoint):
        root = depths[-1] == 0
        assert disjoint == root
        rounds.append((sys_, values.copy(), frozenset(fixed1), root))
        return separate(sys_, values, fixed1, counter, disjoint)

    def spy_node(self, node, incumbent_weight):
        depths.append(node.tree_depth)
        return bound_and_cut(self, node, incumbent_weight)

    with monkeypatch.context() as patch:
        patch.setattr(engine, "generate_cuts", spy)
        patch.setattr(engine.BranchCutEngine, "bound_and_cut", spy_node)
        for seed in range(8):
            sys_, depth, _ = gaussian_system(4600 + seed, 14 + seed,
                                             2 + seed % 3)
            for select in ("depth-first", "best-first"):
                cfg = EngineConfig(node_selection=select)
                assert solve_depth(sys_, cfg).depth == depth
                assert solve_depth_binary(sys_, cfg).depth == depth
    return rounds


def test_separation_round_returns_distinct_violated_iiss(monkeypatch):
    """On the values of real node relaxations each round returns at most
    ``CUTS_PER_ROUND`` distinct IISs among the rows not fixed to 1.  The
    first is ``bis_cut`` of those values, returned even when they satisfy
    it, and then alone; every later one is violated, and so is the first
    of a batch of more than one."""

    lengths, satisfied_first = [], 0
    for sys_, values, fixed1, _ in _separation_rounds(monkeypatch):
        batch = generate_cuts(sys_, values, fixed1)
        active = [j for j in range(sys_.n_rows) if j not in fixed1]
        assert batch[:1] == [bis_cut(sys_, active, values=values)]
        assert len(batch) <= cuts.CUTS_PER_ROUND
        assert len({c.members for c in batch}) == len(batch)
        for cut in batch:
            assert not set(cut.members) & fixed1
            _assert_irreducible(sys_, cut.members)
        assert all(c.violated_by(values) for c in batch[1:])
        if not batch[0].violated_by(values):
            assert len(batch) == 1
            satisfied_first += 1
        lengths.append(len(batch))
    assert cuts.CUTS_PER_ROUND in lengths and 1 in lengths
    assert satisfied_first > 0


def test_root_separation_round_returns_disjoint_violated_iiss(monkeypatch):
    """At the root, where the engine bounds every member of each cut it
    separates, a round returns pairwise disjoint IISs among the rows not
    fixed to 1.  Each is violated by the relaxation values, unless the
    first is not; then it is the only one, as below the root."""

    lengths = []
    for sys_, values, fixed1, root in _separation_rounds(monkeypatch):
        if not root:
            continue
        batch = generate_cuts(sys_, values, fixed1, disjoint=True)
        assert 1 <= len(batch) <= cuts.CUTS_PER_ROUND
        members = [j for cut in batch for j in cut.members]
        assert len(set(members)) == len(members)
        assert not set(members) & fixed1
        for cut in batch:
            _assert_irreducible(sys_, cut.members)
        if all(cut.violated_by(values) for cut in batch):
            lengths.append(len(batch))
        else:
            assert len(batch) == 1
    assert cuts.CUTS_PER_ROUND in lengths and 1 in lengths


def test_separation_round_stops_at_the_limit(monkeypatch):
    """With every IIS violated (all values 0.1 and at most d + 1 members),
    a round stops at ``CUTS_PER_ROUND`` cuts or when its LP turns
    infeasible; a larger limit lets the same rounds return more."""

    default = cuts.CUTS_PER_ROUND
    counts = {}
    for limit in (default, 2 * default):
        monkeypatch.setattr(cuts, "CUTS_PER_ROUND", limit)
        counts[limit] = []
        for seed in range(6):
            sys_, depth, _ = gaussian_system(4700 + seed, 16, 2 + seed % 2)
            values = np.full(sys_.n_rows, 0.1)
            batch = generate_cuts(sys_, values, set())
            assert 1 <= len(batch) <= limit
            assert all(c.violated_by(values) for c in batch)
            counts[limit].append(len(batch))
    low, high = counts.values()
    assert max(low) == default < max(high)
    assert all(a == min(b, default) for a, b in zip(low, high))


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
    # At zero every cut is violated, so all come back, in pool order.
    assert [c.members for c in pool.violated(np.zeros(3))] == [(0, 1), (2,)]
    assert Cut((0, 1)) in pool


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(0, 5), min_size=1, max_size=3),
                          # Eighths sum exactly, in any order.
                          st.lists(st.integers(-4, 12).map(lambda k: k / 8),
                                   min_size=6, max_size=6)),
                max_size=12))
def test_pool_matrix_tracks_insertions(steps):
    """Queries between insertions see exactly the cuts inserted so far, in
    order, each once: the pool's 0/1 matrix grows with it, and ``violated``
    returns the cuts whose member values sum below 1 - CUT_TOL, less the
    ones skipped."""

    pool = CutPool()
    inserted = []
    for members, values in steps:
        cut = Cut(tuple(members))
        assert pool.insert(cut) == (cut not in inserted)
        if cut not in inserted:
            inserted.append(cut)
        values = np.array(values)
        expected = [c for c in inserted
                    if sum(values[j] for j in c.members) < 1.0 - CUT_TOL]
        assert pool.violated(values) == expected
        skip = tuple(inserted[::2])
        assert pool.violated(values, skip) == [c for c in expected
                                               if c not in skip]
    assert len(pool) == len(inserted)


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
