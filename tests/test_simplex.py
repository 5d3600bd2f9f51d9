import numpy as np
import pytest
from scipy.optimize import linprog

from tukeydepth import cuts, engine, simplex
from tukeydepth.cuts import bis_cut, generate_cuts
from tukeydepth.elastic import _elastic_model
from tukeydepth.engine import MipForm, MipModel, complement_direction
from tukeydepth.model import ParamBounds
from tukeydepth.simplex import (_AT_LOWER, _AT_UPPER, _BASIC, COLD, DERIVED,
                                 INF, REFACTORIZED, LpModel, LpStatus, Sense,
                                 solve_lp)

from conftest import count_phase_one, count_warm_starts, gaussian_system


def lp(obj, rows, senses, rhs, lower, upper):
    return LpModel(np.array(obj, dtype=float),
                   np.array(rows, dtype=float).reshape(len(senses), len(obj)),
                   senses, np.array(rhs, dtype=float),
                   np.array(lower, dtype=float), np.array(upper, dtype=float))


def test_single_constraint_optimum():
    sol = solve_lp(lp([-1], [[1]], [Sense.LE], [4], [0], [10]))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.primal[0] == pytest.approx(4.0)
    assert sol.objective_value == pytest.approx(-4.0)


def test_contradictory_pair_infeasible():
    sol = solve_lp(lp([0], [[1], [-1]], [Sense.GE, Sense.GE], [1, 1],
                      [-INF], [INF]))
    assert sol.status is LpStatus.INFEASIBLE
    # Farkas certificate for the >=-form system.
    y = sol.duals
    assert np.all(y >= -1e-9)
    assert abs(y[0] * 1 + y[1] * -1) <= 1e-9
    assert y @ [1, 1] > 1e-6


def test_unconstrained_unbounded():
    sol = solve_lp(lp([-1], np.zeros((0, 1)), [], [], [-INF], [INF]))
    assert sol.status is LpStatus.UNBOUNDED


def test_infeasible_and_dual_infeasible_gives_farkas_ray(monkeypatch):
    """min -y s.t. x >= 1, -x >= 1 with x and y free: phase 1 finds a ray
    of negative cost along y, and the zero-cost pass proves the rows
    infeasible with a Farkas ray."""

    entries = count_phase_one(monkeypatch)
    model = lp([0, -1], [[1, 0], [-1, 0]], [Sense.GE] * 2, [1, 1],
               [-INF, -INF], [INF, INF])
    sol = solve_lp(model)
    assert entries == [2]
    assert sol.status is LpStatus.INFEASIBLE
    y = sol.duals
    assert np.all(y >= 0)
    assert np.allclose(y @ model.row_coeffs, 0.0, rtol=0, atol=1e-12)
    assert y @ model.rhs > 0


def test_unbounded_along_half_bounded_column(monkeypatch):
    """min -x1 + x2 over x1 - x2 >= 1, -x1 + 2 x2 <= 4, x1 >= 0, x2 >= -1:
    the ray (2, 1) has cost -1 and x1 has no upper bound, so the LP is
    unbounded, and the primal handed back is a feasible point."""

    entries = count_phase_one(monkeypatch)
    model = lp([-1, 1], [[1, -1], [-1, 2]], [Sense.GE, Sense.LE], [1, 4],
               [0, -1], [INF, INF])
    sol = solve_lp(model)
    assert entries == [2]
    assert _scipy_reference(model).status == 3
    assert sol.status is LpStatus.UNBOUNDED
    assert sol.objective_value == -INF
    x = sol.primal
    act = model.row_coeffs @ x
    assert act[0] >= 1 - 1e-9 and act[1] <= 4 + 1e-9
    assert np.all(x >= model.lower - 1e-9)


_NAN = float("nan")


@pytest.mark.parametrize("obj, rows, senses, rhs, lower, upper", [
    pytest.param([1], [[1]], [">="], [0.5], [0], [1], id="sense-value"),
    pytest.param([1], [[1]], ["=>"], [0.5], [0], [1], id="sense-garbage"),
    pytest.param([1], [[1]], [Sense.GE], [_NAN], [0], [1], id="nan-rhs"),
    pytest.param([1], [[_NAN]], [Sense.GE], [0.5], [0], [1], id="nan-row"),
    pytest.param([1], [[1]], [Sense.GE], [0.5], [_NAN], [1], id="nan-lower"),
    pytest.param([1], [[1]], [Sense.GE], [0.5], [0], [_NAN], id="nan-upper"),
    pytest.param([_NAN], [[1]], [Sense.GE], [0.5], [0], [1], id="nan-cost"),
    pytest.param([INF], [[1]], [Sense.GE], [0.5], [0], [1], id="inf-cost"),
    pytest.param([1], [[INF]], [Sense.GE], [0.5], [0], [1], id="inf-row"),
    pytest.param([1], [[1]], [Sense.GE], [0.5], [INF], [INF],
                 id="lower-plus-inf"),
    pytest.param([1], [[1]], [Sense.GE], [0.5], [-INF], [-INF],
                 id="upper-minus-inf"),
    pytest.param([1], [[1], [1]], [Sense.GE, Sense.LE], [1, INF], [0], [10],
                 id="inf-rhs-le"),
    pytest.param([1], [[1], [1]], [Sense.GE, Sense.GE], [1, INF], [0], [10],
                 id="inf-rhs-ge"),
    pytest.param([1], [[1], [1]], [Sense.GE, Sense.LE], [1, -INF], [0], [10],
                 id="minus-inf-rhs-le"),
    pytest.param([1], [[1], [1]], [Sense.GE, Sense.GE], [1, -INF], [0], [10],
                 id="minus-inf-rhs-ge"),
])
def test_lp_model_refuses_what_it_cannot_solve(obj, rows, senses, rhs, lower,
                                               upper):
    # A sense that is not a Sense member used to solve as <=, a NaN to come
    # back OPTIMAL, a +inf lower bound as OPTIMAL at inf, and an infinite
    # right-hand side as OPTIMAL at x = 0 although x >= 1.
    with pytest.raises(ValueError):
        solve_lp(lp(obj, rows, senses, rhs, lower, upper))


def test_fixing_forces_value():
    # min s subject to x + 10 s >= 1, s pinned to 1, x in [-1, 1].
    sol = solve_lp(lp([0, 1], [[1, 10]], [Sense.GE], [1], [-1, 1], [1, 1]))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.primal[1] == pytest.approx(1.0, abs=1e-12)
    assert sol.objective_value == pytest.approx(1.0)


def test_fixing_to_zero_leaves_row_active():
    sol = solve_lp(lp([0, 1], [[1, 10]], [Sense.GE], [1], [-INF, 0],
                      [INF, 0]))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(0.0)
    assert sol.primal[1] == pytest.approx(0.0, abs=1e-12)
    assert sol.primal[0] >= 1 - 1e-9


def test_fixing_cover_binaries_gives_cover_weight():
    # Three-row system around the origin with big-M deactivators; pinning the
    # third binary (the only removal needed) satisfies the rest with s = 0.
    rows = np.array([[1, 0], [0, 1], [-1, -1]], dtype=float)
    M = 4.0
    eps = 1e-5
    A = np.zeros((3, 5))
    A[:, :2] = rows
    A[np.arange(3), 2 + np.arange(3)] = M
    pinned = np.array([0.0, 0.0, 1.0])
    model = LpModel(np.array([0, 0, 1.0, 1.0, 1.0]), A, [Sense.GE] * 3,
                    np.full(3, eps), np.concatenate([[-1.0, -1.0], pinned]),
                    np.concatenate([[1.0, 1.0], pinned]))
    sol = solve_lp(model)
    assert sol.status is LpStatus.OPTIMAL
    assert np.allclose(sol.primal[2:], pinned, rtol=0, atol=1e-12)
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)


def _assert_identical(a, b):
    assert a.status is b.status
    assert a.objective_value == b.objective_value
    for field in ("primal", "duals", "reduced_costs", "basis_status"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert a.dual_pivots == b.dual_pivots


# Kernel paths the package's own LPs seldom or never reach, each forced by
# one module constant: Bland's rule after every degenerate step, a
# refactorization after every pivot or every second one, and the
# near-singular rebuild of the inverse on every basis change.
_FORCINGS = {
    "bland": ("_DEGENERATE_BUDGET", 0),
    "refactor_every_1": ("_REFACTOR_EVERY", 1),
    "refactor_every_2": ("_REFACTOR_EVERY", 2),
    "rebuild": ("_SINGULAR_PIVOT", 1e300),
}


def test_deterministic_resolve(monkeypatch):
    _resolve_twice()
    for forcing in _FORCINGS.values():
        with monkeypatch.context() as patch:
            patch.setattr(simplex, *forcing)
            _resolve_twice()


def _resolve_twice():
    rng = np.random.default_rng(7)
    model = lp(rng.normal(size=6), rng.normal(size=(4, 6)),
               [Sense.LE] * 4, rng.uniform(1, 3, size=4),
               np.zeros(6), np.ones(6))
    _assert_identical(solve_lp(model), solve_lp(model))

    # The package's own LP shapes, each built afresh for the second solve,
    # and a warm re-solve of the depth relaxation after one more fixing and
    # one more cut, started from the first solve's basis.
    sys_, _, _ = gaussian_system(7100, 18, 3)
    cut = bis_cut(sys_, range(sys_.n_rows))
    extra = bis_cut(sys_, range(2, sys_.n_rows))
    mip = MipModel(sys_, ParamBounds.for_system(sys_))
    builders = (
        lambda: mip.relaxation(frozenset({0}), frozenset({1}), (cut,)),
        lambda: _elastic_model(sys_, {0}),
    )
    for build in builders:
        _assert_identical(solve_lp(build()), solve_lp(build()))
    start = solve_lp(builders[0]()).basis_status
    child = (frozenset({0}), frozenset({1, 2}), (cut, extra))
    a = solve_lp(mip.relaxation(*child), start=start)
    b = solve_lp(mip.relaxation(*child), start=start.copy())
    _assert_identical(a, b)

    # A chain of derived solves, each from the previous solution's kernel:
    # one more fixing, then one more cut, then another fixing; run twice,
    # each time from a parent solved afresh.
    steps = ((frozenset({0, 3}), frozenset({1}), (cut,)),
             (frozenset({0, 3}), frozenset({1}), (cut, extra)),
             (frozenset({0, 3}), frozenset({1, 2}), (cut, extra)))
    chains = []
    for _ in range(2):
        chain = [solve_lp(builders[0]())]
        for step in steps:
            chain.append(solve_lp(mip.relaxation(*step), start=chain[-1]))
        assert [s.start_kind for s in chain[1:]] == [DERIVED] * len(steps)
        chains.append(chain)
    for a, b in zip(*chains):
        _assert_identical(a, b)
    # The state is copied unless handed over: two solves derived from one
    # earlier solution are identical too.
    twice = [solve_lp(mip.relaxation(*steps[0]), start=chains[0][0])
             for _ in range(2)]
    assert [s.start_kind for s in twice] == [DERIVED] * 2
    _assert_identical(*twice)
    _assert_identical(twice[0], chains[0][1])


def _check_kkt(model: LpModel, sol, tol=1e-6):
    act = model.row_coeffs @ sol.primal
    for i, sense in enumerate(model.senses):
        if sense is Sense.GE:
            assert act[i] >= model.rhs[i] - tol
            if abs(sol.duals[i]) > tol:
                assert act[i] <= model.rhs[i] + tol
        elif sense is Sense.LE:
            assert act[i] <= model.rhs[i] + tol
            if abs(sol.duals[i]) > tol:
                assert act[i] >= model.rhs[i] - tol
        else:
            assert act[i] == pytest.approx(model.rhs[i], abs=tol)
    for j in range(model.columns):
        assert model.lower[j] - tol <= sol.primal[j] <= model.upper[j] + tol
        if abs(sol.reduced_costs[j]) > tol:
            at_bound = (abs(sol.primal[j] - model.lower[j]) <= tol
                        or abs(sol.primal[j] - model.upper[j]) <= tol)
            assert at_bound
    # Strong duality through complementary slackness.
    dual_obj = sol.duals @ model.rhs + sol.reduced_costs @ sol.primal
    scale = max(1.0, abs(sol.objective_value))
    assert abs(sol.objective_value - dual_obj) <= 1e-6 * scale


def _scipy_reference(model: LpModel):
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for i, sense in enumerate(model.senses):
        if sense is Sense.LE:
            A_ub.append(model.row_coeffs[i]);  b_ub.append(model.rhs[i])
        elif sense is Sense.GE:
            A_ub.append(-model.row_coeffs[i]); b_ub.append(-model.rhs[i])
        else:
            A_eq.append(model.row_coeffs[i]);  b_eq.append(model.rhs[i])
    bounds = [(None if l == -INF else l, None if u == INF else u)
              for l, u in zip(model.lower, model.upper)]
    return linprog(model.objective,
                   A_ub=np.array(A_ub) if A_ub else None,
                   b_ub=np.array(b_ub) if b_ub else None,
                   A_eq=np.array(A_eq) if A_eq else None,
                   b_eq=np.array(b_eq) if b_eq else None,
                   bounds=bounds, method="highs")


@pytest.mark.parametrize("seed", range(30))
def test_random_lps_match_scipy(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 8))
    senses = [Sense.GE if rng.random() < 0.4 else
              (Sense.LE if rng.random() < 0.8 else Sense.EQ)
              for _ in range(m)]
    lower = np.where(rng.random(n) < 0.3, -INF, rng.uniform(-2, 0, n))
    upper = np.where(rng.random(n) < 0.3, INF, rng.uniform(0.5, 3, n))
    model = lp(rng.normal(size=n), rng.normal(size=(m, n)), senses,
               rng.normal(size=m), lower, upper)
    mine = solve_lp(model)
    ref = _scipy_reference(model)
    if ref.status == 0:
        assert mine.status is LpStatus.OPTIMAL
        assert mine.objective_value == pytest.approx(ref.fun, abs=1e-7,
                                                     rel=1e-7)
        _check_kkt(model, mine)
    elif ref.status == 2:
        assert mine.status is LpStatus.INFEASIBLE
    elif ref.status == 3:
        assert mine.status is LpStatus.UNBOUNDED


def test_farkas_on_random_infeasible_systems():
    # Zero cost, and a nonzero cost on the free columns, which sends the
    # solve through phase 1: the ray must not depend on it.
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        base = rng.normal(size=(k, d))
        rows = np.vstack([base, -base[rng.integers(0, k)][None, :]])
        m = rows.shape[0]
        for obj in (np.zeros(d), rng.normal(size=d)):
            model = lp(obj, rows, [Sense.GE] * m, np.ones(m),
                       np.full(d, -INF), np.full(d, INF))
            sol = solve_lp(model)
            assert sol.status is LpStatus.INFEASIBLE
            y = sol.duals
            assert np.all(y >= -1e-9)
            assert np.linalg.norm(y @ rows) <= 1e-7 * max(1.0,
                                                          np.abs(y).sum())
            assert y @ np.ones(m) > 1e-7


def test_wrong_sign_costs_take_phase_one(monkeypatch):
    """Free and half-bounded columns whose cost sign asks for a missing
    bound: the solve goes through the dual phase 1 and must still reach
    scipy's status and objective."""

    rng = np.random.default_rng(11)
    seen = {status: 0 for status in LpStatus}
    entries = count_phase_one(monkeypatch)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 8))
        kind = rng.integers(0, 3, size=n)  # free, [l, inf), (-inf, u]
        lower = np.where(kind == 1, rng.uniform(-2, 0, n), -INF)
        upper = np.where(kind == 2, rng.uniform(0, 2, n), INF)
        sign = np.where(kind == 1, -1.0, np.where(kind == 2, 1.0,
                                                  rng.choice([-1.0, 1.0], n)))
        senses = [Sense.GE if rng.random() < 0.4 else
                  (Sense.LE if rng.random() < 0.8 else Sense.EQ)
                  for _ in range(m)]
        model = lp(sign * rng.uniform(0.5, 2.0, n), rng.normal(size=(m, n)),
                   senses, rng.normal(size=m), lower, upper)
        mine = solve_lp(model)
        ref = _scipy_reference(model)
        expected = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE,
                    3: LpStatus.UNBOUNDED}[ref.status]
        assert mine.status is expected
        seen[expected] += 1
        if expected is LpStatus.OPTIMAL:
            assert mine.objective_value == pytest.approx(ref.fun, abs=1e-7,
                                                         rel=1e-7)
            _check_kkt(model, mine)
    assert all(seen.values()), seen
    assert len(entries) > 0


def _degenerate_lp(rng):
    """A random LP with boxed, half-bounded and free columns, all three row
    senses and zero right-hand sides on about half the rows, so that many of
    its vertices are degenerate."""

    n = int(rng.integers(2, 8))
    m = int(rng.integers(2, 10))
    # boxed, [l, inf), (-inf, u], free
    kind = rng.choice(4, size=n, p=[0.4, 0.25, 0.25, 0.1])
    lower = np.where(kind <= 1, rng.uniform(-2, 0, n), -INF)
    upper = np.where((kind == 0) | (kind == 2), rng.uniform(0.5, 3, n), INF)
    senses = [Sense.GE if rng.random() < 0.4 else
              (Sense.LE if rng.random() < 0.8 else Sense.EQ)
              for _ in range(m)]
    rows = rng.normal(size=(m, n))
    rows[rng.random((m, n)) < 0.3] = 0.0
    rhs = np.where(rng.random(m) < 0.5, 0.0, rng.normal(size=m))
    return lp(rng.normal(size=n), rows, senses, rhs, lower, upper)


def _farkas_system(rng):
    """An infeasible pure >= system over free columns: k random rows and the
    negation of one of them, all with right-hand side 1."""

    d = int(rng.integers(1, 5))
    k = int(rng.integers(1, 7))
    base = rng.normal(size=(k, d))
    rows = np.vstack([base, -base[rng.integers(0, k)][None, :]])
    m = rows.shape[0]
    return lp(rng.normal(size=d), rows, [Sense.GE] * m, np.ones(m),
              np.full(d, -INF), np.full(d, INF))


@pytest.mark.parametrize("forcing", list(_FORCINGS))
def test_forced_kernel_paths(forcing, monkeypatch):
    """The dual pass carries the basic values between pivots and must
    re-read them after every refactorization.  The package's own LPs take
    at most a few dozen pivots and seldom reach these paths, so force each
    one and check the results against scipy (status, objective, KKT), the
    basic values against the basis, and the Farkas rays of infeasible >=
    systems.  Phase 1 runs under every forcing."""

    rng = np.random.default_rng(23)
    models = [_degenerate_lp(rng) for _ in range(300)]
    farkas = [_farkas_system(rng) for _ in range(40)]

    refactors = [0]
    refactorize = simplex._Simplex._refactorize

    def counting(self):
        refactors[0] += 1
        refactorize(self)

    monkeypatch.setattr(simplex._Simplex, "_refactorize", counting)
    default = [solve_lp(model) for model in models + farkas]
    default_refactors, refactors[0] = refactors[0], 0

    monkeypatch.setattr(simplex, *_FORCINGS[forcing])
    entries = count_phase_one(monkeypatch)
    seen = {status: 0 for status in LpStatus}
    changed = 0
    resynced = 0
    for model, before in zip(models, default):
        kernel = simplex._Simplex(model, 1e-9)
        mine = kernel.solve()
        # The basic values handed back solve B x_B = b - N x_N; when a
        # refactorization followed the last pivot, they are the recomputed
        # ones bit for bit.
        nb = kernel.status != _BASIC
        xb = kernel.binv @ (kernel.b - kernel.A[:, nb] @ kernel.values[nb])
        assert np.allclose(kernel.values[kernel.basis], xb, rtol=1e-7,
                           atol=1e-7)
        if forcing in ("refactor_every_1", "rebuild") and mine.dual_pivots:
            assert np.array_equal(kernel.values[kernel.basis], xb)
            resynced += 1
        ref = _scipy_reference(model)
        expected = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE,
                    3: LpStatus.UNBOUNDED}[ref.status]
        assert mine.status is expected
        seen[expected] += 1
        if expected is LpStatus.OPTIMAL:
            assert mine.objective_value == pytest.approx(ref.fun, abs=1e-7,
                                                         rel=1e-7)
            _check_kkt(model, mine)
        changed += mine.dual_pivots != before.dual_pivots
    assert all(seen.values()), seen
    assert len(entries) > 0

    for model in farkas:
        sol = solve_lp(model)
        assert sol.status is LpStatus.INFEASIBLE
        y = sol.duals
        assert np.all(y >= -1e-9)
        assert np.linalg.norm(y @ model.row_coeffs) <= 1e-7 * max(
            1.0, np.abs(y).sum())
        assert y @ model.rhs > 1e-7

    # Each forcing must have taken its path: Bland's rule picks other
    # pivots than the default rules on some LP, and the other forcings
    # refactorize more often than the default constants do.
    if forcing == "bland":
        assert changed > 0
    else:
        assert refactors[0] > default_refactors
    if forcing in ("refactor_every_1", "rebuild"):
        assert resynced > 0


def _spy_models(monkeypatch, module, call):
    """Run ``call``; return every LpModel it hands to ``module.solve_lp``."""

    models = []

    def spy(model, *args, **kwargs):
        models.append(model)
        return solve_lp(model, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(module, "solve_lp", spy)
        call()
    return models


@pytest.mark.parametrize("points, dim", [(12, 2), (16, 3), (20, 4)])
def test_package_lps_start_dual_feasible(points, dim, monkeypatch):
    """Every LP builder of the package yields an LP whose slack basis is dual
    feasible, so no solve enters phase 1."""

    sys_, depth, _ = gaussian_system(7000, points, dim)
    n = sys_.n_rows
    assert depth >= 2
    bounds = ParamBounds.for_system(sys_)
    cut = bis_cut(sys_, range(n))
    fix1, fix0 = frozenset({0}), frozenset({1, 2})
    # Binary values of a real node relaxation, with the entries at a bound
    # nudged just outside [0, 1] as rounding can leave them.
    node = solve_lp(MipModel(sys_, bounds).relaxation(fix1, fix0, (cut,)))
    s = node.primal[dim:dim + n]
    assert np.any(s <= 0.0) and np.any(s >= 1.0)
    nudged = np.where(s <= 0.0, -1e-12, np.where(s >= 1.0, 1 + 1e-12, s))
    weighted = generate_cuts(sys_, nudged, fix1)
    assert 1 <= len(weighted) <= cuts.CUTS_PER_ROUND
    assert weighted == generate_cuts(sys_, np.clip(nudged, 0.0, 1.0), fix1)
    models = {
        "elastic": [_elastic_model(sys_, {0})],
        "bis_cut": _spy_models(monkeypatch, cuts,
                               lambda: bis_cut(sys_, range(n))),
        "weighted bis_cut": _spy_models(
            monkeypatch, cuts, lambda: generate_cuts(sys_, nudged, fix1)),
        "complement_direction": _spy_models(
            monkeypatch, engine,
            lambda: complement_direction(sys_, {0, 1})),
        "depth": [MipModel(sys_, bounds).relaxation(fix1, fix0, (cut,))],
        "guess": [MipModel(sys_, bounds, MipForm.GUESS, guess=depth - 1)
                  .relaxation(fix1, fix0, (cut,))],
    }
    # The separation round derives its later cut LPs from the first, one
    # more column bounded to 0 each; they are checked cold here as well.
    derived = models["weighted bis_cut"]
    assert len(weighted) <= len(derived) <= cuts.CUTS_PER_ROUND
    if len(weighted) > 1:
        assert all((m.upper <= derived[0].upper).all() for m in derived)
    entries = count_phase_one(monkeypatch)
    for name, built in models.items():
        assert len(built) == 1 or built is derived, name
        for model in built:
            # Exactly, with no tolerance: each column's cost sign asks for a
            # bound it has, so the slack start is dual feasible for the true
            # cost.
            c = model.objective
            assert np.all((c >= 0) | (model.upper < INF)), name
            assert np.all((c <= 0) | (model.lower > -INF)), name
            sol = solve_lp(model)
            ref = _scipy_reference(model)
            assert entries == [], name
            assert sol.dual_pivots > 0, name
            if ref.status == 2:
                assert sol.status is LpStatus.INFEASIBLE, name
            else:
                assert ref.status == 0, name
                assert sol.status is LpStatus.OPTIMAL, name
                assert sol.objective_value == pytest.approx(
                    ref.fun, abs=1e-7, rel=1e-7), name


def _random_cuts(rng, rows: list[int], dim: int, count: int):
    return tuple(cuts.Cut(tuple(rng.choice(rows, size=min(len(rows), k),
                                           replace=False)))
                 for k in rng.integers(1, dim + 2, size=count))


# The statuses form keeps the bare seed as its id.
@pytest.mark.parametrize("seed, form", [
    pytest.param(seed, form, id=str(seed) if form == "statuses"
                 else f"{form}-{seed}")
    for form in ("statuses", "solution") for seed in range(12)])
def test_warm_start_after_cuts_and_fixings(seed, form, monkeypatch):
    """Re-solve a depth or guess relaxation from its parent after (a)
    appended cut rows, (b) one more binary fixed to 0 or 1, (c) both, and
    for the guess form (d) appended cut rows under a smaller guess (another
    right-hand side), given the parent's basis statuses (refactorized) or
    the parent's whole solution (derived from its kernel, each time from the
    same one): the start holds, the answer is scipy's and phase 1 never
    runs."""

    rng = np.random.default_rng(7300 + seed)
    sys_, depth, _ = gaussian_system(7300 + seed, int(rng.integers(10, 21)),
                                     2 + seed % 3)
    n = sys_.n_rows
    bounds = ParamBounds.for_system(sys_)
    mip = (MipModel(sys_, bounds) if seed % 2 == 0 else
           MipModel(sys_, bounds, MipForm.GUESS, guess=max(3, depth - 1)))
    fix1 = frozenset(int(j) for j in rng.choice(n, size=seed % 2,
                                                replace=False))
    fix0 = frozenset(int(j) for j in rng.choice(
        [j for j in range(n) if j not in fix1], size=seed % 3,
        replace=False))
    free = [j for j in range(n) if j not in fix1 and j not in fix0]
    base_cuts = _random_cuts(rng, free, sys_.dim, 2)
    parent = solve_lp(mip.relaxation(fix1, fix0, base_cuts))
    assert parent.status is LpStatus.OPTIMAL

    s = parent.primal[sys_.dim:sys_.dim + n]
    fractional = [j for j in free if 1e-9 < s[j] < 1 - 1e-9]
    j = int(rng.choice(fractional if fractional else free))
    more1, more0 = (fix1 | {j}, fix0) if rng.random() < 0.5 else \
        (fix1, fix0 | {j})
    new_cuts = base_cuts + _random_cuts(rng, free, sys_.dim, 3)
    children = {"cuts": (mip, (fix1, fix0, new_cuts)),
                "fixing": (mip, (more1, more0, base_cuts)),
                "both": (mip, (more1, more0, new_cuts))}
    if mip.form is MipForm.GUESS:
        smaller = MipModel(sys_, bounds, MipForm.GUESS, guess=mip.guess - 1)
        children["guess"] = (smaller, (fix1, fix0, new_cuts))

    accepted = count_warm_starts(monkeypatch)
    entries = count_phase_one(monkeypatch)
    start, kind = ((parent.basis_status, REFACTORIZED) if form == "statuses"
                   else (parent, DERIVED))
    for name, (child_mip, child) in children.items():
        model = child_mip.relaxation(*child)
        warm = solve_lp(model, start=start)
        ref = _scipy_reference(model)
        assert accepted[-1], name
        assert warm.start_kind == kind, name
        assert entries == [], name
        if ref.status == 2:
            assert warm.status is LpStatus.INFEASIBLE, name
            continue
        assert ref.status == 0, name
        assert warm.status is LpStatus.OPTIMAL, name
        assert warm.objective_value == pytest.approx(ref.fun, abs=1e-7,
                                                     rel=1e-7), name
        _check_kkt(model, warm)


def test_derived_chain_refactorizes_on_cadence(monkeypatch):
    """A chain of solves, each taking over the previous one's kernel state
    (handed over) after appended cuts and now and then one more binary
    fixed to 1, carries the refactor counter: once the chain's pivots pass
    _REFACTOR_EVERY the inverse is refactorized, though no single LP takes
    that many pivots.  Every LP of the chain matches a cold solve of its
    model."""

    rng = np.random.default_rng(7400)
    sys_, _, _ = gaussian_system(7400, 30, 3)
    n = sys_.n_rows
    mip = MipModel(sys_, ParamBounds.for_system(sys_))
    every = simplex._REFACTOR_EVERY
    refactors = [0]
    refactorize = simplex._Simplex._refactorize

    def counting(self):
        refactors[0] += 1
        refactorize(self)

    monkeypatch.setattr(simplex._Simplex, "_refactorize", counting)
    fix1, chain_cuts = frozenset(), ()
    sol = solve_lp(mip.relaxation(fix1, frozenset(), chain_cuts))
    total, in_chain = sol.dual_pivots, refactors[0]
    while total <= 2 * every:
        free = [j for j in range(n) if j not in fix1]
        chain_cuts += _random_cuts(rng, free, sys_.dim, 2)
        if rng.random() < 0.3:
            fix1 |= {int(rng.choice(free))}
        model = mip.relaxation(fix1, frozenset(), chain_cuts)
        before = refactors[0]
        earlier, sol = sol, solve_lp(model, start=sol.handover())
        in_chain += refactors[0] - before
        assert earlier.kernel is None
        assert sol.start_kind == DERIVED
        assert sol.status is LpStatus.OPTIMAL
        assert sol.dual_pivots < every
        total += sol.dual_pivots
        cold = solve_lp(model)
        assert sol.objective_value == pytest.approx(
            cold.objective_value, abs=1e-9, rel=1e-9)
        _check_kkt(model, sol)
    assert in_chain >= total // every >= 2


def _unusable_start(kind: str):
    """An LP and a start that the kernel must refuse."""

    if kind == "singular":
        # Columns 0 and 1 are equal, so a basis holding both is singular.
        model = lp([1, 1, 2], [[1, 1, 0], [2, 2, 1], [0, 0, 1]],
                   [Sense.GE] * 3, [1, 2, 0.5], [0, 0, 0], [5, 5, 5])
        return model, np.array([_BASIC, _BASIC, _AT_LOWER, _AT_UPPER,
                                _AT_UPPER, _BASIC], dtype=np.int8)
    sys_, _, _ = gaussian_system(7200, 14, 3)
    d, n = sys_.dim, sys_.n_rows
    if kind == "infinite_bound":
        # The alternative LP's y_j >= 0 has no upper bound to sit at.
        model = cuts._alternative_lp(sys_, list(range(n)))
        start = np.full(n + d + 1, _BASIC, dtype=np.int8)
        start[:n] = _AT_LOWER
        start[0] = _AT_UPPER
        return model, start
    cut = bis_cut(sys_, range(n))
    model = MipModel(sys_, ParamBounds.for_system(sys_)).relaxation(
        frozenset({0}), frozenset({1}), (cut,))
    status = solve_lp(model).basis_status
    if kind == "short":
        return model, status[:model.columns - 1]
    if kind == "long":
        return model, np.append(status, np.int8(_BASIC))
    if kind == "extra_basic":
        start = status.copy()
        start[np.flatnonzero(start != _BASIC)[0]] = _BASIC
        return model, start
    assert kind == "dual_infeasible"
    # Slack basis with every binary at its upper bound: their costs are the
    # positive row weights, so the reduced costs have the wrong sign.
    start = np.full(model.columns + model.n_rows, _BASIC, dtype=np.int8)
    start[:d] = _AT_LOWER
    start[d:d + n] = _AT_UPPER
    return model, start


@pytest.mark.parametrize("kind", ["short", "long", "extra_basic", "singular",
                                  "dual_infeasible", "infinite_bound"])
def test_unusable_start_falls_back_to_cold(kind, monkeypatch):
    model, start = _unusable_start(kind)
    accepted = count_warm_starts(monkeypatch)
    warm = solve_lp(model, start=start)
    assert accepted == [False]
    _assert_identical(warm, solve_lp(model))



def _underivable(kind: str):
    """An earlier solution and a model the kernel must not derive from."""

    if kind in ("dual_infeasible", "infinite_bound"):
        # min x1 + x2 over 2 x1 + x2 >= 1 with x1 pinned to 0: x1 ends
        # nonbasic at its lower bound with reduced cost 1 - 2 = -1.
        earlier = solve_lp(lp([1, 1], [[2, 1]], [Sense.GE], [1], [0, 0],
                              [0, 10]))
        lower, upper = ([0, 0], [10, 10]) if kind == "dual_infeasible" \
            else ([-INF, 0], [0, 10])
        return earlier, lp([1, 1], [[2, 1]], [Sense.GE], [1], lower, upper)
    sys_, _, _ = gaussian_system(7200, 14, 3)
    cut = bis_cut(sys_, range(sys_.n_rows))
    mip = MipModel(sys_, ParamBounds.for_system(sys_))
    earlier = solve_lp(mip.relaxation(frozenset({0}), frozenset({1})))
    model = mip.relaxation(frozenset({0}), frozenset({1}), (cut,))
    if kind == "cost":
        return earlier, LpModel(model.objective * 2.0, model.row_coeffs,
                                model.senses, model.rhs, model.lower,
                                model.upper)
    if kind == "rows":
        rows = model.row_coeffs.copy()
        rows[0, 0] += 1e-3
        return earlier, LpModel(model.objective, rows, model.senses,
                                model.rhs, model.lower, model.upper)
    assert kind == "senses"
    senses = [Sense.LE] + model.senses[1:]
    return earlier, LpModel(model.objective, model.row_coeffs, senses,
                            model.rhs, model.lower, model.upper)


@pytest.mark.parametrize("kind", ["cost", "rows", "senses",
                                  "dual_infeasible", "infinite_bound"])
def test_underivable_start_falls_back(kind):
    """A whole earlier solution whose model does not match (another cost,
    another first row or sense), or whose start fails a check once a bound
    changes, is not derived from: the solve is exactly the one started
    from the earlier solution's basis statuses."""

    earlier, model = _underivable(kind)
    assert earlier.status is LpStatus.OPTIMAL and earlier.kernel is not None
    warm = solve_lp(model, start=earlier)
    assert warm.start_kind != DERIVED
    _assert_identical(warm, solve_lp(model, start=earlier.basis_status))
    if kind in ("dual_infeasible", "infinite_bound"):
        assert warm.start_kind == COLD
        _assert_identical(warm, solve_lp(model))


def _mixed_lp(rng):
    """A random bounded, feasible LP with boxed, free and fixed columns and
    all three row senses.  A pair of rows ties each free column to the
    boxed ones, so the LP is bounded whatever its cost; the other rows hold
    around a point of the box, so it is feasible."""

    nb, nf, nx = (int(rng.integers(3, 8)), int(rng.integers(1, 3)),
                  int(rng.integers(1, 3)))
    n = nb + nf + nx
    boxed_lo = rng.uniform(-2, 0, nb)
    fixed_at = rng.uniform(-1, 1, nx)
    lower = np.concatenate([boxed_lo, np.full(nf, -INF), fixed_at])
    upper = np.concatenate([boxed_lo + rng.uniform(0.1, 3, nb),
                            np.full(nf, INF), fixed_at])
    point = np.concatenate([rng.uniform(lower[:nb], upper[:nb]),
                            rng.normal(size=nf), fixed_at])
    rows, senses, rhs = [], [], []
    for f in range(nb, nb + nf):
        tie = np.zeros(n)
        tie[:nb] = rng.normal(size=nb)
        tie[f] = 1.0
        for sense, gap in ((Sense.GE, -1.0), (Sense.LE, 1.0)):
            rows.append(tie)
            senses.append(sense)
            rhs.append(tie @ point + gap)
    for _ in range(int(rng.integers(3, 8))):
        row = rng.normal(size=n)
        sense = (Sense.GE if rng.random() < 0.45 else
                 Sense.LE if rng.random() < 0.85 else Sense.EQ)
        gap = 0.0 if sense is Sense.EQ else float(rng.uniform(0, 1))
        rows.append(row)
        senses.append(sense)
        rhs.append(row @ point + (-gap if sense is Sense.GE else gap))
    return lp(rng.normal(size=n), rows, senses, rhs, lower, upper)


def _without_rows(rng, model: LpModel, drop, change: bool) -> LpModel:
    """The LP less the rows ``drop``; with ``change``, one boxed column's
    box also shrinks from below and one row is appended."""

    keep = [i for i in range(model.n_rows) if i not in set(drop)]
    rows = model.row_coeffs[keep]
    senses = [model.senses[i] for i in keep]
    rhs = model.rhs[keep]
    lower = model.lower.copy()
    if change:
        boxed = np.flatnonzero(np.isfinite(model.upper)
                               & (model.upper > model.lower))
        j = int(rng.choice(boxed))
        lower[j] += 0.5 * (model.upper[j] - model.lower[j])
        row = rng.normal(size=model.columns)
        rows = np.vstack([rows, row])
        senses = senses + [Sense.GE]
        rhs = np.append(rhs, float(rng.normal()))
    return LpModel(model.objective, rows, senses, rhs, lower, model.upper)


@pytest.mark.parametrize("handover", [False, True],
                         ids=["copied", "handed-over"])
def test_derive_after_dropping_rows_matches_cold(handover, monkeypatch):
    """Drop rows whose slacks are basic at an optimum (boxed, free and
    fixed columns; now and then a bound change and an appended row too):
    the solve derived from that optimum reaches a cold solve's status and
    objective within ``feas_tol``, and phase 1 never runs.  A copied
    kernel is left as it was, so a second derive is identical; from the
    statuses less those rows' slacks the start holds too."""

    rng = np.random.default_rng(8300 + handover)
    feas_tol = 1e-9
    entries = count_phase_one(monkeypatch)
    checked = 0
    for _ in range(120):
        model = _mixed_lp(rng)
        earlier = solve_lp(model)
        assert earlier.status is LpStatus.OPTIMAL
        slack = earlier.basis_status[model.columns:]
        basic = np.flatnonzero(slack == _BASIC)
        if not basic.size:
            continue
        drop = np.sort(rng.choice(basic, size=int(rng.integers(
            1, basic.size + 1)), replace=False))
        child = _without_rows(rng, model, drop, change=rng.random() < 0.5)
        statuses = earlier.basis_status.copy()
        cold = solve_lp(child)
        before = len(entries)
        warm = solve_lp(child, start=earlier.handover() if handover
                        else earlier, drop=drop)
        assert warm.start_kind == DERIVED
        assert len(entries) == before
        assert warm.status is cold.status
        if cold.status is LpStatus.OPTIMAL:
            assert warm.objective_value == pytest.approx(
                cold.objective_value, abs=feas_tol, rel=feas_tol)
            _check_kkt(child, warm)
        if handover:
            assert earlier.kernel is None
        else:
            _assert_identical(warm, solve_lp(child, start=earlier,
                                             drop=drop))
        refactorized = solve_lp(child, start=statuses, drop=drop)
        assert refactorized.start_kind == REFACTORIZED
        assert refactorized.status is cold.status
        if cold.status is LpStatus.OPTIMAL:
            assert refactorized.objective_value == pytest.approx(
                cold.objective_value, abs=feas_tol, rel=feas_tol)
        checked += 1
    assert checked >= 60


def test_drop_of_a_row_with_nonbasic_slack_is_refused(monkeypatch):
    """A start that drops a row whose slack is nonbasic, alone or with a
    row whose slack is basic, is refused, whole solution or statuses: the
    output is that of a solve without a start."""

    rng = np.random.default_rng(8400)
    accepted = count_warm_starts(monkeypatch)
    checked = 0
    for _ in range(60):
        model = _mixed_lp(rng)
        earlier = solve_lp(model)
        slack = earlier.basis_status[model.columns:]
        tight = np.flatnonzero(slack != _BASIC)
        loose = np.flatnonzero(slack == _BASIC)
        if not tight.size:
            continue
        drops = [tight[:1]]
        if loose.size:
            drops.append(np.sort(np.append(tight[:1], loose[:1])))
        for drop in drops:
            child = _without_rows(rng, model, drop, change=False)
            cold = solve_lp(child)
            for start in (earlier, earlier.basis_status):
                del accepted[:]
                warm = solve_lp(child, start=start, drop=drop)
                assert warm.start_kind == COLD
                assert accepted == [False]
                _assert_identical(warm, cold)
            checked += 1
    assert checked >= 40


def _boxed_lp(rng):
    """A random feasible LP whose columns are all boxed, with all three row
    senses, built around a point of the box."""

    n = int(rng.integers(4, 16))
    m = int(rng.integers(1, 6))
    lower = rng.uniform(-2, 0, n)
    upper = lower + rng.uniform(0.1, 3, n)
    rows = rng.normal(size=(m, n))
    senses = [Sense.GE if rng.random() < 0.4 else
              (Sense.LE if rng.random() < 0.8 else Sense.EQ)
              for _ in range(m)]
    act = rows @ rng.uniform(lower, upper)
    gap = rng.uniform(0, 1, m)
    rhs = np.array([a - g if s is Sense.GE else a + g if s is Sense.LE
                    else a for a, g, s in zip(act, gap, senses)])
    return lp(rng.normal(size=n), rows, senses, rhs, lower, upper)


def _shrunk(rng, model: LpModel, infeasible: bool) -> LpModel:
    """The LP with about half its boxes shrunk from below and, when asked,
    one right-hand side moved beyond what any point of the box reaches.
    Neither change touches the reduced costs, so every basis that was dual
    feasible stays so."""

    span = model.upper - model.lower
    lower = model.lower + (rng.uniform(0, 0.3, model.columns) * span
                           * (rng.random(model.columns) < 0.5))
    rhs = model.rhs.copy()
    if infeasible:
        i = int(rng.integers(0, model.n_rows))
        row = model.row_coeffs[i]
        lo = np.minimum(row * lower, row * model.upper).sum()
        hi = np.maximum(row * lower, row * model.upper).sum()
        rhs[i] = lo - 0.1 if model.senses[i] is Sense.LE else hi + 0.1
    return LpModel(model.objective, model.row_coeffs, model.senses, rhs,
                   lower, model.upper)


@pytest.mark.parametrize("infeasible", [False, True])
def test_bound_flipping_ratio_test_matches_scipy(infeasible, monkeypatch):
    """Boxed LPs, and their shrunk (and, for the infeasible case, made
    infeasible) children solved cold and warm from the parent's basis:
    scipy's status and objective, no phase 1, every start accepted, and
    the dual pass flips bounds both cold and warm."""

    rng = np.random.default_rng(8100 + infeasible)
    accepted = count_warm_starts(monkeypatch)
    entries = count_phase_one(monkeypatch)
    flips = {"cold": 0, "warm": 0}
    for _ in range(80):
        parent = _boxed_lp(rng)
        child = _shrunk(rng, parent, infeasible)
        cold = solve_lp(parent)
        assert cold.status is LpStatus.OPTIMAL
        warm = solve_lp(child, start=cold.basis_status)
        assert accepted[-1]
        for name, sol, built in (("cold", cold, parent),
                                 ("cold", solve_lp(child), child),
                                 ("warm", warm, child)):
            flips[name] += sol.dual_flips
            assert entries == [], name
            ref = _scipy_reference(built)
            if infeasible and built is child:
                assert ref.status == 2, name
                assert sol.status is LpStatus.INFEASIBLE, name
                continue
            assert ref.status == 0, name
            assert sol.status is LpStatus.OPTIMAL, name
            assert sol.objective_value == pytest.approx(
                ref.fun, abs=1e-7, rel=1e-7), name
            _check_kkt(built, sol)
    assert flips["cold"] > 0 and flips["warm"] > 0, flips
