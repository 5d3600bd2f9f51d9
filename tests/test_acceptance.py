"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines as they go;
the whole module is budgeted to finish well inside thirty minutes.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest

from tukeydepth.binsearch import solve_depth_binary
from tukeydepth.cuts import bis_cut, generate_cuts
from tukeydepth.engine import EngineConfig, solve_depth
from tukeydepth.model import InfeasibleSystem, PointSet, build_system
from tukeydepth.oracle import (GeneralPositionError, is_depth_zero,
                               oracle_depth_general)
from tukeydepth.simplex import INF, LpModel, LpStatus, Sense, solve_lp

from conftest import gaussian_system, outside_hull_system

CERT_TOL = 1e-9


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- shared corpus for criteria 1, 2, 3 and 12 ------------------------------


def _corpus_shape(i: int) -> tuple[int, int]:
    return 8 + (i * 7) % 23, 2 + i % 4   # n in 8..30, d in 2..5


@pytest.fixture(scope="module")
def corpus():
    records = []
    t_suite = time.monotonic()
    for i in range(200):
        n, d = _corpus_shape(i)
        t0 = time.monotonic()
        sys_, depth, _ = gaussian_system(10_000 + i, n, d)
        t_oracle = time.monotonic() - t0
        t0 = time.monotonic()
        res_depth = solve_depth(sys_)
        t_depth = time.monotonic() - t0
        t0 = time.monotonic()
        res_bin = solve_depth_binary(sys_)
        t_bin = time.monotonic() - t0
        records.append({"i": i, "n": n, "d": d, "sys": sys_, "oracle": depth,
                        "depth": res_depth, "bin": res_bin,
                        "seconds": max(t_oracle, t_depth, t_bin)})
    return {"records": records, "suite_seconds": time.monotonic() - t_suite}


def test_criterion_01_oracle_equivalence(corpus):
    records = corpus["records"]
    bad = [r for r in records
           if not (r["depth"].depth == r["bin"].depth == r["oracle"])]
    slow = [r for r in records if r["seconds"] > 60.0]
    ok = not bad and not slow and corpus["suite_seconds"] <= 1800
    report(1, ok,
           f"200 seeded instances (n 8..30, d 2..5): "
           f"{200 - len(bad)}/200 agree across depth, bisection and oracle; "
           f"worst single run {max(r['seconds'] for r in records):.1f}s "
           f"(budget 60s), suite {corpus['suite_seconds']:.0f}s "
           f"(budget 1800s)")


def test_criterion_02_certificates(corpus):
    bad = 0
    for r in corpus["records"]:
        for res in (r["depth"], r["bin"]):
            sys_ = r["sys"]
            non_cover = [j for j in range(sys_.n_rows)
                         if j not in set(res.cover)]
            margins = sys_.rows[non_cover] @ res.direction \
                if non_cover else np.ones(1)
            if res.certificate != "verified" or not np.all(margins > CERT_TOL):
                bad += 1
    report(2, bad == 0,
           f"certifying directions strictly separate all non-cover rows "
           f"(arithmetic only) on 400/400 results" if bad == 0 else
           f"{bad} results failed the arithmetic certificate check")


def test_criterion_03_heuristic_quality(corpus):
    records = corpus["records"]
    inadmissible = [r for r in records
                    if r["depth"].stats.heuristic_weight
                    + r["sys"].zero_offset < r["oracle"]]
    equal = sum(1 for r in records
                if r["depth"].stats.heuristic_weight
                + r["sys"].zero_offset == r["oracle"])
    rate = equal / len(records)
    ok = not inadmissible and rate >= 0.70
    report(3, ok,
           f"greedy cover is admissible on 200/200 and optimal on "
           f"{equal}/200 ({100 * rate:.0f}%, soft target 70%)")


def test_criterion_12_probe_budget(corpus):
    bad = []
    for r in corpus["records"]:
        upper0 = r["bin"].stats.heuristic_weight + r["sys"].zero_offset
        guesses = r["bin"].stats.guesses
        limit = math.ceil(math.log2(upper0)) + 1 if upper0 >= 2 else 0
        if guesses > limit:
            bad.append(r["i"])
    report(12, not bad,
           "bisection used at most ceil(log2(upper)) + 1 probes on 200/200"
           if not bad else f"probe budget exceeded on instances {bad}")


# -- criterion 4: median range ------------------------------------------------


def _centerpoint_member_points(seed: int, n: int, d: int) -> np.ndarray:
    """Cloud of n-1 Gaussian points plus one member at an approximate
    centerpoint of the cloud (existence: centerpoint theorem)."""

    need = math.ceil(n / (d + 1)) - 1
    for attempt in range(80):
        rng = np.random.default_rng(seed + 104_729 * attempt)
        cloud = rng.normal(size=(n - 1, d))
        candidates = [cloud.mean(axis=0), np.median(cloud, axis=0)]
        for _ in range(80):
            idx = rng.choice(n - 1, size=min(d + 1, n - 1), replace=False)
            candidates.append(rng.dirichlet(np.ones(idx.size)) @ cloud[idx])
        for cand in candidates:
            center = cand + 1e-3 * rng.normal(size=d)
            try:
                sys_ = build_system(PointSet(d, cloud, center))
                if oracle_depth_general(sys_) >= need:
                    return np.vstack([cloud, center])
            except GeneralPositionError:
                continue
    raise RuntimeError(f"no centerpoint member found for n={n} d={d}")


def test_criterion_04_median_range():
    checked = 0
    for k in range(20):
        d = 2 if k < 10 else 3
        rng = np.random.default_rng(40_000 + k)
        n = int(rng.integers(10, 16))
        pts = _centerpoint_member_points(41_000 + k, n, d)
        best = 0
        for j in range(n):
            others = np.delete(pts, j, axis=0)
            sys_ = build_system(PointSet(d, others, pts[j]))
            best = max(best, oracle_depth_general(sys_))
        lo = math.ceil(n / (d + 1)) - 1
        hi = math.ceil(n / 2) - 1
        assert lo <= best <= hi, \
            f"instance {k}: max member depth {best} outside [{lo}, {hi}]"
        checked += 1
    report(4, checked == 20,
           "leave-one-out max member depth within "
           "[ceil(n/(d+1))-1, ceil(n/2)-1] on 20/20 instances")


# -- criterion 5: affine invariance -------------------------------------------


def test_criterion_05_affine_invariance():
    bad = 0
    rng = np.random.default_rng(50_000)
    for k in range(50):
        n = 8 + k % 7
        d = 2 + k % 3
        sys_, depth, pts = gaussian_system(51_000 + k, n, d)
        for _ in range(5):
            while True:
                L = rng.normal(size=(d, d))
                if np.linalg.cond(L) < 40:
                    break
            mapped = build_system(PointSet(d, pts @ L.T, np.zeros(d)))
            if oracle_depth_general(mapped) != depth:
                bad += 1
            if solve_depth(mapped).depth != depth:
                bad += 1
    report(5, bad == 0,
           "oracle and solver depths unchanged under 250 random nonsingular "
           "linear maps (50 instances x 5 maps)")


# -- criterion 6: weighted vs simple program ---------------------------------


def test_criterion_06_weighted_vs_simple():
    agree = 0
    for k in range(20):
        rng = np.random.default_rng(60_000 + k)
        base_n = int(rng.integers(5, 9))
        d = 2 + k % 2
        base = rng.normal(size=(base_n, d))
        reps = rng.integers(2, 5, size=base_n)
        pts = np.vstack([np.repeat(base[i][None, :], reps[i], axis=0)
                         for i in range(base_n)])
        ps = PointSet(d, pts, np.zeros(d))
        folded = build_system(ps)
        unfolded = build_system(ps, fold_duplicates=False)
        assert folded.n_rows == base_n, "weighted model keeps distinct rows"
        assert unfolded.n_rows == int(reps.sum())
        w = solve_depth(folded)
        u = solve_depth(unfolded)
        if w.depth == u.depth:
            agree += 1
    report(6, agree == 20,
           f"weighted (folded) and simple (duplicated) programs agree on "
           f"{agree}/20 duplicate instances and the weighted model has "
           f"exactly the distinct-row count of rows")


# -- criterion 8: basic infeasible subsystem contract -------------------------


def test_criterion_08_bis_contract():
    produced = 0
    k = 0
    while produced < 100:
        sys_, depth, _ = gaussian_system(80_000 + k, 8 + k % 14, 2 + k % 4)
        k += 1
        if depth - sys_.zero_offset == 0:
            continue
        cut = bis_cut(sys_, range(sys_.n_rows))
        assert cut is not None, "infeasible system must give a cut"
        assert len(cut.members) <= sys_.dim + 1
        assert bis_cut(sys_, cut.members) is not None, \
            "members must stay infeasible under the phase-1 re-solve"
        produced += 1

    cover_checks = 0
    for seed in range(6):
        sys_, depth, _ = gaussian_system(88_000 + seed, 8 + seed, 2 + seed % 2)
        if depth == 0:
            continue
        n = sys_.n_rows
        covers = []
        for r in range(n + 1):
            for combo in itertools.combinations(range(n), r):
                rest = [j for j in range(n) if j not in combo]
                if not rest:
                    feasible = True
                else:
                    sub = InfeasibleSystem(sys_.dim, sys_.rows[rest],
                                           np.ones(len(rest), dtype=int))
                    feasible = oracle_depth_general(sub) == 0
                if feasible:
                    covers.append(set(combo))
        minimal = [c for c in covers if not any(o < c for o in covers)]
        cuts = [bis_cut(sys_, range(n))]
        cuts += generate_cuts(sys_, np.full(n, 0.25), set())
        for cut in cuts:
            if cut is None:
                continue
            for cover in minimal:
                assert cover & set(cut.members), \
                    f"minimal cover {cover} misses cut {cut.members}"
                cover_checks += 1
    report(8, produced == 100 and cover_checks > 0,
           f"100/100 generated subsystems have <= d+1 rows and re-verify "
           f"infeasible; {cover_checks} minimal-cover hits satisfied")


# -- criterion 9: depth zero iff outside hull ---------------------------------


def test_criterion_09_depth_zero_iff_outside_hull():
    agree = 0
    for k in range(100):
        if k < 30:
            sys_ = outside_hull_system(90_000 + k, 8 + k % 10, 2 + k % 4)
            depth = oracle_depth_general(sys_)
        else:
            sys_, depth, _ = gaussian_system(91_000 + k, 8 + k % 12,
                                             2 + k % 4)
        if is_depth_zero(sys_) == (depth == 0):
            agree += 1
    report(9, agree == 100,
           f"feasibility probe matches oracle depth == 0 on {agree}/100 "
           f"instances (30 constructed outside-hull queries included)")


# -- criterion 10: LP kernel suite --------------------------------------------


def _lp(obj, rows, senses, rhs, lower, upper):
    return LpModel(np.array(obj, float),
                   np.array(rows, float).reshape(len(senses), len(obj)),
                   senses, np.array(rhs, float), np.array(lower, float),
                   np.array(upper, float))


def _hand_lps():
    G, L, E = Sense.GE, Sense.LE, Sense.EQ
    inf = INF
    # Each entry: (model, status, optimal objective or None).
    return [
        # bound-limited maximization
        (_lp([-1], [[1]], [L], [4], [0], [10]), LpStatus.OPTIMAL, -4.0),
        # vertex of two-constraint polygon: x=8/5, y=6/5
        (_lp([-1, -1], [[1, 2], [3, 1]], [L, L], [4, 6], [0, 0],
             [inf, inf]), LpStatus.OPTIMAL, -14.0 / 5.0),
        # redundant tighter row decides: x = 3
        (_lp([1], [[1], [1]], [G, G], [3, 1], [-inf], [inf]),
         LpStatus.OPTIMAL, 3.0),
        # equality pair pins the point (1, 1)
        (_lp([1, 1], [[1, 1], [1, -1]], [E, E], [2, 0], [-inf, -inf],
             [inf, inf]), LpStatus.OPTIMAL, 2.0),
        # bound optimum with one active row: x=1, y=2
        (_lp([-1, -2], [[1, 1]], [L], [3], [0, 0], [2, 2]),
         LpStatus.OPTIMAL, -5.0),
        # row forces x = -5 inside wider bounds
        (_lp([1], [[1]], [G], [-5], [-10], [10]), LpStatus.OPTIMAL, -5.0),
        # weighted elastic pair: prefer the cheap surplus: obj 2 at x = 1
        (_lp([0, 3, 1], [[1, 1, 0], [-1, 0, 1]], [G, G], [1, 1],
             [-inf, 0, 0], [inf, inf, inf]), LpStatus.OPTIMAL, 2.0),
        # symmetric elastic pair: total slack 2 regardless of x
        (_lp([0, 1, 1], [[1, 1, 0], [-1, 0, 1]], [G, G], [1, 1],
             [-inf, 0, 0], [inf, inf, inf]), LpStatus.OPTIMAL, 2.0),
        # duplicate degenerate rows at the origin
        (_lp([1], [[1], [1]], [G, G], [0, 0], [-inf], [inf]),
         LpStatus.OPTIMAL, 0.0),
        # free variable moved by an equality, bounded partner: x1 >= 0.5
        (_lp([1, 0], [[1, 1]], [E], [1], [-inf, -inf], [inf, 0.5]),
         LpStatus.OPTIMAL, 0.5),
        # negative-rhs <= row means y >= 2
        (_lp([1], [[-1]], [L], [-2], [-inf], [inf]), LpStatus.OPTIMAL, 2.0),
        # big-M style deactivation: x reaches 1, s stays 0
        (_lp([0, 1], [[1, 10]], [G], [1], [-1, 0], [1, 1]),
         LpStatus.OPTIMAL, 0.0),
        # covering triple relaxation: x = y = z = 1/2
        (_lp([1, 1, 1], [[1, 1, 0], [0, 1, 1], [1, 0, 1]], [G, G, G],
             [1, 1, 1], [0, 0, 0], [inf, inf, inf]),
         LpStatus.OPTIMAL, 1.5),
        # multiple optima on a face; the value is still pinned
        (_lp([1, 1], [[1, 1]], [G], [1], [0, 0], [1, 1]),
         LpStatus.OPTIMAL, 1.0),
        # transport-like equalities
        (_lp([2, 1, 0], [[1, 1, 1], [1, 0, 0]], [E, E], [6, 2],
             [0, 0, 0], [inf, inf, inf]), LpStatus.OPTIMAL, 4.0),
        # opposed strict pair, free variable
        (_lp([0], [[1], [-1]], [G, G], [1, 1], [-inf], [inf]),
         LpStatus.INFEASIBLE, None),
        # bound box conflicts with the row
        (_lp([0], [[1]], [G], [5], [0], [1]), LpStatus.INFEASIBLE, None),
        # contradictory equalities
        (_lp([0, 0], [[1, 1], [1, 1]], [E, E], [1, 2], [-inf, -inf],
             [inf, inf]), LpStatus.INFEASIBLE, None),
        # free improving ray
        (_lp([-1], np.zeros((0, 1)), [], [], [-inf], [inf]),
         LpStatus.UNBOUNDED, None),
        # ray inside a halfspace
        (_lp([-1], [[1]], [G], [1], [-inf], [inf]), LpStatus.UNBOUNDED, None),
    ]


def test_criterion_10_lp_kernel():
    suite = _hand_lps()
    assert len(suite) == 20
    for idx, (model, status, opt) in enumerate(suite):
        sol = solve_lp(model)
        assert sol.status is status, f"LP {idx}: {sol.status} != {status}"
        if status is not LpStatus.OPTIMAL:
            continue
        scale = max(1.0, abs(opt))
        assert abs(sol.objective_value - opt) <= 1e-6 * scale, \
            f"LP {idx}: objective {sol.objective_value} != {opt}"
        # Duality gap via the bounded-variable identity, then slackness.
        dual_obj = sol.duals @ model.rhs + sol.reduced_costs @ sol.primal
        assert abs(sol.objective_value - dual_obj) <= 1e-6 * scale, \
            f"LP {idx}: duality gap"
        act = model.row_coeffs @ sol.primal
        for i, sense in enumerate(model.senses):
            if abs(sol.duals[i]) > 1e-7 and sense is not Sense.EQ:
                assert abs(act[i] - model.rhs[i]) <= 1e-6, \
                    f"LP {idx}: dual {i} nonzero on a loose row"
        for j in range(model.columns):
            if abs(sol.reduced_costs[j]) > 1e-7:
                at_bound = min(abs(sol.primal[j] - model.lower[j]),
                               abs(sol.primal[j] - model.upper[j])) <= 1e-6
                assert at_bound, f"LP {idx}: reduced cost off-bound var {j}"
    report(10, True,
           "20/20 hand-checked LPs: statuses, objectives to 1e-6, "
           "duality gap <= 1e-6, complementary slackness hold")


# -- criterion 11: strategy invariance ----------------------------------------


def test_criterion_11_strategy_invariance():
    bad = []
    for k in range(50):
        n = 8 + k % 11
        d = 2 + k % 3
        sys_, depth, _ = gaussian_system(110_000 + k, n, d)
        for rule in ("greedy", "strong"):
            for select in ("depth-first", "best-first"):
                cfg = EngineConfig(branch_rule=rule, node_selection=select)
                got = solve_depth(sys_, cfg).depth
                if got != depth:
                    bad.append((k, rule, select, got, depth))
    report(11, not bad,
           "depth identical across {greedy,strong} x {depth-first,best-first}"
           " on 50/50 instances"
           if not bad else f"strategy mismatches: {bad[:5]}")
