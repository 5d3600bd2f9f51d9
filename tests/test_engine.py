import inspect
import logging
import re
import time
import weakref
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tukeydepth import binsearch, cuts, elastic, engine, simplex
from tukeydepth.binsearch import solve_depth_binary
from tukeydepth.cuts import CutPool
from tukeydepth.elastic import VIOL_TOL, chinneck_cover, solve_elastic
from tukeydepth.engine import (BranchCutEngine, EngineConfig, MipForm,
                               MipModel, Node, OutcomeKind, _NodeStore,
                               _root_start, complement_direction, expand,
                               rounding_heuristic, select_branch_variable,
                               solve_depth)
from tukeydepth.model import ParamBounds, PointSet, build_system
from tukeydepth.oracle import oracle_depth_2d, oracle_depth_general
from tukeydepth.simplex import (COLD, DERIVED, INF, REFACTORIZED, LpCounter,
                                LpStatus, solve_lp)

from conftest import (count_phase_one, count_warm_starts, gaussian_system,
                      screen_system, skewed_arc_system)


def mip_for(sys_, form=MipForm.DEPTH, guess=None, cfg=None):
    cfg = cfg or EngineConfig()
    bounds = ParamBounds.for_system(sys_, cfg.epsilon)
    return MipModel(sys_, bounds, form, guess=guess)


# Former EngineConfig fields, each with the value the engine now always
# uses; the first five are engine constants of the same name in capitals.
REMOVED_FIELDS = {"strong_k": 4, "cut_improve": 1e-3, "max_cut_rounds": 20,
                  "rounding_depth": 7, "rounding_iteration": 5,
                  "feas_tol": 1e-9, "viol_tol": 1e-7,
                  "heuristic_variant": "fast", "heuristic_k": 1, "c": 1.0}


def test_engine_config_keeps_only_caller_knobs():
    assert {f.name for f in fields(EngineConfig)} == {
        "branch_rule", "node_selection", "epsilon", "cert_tol",
        "time_limit", "node_limit"}
    for name, value in REMOVED_FIELDS.items():
        with pytest.raises(TypeError):
            EngineConfig(**{name: value})
    for name in ("strong_k", "cut_improve", "max_cut_rounds",
                 "rounding_depth", "rounding_iteration"):
        assert getattr(engine, name.upper()) == REMOVED_FIELDS[name]
    assert VIOL_TOL == REMOVED_FIELDS["viol_tol"]


def test_solve_depth_examples(simplex_sys, square_sys, outside_sys):
    assert solve_depth(simplex_sys).depth == 1
    assert solve_depth(square_sys).depth == 2
    out = solve_depth(outside_sys)
    assert out.depth == 0
    assert out.cover == ()


def test_result_certificate_fields(square_sys):
    res = solve_depth(square_sys)
    assert res.certificate == "verified"
    assert res.exact
    non_cover = [j for j in range(square_sys.n_rows) if j not in res.cover]
    margins = square_sys.rows[non_cover] @ res.direction
    assert np.all(margins > 1e-9)
    weight = square_sys.weight_of(res.cover)
    assert weight + square_sys.zero_offset == res.depth
    assert res.lower_bound == res.depth


def test_guess_form_requires_guess(simplex_sys):
    with pytest.raises(ValueError):
        mip_for(simplex_sys, MipForm.GUESS)
    with pytest.raises(ValueError):
        MipModel(simplex_sys, ParamBounds.for_system(simplex_sys),
                 MipForm.DEPTH, guess=2)


def test_bound_and_cut_fathoms_full_cover(simplex_sys):
    cfg = EngineConfig()
    engine = BranchCutEngine(mip_for(simplex_sys), cfg, CutPool())
    node = Node(fixed1=frozenset({2}))
    out = engine.bound_and_cut(node, incumbent_weight=10)
    assert out.kind is OutcomeKind.FATHOMED
    assert out.cover == frozenset({2})
    assert out.objective == pytest.approx(1.0, abs=1e-7)


def test_bound_and_cut_prunes_by_bound(simplex_sys):
    cfg = EngineConfig()
    engine = BranchCutEngine(mip_for(simplex_sys), cfg, CutPool())
    out = engine.bound_and_cut(Node(), incumbent_weight=1)
    assert out.kind in (OutcomeKind.PRUNED_BY_BOUND, OutcomeKind.FATHOMED)
    if out.kind is OutcomeKind.PRUNED_BY_BOUND:
        assert out.objective > 0


@pytest.mark.parametrize("members, resolves", [((0,), 0), ((1, 2, 3), 1)])
def test_cut_round_resolves_only_for_a_violated_cut(square_sys, members,
                                                    resolves, monkeypatch):
    """A round whose fresh cuts the current optimum satisfies (row 0 is
    fixed to 1, so s_0 >= 1) ends without a re-solve; a violated cut is
    re-solved.  Either way the cut goes into the pool."""

    cut = cuts.Cut(members)
    monkeypatch.setattr(engine, "generate_cuts", lambda *args: [cut])
    lps = []
    solve = engine.solve_lp

    def spy(*args, **kwargs):
        lps.append(solve(*args, **kwargs))
        return lps[-1]

    monkeypatch.setattr(engine, "solve_lp", spy)
    cfg = EngineConfig()
    search = BranchCutEngine(mip_for(square_sys, cfg=cfg), cfg, CutPool())
    out = search.bound_and_cut(Node(fixed1=frozenset({0})),
                               incumbent_weight=10)
    s = lps[0].primal[2:6]
    assert cut.violated_by(s) == bool(resolves)
    assert len(lps) == 1 + resolves
    assert out.lp is lps[-1]
    assert search.stats.cuts == 1 and cut in search.pool


def test_bound_and_cut_square_root_relaxation(square_sys):
    cfg = EngineConfig()
    engine = BranchCutEngine(mip_for(square_sys, cfg=cfg), cfg, CutPool())
    out = engine.bound_and_cut(Node(), incumbent_weight=10)
    assert out.objective <= 2 + 1e-9
    if out.kind is OutcomeKind.FRACTIONAL:
        assert out.branch_var is not None


def test_select_branch_single_fractional(simplex_sys):
    cfg = EngineConfig()
    mip = mip_for(simplex_sys, cfg=cfg)
    lp = solve_lp(mip.relaxation(frozenset(), frozenset({0, 1})))
    node = Node(fixed0=frozenset({0, 1}))
    s = lp.primal[2:5]
    fractional = [j for j in range(3)
                  if j not in node.fixed0 and 1e-9 < s[j] < 1 - 1e-9]
    if fractional:
        for rule in ("greedy", "strong"):
            cfg2 = EngineConfig(branch_rule=rule)
            assert select_branch_variable(node, mip, lp, cfg2) == fractional[0]


def test_select_branch_greedy_matches_scores(square_sys):
    cfg = EngineConfig(branch_rule="greedy")
    mip = mip_for(square_sys, cfg=cfg)
    lp = solve_lp(mip.relaxation())
    s = lp.primal[2:6]
    fractional = [j for j in range(4) if 1e-9 < s[j] < 1 - 1e-9]
    if len(fractional) < 2:
        pytest.skip("relaxation already integral at the root")
    chosen = select_branch_variable(Node(), mip, lp, cfg)
    el = solve_elastic(square_sys, set())
    viol = [j for j in fractional if el.violations[j] > VIOL_TOL]
    pool = viol if viol else fractional
    scores = {j: (el.violations[j] * abs(el.sensitivities[j])
                  if el.violations[j] > VIOL_TOL
                  else abs(el.sensitivities[j])) for j in pool}
    best = max(scores.values())
    expected = min(j for j, v in scores.items() if v >= best - 1e-15)
    assert chosen == expected


@pytest.mark.parametrize("fixed0, expected", [
    (frozenset(), 0), (frozenset({0}), 1), (frozenset({0, 1}), 2)])
def test_select_branch_greedy_breaks_ties_to_the_lowest_row(
        square_sys, fixed0, expected, monkeypatch):
    """The square's four corner rows tie exactly in the elastic solution:
    greedy branching hands the fractional rows to ``greedy_row``, which
    takes the lowest of them."""

    calls = []
    pick = engine.greedy_row

    def spy(sol, rows):
        calls.append(list(rows))
        return pick(sol, rows)

    monkeypatch.setattr(engine, "greedy_row", spy)
    cfg = EngineConfig(branch_rule="greedy")
    mip = mip_for(square_sys, cfg=cfg)
    lp = solve_lp(mip.relaxation(fixed0=fixed0))
    node = Node(fixed0=fixed0)
    assert select_branch_variable(node, mip, lp, cfg) == expected
    el = node.elastic
    assert np.all(el.sensitivities == el.sensitivities[0])
    assert np.all(el.violations == el.violations[0])
    s = lp.primal[2:6]
    assert calls == [[j for j in range(4) if j not in fixed0
                      and 1e-9 < s[j] < 1 - 1e-9]]
    assert expected == min(calls[0])


def test_select_branch_strong_matches_child_bounds(square_sys):
    cfg = EngineConfig(branch_rule="strong")
    mip = mip_for(square_sys, cfg=cfg)
    lp = solve_lp(mip.relaxation())
    s = lp.primal[2:6]
    fractional = [j for j in range(4) if 1e-9 < s[j] < 1 - 1e-9]
    if len(fractional) < 2:
        pytest.skip("relaxation already integral at the root")
    chosen = select_branch_variable(Node(), mip, lp, cfg)
    scores = {}
    for j in fractional:
        pair = []
        for f1, f0 in ((frozenset({j}), frozenset()),
                       (frozenset(), frozenset({j}))):
            child = solve_lp(mip.relaxation(f1, f0))
            pair.append(np.inf if child.status is LpStatus.INFEASIBLE
                        else child.objective_value)
        scores[j] = min(pair)
    best = max(scores.values())
    expected = min(j for j, v in scores.items() if v >= best - 1e-12)
    assert chosen == expected


@pytest.mark.parametrize("seed", range(4))
def test_branching_elastic_lps_start_warm(seed, monkeypatch):
    """Each greedy-branching elastic LP below a node that already solved
    one starts from that solution's basis, and the kernel accepts every
    such start: at most the root's starts cold.  The depth matches the
    oracle."""

    # Draws 6903 and 6905 solve no branching elastic LP below the root.
    draw = (6900, 6901, 6902, 6907)[seed]
    sys_, depth, _ = gaussian_system(draw, 29, 2 + seed % 2)
    every_start = count_warm_starts(monkeypatch)
    accepted, starts = [], []
    solve = engine.solve_elastic

    def spy(sys_, removed, *args, start=None, **kwargs):
        starts.append(start is not None)
        before = len(every_start)
        sol = solve(sys_, removed, *args, start=start, **kwargs)
        accepted.extend(every_start[before:])
        return sol

    monkeypatch.setattr(engine, "solve_elastic", spy)
    for select in ("depth-first", "best-first"):
        starts.clear()
        accepted.clear()
        res = solve_depth(sys_, EngineConfig(node_selection=select))
        assert res.depth == depth and res.exact
        assert starts.count(False) <= 1
        assert accepted == [True] * starts.count(True)
        assert starts.count(True) > 0


def test_select_branch_integral_node_errors(simplex_sys):
    cfg = EngineConfig()
    mip = mip_for(simplex_sys, cfg=cfg)
    lp = solve_lp(mip.relaxation(frozenset({2}), frozenset({0, 1})))
    node = Node(fixed1=frozenset({2}), fixed0=frozenset({0, 1}))
    with pytest.raises(ValueError, match="integral node"):
        select_branch_variable(node, mip, lp, cfg)


def test_expand_children():
    node = Node()
    child1, child0 = expand(node, 2)
    assert child1.fixed1 == frozenset({2}) and child1.fixed0 == frozenset()
    assert child0.fixed0 == frozenset({2}) and child0.fixed1 == frozenset()
    assert child1.tree_depth == child0.tree_depth == 1
    with pytest.raises(ValueError):
        expand(child1, 2)


def test_dive_on_one_reaches_fathom(simplex_sys):
    # Following the removed-row child along the heuristic cover must fathom
    # within cover-size steps, because removing the cover restores
    # feasibility of everything else.
    cfg = EngineConfig()
    engine = BranchCutEngine(mip_for(simplex_sys, cfg=cfg), cfg, CutPool())
    node = Node()
    for step in range(2):
        out = engine.bound_and_cut(node, incumbent_weight=5)
        if out.kind is OutcomeKind.FATHOMED:
            break
        assert out.kind is OutcomeKind.FRACTIONAL
        child1, _ = expand(node, out.branch_var)
        node = child1
    else:
        out = engine.bound_and_cut(node, incumbent_weight=5)
    assert out.kind is OutcomeKind.FATHOMED


def test_rounding_heuristic_rule(simplex_sys):
    cfg = EngineConfig()
    mip = mip_for(simplex_sys, cfg=cfg)
    lp = solve_lp(mip.relaxation())

    class FakeLp:
        def __init__(self, primal):
            self.primal = primal

    fake = FakeLp(np.concatenate([[0.0, 0.0], [0.9, 0.1, 0.8]]))
    got = rounding_heuristic(fake, Node(), mip, incumbent_weight=10)
    # Rounded removal {0, 2}: remaining row 1 alone is satisfiable.
    assert got is not None
    cover, weight, direction = got
    assert cover == frozenset({0, 2})
    assert weight == 2
    assert simplex_sys.rows[1] @ direction > 0

    fake_low = FakeLp(np.concatenate([[0.0, 0.0], [0.4, 0.3, 0.2]]))
    assert rounding_heuristic(fake_low, Node(), mip, 10) is None

    fake_half = FakeLp(np.concatenate([[0.0, 0.0], [0.5, 0.5, 0.5]]))
    assert rounding_heuristic(fake_half, Node(), mip,
                              incumbent_weight=1) is None


@pytest.mark.parametrize("solve", [solve_depth, solve_depth_binary])
def test_each_new_cut_enters_the_pool_once(solve):
    """A node keeps a generated cut only when the pool takes it, so the
    solve's cut count is the pool's size: no cut row is appended twice."""

    for seed in range(3):
        sys_, depth, _ = gaussian_system(6400 + seed, 16, 3)
        pool = CutPool()
        res = solve(sys_, pool=pool)
        assert res.depth == depth
        assert res.stats.cuts == len(pool) > 0


def test_determinism_across_runs():
    sys_, depth, _ = gaussian_system(6400, 16, 3)
    a = solve_depth(sys_)
    b = solve_depth(sys_)
    assert a.depth == b.depth == depth
    assert a.cover == b.cover
    counts = ("nodes", "lps", "cuts", "dual_pivots")
    assert [getattr(a.stats, c) for c in counts] == \
        [getattr(b.stats, c) for c in counts]
    assert np.array_equal(a.direction, b.direction)


@pytest.mark.parametrize("rule", ["greedy", "strong"])
def test_solvers_never_enter_phase_one(rule, monkeypatch):
    # Every LP the search builds is dual feasible at the slack basis.
    sys_, depth, _ = gaussian_system(6400, 16, 3)
    cfg = EngineConfig(branch_rule=rule)
    entries = count_phase_one(monkeypatch)
    for solve in (solve_depth, solve_depth_binary):
        res = solve(sys_, cfg)
        assert res.depth == depth
        assert res.stats.nodes > 0
        assert res.stats.dual_pivots > 0
    assert entries == []


def test_rounding_in_cut_loop_keeps_depth(monkeypatch):
    """With its depth and iteration thresholds at 0, the rounding heuristic
    runs inside the cut loop of every node and finds covers lighter than
    the incumbent, and the search still ends at the exact depth."""

    found = []

    def rounding(*args, **kwargs):
        cand = rounding_heuristic(*args, **kwargs)
        found.append(cand)
        return cand

    monkeypatch.setattr(engine, "ROUNDING_DEPTH", 0)
    monkeypatch.setattr(engine, "ROUNDING_ITERATION", 0)
    monkeypatch.setattr(engine, "rounding_heuristic", rounding)

    sys_, depth, _ = gaussian_system(6400, 20, 3)
    cfg = EngineConfig()
    search = BranchCutEngine(mip_for(sys_, cfg=cfg), cfg, CutPool())
    # The all-rows incumbent lets every rounding reach its feasibility check.
    everything = frozenset(range(sys_.n_rows))
    _, _, weight, exact, _ = search.run_depth(everything, None,
                                              sys_.n_rows)
    assert exact and weight == depth
    assert any(cand is not None for cand in found)


@pytest.mark.parametrize("feas_tol", [1e-8, 1e-9])
def test_feas_tol_reaches_cut_and_rounding_phase1(feas_tol, monkeypatch):
    """The alternative LPs of cut generation (``bis_cut``) and of the
    rounding heuristic (``complement_direction``) pass no tolerance of their
    own, so ``solve_lp``'s ``feas_tol`` reaches both; its default, 1e-9,
    leaves the run as it is, and 1e-8 keeps the exact depth."""

    assert inspect.signature(solve_lp).parameters["feas_tol"].default == 1e-9
    received = {"bis_cut": [], "complement_direction": []}
    inside_complement = []

    def solver(name, fn):
        def wrapper(*args, **kwargs):
            if name == "bis_cut" or inside_complement:
                received[name].append(kwargs.get("feas_tol"))
                kwargs["feas_tol"] = feas_tol
            return fn(*args, **kwargs)
        return wrapper

    def complement(*args, **kwargs):
        inside_complement.append(True)
        try:
            return complement_direction(*args, **kwargs)
        finally:
            inside_complement.pop()

    def run(spied):
        with monkeypatch.context() as m:
            m.setattr(engine, "ROUNDING_DEPTH", 0)
            m.setattr(engine, "ROUNDING_ITERATION", 0)
            if spied:
                m.setattr(cuts, "solve_lp", solver("bis_cut", cuts.solve_lp))
                m.setattr(engine, "solve_lp",
                          solver("complement_direction", engine.solve_lp))
                m.setattr(engine, "complement_direction", complement)
            cfg = EngineConfig()
            search = BranchCutEngine(mip_for(sys_, cfg=cfg), cfg, CutPool())
            # The all-rows incumbent lets every rounding reach its
            # feasibility check.
            everything = frozenset(range(sys_.n_rows))
            out = search.run_depth(everything, None, sys_.n_rows)
            return out, search.stats

    sys_, depth, _ = gaussian_system(6400, 16, 3)
    (cover, _, weight, exact, _), counts = run(spied=True)
    assert exact and weight == depth
    for name, tols in received.items():
        assert tols, name
        assert set(tols) == {None}, name
    if feas_tol == 1e-9:
        (plain_cover, _, _, _, _), plain_counts = run(spied=False)
        assert cover == plain_cover and counts == plain_counts


@pytest.mark.parametrize("rule", ["greedy", "strong"])
@pytest.mark.parametrize("select", ["depth-first", "best-first"])
def test_strategy_smoke(rule, select):
    sys_, depth, _ = gaussian_system(6500, 14, 2)
    cfg = EngineConfig(branch_rule=rule, node_selection=select)
    assert solve_depth(sys_, cfg).depth == depth


def test_node_budget_gives_partial_result():
    sys_, depth, _ = gaussian_system(6700, 24, 2)
    res = solve_depth(sys_, EngineConfig(node_limit=1))
    assert res.depth >= depth >= res.lower_bound
    if res.depth != res.lower_bound:
        assert not res.exact


def test_time_budget_zero_stops_immediately():
    sys_, depth, _ = gaussian_system(6800, 22, 2)
    res = solve_depth(sys_, EngineConfig(time_limit=0.0))
    assert res.depth >= depth >= res.lower_bound
    assert res.stats.heuristic_weight is not None
    if res.depth != res.lower_bound:
        assert not res.exact


@pytest.mark.parametrize("budget", [{"node_limit": 1}, {"node_limit": 3},
                                    {"node_limit": 10}, {"time_limit": 0.0}],
                         ids=["nodes1", "nodes3", "nodes10", "time0"])
def test_spent_budget_brackets_depth(budget):
    """A spent node or time budget ends both solvers, bisection included,
    with the oracle depth bracketed by [lower_bound, depth], a verified
    certificate for the cover returned, and exact only when that cover is
    optimal."""

    cfg = EngineConfig(**budget)
    inexact = {solve_depth: 0, solve_depth_binary: 0}
    for seed in range(6700, 6712):
        sys_, depth, _ = gaussian_system(seed, 24, 2 + seed % 2)
        for solve in inexact:
            res = solve(sys_, cfg)
            assert res.depth >= depth >= res.lower_bound
            assert res.certificate == "verified"
            if res.exact:
                assert res.depth == depth == res.lower_bound
            else:
                inexact[solve] += 1
    assert all(inexact.values()), inexact


def test_node_store_order_and_dominance():
    """Depth-first pops the newest node; best-first the lowest bound, the
    oldest first among equal bounds.  A finite incumbent discards nodes
    whose bound rounds up to it; INF discards none."""

    bounds = (2.0, 1.0, 3.0, 1.0)

    def popped(strategy, incumbent):
        store = _NodeStore(strategy)
        for label, bound in enumerate(bounds):
            store.push(Node(lower_bound=bound, tree_depth=label))
        assert len(store) == len(bounds)
        order = []
        while (node := store.pop(incumbent)) is not None:
            order.append(node.tree_depth)
        assert len(store) == 0
        return order

    assert popped("depth-first", INF) == [3, 2, 1, 0]
    assert popped("best-first", INF) == [1, 3, 0, 2]
    assert popped("depth-first", 2) == [3, 1]
    assert popped("best-first", 2) == [1, 3]


@pytest.mark.parametrize("field, value", [
    ("node_selection", "breadth-first"), ("branch_rule", "bogus"),
    ("epsilon", 0.0), ("epsilon", float("nan")), ("epsilon", INF),
    ("cert_tol", -1e-9), ("cert_tol", float("nan")), ("cert_tol", INF),
    ("time_limit", -1.0), ("time_limit", float("nan")),
    ("node_limit", -1), ("node_limit", float("nan"))])
def test_engine_config_rejects_bad_values(field, value):
    """Every field is checked when the config is made: a NaN limit would
    never end a search, and most solves end at the heuristic, before the
    search reads the rule or the node selection."""

    with pytest.raises(ValueError, match=field):
        EngineConfig(**{field: value})


def test_engine_config_accepts_edge_values():
    cfg = EngineConfig(branch_rule="strong", node_selection="best-first",
                       cert_tol=0.0, time_limit=0.0, node_limit=0)
    assert (cfg.time_limit, cfg.node_limit, cfg.cert_tol) == (0.0, 0, 0.0)


@pytest.mark.parametrize("module, solve", [(engine, solve_depth),
                                           (binsearch, solve_depth_binary)],
                         ids=["branch-and-cut", "bisection"])
def test_deadline_counts_from_solve_start(module, solve, monkeypatch):
    """The time budget covers the whole solve: a heuristic that outlasts it
    leaves no time for a single node of the tree or of any probe."""

    heuristic = module.chinneck_cover

    def slow(*args, **kwargs):
        time.sleep(0.2)
        return heuristic(*args, **kwargs)

    monkeypatch.setattr(module, "chinneck_cover", slow)
    sys_, depth, _ = gaussian_system(6800, 22, 2)
    res = solve(sys_, EngineConfig(time_limit=0.1))
    assert res.stats.heuristic_weight > 1
    assert res.exact is False and res.stats.nodes == 0
    assert res.depth >= depth >= res.lower_bound
    assert res.stats.wall_time >= 0.2


@pytest.mark.parametrize("select", ["best-first", "depth-first"])
def test_search_keeps_one_node_lp_state(select, monkeypatch):
    """Open nodes keep only basis statuses, the engine keeps the last node
    LP alone, and the cut rounds and the dive hand that LP's kernel state
    over: whenever a node LP is solved, its kernel is the only node-LP
    kernel state alive.  The search still derives LPs."""

    sys_, depth, _ = gaussian_system(6967, 34, 2)
    node_columns = sys_.dim + sys_.n_rows
    alive = weakref.WeakSet()
    counts = []
    solve = simplex._Simplex.solve

    def spy_solve(kernel):
        if kernel.n_struct == node_columns:
            alive.add(kernel)
            counts.append(len(alive))
        return solve(kernel)

    monkeypatch.setattr(simplex._Simplex, "solve", spy_solve)
    res = solve_depth(sys_, EngineConfig(node_selection=select))
    assert res.depth == depth and res.exact
    assert len(counts) > res.stats.nodes > 10
    assert max(counts) == 1
    assert res.stats.derived_starts > 0


def _spy_nodes(monkeypatch):
    """Record (engine, node, outcome, first LP of the node, pool cuts at
    the end of the node) for every node any engine evaluates."""

    seen, lps = [], []
    bound_and_cut = BranchCutEngine.bound_and_cut
    solve = engine.solve_lp

    def spy_lp(*args, **kwargs):
        lps.append(solve(*args, **kwargs))
        return lps[-1]

    def spy(self, node, incumbent_weight):
        first = len(lps)
        out = bound_and_cut(self, node, incumbent_weight)
        # At zero every cut is violated, so this lists the whole pool.
        pool = self.pool.violated(np.zeros(self.mip.n_binaries))
        seen.append((self, node, out, lps[first], tuple(pool)))
        return out

    monkeypatch.setattr(engine, "solve_lp", spy_lp)
    monkeypatch.setattr(BranchCutEngine, "bound_and_cut", spy)
    return seen


@pytest.mark.parametrize("solve", [solve_depth, solve_depth_binary])
@pytest.mark.parametrize("select", ["depth-first", "best-first"])
def test_node_lps_carry_local_rows(solve, select, monkeypatch):
    """A node LP holds only the pool cuts of its node's rows, but no node
    ends fractional at an optimum that violates any pool cut: its bound is
    the bound of the LP over the whole pool, solved cold.  Some node LP
    holds fewer cut rows than the pool."""

    seen = _spy_nodes(monkeypatch)
    fractional = fewer = 0
    for seed in range(4):
        sys_, depth, _ = gaussian_system(7500 + seed, 18 + 2 * seed,
                                         2 + seed % 2)
        del seen[:]
        res = solve(sys_, EngineConfig(node_selection=select))
        assert res.depth == depth and res.exact
        n = sys_.n_rows
        for search, node, out, _, pool in seen:
            mip = search.mip
            head = mip.n_columns + n + (mip.form is MipForm.GUESS)
            cut_rows = out.lp.basis_status.size - head
            fewer += cut_rows < len(pool)
            if out.kind is not OutcomeKind.FRACTIONAL:
                continue
            fractional += 1
            s = out.lp.primal[sys_.dim:sys_.dim + n]
            assert not any(cut.violated_by(s) for cut in pool)
            full = solve_lp(mip.relaxation(node.fixed1, node.fixed0, pool))
            assert full.objective_value == pytest.approx(
                out.objective, abs=1e-7, rel=1e-7)
    assert fractional > 0 and fewer > 0


def test_later_probe_roots_derive_from_the_previous_root(monkeypatch):
    """Each bisection probe's root after the first starts with the rows the
    previous probe's root passed on and derives its first LP from that
    root's LP, its last optimal one when the root ends infeasible.  The
    first probe's root ends infeasible on the last draw."""

    seen = _spy_nodes(monkeypatch)
    later = 0
    draws = [(7600 + seed, 20 + 2 * seed, 3) for seed in range(4)]
    for seed, n, d in draws + [(7614, 18, 3)]:
        sys_, depth, _ = gaussian_system(seed, n, d)
        del seen[:]
        res = solve_depth_binary(sys_)
        assert res.depth == depth and res.exact
        roots = [(search, node, out, first)
                 for search, node, out, first, _ in seen
                 if node.tree_depth == 0]
        assert len(roots) == res.stats.guesses
        for search, node, out, first in roots[1:]:
            assert first.start_kind == DERIVED
            later += 1
    assert roots[0][2].kind is OutcomeKind.INFEASIBLE
    assert later > 0


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_depth_root_opens_at_the_heuristic_optimum(dim, monkeypatch):
    """The depth form's root LP opens at the basis ``_root_start`` reads off
    the heuristic's first elastic LP: refactorized, with no dual pivot, at
    the objective of a cold solve.  Odd draws repeat a third of their
    points, which ``build_system`` folds into weights above 1."""

    seen = _spy_nodes(monkeypatch)
    roots = folded = 0
    for draw in range(12):
        rng = np.random.default_rng([7700, dim, draw])
        n = int(rng.integers(12, 30))
        pts = rng.normal(size=(n, dim))
        if draw % 2:
            pts = np.vstack([pts, pts[rng.choice(n, size=n // 3)]])
        sys_ = build_system(PointSet(dim, pts, np.zeros(dim)))
        del seen[:]
        assert solve_depth(sys_).exact
        for search, node, _, first, _ in seen:
            if node.tree_depth:
                continue
            cold = solve_lp(search.mip.relaxation())
            assert first.start_kind == REFACTORIZED
            assert first.dual_pivots == 0
            assert abs(first.objective_value - cold.objective_value) <= 1e-9
            roots += 1
            folded += bool((sys_.weights > 1).any())
    assert roots >= 5 and folded >= 2


def test_degenerate_elastic_basis_leaves_the_root_cold(monkeypatch):
    """A planar cloud in three dimensions gives the elastic LP an all-zero
    equality row, whose slack stays basic.  No start maps from that basis,
    and the root LP is bit-identical to one solved without a start."""

    seen = _spy_nodes(monkeypatch)
    for draw in range(5):
        pts = np.zeros((14, 3))
        pts[:, :2] = np.random.default_rng([7800, draw]).normal(size=(14, 2))
        sys_ = build_system(PointSet(3, pts, np.zeros(3)))
        del seen[:]
        res = solve_depth(sys_)
        planar = build_system(PointSet(2, pts[:, :2], np.zeros(2)))
        assert res.depth == oracle_depth_2d(planar) and res.exact
        roots = [(search, first) for search, node, _, first, _ in seen
                 if node.tree_depth == 0]
        assert len(roots) == 1
        search, first = roots[0]
        assert search.root_elastic is not None
        assert _root_start(search.mip, search.root_elastic) is None
        cold = solve_lp(search.mip.relaxation())
        assert first.start_kind == cold.start_kind == COLD
        for name in ("primal", "duals", "reduced_costs", "basis_status"):
            assert np.array_equal(getattr(first, name), getattr(cold, name))
        assert first.objective_value == cold.objective_value
        assert first.dual_pivots == cold.dual_pivots


def test_ladder_cell_n40_d3_matches_oracle():
    """The ladder's n=40, d=3 cell (a default_rng(1) normal cloud, query at
    the origin), depth-first, under both solvers."""

    pts = np.random.default_rng(1).normal(size=(40, 3))
    sys_ = build_system(PointSet(3, pts, np.zeros(3)))
    depth = oracle_depth_general(sys_)
    for solve in (solve_depth, solve_depth_binary):
        res = solve(sys_, EngineConfig(node_selection="depth-first"))
        assert res.depth == depth and res.exact
        assert res.certificate == "verified"


def test_search_progress_log(caplog, monkeypatch):
    """At INFO the search logs a progress line at most every LOG_EVERY
    seconds and a final line (nodes, open nodes, incumbent, best bound, gap
    and LPs/s), and bisection one line per probe.  The level is read once
    per search: with INFO off nothing is formatted."""

    sys_, depth, _ = gaussian_system(6405, 24, 3)
    reads = [0]

    def clock():
        # Each reading advances a quarter second, so progress lines fall
        # due several times within one search.
        reads[0] += 1
        return 0.25 * reads[0]

    monkeypatch.setattr(engine, "time", SimpleNamespace(monotonic=clock))
    caplog.set_level(logging.INFO, logger="tukeydepth")
    res = solve_depth(sys_)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "tukeydepth.engine"]
    final = lines[-1]
    assert final.startswith(f"search: {res.stats.nodes} nodes, 0 open, "
                            f"incumbent {depth}, best bound {depth}, gap 0, ")
    assert " LPs/s, " in final and final.endswith(", done")
    progress = lines[:-1]
    assert 0 < len(progress) <= 0.25 * reads[0] / engine.LOG_EVERY
    stamps = [float(re.search(r"([0-9.]+) s$", line).group(1))
              for line in progress]
    assert all(b - a >= engine.LOG_EVERY - 0.1
               for a, b in zip(stamps, stamps[1:]))
    for line in progress:
        assert re.match(r"search: \d+ nodes, \d+ open, incumbent \d+, "
                        r"best bound \d+, gap \d+, \d+ LPs/s, ", line)

    caplog.clear()
    res = solve_depth_binary(sys_)
    probes = [r.getMessage() for r in caplog.records
              if r.name == "tukeydepth.binsearch"]
    assert len(probes) == res.stats.guesses > 0
    for k, (line, guess) in enumerate(zip(probes, res.stats.guess_values)):
        assert line.startswith(f"probe {k + 1}: guess {guess}, ")
    finals = [r.getMessage() for r in caplog.records
              if r.name == "tukeydepth.engine"
              and r.getMessage().endswith(", done")]
    assert [line.split(":")[0] for line in finals] == [
        f"guess {g}" for g in res.stats.guess_values]

    caplog.clear()
    caplog.set_level(logging.WARNING, logger="tukeydepth")
    checks = []
    info_log = engine._info_log

    def spy(name):
        log = info_log(name)
        checks.append(log)
        return log

    monkeypatch.setattr(engine, "_info_log", spy)
    monkeypatch.setattr(BranchCutEngine, "_log_progress",
                        lambda *args: pytest.fail("formatted a log line"))
    res = solve_depth(sys_)
    assert checks == [None]
    checks.clear()
    res = solve_depth_binary(sys_)
    assert len(checks) == res.stats.guesses
    assert not caplog.records


def test_zero_row_only_system():
    sys_ = build_system(PointSet(2, [[1, 1], [1, 1]], [1, 1]))
    assert sys_.n_rows == 0 and sys_.zero_offset == 2
    res = solve_depth(sys_)
    assert res.depth == 2
    assert res.exact and res.certificate == "verified"


def test_zero_offset_propagates():
    ps = PointSet(2, [[1, 0], [0, 1], [-1, -1], [0, 0]], [0, 0])
    sys_ = build_system(ps)
    res = solve_depth(sys_)
    assert res.depth == oracle_depth_2d(sys_) == 2


def test_complement_direction_signs(simplex_sys):
    assert complement_direction(simplex_sys, set()) is None
    d = complement_direction(simplex_sys, {2})
    assert d is not None
    assert simplex_sys.rows[[0, 1]] @ d == pytest.approx([1, 1], abs=1)
    assert np.all(simplex_sys.rows[[0, 1]] @ d > 0)


def _vertex_system(k):
    """A query just inside the outermost point of a 40-point cloud: that
    point alone is cut off, so the depth is 1."""

    d = 2 + k % 2
    pts = np.random.default_rng([k, 99]).normal(size=(40, d))
    return build_system(PointSet(
        d, pts, 0.99 * pts[np.argmax(np.linalg.norm(pts, axis=1))]))


def _heuristic_lps(sys_):
    counter = LpCounter()
    chinneck_cover(sys_, counter)
    return counter.lps


@pytest.mark.parametrize("solve", [solve_depth, solve_depth_binary])
@pytest.mark.parametrize("depth,make", [(0, screen_system),
                                        (1, _vertex_system)],
                         ids=["screen-depth0", "vertex-depth1"])
def test_heuristic_direction_certifies_without_lp(solve, depth, make):
    """A cover the heuristic closes is certified by its direction: the
    solve runs the heuristic's LPs and no other (none for depth 0, where
    the row mean closes it)."""

    cfg = EngineConfig()
    for k in range(4):
        sys_ = make(k)
        assert oracle_depth_general(sys_) == depth
        res = solve(sys_, cfg)
        assert res.depth == depth and res.exact
        assert res.certificate == "verified"
        assert res.stats.lps == _heuristic_lps(sys_)
        if depth == 0:
            assert res.stats.lps == 0
        keep = [j for j in range(sys_.n_rows) if j not in res.cover]
        assert np.all(sys_.rows[keep] @ res.direction > cfg.cert_tol)


@pytest.mark.parametrize("solve", [solve_depth, solve_depth_binary])
def test_failed_direction_falls_back_to_alternative_lp(solve, monkeypatch):
    """A carried direction that fails the margin check (here the reversed
    heuristic x) is replaced by the alternative LP's, still verified."""

    def reversed_x(*args, **kwargs):
        cover, x, root = chinneck_cover(*args, **kwargs)
        return cover, -x, root

    cert_calls = []

    def spy(*args, **kwargs):
        cert_calls.append(args[1])
        return complement_direction(*args, **kwargs)

    monkeypatch.setattr(engine, "chinneck_cover", reversed_x)
    monkeypatch.setattr(binsearch, "chinneck_cover", reversed_x)
    monkeypatch.setattr(engine, "complement_direction", spy)
    cfg = EngineConfig()
    for sys_ in (screen_system(0), _vertex_system(1)):
        cert_calls.clear()
        res = solve(sys_, cfg)
        assert res.certificate == "verified"
        assert len(cert_calls) == 1
        assert res.stats.lps == _heuristic_lps(sys_) + 1
        keep = [j for j in range(sys_.n_rows) if j not in res.cover]
        assert np.all(sys_.rows[keep] @ res.direction > cfg.cert_tol)


def _assert_mean_closed(res, sys_, cfg):
    """Depth ``zero_offset`` proved by the row mean: no LP, node or guess,
    and a verified direction."""

    assert res.depth == sys_.zero_offset and res.cover == ()
    assert res.exact and res.certificate == "verified"
    assert res.stats.lps == res.stats.nodes == res.stats.guesses == 0
    assert res.stats.heuristic_weight == 0
    assert np.all(sys_.rows @ res.direction > cfg.cert_tol)


@pytest.mark.parametrize("solve", [solve_depth, solve_depth_binary])
def test_screening_family_runs_no_lp(solve):
    """Every outermost-point query of the screening family (seeds 1 and 2,
    40 queries each, d alternating 2 and 3) is answered at depth 0 by
    arithmetic alone; an LP back on this traffic fails here."""

    cfg = EngineConfig()
    for seed in (1, 2):
        for k in range(40):
            sys_ = screen_system(k, seed)
            assert sys_.n_rows == 200
            _assert_mean_closed(solve(sys_, cfg), sys_, cfg)


@pytest.mark.parametrize("solve", [solve_depth, solve_depth_binary])
def test_screening_direction_is_the_unit_scaled_row_mean(solve):
    """On the screening family the returned direction is, bit for bit, the
    scaled row mean divided by its ``np.linalg.norm``."""

    for seed in (1, 2):
        for k in range(40):
            sys_ = screen_system(k, seed)
            mean = sys_.weights @ sys_.rows
            m = mean / np.min(sys_.rows @ mean)
            res = solve(sys_)
            assert res.cover == () and res.stats.lps == 0
            assert res.direction.tobytes() == (m / np.linalg.norm(m)).tobytes()


@pytest.mark.parametrize("solve", [solve_depth, solve_depth_binary])
def test_query_on_data_points_closes_at_the_row_mean(solve):
    """Points equal to the query count in every halfspace; when the rest
    are separable the depth is their number, with no LP."""

    cfg = EngineConfig()
    rng = np.random.default_rng(5)
    pts = np.vstack([rng.uniform(1, 2, size=(12, 3)), np.zeros((3, 3))])
    sys_ = build_system(PointSet(3, rng.permutation(pts), np.zeros(3)))
    assert sys_.zero_offset == 3
    _assert_mean_closed(solve(sys_, cfg), sys_, cfg)


@pytest.mark.parametrize("solve", [solve_depth, solve_depth_binary])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_one_dimensional_one_sided_closes_at_the_row_mean(solve, sign):
    cfg = EngineConfig()
    sys_ = build_system(PointSet(1, sign * np.array([[1.0], [2.0], [2.0]]),
                                 [0.0]))
    res = solve(sys_, cfg)
    _assert_mean_closed(res, sys_, cfg)
    assert res.direction[0] == sign


@pytest.mark.parametrize("solve", [solve_depth, solve_depth_binary])
def test_skewed_arc_missed_by_the_mean_runs_the_lp(solve):
    cfg = EngineConfig()
    sys_ = skewed_arc_system()
    assert np.min(sys_.rows @ (sys_.weights @ sys_.rows)) < 0
    res = solve(sys_, cfg)
    assert res.depth == 0 and res.exact and res.certificate == "verified"
    assert res.stats.lps >= 1
    assert np.all(sys_.rows @ res.direction > cfg.cert_tol)


@pytest.mark.parametrize("solve", [solve_depth, solve_depth_binary])
def test_tree_covers_confirmed_at_most_once(solve, monkeypatch):
    """``complement_direction`` runs at most once per distinct cover the
    tree finds: a fathomed node's x goes to the result with its cover, and
    a bisection witness's x is checked by arithmetic first, the direction
    that confirmed it being the one the result carries."""

    seen = []

    def spy(*args, **kwargs):
        seen.append(frozenset(args[1]))
        return complement_direction(*args, **kwargs)

    monkeypatch.setattr(engine, "complement_direction", spy)
    improved = cert_lps = 0
    for seed in range(7000, 7010):
        seen.clear()
        sys_, depth, _ = gaussian_system(seed, 10 + 2 * (seed % 10),
                                         2 + seed % 3)
        res = solve(sys_)
        assert res.depth == depth and res.certificate == "verified"
        assert len(seen) == len(set(seen))
        improved += res.stats.heuristic_weight > res.depth
        cert_lps += len(seen)
    assert improved
    # On these instances every tree cover's x passes the arithmetic check.
    assert cert_lps == 0


@pytest.mark.parametrize("solve", [solve_depth, solve_depth_binary])
def test_root_elastic_lp_solved_once(solve, monkeypatch):
    """The greedy branching of the root (of every probe, in bisection)
    reads the heuristic's first elastic solution instead of solving the
    elastic LP over all rows again."""

    removed = []

    def spy(sys_, rem, *args, **kwargs):
        removed.append(frozenset(rem))
        return solve_elastic(sys_, rem, *args, **kwargs)

    monkeypatch.setattr(elastic, "solve_elastic", spy)
    monkeypatch.setattr(engine, "solve_elastic", spy)
    for seed, n, d in ((6400, 16, 3), (7300, 15, 2), (7007, 22, 2)):
        removed.clear()
        sys_, depth, _ = gaussian_system(seed, n, d)
        res = solve(sys_)
        assert res.depth == depth and res.stats.nodes > 1
        assert removed.count(frozenset()) == 1


@st.composite
def _grid_instance(draw):
    """Points on the integer grid {-2..2}^d, d in {1, 2}: duplicates,
    collinear points and antipodal pairs are common, and the query is either
    a grid point or one of the data points."""

    dim = draw(st.sampled_from([1, 2]))
    coord = st.integers(-2, 2)
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=12))
    query = draw(st.one_of(st.tuples(*[coord] * dim), st.sampled_from(pts)))
    return PointSet(dim, np.array(pts, dtype=float),
                    np.array(query, dtype=float))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_grid_instance())
def test_degenerate_grids_certified(ps):
    """Both solvers give the exact depth with a verified Farkas-ray
    certificate on degenerate inputs.  The reference is the planar sweep,
    which needs no general position, or for d = 1 the smaller of the counts
    of points on either closed side of the query."""

    sys_ = build_system(ps)
    if ps.dim == 1:
        x, q = ps.points[:, 0], ps.query[0]
        expected = int(min(np.sum(x <= q), np.sum(x >= q)))
    else:
        expected = oracle_depth_2d(sys_)
    for res in (solve_depth(sys_), solve_depth_binary(sys_)):
        assert res.depth == expected
        assert res.exact and res.certificate == "verified"
