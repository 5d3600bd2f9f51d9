"""Branch-and-cut solver for the minimum removal cover of the shifted system.

The depth form minimizes the weighted number of deactivated rows in the big-M
program; the guess form maximizes the strict margin epsilon under a cardinality
cap and is the building block of the bisection solver.  An initial incumbent
comes from the greedy elastic heuristic, nodes fix binaries to 0/1, every node
runs an LP-plus-cuts loop, and hitting-set cuts live in a pool shared by all
nodes (and, for bisection, across runs).
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .cuts import Cut, CutPool, _alternative_lp, generate_cuts
from .elastic import VIOL_TOL, ElasticSolution, chinneck_cover, solve_elastic
from .model import InfeasibleSystem, ParamBounds
from .simplex import (INF, LpCounter, LpModel, LpSolution, LpStatus, Sense,
                      solve_lp)

__all__ = [
    "MipForm",
    "MipModel",
    "Node",
    "OutcomeKind",
    "NodeOutcome",
    "SolveStats",
    "DepthResult",
    "EngineConfig",
    "solve_depth",
    "bound_and_cut",
    "select_branch_variable",
    "expand",
    "rounding_heuristic",
    "BranchCutEngine",
    "complement_direction",
]


class MipForm(Enum):
    DEPTH = "depth"
    GUESS = "guess"


@dataclass(frozen=True)
class MipModel:
    """Mixed-integer model over columns [x_1..x_d, s_1..s_n, (epsilon)].

    Depth form: minimize sum(w_j s_j) subject to <a_j, x> + M s_j >= epsilon.
    Guess form: minimize -epsilon subject to <a_j, x> + M s_j - epsilon >= 0
    and sum(w_j s_j) <= guess, with the epsilon variable in [0, M] so the
    relaxation stays bounded.
    """

    sys: InfeasibleSystem
    bounds: ParamBounds
    form: MipForm = MipForm.DEPTH
    guess: int | None = None

    def __post_init__(self):
        if self.form is MipForm.GUESS:
            if self.guess is None or self.guess < 1:
                raise ValueError("guess form requires guess >= 1")
        elif self.guess is not None:
            raise ValueError("depth form takes no guess")

    @property
    def dim(self) -> int:
        return self.sys.dim

    @property
    def n_binaries(self) -> int:
        return self.sys.n_rows

    @property
    def has_eps_var(self) -> bool:
        return self.form is MipForm.GUESS

    @property
    def n_columns(self) -> int:
        return self.dim + self.n_binaries + (1 if self.has_eps_var else 0)

    def relaxation(self, fixed1=frozenset(), fixed0=frozenset(),
                   cuts: tuple[Cut, ...] = ()) -> LpModel:
        """LP relaxation with binaries in [0,1] and the given fixings/cuts."""

        d, n = self.dim, self.n_binaries
        ncol = self.n_columns
        M = self.bounds.bigM
        w = self.sys.weights.astype(float)

        objective = np.zeros(ncol)
        rows = []
        senses = []
        rhs = []

        body = np.zeros((n, ncol))
        body[:, :d] = self.sys.rows
        body[np.arange(n), d + np.arange(n)] = M
        if self.form is MipForm.DEPTH:
            objective[d:d + n] = w
            rows.append(body)
            senses += [Sense.GE] * n
            rhs += [self.bounds.epsilon] * n
        else:
            objective[-1] = -1.0
            body[:, -1] = -1.0
            rows.append(body)
            senses += [Sense.GE] * n
            rhs += [0.0] * n
            card = np.zeros((1, ncol))
            card[0, d:d + n] = w
            rows.append(card)
            senses.append(Sense.LE)
            rhs.append(float(self.guess))

        if cuts:
            crows = np.zeros((len(cuts), ncol))
            crows[[k for k, cut in enumerate(cuts) for _ in cut.members],
                  [d + j for cut in cuts for j in cut.members]] = 1.0
            rows.append(crows)
            senses += [Sense.GE] * len(cuts)
            rhs += [1.0] * len(cuts)

        lower = np.zeros(ncol)
        upper = np.ones(ncol)
        lower[:d] = -self.bounds.c
        upper[:d] = self.bounds.c
        for j in fixed1:
            lower[d + j] = 1.0
        for j in fixed0:
            upper[d + j] = 0.0
        if self.has_eps_var:
            lower[-1] = 0.0
            upper[-1] = M

        return LpModel(objective, np.vstack(rows), senses, np.array(rhs),
                       lower, upper)


@dataclass
class Node:
    """One subproblem: binaries pinned to 1 (removed rows) or 0 (kept rows).

    ``basis_status`` is the parent's final LP basis, where this node's first
    LP starts (None at the root).  ``elastic`` is the greedy-branching
    elastic solution over the rows outside ``fixed1`` once it is known; a
    child whose ``fixed1`` equals its parent's inherits it.
    """

    fixed1: frozenset = frozenset()
    fixed0: frozenset = frozenset()
    lower_bound: float = 0.0
    tree_depth: int = 0
    basis_status: np.ndarray | None = None
    elastic: ElasticSolution | None = None


class OutcomeKind(Enum):
    INFEASIBLE = "infeasible"
    PRUNED_BY_BOUND = "pruned"
    FATHOMED = "fathomed"
    FRACTIONAL = "fractional"


@dataclass
class NodeOutcome:
    kind: OutcomeKind
    objective: float = INF
    lp: LpSolution | None = None
    cover: frozenset | None = None
    eps_value: float | None = None
    branch_var: int | None = None
    iterations: int = 0
    new_cut_count: int = 0
    rounding: tuple[frozenset, int, np.ndarray] | None = None
    budget_hit: bool = False
    # Reduced-cost fixings valid throughout this node's subtree.
    rc_fix0: frozenset = frozenset()
    rc_fix1: frozenset = frozenset()


@dataclass
class SolveStats:
    """Search counters; ``dual_pivots`` and ``primal_pivots`` total the
    simplex pivots of every LP the solve ran (see ``LpSolution``)."""

    nodes: int = 0
    lps: int = 0
    dual_pivots: int = 0
    primal_pivots: int = 0
    cuts: int = 0
    wall_time: float = 0.0
    heuristic_weight: int | None = None
    guesses: int = 0
    guess_values: list[int] = field(default_factory=list)


@dataclass
class DepthResult:
    """Depth certificate: the removal cover plus a direction that strictly
    separates every remaining row, checkable by plain arithmetic."""

    depth: int
    cover: tuple[int, ...]
    direction: np.ndarray
    stats: SolveStats
    exact: bool = True
    lower_bound: int = 0
    certificate: str = "verified"
    epsilon: float = 0.0
    zero_offset: int = 0


@dataclass
class EngineConfig:
    branch_rule: str = "greedy"            # "greedy" | "strong"
    node_selection: str = "depth-first"    # "depth-first" | "best-first"
    strong_k: int = 4
    cut_improve: float = 1e-3
    max_cut_rounds: int = 20
    epsilon: float = 1e-5
    c: float = 1.0
    int_tol: float = 1e-9
    feas_tol: float = 1e-9
    cert_tol: float = 1e-9
    viol_tol: float = VIOL_TOL
    eps_pos: float = 1e-7
    heuristic_variant: str = "fast"
    heuristic_k: int = 1
    rounding_depth: int = 7
    rounding_iteration: int = 5
    time_limit: float | None = None
    node_limit: int | None = None


# ---------------------------------------------------------------------------
# Free-standing operations (also used directly by tests).
# ---------------------------------------------------------------------------


def _int_floor_bound(objective: float, int_tol: float) -> int:
    """Smallest integer the true optimum can still reach from this LP bound."""
    return int(math.ceil(objective - int_tol))


def _binary_values(mip: MipModel, lp: LpSolution) -> np.ndarray:
    d = mip.dim
    return lp.primal[d:d + mip.n_binaries]


def _is_integral(s: np.ndarray, int_tol: float) -> bool:
    return bool(np.all(np.minimum(s, 1.0 - s) <= int_tol))


def complement_direction(sys: InfeasibleSystem, cover,
                         feas_tol: float = 1e-9,
                         counter: LpCounter | None = None):
    """Unit direction strictly separating all rows outside the cover, or
    None when they admit none.

    One solve of the alternative LP over the non-cover rows
    (``cuts._alternative_lp``, zero cost).  It is infeasible exactly when
    those rows admit a common strict solution, and then the kernel returns a
    Farkas ray r = (u, t) over its d + 1 equality rows [A^T; 1^T] y =
    e_{d+1}: r.b > 0, and r.(a_j, 1) <= 0 for every column y_j, since none
    of them could enter to restore feasibility.  As b = e_{d+1}, r.b = t > 0,
    so <a_j, -u> >= t > 0 for every non-cover row: the direction is -u.
    """

    non_cover = [j for j in range(sys.n_rows) if j not in cover]
    if not non_cover:
        e1 = np.zeros(sys.dim)
        e1[0] = 1.0
        return e1
    sol = solve_lp(_alternative_lp(sys, non_cover), feas_tol,
                   counter=counter)
    if sol.status is not LpStatus.INFEASIBLE:
        return None
    x = -sol.duals[:sys.dim]
    norm = float(np.linalg.norm(x))
    return x / norm if norm > 0 else None


def rounding_heuristic(lp: LpSolution, node: Node, mip: MipModel,
                       incumbent_weight: float = INF,
                       feas_tol: float = 1e-9,
                       counter: LpCounter | None = None):
    """Round binaries at 0.5, keep the result only if it beats the incumbent
    and ``complement_direction`` confirms the remaining rows are jointly
    satisfiable.

    Returns (cover, weight, direction) or None.
    """

    s = _binary_values(mip, lp)
    cover = frozenset(int(j) for j in np.where(s >= 0.5)[0]) | node.fixed1
    weight = mip.sys.weight_of(cover)
    if weight >= incumbent_weight:
        return None
    direction = complement_direction(mip.sys, cover, feas_tol, counter)
    if direction is None:
        return None
    return cover, weight, direction


def select_branch_variable(node: Node, mip: MipModel, lp: LpSolution,
                           cfg: EngineConfig,
                           cuts: tuple[Cut, ...] = (),
                           counter: LpCounter | None = None) -> int:
    """Pick the row to branch on among fractional binaries.

    greedy: one elastic solve on the rows not yet removed (kept on the node
    as ``node.elastic``, or taken from there when the parent left it); the
    fractional row with the largest estimated infeasibility drop (violation
    x |sensitivity| for violated rows, |sensitivity| alone for satisfied
    ones) wins, violated rows first.  strong: for the most fractional
    candidates, solve both child relaxations, each warm-started from the
    node LP's basis, and keep the variable whose worse child bound is best.
    All ties go to the lowest row index.
    """

    s = _binary_values(mip, lp)
    int_tol = cfg.int_tol
    fractional = [j for j in range(mip.n_binaries)
                  if j not in node.fixed1 and j not in node.fixed0
                  and int_tol < s[j] < 1.0 - int_tol]
    if not fractional:
        raise ValueError("integral node")
    if len(fractional) == 1:
        return fractional[0]

    if cfg.branch_rule == "greedy":
        if node.elastic is None:
            node.elastic = solve_elastic(mip.sys, node.fixed1, cfg.viol_tol,
                                         counter)
        el = node.elastic
        violated = [j for j in fractional if el.violations[j] > cfg.viol_tol]
        pool = violated if violated else fractional
        best_j, best_score = pool[0], -1.0
        for j in pool:
            if el.violations[j] > cfg.viol_tol:
                score = el.violations[j] * abs(el.sensitivities[j])
            else:
                score = abs(el.sensitivities[j])
            if score > best_score + 1e-15:
                best_j, best_score = j, score
        return best_j

    if cfg.branch_rule != "strong":
        raise ValueError(f"unknown branch rule {cfg.branch_rule!r}")
    order = sorted(fractional, key=lambda j: (-min(s[j], 1.0 - s[j]), j))
    candidates = order[:max(1, cfg.strong_k)]
    best_j, best_score = candidates[0], -INF
    for j in sorted(candidates):
        bounds_pair = []
        for fix_to_one in (True, False):
            f1 = node.fixed1 | {j} if fix_to_one else node.fixed1
            f0 = node.fixed0 if fix_to_one else node.fixed0 | {j}
            child = solve_lp(mip.relaxation(f1, f0, cuts),
                             cfg.feas_tol, counter=counter,
                             start=lp.basis_status)
            bounds_pair.append(INF if child.status is LpStatus.INFEASIBLE
                               else child.objective_value)
        score = min(bounds_pair)
        if score > best_score + 1e-12:
            best_j, best_score = j, score
    return best_j


def expand(node: Node, branch_var: int) -> tuple[Node, Node]:
    """Children fixing the branch row removed (=1) and kept (=0)."""

    if branch_var in node.fixed1 or branch_var in node.fixed0:
        raise ValueError("branch variable already fixed")
    child1 = Node(node.fixed1 | {branch_var}, node.fixed0,
                  node.lower_bound, node.tree_depth + 1)
    child0 = Node(node.fixed1, node.fixed0 | {branch_var},
                  node.lower_bound, node.tree_depth + 1)
    return child1, child0


# ---------------------------------------------------------------------------
# The search engine.
# ---------------------------------------------------------------------------


class _Budget:
    def __init__(self, cfg: EngineConfig):
        self.deadline = (time.monotonic() + cfg.time_limit
                         if cfg.time_limit is not None else None)
        self.node_limit = cfg.node_limit

    def time_up(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline

    def nodes_up(self, processed: int) -> bool:
        return self.node_limit is not None and processed >= self.node_limit


class BranchCutEngine:
    """Coordinator owning the cut pool handle, the LP counter, the search
    stats and the budget; the drivers pop one node at a time, evaluate it
    and apply its outcome before the next pop."""

    def __init__(self, mip: MipModel, cfg: EngineConfig, pool: CutPool,
                 counter: LpCounter | None = None,
                 stats: SolveStats | None = None):
        self.mip = mip
        self.cfg = cfg
        self.pool = pool
        self.counter = counter if counter is not None else LpCounter()
        self.stats = stats if stats is not None else SolveStats()
        self.budget = _Budget(cfg)

    # -- per-node work ------------------------------------------------------

    def bound_and_cut(self, node: Node, incumbent_weight: float) -> NodeOutcome:
        """LP-and-cut loop for one node.

        Cuts keep coming while the objective improves by at least
        ``cut_improve``, the solution stays fractional, and the generator
        still produces something new; infeasibility and bound dominance end
        the node immediately.  The first LP starts from the parent's final
        basis and each cut round from the previous round's: the pool only
        appends, so those LPs' rows are a prefix of the new ones.
        """

        cfg = self.cfg
        mip = self.mip
        active = tuple(self.pool.snapshot())
        seen = {c.members for c in active}
        outcome_rounding = None
        new_cut_count = 0

        lp = solve_lp(mip.relaxation(node.fixed1, node.fixed0, active),
                      cfg.feas_tol, counter=self.counter,
                      start=node.basis_status)
        iteration = 0
        prev_obj = None
        while True:
            if lp.status is LpStatus.INFEASIBLE:
                return NodeOutcome(OutcomeKind.INFEASIBLE, INF, lp,
                                   iterations=iteration,
                                   new_cut_count=new_cut_count,
                                   rounding=outcome_rounding)
            if lp.status is not LpStatus.OPTIMAL:
                raise RuntimeError(f"node relaxation ended {lp.status}")
            obj = lp.objective_value

            if mip.form is MipForm.DEPTH:
                if _int_floor_bound(obj, cfg.int_tol) >= incumbent_weight:
                    return NodeOutcome(OutcomeKind.PRUNED_BY_BOUND, obj, lp,
                                       iterations=iteration,
                                       new_cut_count=new_cut_count,
                                       rounding=outcome_rounding)
            else:
                if -obj <= cfg.eps_pos:
                    return NodeOutcome(OutcomeKind.PRUNED_BY_BOUND, obj, lp,
                                       iterations=iteration,
                                       new_cut_count=new_cut_count,
                                       rounding=outcome_rounding)

            s = _binary_values(mip, lp)
            if _is_integral(s, cfg.int_tol):
                cover = frozenset(int(j) for j in np.where(s > 0.5)[0])
                eps = float(lp.primal[-1]) if mip.has_eps_var else None
                return NodeOutcome(OutcomeKind.FATHOMED, obj, lp, cover, eps,
                                   iterations=iteration,
                                   new_cut_count=new_cut_count,
                                   rounding=outcome_rounding)

            if iteration >= cfg.max_cut_rounds or self.budget.time_up():
                break
            if (prev_obj is not None
                    and obj - prev_obj < cfg.cut_improve):
                break

            fresh = [c for c in generate_cuts(mip.sys, s, node.fixed1,
                                              cfg.feas_tol, self.counter)
                     if c.members not in seen]
            if not fresh:
                break
            for cut in fresh:
                self.pool.insert(cut)
                seen.add(cut.members)
            active = active + tuple(fresh)
            new_cut_count += len(fresh)

            iteration += 1
            prev_obj = obj
            lp = solve_lp(mip.relaxation(node.fixed1, node.fixed0, active),
                          cfg.feas_tol, counter=self.counter,
                          start=lp.basis_status)

            if (mip.form is MipForm.DEPTH
                    and node.tree_depth > cfg.rounding_depth
                    and iteration > cfg.rounding_iteration
                    and lp.status is LpStatus.OPTIMAL):
                cand = rounding_heuristic(lp, node, mip, incumbent_weight,
                                          cfg.feas_tol, self.counter)
                if cand is not None and (outcome_rounding is None
                                         or cand[1] < outcome_rounding[1]):
                    outcome_rounding = cand

        out = NodeOutcome(OutcomeKind.FRACTIONAL, lp.objective_value, lp,
                          iterations=iteration, new_cut_count=new_cut_count,
                          rounding=outcome_rounding,
                          budget_hit=self.budget.time_up())
        if not out.budget_hit:
            out.rc_fix0, out.rc_fix1 = self._reduced_cost_fixings(
                node, lp, incumbent_weight)
            out.branch_var = select_branch_variable(
                node, self.mip, lp, cfg, active, counter=self.counter)
        return out

    def _reduced_cost_fixings(self, node: Node, lp: LpSolution,
                              incumbent_weight: float):
        """Binaries whose bound flip provably cannot help in this subtree.

        Flipping a nonbasic binary raises the objective by at least its
        reduced cost (the dual-feasible basis stays dual feasible after the
        bound change and dual iterations only push the objective up).  In
        the depth form the flip is useless once that reaches the incumbent;
        in the guess form, once the implied margin bound drops under the
        positivity threshold.  Both stay valid as the incumbent improves.
        """

        cfg = self.cfg
        mip = self.mip
        d, n = mip.dim, mip.n_binaries
        depth_form = mip.form is MipForm.DEPTH
        if depth_form and not math.isfinite(incumbent_weight):
            return frozenset(), frozenset()
        s = lp.primal[d:d + n]
        rc = lp.reduced_costs[d:d + n]
        z = lp.objective_value
        fix0, fix1 = set(), set()

        def flip_is_useless(child_bound: float) -> bool:
            if depth_form:
                return _int_floor_bound(child_bound,
                                        cfg.int_tol) >= incumbent_weight
            return -child_bound <= cfg.eps_pos

        for j in range(n):
            if j in node.fixed1 or j in node.fixed0:
                continue
            if s[j] <= cfg.int_tol and rc[j] > 0:
                if flip_is_useless(z + rc[j]):
                    fix0.add(j)
            elif s[j] >= 1.0 - cfg.int_tol and rc[j] < 0:
                if flip_is_useless(z - rc[j]):
                    fix1.add(j)
        return frozenset(fix0), frozenset(fix1)

    # -- tree drivers ---------------------------------------------------------

    def run_depth(self, incumbent_cover: frozenset, incumbent_weight: int):
        """Exhaust the tree (or a budget), returning the best cover found,
        whether the run proved optimality, and the final lower bound."""

        cfg = self.cfg
        store = _NodeStore(cfg.node_selection)
        store.push(Node())
        exact = True

        while len(store):
            if self.budget.time_up() or self.budget.nodes_up(self.stats.nodes):
                exact = False
                break
            node = store.pop(incumbent_weight, cfg.int_tol)
            if node is None:
                break
            out = self.bound_and_cut(node, incumbent_weight)
            self.stats.nodes += 1
            self.stats.cuts += out.new_cut_count
            if out.rounding is not None and out.rounding[1] < incumbent_weight:
                incumbent_cover = out.rounding[0]
                incumbent_weight = out.rounding[1]
            if out.kind is OutcomeKind.FATHOMED:
                weight = self.mip.sys.weight_of(out.cover)
                if weight < incumbent_weight:
                    incumbent_cover = out.cover
                    incumbent_weight = weight
            elif out.kind is OutcomeKind.FRACTIONAL:
                if out.budget_hit:
                    exact = False
                    store.push(Node(node.fixed1, node.fixed0,
                                    out.objective, node.tree_depth))
                    break
                store.push_children(node, out)

        lower = incumbent_weight
        if not exact:
            lower = min([lower] + [_int_floor_bound(b, cfg.int_tol)
                                   for b in store.bounds()])
        return incumbent_cover, incumbent_weight, exact, lower

    def run_guess(self):
        """Early-exit search of the guess form.

        Returns (cover, eps, x) the moment an integral solution with eps
        above the positivity threshold appears, or None when the tree is
        exhausted without one (the guess is below the depth).
        """

        cfg = self.cfg
        store = _NodeStore(cfg.node_selection)
        store.push(Node())
        while len(store):
            if self.budget.time_up() or self.budget.nodes_up(self.stats.nodes):
                raise BudgetExhausted()
            node = store.pop(INF, cfg.int_tol)
            out = self.bound_and_cut(node, INF)
            self.stats.nodes += 1
            self.stats.cuts += out.new_cut_count
            if out.kind is OutcomeKind.FATHOMED and \
                    out.eps_value is not None and \
                    out.eps_value > cfg.eps_pos:
                # Guard against a numerically spurious margin: accept the
                # witness only if its complement really is satisfiable by
                # the independent alternative-LP probe.
                check = complement_direction(self.mip.sys, out.cover,
                                             cfg.feas_tol, self.counter)
                if check is not None:
                    x = out.lp.primal[:self.mip.dim].copy()
                    return out.cover, out.eps_value, x
            if out.kind is OutcomeKind.FRACTIONAL:
                if out.budget_hit:
                    raise BudgetExhausted()
                store.push_children(node, out)
        return None


class BudgetExhausted(RuntimeError):
    def __init__(self):
        super().__init__("search budget exhausted")


class _NodeStore:
    """Stack for depth-first (dive child first), min-heap for best-first."""

    def __init__(self, strategy: str):
        if strategy not in ("depth-first", "best-first"):
            raise ValueError(f"unknown node selection {strategy!r}")
        self.strategy = strategy
        self._stack: list[Node] = []
        self._heap: list[tuple[float, int, Node]] = []
        self._seq = 0

    def push(self, node: Node) -> None:
        if self.strategy == "depth-first":
            self._stack.append(node)
        else:
            heapq.heappush(self._heap, (node.lower_bound, self._seq, node))
            self._seq += 1

    def push_children(self, node: Node, out: NodeOutcome) -> None:
        """Apply the node's reduced-cost fixings and push both children, the
        removed-row child last so that depth-first search dives on it.  Both
        start from the node's final basis: fixings change bounds only, so it
        stays dual feasible."""

        base = Node(node.fixed1 | out.rc_fix1, node.fixed0 | out.rc_fix0,
                    node.lower_bound, node.tree_depth)
        child1, child0 = expand(base, out.branch_var)
        for child in (child1, child0):
            child.lower_bound = out.objective
            child.basis_status = out.lp.basis_status
        if child0.fixed1 == node.fixed1:
            child0.elastic = node.elastic
        self.push(child0)
        self.push(child1)

    def pop(self, incumbent_weight: float, int_tol: float) -> Node | None:
        """The next node, discarding any already dominated by the incumbent
        before spending an LP on it; None once the store runs dry."""

        while len(self):
            if self.strategy == "depth-first":
                node = self._stack.pop()
            else:
                node = heapq.heappop(self._heap)[2]
            if (math.isfinite(incumbent_weight)
                    and _int_floor_bound(node.lower_bound, int_tol)
                    >= incumbent_weight):
                continue
            return node
        return None

    def bounds(self):
        if self.strategy == "depth-first":
            return [n.lower_bound for n in self._stack]
        return [b for b, _, _ in self._heap]

    def __len__(self) -> int:
        return len(self._stack) + len(self._heap)


def bound_and_cut(node: Node, mip: MipModel, pool: CutPool,
                  cfg: EngineConfig | None = None,
                  incumbent_weight: float = INF) -> NodeOutcome:
    """One-shot node evaluation against a pool (convenience wrapper)."""

    cfg = cfg or EngineConfig()
    return BranchCutEngine(mip, cfg, pool).bound_and_cut(node, incumbent_weight)


# ---------------------------------------------------------------------------
# Top-level solve.
# ---------------------------------------------------------------------------


def _trivial_result(sys: InfeasibleSystem, stats: SolveStats,
                    epsilon: float) -> DepthResult:
    e1 = np.zeros(sys.dim)
    e1[0] = 1.0
    return DepthResult(depth=sys.zero_offset, cover=(), direction=e1,
                       stats=stats, exact=True, lower_bound=sys.zero_offset,
                       certificate="verified", epsilon=epsilon,
                       zero_offset=sys.zero_offset)


def _finalize(sys: InfeasibleSystem, cover, stats: SolveStats,
              cfg: EngineConfig, exact: bool, lower_bound: int,
              epsilon: float, counter: LpCounter) -> DepthResult:
    direction = complement_direction(sys, cover, cfg.feas_tol, counter)
    cert = "unverified"
    if direction is not None:
        non_cover = [j for j in range(sys.n_rows) if j not in cover]
        margins = sys.rows[non_cover] @ direction if non_cover else np.array([1.0])
        if np.all(margins > cfg.cert_tol):
            cert = "verified"
    else:
        direction = np.zeros(sys.dim)
    stats.lps = counter.count
    stats.dual_pivots = counter.dual_pivots
    stats.primal_pivots = counter.primal_pivots
    weight = sys.weight_of(cover)
    return DepthResult(depth=weight + sys.zero_offset,
                       cover=tuple(sorted(int(j) for j in cover)),
                       direction=direction, stats=stats, exact=exact,
                       lower_bound=lower_bound + sys.zero_offset,
                       certificate=cert, epsilon=epsilon,
                       zero_offset=sys.zero_offset)


def solve_depth(sys: InfeasibleSystem, cfg: EngineConfig | None = None,
                pool: CutPool | None = None) -> DepthResult:
    """Exact depth by branch-and-cut on the big-M program.

    The elastic heuristic seeds the incumbent; covers of weight 0 or 1 are
    already optimal (no smaller cover exists for an infeasible system), so
    the tree only runs beyond that.  The result carries the certifying
    direction, the search stats, and flags exactness; with a time or node
    budget hit you get the best cover plus the proven lower bound instead.
    """

    cfg = cfg or EngineConfig()
    counter = LpCounter()
    stats = SolveStats()
    t0 = time.monotonic()
    pool = pool if pool is not None else CutPool()

    if sys.n_rows == 0:
        stats.wall_time = time.monotonic() - t0
        return _trivial_result(sys, stats, cfg.epsilon)

    bounds = ParamBounds.for_system(sys, cfg.c, cfg.epsilon)
    cover = frozenset(chinneck_cover(sys, cfg.heuristic_variant,
                                     cfg.heuristic_k, cfg.viol_tol, counter))
    weight = sys.weight_of(cover)
    stats.heuristic_weight = weight

    if weight <= 1:
        result = _finalize(sys, cover, stats, cfg, True, weight,
                           cfg.epsilon, counter)
        result.stats.wall_time = time.monotonic() - t0
        return result

    mip = MipModel(sys, bounds, MipForm.DEPTH)
    engine = BranchCutEngine(mip, cfg, pool, counter, stats)
    best_cover, best_weight, exact, lower = engine.run_depth(cover, weight)
    result = _finalize(sys, best_cover, stats, cfg, exact, lower,
                       cfg.epsilon, counter)
    result.stats.wall_time = time.monotonic() - t0
    return result
