"""Branch-and-cut solver for the minimum removal cover of the shifted system.

The depth form minimizes the weighted number of deactivated rows in the big-M
program; the guess form maximizes the strict margin epsilon under a cardinality
cap and is the building block of the bisection solver.  One search loop serves
both forms.  An initial incumbent comes from the greedy elastic heuristic,
nodes fix binaries to 0/1, every node runs an LP-plus-cuts loop, and
hitting-set cuts live in a pool shared by all nodes (and, for bisection,
across runs).
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .cuts import Cut, CutPool, _alternative_lp, generate_cuts
from .elastic import (ElasticSolution, chinneck_cover, greedy_row,
                      solve_elastic)
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
    "select_branch_variable",
    "expand",
    "rounding_heuristic",
    "BranchCutEngine",
    "complement_direction",
]

# A binary within INT_TOL of 0 or 1 counts as integral, and an LP bound
# within INT_TOL above an integer rounds down to it.
INT_TOL = 1e-9
# A guess-form margin must exceed EPS_POS to count as strictly positive.
EPS_POS = 1e-7
# Seconds between two progress lines of a search logged at INFO.
LOG_EVERY = 1.0
# Search tuning.  These are constants because no caller sets another value.
# Strong branching solves both children of the STRONG_K most fractional
# binaries.
STRONG_K = 4
# A node's cut loop stops after MAX_CUT_ROUNDS rounds, or once a round raises
# the LP bound by less than CUT_IMPROVE.
MAX_CUT_ROUNDS = 20
CUT_IMPROVE = 1e-3
# The depth form tries the rounding heuristic on a node deeper than
# ROUNDING_DEPTH after each cut round beyond ROUNDING_ITERATION.
ROUNDING_DEPTH = 7
ROUNDING_ITERATION = 5


class MipForm(Enum):
    DEPTH = "depth"
    GUESS = "guess"


@dataclass(frozen=True)
class MipModel:
    """Mixed-integer model over columns [x_1..x_d, s_1..s_n, (epsilon)].

    Depth form: minimize sum(w_j s_j) subject to <a_j, x> + M s_j >= epsilon.
    Guess form: minimize -epsilon subject to <a_j, x> + M s_j - epsilon >= 0
    and sum(w_j s_j) <= guess, with the epsilon variable in [0, M] so the
    relaxation stays bounded.  In both forms x lies in the box [-1, 1]^d and
    the s_j are binary.  ``relaxation`` is the one definition of this
    program: the solver and the MPS export both read it.
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
                   cuts: tuple[Cut, ...] = (),
                   base: LpModel | None = None) -> LpModel:
        """LP relaxation with binaries in [0,1] and the given fixings/cuts.

        ``base`` is an earlier relaxation of a model over the same system,
        form and bounds (the guess may differ) whose cuts are a prefix of
        ``cuts``: the result then shares its rows and appends only the cut
        rows it lacks."""

        d, n = self.dim, self.n_binaries
        ncol = self.n_columns
        M = self.bounds.bigM
        guess_form = self.form is MipForm.GUESS

        if base is None:
            w = self.sys.weights.astype(float)
            objective = np.zeros(ncol)
            rows = np.zeros((n + guess_form, ncol))
            rows[:n, :d] = self.sys.rows
            rows[np.arange(n), d + np.arange(n)] = M
            senses = [Sense.GE] * n
            if guess_form:
                objective[-1] = -1.0
                rows[:n, -1] = -1.0
                rows[n, d:d + n] = w
                senses.append(Sense.LE)
                rhs = np.zeros(n + 1)
                rhs[n] = self.guess
            else:
                objective[d:d + n] = w
                rhs = np.full(n, self.bounds.epsilon)
        else:
            objective, rows = base.objective, base.row_coeffs
            senses, rhs = base.senses, base.rhs
            if guess_form and rhs[n] != self.guess:
                rhs = rhs.copy()
                rhs[n] = self.guess

        new = cuts[rows.shape[0] - n - guess_form:]
        if new:
            crows = np.zeros((len(new), ncol))
            crows[[k for k, cut in enumerate(new) for _ in cut.members],
                  [d + j for cut in new for j in cut.members]] = 1.0
            rows = np.vstack([rows, crows])
            senses = senses + [Sense.GE] * len(new)
            rhs = np.concatenate([rhs, np.ones(len(new))])

        lower = np.zeros(ncol)
        upper = np.ones(ncol)
        lower[:d] = -1.0
        for j in fixed1:
            lower[d + j] = 1.0
        for j in fixed0:
            upper[d + j] = 0.0
        if self.has_eps_var:
            lower[-1] = 0.0
            upper[-1] = M

        return LpModel(objective, rows, senses, rhs, lower, upper)


@dataclass
class Node:
    """One subproblem: binaries pinned to 1 (removed rows) or 0 (kept rows).

    ``basis_status`` is the parent's final LP basis (None at the root).  A
    node popped while its parent's final LP is the engine's live one (the
    depth-first dive) derives its first LP from that LP's kernel state
    instead; any other starts from these statuses.  Open nodes keep
    nothing else of an LP.  ``elastic`` is the latest greedy-branching
    elastic solution on the path to this node: its own once branching ran
    here, else its parent's (at the root, the heuristic's first, over all
    rows).  Its removed rows are a subset of ``fixed1``, so its basis is a
    valid start for this node's elastic LP, and its kernel (d rows) rides
    along.
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
    branch_var: int | None = None
    iterations: int = 0
    rounding: tuple[frozenset, int, np.ndarray] | None = None
    budget_hit: bool = False
    # Reduced-cost fixings valid throughout this node's subtree.
    rc_fix0: frozenset = frozenset()
    rc_fix1: frozenset = frozenset()


@dataclass
class SolveStats(LpCounter):
    """Counters of one solve: the LP counts it inherits, which every LP of
    the solve records into directly, then the search's own."""

    nodes: int = 0
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
    """A solve's knobs, each checked here, since most solves end at the
    heuristic before the search reads them.  ``time_limit`` (seconds) and
    ``node_limit`` bound the whole solve, heuristic and every bisection
    probe included; None leaves them unbounded."""

    branch_rule: str = "greedy"
    node_selection: str = "depth-first"
    epsilon: float = 1e-5
    cert_tol: float = 1e-9
    time_limit: float | None = None
    node_limit: int | None = None

    def __post_init__(self):
        if self.branch_rule not in ("greedy", "strong"):
            raise ValueError(f"unknown branch_rule {self.branch_rule!r}")
        if self.node_selection not in ("depth-first", "best-first"):
            raise ValueError(f"unknown node_selection {self.node_selection!r}")
        if not 0 < self.epsilon < INF:
            raise ValueError("epsilon must be positive and finite")
        if not 0 <= self.cert_tol < INF:
            raise ValueError("cert_tol must be nonnegative and finite")
        # Each comparison is False for NaN, which would never end a search.
        for name in ("time_limit", "node_limit"):
            limit = getattr(self, name)
            if limit is not None and not limit >= 0:
                raise ValueError(f"{name} must be nonnegative")


# ---------------------------------------------------------------------------
# Free-standing operations (also used directly by tests).
# ---------------------------------------------------------------------------


def _info_log(name: str):
    """The logger ``name`` if it emits INFO lines, else None.  logging is
    imported here, on first use, so that importing the package does not
    load it."""

    import logging
    log = logging.getLogger(name)
    return log if log.isEnabledFor(logging.INFO) else None


def _int_floor_bound(objective: float) -> int:
    """Smallest integer the true optimum can still reach from this LP bound."""
    return int(math.ceil(objective - INT_TOL))


def _binary_values(mip: MipModel, lp: LpSolution) -> np.ndarray:
    d = mip.dim
    return lp.primal[d:d + mip.n_binaries]


def _is_integral(s: np.ndarray) -> bool:
    return bool(np.all(np.minimum(s, 1.0 - s) <= INT_TOL))


def _non_cover(sys: InfeasibleSystem, cover) -> np.ndarray:
    """Boolean mask of the rows outside ``cover``."""

    keep = np.ones(sys.n_rows, dtype=bool)
    keep[list(cover)] = False
    return keep


def _verified_direction(sys: InfeasibleSystem, cover, direction,
                        cert_tol: float):
    """``direction`` scaled to unit length when plain arithmetic puts every
    non-cover row's margin above ``cert_tol``, else None."""

    if direction is None:
        return None
    # The same dot product np.linalg.norm takes of a 1-D array.
    norm = math.sqrt(float(direction @ direction))
    if not norm > 0:
        return None
    unit = direction / norm
    rows = sys.rows[_non_cover(sys, cover)] if cover else sys.rows
    return unit if np.all(rows @ unit > cert_tol) else None


def complement_direction(sys: InfeasibleSystem, cover,
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

    non_cover = np.flatnonzero(_non_cover(sys, cover))
    if not non_cover.size:
        e1 = np.zeros(sys.dim)
        e1[0] = 1.0
        return e1
    sol = solve_lp(_alternative_lp(sys, non_cover), counter=counter)
    if sol.status is not LpStatus.INFEASIBLE:
        return None
    x = -sol.duals[:sys.dim]
    norm = float(np.linalg.norm(x))
    return x / norm if norm > 0 else None


def rounding_heuristic(lp: LpSolution, node: Node, mip: MipModel,
                       incumbent_weight: float = INF,
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
    direction = complement_direction(mip.sys, cover, counter)
    if direction is None:
        return None
    return cover, weight, direction


def select_branch_variable(node: Node, mip: MipModel, lp: LpSolution,
                           cfg: EngineConfig,
                           cuts: tuple[Cut, ...] = (),
                           counter: LpCounter | None = None) -> int:
    """Pick the row to branch on among fractional binaries.

    greedy: one elastic solve on the rows not yet removed, kept on the node
    as ``node.elastic``.  The inherited solution is reused when it removed
    the same rows and is derived from otherwise, since removing a row only
    bounds its dual-form column to 0 (see ``elastic``).  The fractional row
    is ``elastic.greedy_row`` of that solution, the rule the incumbent
    heuristic deletes rows by.  strong: for the most fractional
    candidates, solve both child relaxations, each derived from the node
    LP, and keep the variable whose worse child bound is best.
    All ties go to the lowest row index.
    """

    s = _binary_values(mip, lp)
    fractional = [j for j in range(mip.n_binaries)
                  if j not in node.fixed1 and j not in node.fixed0
                  and INT_TOL < s[j] < 1.0 - INT_TOL]
    if not fractional:
        raise ValueError("integral node")
    if len(fractional) == 1:
        return fractional[0]

    if cfg.branch_rule == "greedy":
        parent = node.elastic
        if parent is None or parent.removed != node.fixed1:
            node.elastic = solve_elastic(
                mip.sys, node.fixed1, counter,
                start=None if parent is None else parent.lp)
        return greedy_row(node.elastic, fractional)

    order = sorted(fractional, key=lambda j: (-min(s[j], 1.0 - s[j]), j))
    candidates = order[:STRONG_K]
    best_j, best_score = candidates[0], -INF
    for j in sorted(candidates):
        bounds_pair = []
        for fix_to_one in (True, False):
            f1 = node.fixed1 | {j} if fix_to_one else node.fixed1
            f0 = node.fixed0 if fix_to_one else node.fixed0 | {j}
            child = solve_lp(mip.relaxation(f1, f0, cuts), counter=counter,
                             start=lp)
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
    """One solve's limits, made before its heuristic (the deadline counts
    from ``start``) and shared by every engine of the solve."""

    def __init__(self, cfg: EngineConfig):
        self.start = time.monotonic()
        self.deadline = (self.start + cfg.time_limit
                         if cfg.time_limit is not None else None)
        self.node_limit = cfg.node_limit

    def time_up(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline

    def nodes_up(self, processed: int) -> bool:
        return self.node_limit is not None and processed >= self.node_limit


class BranchCutEngine:
    """Coordinator owning the cut pool handle, the solve's stats (every LP
    records into them) and its budget.  One search loop serves both program
    forms: it pops one node at a time, evaluates it and applies its outcome
    before the next pop; ``run_depth`` and ``run_guess`` read its result.
    ``root_elastic`` is the elastic solution over all rows when the caller
    already has one (the heuristic's first): the root's greedy branching
    reads it instead of solving that LP again.

    The engine keeps one node LP alive, with its kernel state: the last
    node's final LP when it is feasible (``_live``, an (LpModel,
    LpSolution) pair), from which the next node derives when it is that
    node's child.  The next node releases it once its own first LP is
    solved.  The guess form
    keeps one more, ``root_lp``, the root's final LP once the search has
    evaluated the root: bisection passes it to the next probe's engine,
    whose root derives from it."""

    def __init__(self, mip: MipModel, cfg: EngineConfig, pool: CutPool,
                 stats: SolveStats | None = None,
                 budget: _Budget | None = None,
                 root_elastic: ElasticSolution | None = None,
                 root_lp: tuple[LpModel, LpSolution] | None = None):
        self.mip = mip
        self.cfg = cfg
        self.pool = pool
        self.stats = stats if stats is not None else SolveStats()
        self.budget = budget if budget is not None else _Budget(cfg)
        self.root_elastic = root_elastic
        self.root_lp = root_lp
        self._live = root_lp

    # -- per-node work ------------------------------------------------------

    def _dominated(self, bound: float, incumbent_weight: float) -> bool:
        """Whether a relaxation value proves its subtree useless: in the
        depth form its integer round-up reaches the incumbent weight; in the
        guess form the margin it caps is not above EPS_POS."""

        if self.mip.form is MipForm.DEPTH:
            return _int_floor_bound(bound) >= incumbent_weight
        return -bound <= EPS_POS

    def bound_and_cut(self, node: Node, incumbent_weight: float) -> NodeOutcome:
        """LP-and-cut loop for one node.

        Cuts keep coming for at most ``MAX_CUT_ROUNDS`` rounds while the
        objective improves by at least ``CUT_IMPROVE``, the solution stays
        fractional, and the generator still produces a cut the pool lacks;
        infeasibility and bound dominance end the node immediately.  The first
        LP derives from the engine's live LP when the node's start statuses are
        that LP's (the node is its child, or the root of a later bisection
        probe) and starts from the statuses otherwise; each cut round derives
        from the previous round's.  The pool only appends, so the earlier LPs'
        rows are a prefix of the new ones.  Both hand the earlier kernel state
        over rather than copy it, unless it is the guess form's root LP.  The
        node's final LP becomes the live one when it is feasible.
        """

        mip = self.mip
        active = tuple(self.pool.snapshot())
        rounding = None

        live, self._live = self._live, None
        if live is not None and node.basis_status is live[1].basis_status:
            model = mip.relaxation(node.fixed1, node.fixed0, active,
                                   base=live[0])
            # Only the guess form's root LP is derived from again.
            start = live[1] if live is self.root_lp else live[1].handover()
        else:
            model = mip.relaxation(node.fixed1, node.fixed0, active)
            start = node.basis_status
        # Only ``start`` may keep the earlier kernel state alive, and only
        # while the first LP derives from it.
        del live
        lp = solve_lp(model, counter=self.stats, start=start)
        del start
        iteration = 0
        prev_obj = None
        kind = OutcomeKind.FRACTIONAL
        while True:
            if lp.status is LpStatus.INFEASIBLE:
                kind = OutcomeKind.INFEASIBLE
                break
            if lp.status is not LpStatus.OPTIMAL:
                raise RuntimeError(f"node relaxation ended {lp.status}")
            obj = lp.objective_value
            if self._dominated(obj, incumbent_weight):
                kind = OutcomeKind.PRUNED_BY_BOUND
                break
            s = _binary_values(mip, lp)
            if _is_integral(s):
                kind = OutcomeKind.FATHOMED
                break

            if iteration >= MAX_CUT_ROUNDS or self.budget.time_up():
                break
            if prev_obj is not None and obj - prev_obj < CUT_IMPROVE:
                break

            fresh = [c for c in generate_cuts(mip.sys, s, node.fixed1,
                                              self.stats)
                     if self.pool.insert(c)]
            if not fresh:
                break
            active = active + tuple(fresh)
            self.stats.cuts += len(fresh)
            # The optimum already satisfies every new row, so a re-solve
            # would return it unchanged; a later node's LP carries them.
            if not any(c.violated_by(s) for c in fresh):
                break

            iteration += 1
            prev_obj = obj
            model = mip.relaxation(node.fixed1, node.fixed0, active,
                                   base=model)
            lp = solve_lp(model, counter=self.stats, start=lp.handover())

            if (mip.form is MipForm.DEPTH
                    and node.tree_depth > ROUNDING_DEPTH
                    and iteration > ROUNDING_ITERATION
                    and lp.status is LpStatus.OPTIMAL):
                cand = rounding_heuristic(lp, node, mip, incumbent_weight,
                                          self.stats)
                if cand is not None and (rounding is None
                                         or cand[1] < rounding[1]):
                    rounding = cand

        if lp.kernel is not None:
            self._live = (model, lp)
        objective = (INF if kind is OutcomeKind.INFEASIBLE
                     else lp.objective_value)
        out = NodeOutcome(kind, objective, lp, iterations=iteration,
                          rounding=rounding)
        if kind is OutcomeKind.FATHOMED:
            out.cover = frozenset(int(j) for j in np.where(s > 0.5)[0])
        elif kind is OutcomeKind.FRACTIONAL:
            out.budget_hit = self.budget.time_up()
            if not out.budget_hit:
                out.rc_fix0, out.rc_fix1 = self._reduced_cost_fixings(
                    node, lp, incumbent_weight)
                out.branch_var = select_branch_variable(
                    node, mip, lp, self.cfg, active, counter=self.stats)
        return out

    def _reduced_cost_fixings(self, node: Node, lp: LpSolution,
                              incumbent_weight: float):
        """Binaries whose bound flip provably cannot help in this subtree.

        Flipping a nonbasic binary raises the objective by at least its
        reduced cost (the dual-feasible basis stays dual feasible after the
        bound change and dual iterations only push the objective up).  The
        flip is useless once that raised bound is ``_dominated``, which
        stays true as the incumbent improves.
        """

        d, n = self.mip.dim, self.mip.n_binaries
        s = lp.primal[d:d + n]
        rc = lp.reduced_costs[d:d + n]
        z = lp.objective_value
        fix0, fix1 = set(), set()
        for j in range(n):
            if j in node.fixed1 or j in node.fixed0:
                continue
            if s[j] <= INT_TOL and rc[j] > 0:
                if self._dominated(z + rc[j], incumbent_weight):
                    fix0.add(j)
            elif s[j] >= 1.0 - INT_TOL and rc[j] < 0:
                if self._dominated(z - rc[j], incumbent_weight):
                    fix1.add(j)
        return frozenset(fix0), frozenset(fix1)

    # -- tree drivers ---------------------------------------------------------

    def _search(self, cover, direction, weight: float):
        """Pop, evaluate and apply nodes until the tree is exhausted, the
        guess form finds its witness, or a budget is spent.

        Each cover is kept with a direction meant to certify it: a
        fathomed node's LP x (margin at least epsilon on every kept row) or
        the rounding heuristic's.  The depth form keeps the lightest cover,
        starting from (cover, direction, weight).  The guess form stops at
        its first integral node whose complement is confirmed: by its LP x
        under plain arithmetic, else by ``complement_direction``.  The prune
        test already put that node's margin above EPS_POS, and the check
        guards against a numerically spurious one.  Returns (cover,
        direction, weight, exact, store), with exact False when a budget
        ended the search and the open nodes left in the store.

        At INFO level the search logs its progress at most every
        ``LOG_EVERY`` seconds, and once at the end.
        """

        sys, d = self.mip.sys, self.mip.dim
        store = _NodeStore(self.cfg.node_selection)
        store.push(Node(basis_status=(None if self.root_lp is None
                                      else self.root_lp[1].basis_status),
                        elastic=self.root_elastic))
        log = _info_log(__name__)
        if log is not None:
            t0 = time.monotonic()
            next_log = t0 + LOG_EVERY
            nodes0, lps0 = self.stats.nodes, self.stats.lps
        exact = True
        while len(store):
            if self.budget.time_up() or self.budget.nodes_up(self.stats.nodes):
                exact = False
                break
            if log is not None and time.monotonic() >= next_log:
                self._log_progress(log, store, weight, None, t0, nodes0,
                                   lps0)
                next_log = time.monotonic() + LOG_EVERY
            node = store.pop(weight)
            if node is None:
                break
            out = self.bound_and_cut(node, weight)
            if (node.tree_depth == 0 and self._live is not None
                    and self.mip.form is MipForm.GUESS):
                self.root_lp = self._live
            self.stats.nodes += 1
            if out.rounding is not None and out.rounding[1] < weight:
                cover, weight, direction = out.rounding
            if out.kind is OutcomeKind.FATHOMED:
                found = sys.weight_of(out.cover)
                x = out.lp.primal[:d]
                if self.mip.form is MipForm.DEPTH:
                    if found < weight:
                        cover, direction, weight = out.cover, x, found
                else:
                    x = _verified_direction(sys, out.cover, x,
                                            self.cfg.cert_tol)
                    if x is None:
                        x = complement_direction(sys, out.cover, self.stats)
                    if x is not None:
                        cover, direction, weight = out.cover, x, found
                        break
            elif out.kind is OutcomeKind.FRACTIONAL:
                if out.budget_hit:
                    exact = False
                    store.push(Node(node.fixed1, node.fixed0,
                                    out.objective, node.tree_depth))
                    break
                store.push_children(node, out)
            # The outcome's LP may be the only holder of a kernel state
            # that the next node no longer needs.
            del out
        if log is not None:
            self._log_progress(log, store, weight, cover, t0, nodes0, lps0,
                               exact)
        return cover, direction, weight, exact, store

    def _log_progress(self, log, store: "_NodeStore", weight: float, cover,
                      t0: float, nodes0: int, lps0: int,
                      exact: bool | None = None) -> None:
        """One INFO line: nodes and open nodes, the incumbent, the best
        bound over the open nodes, the gap and LPs per second.  The depth
        form's bound is the least integer weight an open node can still
        reach; the guess form's is the largest margin an open node's LP
        allows, and its incumbent is the witness, once one is found.
        ``exact`` is None on a progress line and the outcome on the final
        one."""

        elapsed = time.monotonic() - t0
        rate = (self.stats.lps - lps0) / elapsed if elapsed > 0 else 0.0
        bounds = store.bounds()
        if self.mip.form is MipForm.DEPTH:
            label = "search"
            bound = min([weight] + [_int_floor_bound(b) for b in bounds])
            incumbent, best, gap = weight, bound, weight - bound
        else:
            label = f"guess {self.mip.guess}"
            incumbent = "witness" if cover is not None else "none"
            best = (f"margin {-min(bounds):.3g}" if bounds
                    else "none open")
            gap = "-"
        state = ("" if exact is None
                 else ", done" if exact else ", budget spent")
        log.info("%s: %d nodes, %d open, incumbent %s, best bound %s, "
                 "gap %s, %.0f LPs/s, %.1f s%s", label,
                 self.stats.nodes - nodes0, len(store), incumbent, best, gap,
                 rate, elapsed, state)

    def run_depth(self, incumbent_cover: frozenset, incumbent_direction,
                  incumbent_weight: int):
        """Exhaust the tree (or a budget), returning the best cover found
        with its direction, its weight, whether the run proved optimality,
        and the final lower bound."""

        cover, direction, weight, exact, store = self._search(
            incumbent_cover, incumbent_direction, incumbent_weight)
        lower = weight
        if not exact:
            lower = min([lower] + [_int_floor_bound(b)
                                   for b in store.bounds()])
        return cover, direction, weight, exact, lower

    def run_guess(self):
        """Early-exit search of the guess form.

        Returns (cover, direction, exact).  The cover is the first witness:
        an integral solution whose margin exceeds EPS_POS and whose
        complement the unit direction separates.  Both are None when the
        tree is exhausted without one (the guess is below the depth), and
        also when a budget runs out first, which alone makes exact False.
        """

        cover, direction, _, exact, _ = self._search(None, None, INF)
        return cover, direction, exact


class _NodeStore:
    """Open nodes in one heap.  Depth-first keys each node (-seq, seq), so
    the newest pops first and the search dives; best-first keys it
    (lower_bound, seq), so the lowest bound pops first and the oldest node
    wins among equal bounds."""

    def __init__(self, strategy: str):
        self.best_first = strategy == "best-first"
        self._heap: list[tuple[float, int, Node]] = []
        self._seq = 0

    def push(self, node: Node) -> None:
        key = node.lower_bound if self.best_first else -self._seq
        heapq.heappush(self._heap, (key, self._seq, node))
        self._seq += 1

    def push_children(self, node: Node, out: NodeOutcome) -> None:
        """Apply the node's reduced-cost fixings and push both children, the
        removed-row child last so that depth-first search dives on it.  Both
        carry the node's final basis statuses, and the child popped next
        derives from the node's final LP instead: fixings change bounds
        only, so either start stays dual feasible.  Both inherit the node's
        elastic solution, whose removed rows their ``fixed1`` only
        extends."""

        base = Node(node.fixed1 | out.rc_fix1, node.fixed0 | out.rc_fix0,
                    node.lower_bound, node.tree_depth)
        child1, child0 = expand(base, out.branch_var)
        for child in (child1, child0):
            child.lower_bound = out.objective
            child.basis_status = out.lp.basis_status
            child.elastic = node.elastic
        self.push(child0)
        self.push(child1)

    def pop(self, incumbent_weight: float) -> Node | None:
        """The next node, discarding any already dominated by a finite
        depth-form incumbent before spending an LP on it; None once the
        store runs dry.  The guess form passes INF: under its own test the
        root's lower bound of 0.0 would read as a zero margin."""

        while self._heap:
            node = heapq.heappop(self._heap)[2]
            if (math.isfinite(incumbent_weight)
                    and _int_floor_bound(node.lower_bound)
                    >= incumbent_weight):
                continue
            return node
        return None

    def bounds(self):
        return [node.lower_bound for _, _, node in self._heap]

    def __len__(self) -> int:
        return len(self._heap)


# ---------------------------------------------------------------------------
# Top-level solve.
# ---------------------------------------------------------------------------


def _finalize(sys: InfeasibleSystem, cover, direction, stats: SolveStats,
              cfg: EngineConfig, budget: _Budget, exact: bool,
              lower_bound: int, epsilon: float) -> DepthResult:
    """The result for ``cover``, certified by ``direction`` (the one its
    search found) when every non-cover margin of it clears ``cert_tol``;
    else by the alternative LP over the non-cover rows, and "unverified"
    when that fails too.  The wall time runs from ``budget.start``."""

    unit = _verified_direction(sys, cover, direction, cfg.cert_tol)
    if unit is None:
        direction = complement_direction(sys, cover, stats)
        unit = _verified_direction(sys, cover, direction, cfg.cert_tol)
    cert = "verified" if unit is not None else "unverified"
    if unit is not None:
        direction = unit
    elif direction is None:
        direction = np.zeros(sys.dim)
    stats.wall_time = time.monotonic() - budget.start
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
    the tree only runs beyond that.  A query the row mean separates from
    every row closes at weight 0 with no LP.  The result carries the
    certifying direction, the search stats, and flags exactness; with a
    time or node budget hit you get the best cover plus the proven lower
    bound instead.
    """

    cfg = cfg or EngineConfig()
    budget = _Budget(cfg)
    stats = SolveStats()

    cover, direction, root = chinneck_cover(sys, stats)
    cover = frozenset(cover)
    weight = sys.weight_of(cover)
    stats.heuristic_weight = weight
    exact, lower = True, weight
    if weight > 1:
        mip = MipModel(sys, ParamBounds.for_system(sys, cfg.epsilon),
                       MipForm.DEPTH)
        engine = BranchCutEngine(mip, cfg, pool if pool is not None
                                 else CutPool(), stats, budget, root)
        cover, direction, weight, exact, lower = engine.run_depth(
            cover, direction, weight)
    return _finalize(sys, cover, direction, stats, cfg, budget, exact, lower,
                     cfg.epsilon)
