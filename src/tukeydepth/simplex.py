"""Dense bounded-variable revised simplex solver.

A solve opens in one of three ways.  Given the whole optimal solution of an
earlier solve (``start=earlier``), over the same structural columns and
cost, whose rows are a prefix of this model's rows, it derives: it reuses
that solve's live kernel state, the stacked matrix with the new rows
appended, the basis inverse bordered for them, the basic values moved by the
changed bounds and right-hand sides, and the refactor counter, and inverts
nothing.  It copies that state, unless the earlier solution was handed over
(``LpSolution.handover``), in which case it takes it.  Given an earlier
basis status vector, or a solution it cannot derive from, it rebuilds the
stacked matrix and refactorizes that basis.  Either start must pass two
checks, a finite bound under every column nonbasic at a bound and reduced
costs of the true cost that are dual feasible (a derived start re-checks
only the columns whose bounds changed, since every other one keeps what the
earlier optimum established), and the status path also needs exactly one
basic column per row and a nonsingular basis matrix; otherwise the solve
starts cold, from the all-slack basis.  Appended rows open with their slacks
basic, which leaves the reduced costs unchanged.  A bounded dual simplex
drives the start to primal feasibility (or proves infeasibility with a
Farkas ray), then the primal simplex finishes with the true cost and detects
unboundedness.

Every LP this package builds is dual feasible at the slack basis, and the
search engine only passes starts that stay dual feasible: the parent node's
final LP (a branching or reduced-cost fixing changes bounds only), the
previous cut round's (cuts are appended rows), the node LP for
strong-branching children, the previous bisection probe's root LP (its cut
pool only grows and only the cardinality row's right-hand side changes),
and an elastic LP for one that removes more rows (a bound change too).  So
for those LPs the primal finish only prices once.  Pricing is by largest
violation (dual) and Dantzig (primal) with a Bland's-rule fallback after a
degenerate-iteration budget; the explicit basis inverse is refactorized
every ``_REFACTOR_EVERY`` pivots, counted along a chain of derived solves,
and ties go to the lowest index everywhere, so identical inputs (the start
included) give identical output on a fixed BLAS thread configuration (the
thread count can change the rounding of the dense products).

The dual ratio test flips bounds (the long-step or bound-flipping ratio
test; Maros, Computational Techniques of the Simplex Method, 2003): a boxed
column whose breakpoint the dual step passes switches to its other bound
while the leaving row stays violated, instead of ending the step.  A cold
elastic LP, whose columns all open at their upper bounds, so takes a few
pivots instead of one per column.  Two rules keep the pass's other
guarantees: the last eligible column never flips, so infeasibility is still
declared only when no column is eligible (with the same Farkas ray), and no
column flips under Bland's rule.

Between pivots the dual pass carries its working state with the basis
instead of re-deriving it: the basic values with their bounds, and a sign
per column that says which way it may enter (free columns apart).  Each
pivot updates them in place; every refactorization, periodic or forced by a
near-singular pivot, recomputes the basic values and the pass re-reads them.
Problem sizes in this project stay small (a few hundred rows and columns),
so dense algebra is adequate and much simpler than a factorized sparse
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "Sense",
    "LpStatus",
    "LpModel",
    "LpSolution",
    "LpNumericsError",
    "LpCounter",
    "solve_lp",
    "COLD",
    "REFACTORIZED",
    "DERIVED",
]

INF = float("inf")

# Nonbasic status codes.
_AT_LOWER = 0
_AT_UPPER = 1
_FREE = 2
_BASIC = 3

_REFACTOR_EVERY = 100
_DEGENERATE_BUDGET = 60
_PIVOT_TOL = 1e-10
_RATIO_TIE = 1e-12
# Reduced costs within this of zero count as dual feasible.
_OPT_TOL = 1e-9
# A product-form update with a pivot below this rebuilds the inverse instead.
_SINGULAR_PIVOT = 1e-8
# Entries of the entering column at or below this leave their row of the
# inverse untouched in the update.
_UPDATE_DROP = 1e-14
# The dual pass's entering sign per status code: +1 at the lower bound, -1
# at the upper bound, 0 for free (tracked apart) and basic columns.
_ENTRY_SIGN = np.array([1.0, -1.0, 0.0, 0.0])

# How a solve opened; see ``LpSolution.start_kind``.
COLD = "cold"
REFACTORIZED = "refactorized"
DERIVED = "derived"
START_KINDS = (COLD, REFACTORIZED, DERIVED)


class Sense(str, Enum):
    GE = ">="
    LE = "<="
    EQ = "="


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LpNumericsError(RuntimeError):
    """Raised when the solver cannot make progress even under Bland's rule."""


@dataclass
class LpModel:
    """min objective . v subject to row_coeffs v (sense) rhs, lower <= v <= upper.

    All arrays are dense; +-inf bounds are allowed.
    """

    objective: np.ndarray
    row_coeffs: np.ndarray
    senses: list[Sense]
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        n = self.objective.shape[0]
        self.row_coeffs = np.asarray(self.row_coeffs, dtype=float).reshape(-1, n)
        m = self.row_coeffs.shape[0]
        self.rhs = np.asarray(self.rhs, dtype=float).reshape(m)
        if len(self.senses) != m:
            raise ValueError("one sense per row required")
        self.lower = np.asarray(self.lower, dtype=float).reshape(n)
        self.upper = np.asarray(self.upper, dtype=float).reshape(n)
        if (self.lower > self.upper).any():
            raise ValueError("lower bound above upper bound")

    @property
    def columns(self) -> int:
        return self.objective.shape[0]

    @property
    def n_rows(self) -> int:
        return self.row_coeffs.shape[0]


@dataclass
class LpSolution:
    """``basis_status`` holds the final status of every column of
    [structural | slack] (``_AT_LOWER``, ``_AT_UPPER``, ``_FREE`` or
    ``_BASIC``), the statuses a later solve can start from.  ``kernel`` is
    the live state of the solve that found an optimum (None otherwise),
    which a later solve given this whole solution as its start derives
    from.  ``start_kind`` says how this solve opened: ``COLD`` (the slack
    basis), ``REFACTORIZED`` (from start statuses, inverting their basis)
    or ``DERIVED`` (from an earlier kernel).  ``dual_pivots`` counts basis
    changes of the dual pass and ``dual_flips`` the bound flips of its ratio
    test; ``primal_pivots`` counts the basis changes and bound flips of the
    primal finish."""

    status: LpStatus
    primal: np.ndarray
    objective_value: float
    duals: np.ndarray
    reduced_costs: np.ndarray
    basis_status: np.ndarray
    dual_pivots: int = 0
    dual_flips: int = 0
    primal_pivots: int = 0
    start_kind: str = COLD
    kernel: "_Simplex | None" = field(default=None, repr=False,
                                      compare=False)

    def handover(self) -> LpSolution:
        """This solution as a start whose kernel state the next solve takes
        over instead of copying, for an earlier LP that only one later solve
        derives from.  Only one copy of the state is then ever alive; once
        taken, this solution can no longer be derived from."""

        if self.kernel is not None:
            self.kernel.handed_over = True
        return self


class LpCounter:
    """Shared counter so callers can report how many LPs a pipeline solved,
    how each one started and how many pivots they took."""

    def __init__(self):
        self.count = 0
        self.dual_pivots = 0
        self.primal_pivots = 0
        self.starts = dict.fromkeys(START_KINDS, 0)

    def record(self, sol: LpSolution) -> None:
        self.count += 1
        self.dual_pivots += sol.dual_pivots
        self.primal_pivots += sol.primal_pivots
        self.starts[sol.start_kind] += 1


def solve_lp(model: LpModel, feas_tol: float = 1e-9,
             counter: LpCounter | None = None,
             start: LpSolution | np.ndarray | None = None) -> LpSolution:
    """Solve the LP; status is always one of optimal/infeasible/unbounded.

    ``start`` is an earlier solve over the same structural columns whose
    rows are a prefix of this model's rows: either its ``basis_status`` or
    the whole ``LpSolution``.  A whole optimal solution whose cost and rows
    match is derived from (see the module docstring); otherwise its
    statuses are the start.  A start that fails the checks of the module
    docstring is ignored, so the output is then exactly that of a solve
    without it.

    On infeasibility the objective value is +inf and the returned duals are
    a Farkas ray, the blocked row of the basis inverse; for pure >=-row
    systems with free variables it satisfies y >= 0, y.A = 0, y.b > 0.
    """

    sol = _Simplex(model, feas_tol, start).solve()
    if counter is not None:
        counter.record(sol)
    return sol


def _slack_bounds(senses) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of the slacks of rows with these senses: [0, inf) for <=,
    (-inf, 0] for >= and [0, 0] for =."""

    ge = np.array([s is Sense.GE for s in senses], dtype=bool)
    eq = np.array([s is Sense.EQ for s in senses], dtype=bool)
    return np.where(ge, -INF, 0.0), np.where(ge | eq, 0.0, INF)


class _Simplex:
    """Working state for one solve.

    Variable layout: [structural | slack].  Every row gets a slack whose
    bounds encode the sense (<=: [0, inf), >=: (-inf, 0], =: [0, 0]), so the
    all-slack basis B = I is always a valid start.
    """

    def __init__(self, model: LpModel, feas_tol: float,
                 start: LpSolution | np.ndarray | None = None):
        self.feas_tol = feas_tol
        self.flips = 0
        self.handed_over = False
        if isinstance(start, LpSolution):
            if self._derive(start, model):
                self.start_kind = DERIVED
                return
            start = start.basis_status
        self._stack(model)
        if start is not None and self._warm_start(np.asarray(start)):
            self.start_kind = REFACTORIZED
        else:
            self._slack_start(model)
            self.start_kind = COLD

    def _stack(self, model: LpModel):
        """The stacked matrix [A | I], the bounds of every column and the
        cost, built from the model alone."""

        n, m = model.columns, model.n_rows
        self.n_struct = n
        self.m = m
        self.senses = model.senses
        self.A = np.hstack([model.row_coeffs, np.eye(m)])
        slack_lo, slack_up = _slack_bounds(model.senses)
        self.lower = np.concatenate([model.lower, slack_lo])
        self.upper = np.concatenate([model.upper, slack_up])
        self.b = model.rhs.astype(float).copy()
        self.cost = np.concatenate([model.objective, np.zeros(m)])
        self.pivots_since_refactor = 0
        # Fixed columns (equality slacks, pinned binaries) never enter.
        self.movable = self.upper > self.lower

    def _slack_start(self, model: LpModel):
        """All slacks basic.  Each structural opens nonbasic at the bound its
        cost sign needs for dual feasibility; where that bound is infinite it
        sits at its other bound (or at 0 when free) and the dual pass prices
        it at cost 0, leaving the primal finish to correct it."""

        n, m = self.n_struct, self.m
        c = model.objective
        fin_lo = model.lower > -INF
        fin_up = model.upper < INF
        at_up = fin_up & ((c < 0) | ~fin_lo)
        free = ~fin_lo & ~fin_up
        at_lo = ~at_up & ~free
        dual_ok = ((at_lo & (c >= 0)) | (at_up & (c <= 0))
                   | (model.lower == model.upper))
        self.dual_cost = np.concatenate([np.where(dual_ok, c, 0.0),
                                         np.zeros(m)])

        self.status = np.full(n + m, _BASIC, dtype=np.int8)
        self.status[:n] = np.where(at_up, _AT_UPPER,
                                   np.where(free, _FREE, _AT_LOWER))
        self.values = np.zeros(n + m)
        self.values[:n] = np.where(at_up, model.upper,
                                   np.where(free, 0.0, model.lower))
        self.values[n:] = self.b - model.row_coeffs @ self.values[:n]
        self.basis = np.arange(n, n + m)
        self.binv = np.eye(m)
        self.dual_rc = self.dual_cost - self._duals(self.dual_cost) @ self.A

    def _warm_start(self, start: np.ndarray) -> bool:
        """Open at the basis ``start`` (statuses over the structurals and a
        prefix of the slacks; the remaining slacks are basic).  Returns False
        unless it is a nonsingular basis with every nonbasic column at a
        finite bound (or free at 0) and dual feasible for the true cost."""

        n, m = self.n_struct, self.m
        if start.ndim != 1 or not n <= start.size <= n + m:
            return False
        status = np.full(n + m, _BASIC, dtype=np.int8)
        status[:start.size] = start
        basic = status == _BASIC
        at_lo = status == _AT_LOWER
        at_up = status == _AT_UPPER
        free = status == _FREE
        if (np.count_nonzero(basic) != m
                or not (basic | at_lo | at_up | free).all()
                or (at_lo & (self.lower == -INF)).any()
                or (at_up & (self.upper == INF)).any()
                or (free & ((self.lower > -INF) | (self.upper < INF))).any()):
            return False

        self.status = status
        self.basis = np.flatnonzero(basic)
        self.values = np.where(at_lo, self.lower,
                               np.where(at_up, self.upper, 0.0))
        try:
            self._refactorize()
        except LpNumericsError:
            return False
        d = self.cost - self._duals(self.cost) @ self.A
        wrong = self.movable & ((((at_lo | free) & (d < -_OPT_TOL))
                                 | ((at_up | free) & (d > _OPT_TOL))))
        if wrong.any():
            return False
        self.dual_cost = self.cost
        self.dual_rc = d
        return True

    def _derive(self, earlier: LpSolution, model: LpModel) -> bool:
        """Open at the final state of the kernel that solved ``earlier``,
        for a model with the same structural columns and cost whose first
        rows are ``earlier``'s rows; only structural bounds, right-hand
        sides and appended rows may differ.  Nothing is re-inverted: the
        appended rows open with their slacks basic, which borders the
        inverse as [[B^-1, 0], [-A_new[:, basis] B^-1, I]] (Maros 2003), and
        the basic values move by B^-1 times the change of b - N x_N.  The
        refactor counter carries over.  The state is copied, unless
        ``earlier`` was handed over: then it is taken, and ``earlier`` loses
        its kernel.

        Only the columns whose bounds changed face the start checks again:
        every other column keeps its bounds, status and reduced cost, which
        the earlier optimum left dual feasible.  Returns False, setting
        nothing, when there is no kernel, the models do not match, or a
        changed column is nonbasic at an infinite bound or has a reduced
        cost of the wrong sign."""

        k = earlier.kernel
        if k is None:
            return False
        n, m0, m = k.n_struct, k.m, model.n_rows
        if (model.columns != n or m < m0 or model.senses[:m0] != k.senses
                or not (model.objective == k.cost[:n]).all()
                or not (model.row_coeffs[:m0] == k.A[:, :n]).all()):
            return False

        lower = np.concatenate([model.lower, k.lower[n:]])
        upper = np.concatenate([model.upper, k.upper[n:]])
        rc = k.rc
        moves = []
        changed = ((model.lower != k.lower[:n])
                   | (model.upper != k.upper[:n])).nonzero()[0]
        for j in changed.tolist():
            s = k.status[j]
            if s == _BASIC:
                continue
            lo, up = lower[j], upper[j]
            if s == _AT_LOWER:
                if lo == -INF or (up > lo and rc[j] < -_OPT_TOL):
                    return False
                moves.append((j, lo))
            elif s == _AT_UPPER:
                if up == INF or (up > lo and rc[j] > _OPT_TOL):
                    return False
                moves.append((j, up))
            else:
                # A free column that gained a finite bound.
                return False

        take = k.handed_over
        if take:
            earlier.kernel = None
        own = (lambda a: a) if take else np.copy
        status, values, basis = own(k.status), own(k.values), own(k.basis)
        # The appended rows' duals are 0, so the earlier reduced costs hold.
        d = own(rc)
        shift = model.rhs[:m0] - k.b
        for j, bound in moves:
            shift -= (bound - values[j]) * k.A[:, j]
            values[j] = bound
        if shift.any():
            values[basis] += k.binv @ shift

        extra = m - m0
        if extra:
            rows = model.row_coeffs[m0:]
            slack_lo, slack_up = _slack_bounds(model.senses[m0:])
            lower = np.concatenate([lower, slack_lo])
            upper = np.concatenate([upper, slack_up])
            status = np.concatenate([status, np.full(extra, _BASIC, np.int8)])
            values = np.concatenate([values,
                                     model.rhs[m0:] - rows @ values[:n]])
            d = np.concatenate([d, np.zeros(extra)])
            new = np.arange(m0, m)
            A = np.zeros((m, n + m))
            A[:m0, :n + m0] = k.A
            A[m0:, :n] = rows
            A[new, n + new] = 1.0
            if take:
                # Free each taken array once copied, so that no more than
                # three of the large ones are alive at a time.
                k.A = None
            binv = np.zeros((m, m))
            binv[:m0, :m0] = k.binv
            binv[m0:, :m0] = -(A[m0:, basis] @ k.binv)
            binv[new, new] = 1.0
            basis = np.concatenate([basis, n + new])
            cost = np.concatenate([k.cost, np.zeros(extra)])
        else:
            A, binv, cost = k.A, own(k.binv), k.cost

        self.n_struct, self.m, self.senses = n, m, model.senses
        self.A, self.b, self.cost = A, model.rhs, cost
        self.lower, self.upper = lower, upper
        self.movable = upper > lower
        self.status, self.values = status, values
        self.basis, self.binv = basis, binv
        self.pivots_since_refactor = k.pivots_since_refactor
        self.dual_cost, self.dual_rc = cost, d
        return True

    # -- linear algebra helpers -------------------------------------------

    def _refactorize(self):
        if self.m == 0:
            return
        B = self.A[:, self.basis]
        try:
            self.binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise LpNumericsError("singular basis") from exc
        self._recompute_basic_values()
        self.pivots_since_refactor = 0

    def _recompute_basic_values(self):
        if self.m == 0:
            return
        nb_mask = self.status != _BASIC
        rhs = self.b - self.A[:, nb_mask] @ self.values[nb_mask]
        self.values[self.basis] = self.binv @ rhs

    def _duals(self, cost: np.ndarray) -> np.ndarray:
        if self.m == 0:
            return np.zeros(0)
        return cost[self.basis] @ self.binv

    # -- core iteration ----------------------------------------------------

    def _price(self, rc: np.ndarray, bland: bool) -> int:
        st = self.status
        from_lower = ((st == _AT_LOWER) | (st == _FREE)) & (rc < -_OPT_TOL)
        from_upper = ((st == _AT_UPPER) | (st == _FREE)) & (rc > _OPT_TOL)
        eligible = (from_lower | from_upper) & self.movable
        if not eligible.any():
            return -1
        if bland:
            return int(np.argmax(eligible))
        score = np.where(eligible, np.abs(rc), -1.0)
        return int(np.argmax(score))

    def _dual(self, cost: np.ndarray,
              d: np.ndarray) -> tuple[np.ndarray | None, int]:
        """Bounded dual simplex from a basis that is dual feasible for
        ``cost``, whose reduced costs ``d`` it updates in place, run until
        every basic variable is within its bounds.

        Returns (None, pivots) on primal feasibility, or (ray, pivots) when a
        violated row admits no entering column: the ray is that row of the
        basis inverse, signed so that it certifies infeasibility.  The leaving
        row is the largest bound violation.  The eligible columns' breakpoints
        are passed in (ratio, index) order: the slope of the dual objective
        opens at the violation and each boxed column passed lowers it by
        |alpha_j| times its range; while it stays above ``feas_tol`` the
        column flips to its other bound, and all flips update ``xb`` with one
        product.  The last eligible column never flips.  The entering column
        comes from a Harris two-pass ratio test over the columns not
        flipped, preferring the largest pivot among near-ties and then the
        lowest index.  After a run of degenerate steps both choices switch to
        Bland's lowest index, and no column flips.

        The pass carries its working state with the basis and updates it in
        place on each pivot: the basic values ``xb`` and their bounds
        ``lb``/``ub``, and a sign per column, +1 for a movable column at its
        lower bound, -1 at its upper bound and 0 for a basic or fixed one
        (free columns are tracked apart, and only when the LP has any).
        ``values`` of the basic columns is written back on exit.  A
        refactorization recomputes the basic values, so ``xb`` is re-read
        after every one, including the rebuild inside ``_update_binv``.
        """

        if self.m == 0:
            return None, 0
        A = self.A
        basis = self.basis
        status = self.status
        values = self.values
        xb = values[basis]
        lb = self.lower[basis]
        ub = self.upper[basis]
        sgn = np.where(self.movable, _ENTRY_SIGN[status], 0.0)
        free = status == _FREE
        has_free = bool(free.any())
        span = self.upper - self.lower
        feas_tol = self.feas_tol
        degenerate_run = 0
        bland = False
        pivots = 0
        max_iter = 2000 + 200 * (self.m + self.n_struct)

        while True:
            if pivots > max_iter:
                raise LpNumericsError("iteration limit exceeded")
            if self.pivots_since_refactor >= _REFACTOR_EVERY:
                self._refactorize()
                d = cost - self._duals(cost) @ A
                xb = values[basis]

            violation = np.maximum(lb - xb, xb - ub)
            r = int(violation.argmax())
            if not violation[r] > feas_tol:
                values[basis] = xb
                return None, pivots
            if bland:
                rows = (violation > feas_tol).nonzero()[0]
                r = int(rows[basis[rows].argmin()])
            to_upper = xb[r] - ub[r] > 0
            sign = 1.0 if to_upper else -1.0

            # Dual step d -= theta * alpha with theta = sign * t, t >= 0: a
            # column at lower (upper) bounds t where sign * alpha_j is
            # positive (negative); a free column bounds it wherever
            # alpha_j != 0, since its reduced cost must stay zero.
            alpha = self.binv[r] @ A
            sa = sign * alpha
            elig = sgn * sa > _PIVOT_TOL
            if has_free:
                elig |= free & (np.abs(sa) > _PIVOT_TOL)
            idx = elig.nonzero()[0]
            if idx.size == 0:
                values[basis] = xb
                return sign * self.binv[r], pivots

            mag = np.abs(alpha[idx])
            dj = d[idx]
            room = sgn[idx] * dj
            if has_free:
                room = np.where(free[idx], np.abs(dj), room)
            np.maximum(room, 0.0, out=room)
            ratio = room / mag
            if not bland and idx.size > 1:
                # Bound flips (see above).  A column without a finite range
                # drops the slope to -inf and so ends the pass.  The sort
                # runs only when the first breakpoint already flips.
                drop = mag * span[idx]
                if violation[r] - drop[ratio.argmin()] > feas_tol:
                    order = np.argsort(ratio, kind="stable")
                    slope = violation[r] - np.cumsum(drop[order])
                    k = min(int(np.count_nonzero(slope > feas_tol)),
                            idx.size - 1)
                    flip = idx[order[:k]]
                    to_up = sgn[flip] > 0
                    moved = np.where(to_up, self.upper[flip],
                                     self.lower[flip])
                    xb -= self.binv @ (A[:, flip] @ (moved - values[flip]))
                    values[flip] = moved
                    status[flip] = np.where(to_up, _AT_UPPER, _AT_LOWER)
                    sgn[flip] = -sgn[flip]
                    self.flips += k
                    rest = np.sort(order[k:])
                    idx, mag, room, ratio = (idx[rest], mag[rest],
                                             room[rest], ratio[rest])
            if bland:
                tie = (ratio <= ratio.min() + _RATIO_TIE).nonzero()[0]
                solid = tie[mag[tie] >= 1e-7 * mag[tie].max()]
                pick = int(solid[0])
            else:
                # Half the optimality tolerance keeps the reduced costs that
                # the relaxed ratio lets slip inside what the primal finish
                # accepts as optimal.
                limit = float(((room + 0.5 * _OPT_TOL) / mag).min())
                cands = ratio <= limit
                best = float(mag[cands].max())
                pick = int((cands & (mag >= 0.5 * best)).argmax())
            q = int(idx[pick])
            t = float(ratio[pick])

            d -= (sign * t) * alpha
            col = self.binv @ A[:, q]
            jl = int(basis[r])
            bound = ub[r] if to_upper else lb[r]
            step = (xb[r] - bound) / col[r]
            xb -= step * col
            xb[r] = values[q] + step
            values[jl] = bound
            status[jl] = _AT_UPPER if to_upper else _AT_LOWER
            status[q] = _BASIC
            if self.movable[jl]:
                sgn[jl] = -1.0 if to_upper else 1.0
            sgn[q] = 0.0
            if has_free:
                free[q] = False
            basis[r] = q
            lb[r] = self.lower[q]
            ub[r] = self.upper[q]
            d[q] = 0.0
            if self._update_binv(col, r):
                xb = values[basis]
            self.pivots_since_refactor += 1
            pivots += 1

            if t <= _RATIO_TIE:
                degenerate_run += 1
                if degenerate_run >= _DEGENERATE_BUDGET:
                    bland = True
            else:
                degenerate_run = 0
                bland = False

    def _iterate(self, cost: np.ndarray):
        """Primal simplex from a primal feasible basis.  Returns
        ("optimal" | "unbounded", pivots, y, rc), bound flips counted as
        pivots, with the duals and reduced costs of the final basis."""

        degenerate_run = 0
        bland = False
        iterations = 0
        max_iter = 2000 + 200 * (self.m + self.n_struct)

        while True:
            iterations += 1
            if iterations > max_iter:
                raise LpNumericsError("iteration limit exceeded")
            if self.pivots_since_refactor >= _REFACTOR_EVERY:
                self._refactorize()

            y = self._duals(cost)
            rc = cost - y @ self.A if self.m else cost.copy()
            entering = self._price(rc, bland)
            if entering < 0:
                return "optimal", iterations - 1, y, rc

            # Direction: +1 increases the entering variable, -1 decreases it.
            if self.status[entering] == _AT_UPPER:
                direction = -1.0
            elif self.status[entering] == _FREE:
                direction = 1.0 if rc[entering] < 0 else -1.0
            else:
                direction = 1.0

            col = self.binv @ self.A[:, entering] if self.m else np.zeros(0)
            w = direction * col

            # Two-pass ratio test.  Pass 1 finds the blocking step with each
            # bound relaxed by feas_tol; pass 2 picks, among candidates whose
            # true ratio fits under that relaxed limit, the one with the
            # largest pivot magnitude (tiny pivots poison the basis inverse).
            # The step taken is the chosen candidate's own true ratio, so the
            # leaving variable lands exactly on its bound and every other
            # basic stays within feas_tol of its own.
            if self.m:
                vb = self.values[self.basis]
                lb = self.lower[self.basis]
                ub = self.upper[self.basis]
                true_r = np.full(self.m, INF)
                relax_r = np.full(self.m, INF)
                down = (w > _PIVOT_TOL) & (lb != -INF)
                true_r[down] = (vb[down] - lb[down]) / w[down]
                relax_r[down] = (vb[down] - lb[down] + self.feas_tol) / w[down]
                upw = (w < -_PIVOT_TOL) & (ub != INF)
                true_r[upw] = (vb[upw] - ub[upw]) / w[upw]
                relax_r[upw] = (vb[upw] - ub[upw] - self.feas_tol) / w[upw]
                np.maximum(true_r, 0.0, out=true_r)
                limit_relaxed = float(relax_r.min())
            else:
                true_r = np.zeros(0)
                limit_relaxed = INF

            rng = self.upper[entering] - self.lower[entering]
            flip = rng if (rng != INF and self.status[entering] != _FREE) else INF

            if limit_relaxed == INF and flip == INF:
                return "unbounded", iterations - 1, y, rc

            if limit_relaxed == INF:
                step_bound = INF
                leave_pos = -1
            else:
                cands = np.where(true_r <= max(limit_relaxed, 0.0))[0]
                if cands.size == 0:
                    cands = np.array([int(np.argmin(true_r))])
                if bland:
                    # Lowest variable index, unless its pivot is hopeless.
                    wmax = float(np.abs(w[cands]).max())
                    solid = cands[np.abs(w[cands]) >= 1e-7 * wmax]
                    pick = solid if solid.size else cands
                    leave_pos = int(pick[np.argmin(self.basis[pick])])
                else:
                    mags = np.abs(w[cands])
                    best = float(mags.max())
                    solid = cands[mags >= 0.5 * best]
                    leave_pos = int(solid[np.argmin(self.basis[solid])])
                step_bound = float(true_r[leave_pos])

            if flip < step_bound:
                # Bound flip: no basis change.
                self.values[entering] = (self.upper[entering] if direction > 0
                                         else self.lower[entering])
                self.status[entering] = (_AT_UPPER if direction > 0 else _AT_LOWER)
                if self.m:
                    self.values[self.basis] -= w * flip
                step = flip
            else:
                leave_to_upper = w[leave_pos] < 0
                jl = int(self.basis[leave_pos])
                step = step_bound
                self.values[self.basis] -= w * step
                self.values[entering] = (self._entering_origin(entering)
                                         + direction * step)
                self.values[jl] = self.upper[jl] if leave_to_upper else self.lower[jl]
                self.status[jl] = _AT_UPPER if leave_to_upper else _AT_LOWER
                self.status[entering] = _BASIC
                self.basis[leave_pos] = entering
                self._update_binv(col, leave_pos)
                self.pivots_since_refactor += 1

            if step <= _RATIO_TIE:
                degenerate_run += 1
                if degenerate_run >= _DEGENERATE_BUDGET:
                    bland = True
            else:
                degenerate_run = 0
                bland = False

    def _entering_origin(self, j: int) -> float:
        if self.status[j] == _AT_UPPER:
            return self.upper[j]
        if self.status[j] == _AT_LOWER:
            return self.lower[j]
        return self.values[j]

    def _update_binv(self, col: np.ndarray, pos: int) -> bool:
        """Product-form update of the inverse for ``col`` entering the basis
        at row ``pos``.  Returns True when the pivot was too small and the
        inverse was rebuilt instead, which also recomputes the basic values."""

        piv = col[pos]
        if abs(piv) < _SINGULAR_PIVOT:
            # A near-singular product update would poison the inverse;
            # rebuilding from the actual basis is always safe.
            self._refactorize()
            return True
        binv = self.binv
        binv[pos] /= piv
        # Rows whose entry is (near) zero are skipped rather than updated
        # with a zero multiple: x - 0 * y would turn a -0.0 into 0.0.
        keep = np.abs(col) > _UPDATE_DROP
        keep[pos] = False
        np.subtract(binv, col[:, None] * binv[pos], out=binv,
                    where=keep[:, None])
        return False

    # -- driver -------------------------------------------------------------

    def solve(self) -> LpSolution:
        n = self.n_struct
        ray, dual_pivots = self._dual(self.dual_cost, self.dual_rc)
        if ray is not None:
            return LpSolution(
                status=LpStatus.INFEASIBLE,
                primal=self.values[:n].copy(),
                objective_value=INF,
                duals=ray,
                reduced_costs=-(ray @ self.A[:, :n]),
                basis_status=self.status.copy(),
                dual_pivots=dual_pivots,
                dual_flips=self.flips,
                start_kind=self.start_kind,
            )

        # The final reduced costs over every column stay with the kernel for
        # a later derived start.
        outcome, primal_pivots, y, self.rc = self._iterate(self.cost)
        rc = self.rc[:n].copy()
        primal = self.values[:n].copy()
        unbounded = outcome == "unbounded"
        obj = -INF if unbounded else float(self.cost[:n] @ primal)
        return LpSolution(
            status=LpStatus.UNBOUNDED if unbounded else LpStatus.OPTIMAL,
            primal=primal,
            objective_value=obj,
            duals=y,
            reduced_costs=rc,
            basis_status=self.status.copy(),
            dual_pivots=dual_pivots,
            dual_flips=self.flips,
            primal_pivots=primal_pivots,
            start_kind=self.start_kind,
            kernel=None if unbounded else self,
        )
