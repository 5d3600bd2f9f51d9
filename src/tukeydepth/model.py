"""Domain types: point clouds, the shifted inequality system, and the
big-M / epsilon parameter bounds used by the depth integer programs."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PointSet",
    "InfeasibleSystem",
    "ParamBounds",
    "build_system",
    "compute_bigM",
    "lattice_epsilon",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PointSet:
    """A finite set of data points plus the query point whose depth is wanted.

    ``points`` has shape (n, dim) and ``query`` shape (dim,).  The point list
    may be empty (a query excluded from a singleton file leaves nothing to
    count against).  Every coordinate must be finite, and so must every
    point's offset from the query: a NaN or an infinity has no halfspace
    side, so it is rejected here.
    """

    dim: int
    points: np.ndarray
    query: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        pts = np.asarray(self.points, dtype=float).reshape(-1, self.dim)
        q = np.asarray(self.query, dtype=float).reshape(-1)
        if q.shape != (self.dim,):
            raise ValueError(f"query must have {self.dim} coordinates")
        if not np.isfinite(q).all():
            raise ValueError("the query has a non-finite coordinate")
        # With a finite query, an offset is finite exactly when the point
        # is finite and does not lie too far away for float64.
        with np.errstate(over="ignore"):
            bad = np.flatnonzero(~np.isfinite(pts - q).all(axis=1))
        if bad.size:
            more = f" and {bad.size - 1} more" if bad.size > 1 else ""
            raise ValueError(f"point {bad[0]}{more} has a non-finite "
                             "coordinate or offset from the query")
        object.__setattr__(self, "points", _readonly(pts))
        object.__setattr__(self, "query", _readonly(q))

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class InfeasibleSystem:
    """The strict system <a_j, x> > 0 with a_j the query-shifted data points.

    Rows that are exactly zero (points equal to the query) are never stored;
    their total weight lives in ``zero_offset`` and is added to every depth
    value downstream, since no direction can strictly separate them.

    The constructor copies ``rows`` and ``weights`` into read-only arrays
    and rejects zero rows, non-positive weights, a length mismatch and a
    negative ``zero_offset``.  ``build_system`` skips that pass (through
    ``_trusted``): the arrays it hands over are fresh, and zero-free and
    positive by construction.
    """

    dim: int
    rows: np.ndarray
    weights: np.ndarray
    zero_offset: int = 0

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float).reshape(-1, self.dim)
        w = np.asarray(self.weights, dtype=np.int64).reshape(-1)
        if w.shape[0] != rows.shape[0]:
            raise ValueError("weights and rows must have equal length")
        if (w <= 0).any():
            raise ValueError("weights must be positive integers")
        if rows.shape[0] and not (rows != 0.0).any(axis=1).all():
            raise ValueError("zero rows must be folded into zero_offset")
        if self.zero_offset < 0:
            raise ValueError("zero_offset must be nonnegative")
        object.__setattr__(self, "rows", _readonly(rows))
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @classmethod
    def _trusted(cls, dim: int, rows: np.ndarray, weights: np.ndarray,
                 zero_offset: int) -> "InfeasibleSystem":
        """The system over these arrays as they are, with no copy and no
        check: ``rows`` must be a fresh float64 (n, dim) array with no zero
        row and ``weights`` a fresh positive int64 (n,) array.  Both are
        made read-only."""

        rows.flags.writeable = False
        weights.flags.writeable = False
        self = object.__new__(cls)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "zero_offset", zero_offset)
        return self

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def total_weight(self) -> int:
        return int(self.weights.sum()) + self.zero_offset

    def weight_of(self, indices) -> int:
        return int(sum(int(self.weights[j]) for j in indices))


@dataclass(frozen=True)
class ParamBounds:
    """Big-M / epsilon configuration for one system.

    ``c`` bounds each coordinate of the direction variable in the MIP box
    [-c, c]; ``bigM`` deactivates a row when its binary is 1; ``epsilon`` is
    the strict-inequality surrogate on the right-hand side.
    """

    c: float
    bigM: float
    epsilon: float = 1e-5

    def __post_init__(self):
        if not (self.c > 0 and self.bigM > 0 and self.epsilon > 0):
            raise ValueError("c, bigM and epsilon must be positive")

    @classmethod
    def for_system(cls, sys: InfeasibleSystem, c: float = 1.0,
                   epsilon: float = 1e-5) -> "ParamBounds":
        return cls(c=c, bigM=compute_bigM(sys, c), epsilon=epsilon)

    @classmethod
    def with_lattice_epsilon(cls, sys: InfeasibleSystem, m_box: float,
                             c: float = 1.0) -> "ParamBounds":
        """Conservative variant for integral data inside [-m_box, m_box]^d;
        epsilon comes from the lattice distance bound instead of the
        practical default (far too small to be useful in high dimension)."""

        if sys.n_rows == 0:
            raise ValueError("empty system")
        q_min = float(np.min(np.linalg.norm(sys.rows, axis=1)))
        return cls(c=c, bigM=compute_bigM(sys, c),
                   epsilon=lattice_epsilon(m_box, sys.dim, c, q_min))


def build_system(ps: PointSet,
                 fold_duplicates: bool = True) -> InfeasibleSystem:
    """Shift the points by the query, unit-scale each row, fold exact
    duplicates into weights, and move exact-zero rows to zero_offset.

    Scaling a row by a positive factor cannot change the sign of any inner
    product, so the depth is the same on unit rows; they keep the big-M
    bound, epsilon and the solver tolerances meaningful whatever the scale
    of the input coordinates.

    The result is not re-validated by the ``InfeasibleSystem`` constructor:
    its rows are a fresh array with no zero row (a row is kept only when
    its largest magnitude is nonzero, and ``PointSet`` admits only finite
    offsets from the query, so its unit scaling is finite and nonzero
    too), and its weights are fresh positive counts.
    """

    raw = ps.points - ps.query[None, :]
    # The largest magnitude of a row is both its zero test and its
    # pre-scale; dividing by it first keeps the norm of subnormal rows from
    # underflowing to zero.  Row-wise reductions here run across the d
    # columns, one ufunc call per column: numpy reduces a short last axis
    # several times slower, and a maximum is exact in any order.
    peak = functools.reduce(np.maximum, np.abs(raw).T)
    nonzero = peak != 0.0
    zero_offset = int(len(peak) - np.count_nonzero(nonzero))
    if zero_offset:
        raw = raw[nonzero]
        peak = peak[nonzero]
    raw /= peak[:, None]
    # The batched 1 x d by d x 1 product is the same dot product that
    # np.linalg.norm takes of one row, so every row comes out bit for bit as
    # a per-row norm gives it; np.linalg.norm(axis=1) sums in another order.
    raw /= np.sqrt((raw[:, None, :] @ raw[:, :, None])[:, 0, 0])[:, None]

    rows = raw
    weights = np.ones(len(raw), dtype=np.int64)
    if fold_duplicates and len(raw) > 1:
        # Rows compare by their bit patterns, so 0.0 and -0.0 stay
        # distinct.  The sort is stable, so each run of equal rows starts
        # at its first occurrence, and the folded rows keep that order.
        bits = raw.view(np.int64)
        order = np.lexsort(bits.T)
        ordered = bits[order]
        new = functools.reduce(np.logical_or,
                               (ordered[1:] != ordered[:-1]).T)
        if not new.all():
            starts = np.flatnonzero(np.concatenate(([True], new)))
            first = order[starts]
            counts = np.diff(starts, append=len(raw))
            keep = np.argsort(first)
            rows = raw[first[keep]]
            weights = counts[keep].astype(np.int64, copy=False)

    return InfeasibleSystem._trusted(ps.dim, rows, weights, zero_offset)


def compute_bigM(sys: InfeasibleSystem, c: float) -> float:
    """sqrt(d * c^2) times the largest row norm; with unit rows this is
    sqrt(d) * c, keeping M and epsilon a few orders of magnitude apart."""

    if sys.n_rows == 0:
        raise ValueError("empty system")
    max_norm = float(np.max(np.linalg.norm(sys.rows, axis=1)))
    return math.sqrt(sys.dim * c * c) * max_norm


def lattice_epsilon(m_box: float, d: int, c: float,
                    q_min_norm: float) -> float:
    """Conservative epsilon from the integer-lattice distance bound.

    The closest hyperplane spanned by lattice points inside the box
    [-m_box, m_box]^d keeps distance h = (2 * m_box * sqrt(d))^-(d-1) from
    the origin, which yields sin(theta) = h / (m_box * sqrt(d)) for the cone
    half-angle (clamped to 1 so the degenerate d = 1 exponent-zero case stays
    meaningful).  Impractically small in high dimension; provided as the
    certified alternative to the practical default.
    """

    if not (m_box > 0 and d >= 1 and c > 0 and q_min_norm > 0):
        raise ValueError("all arguments must be positive")
    h = (2.0 * m_box * math.sqrt(d)) ** (-(d - 1))
    sin_theta = min(1.0, h / (m_box * math.sqrt(d)))
    return math.sqrt(d * c * c) * q_min_norm * sin_theta
