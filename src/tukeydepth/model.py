"""Domain types: point clouds, the shifted inequality system, and the
big-M / epsilon parameter bounds used by the depth integer programs."""

from __future__ import annotations

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
    count against).
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
    """

    raw = ps.points - ps.query[None, :]
    nonzero = (raw != 0.0).any(axis=1)
    zero_offset = int(raw.shape[0] - np.count_nonzero(nonzero))
    kept = raw[nonzero]
    # Pre-dividing by the largest coordinate keeps the norm of subnormal
    # rows from underflowing to zero.
    kept = kept / np.abs(kept).max(axis=1)[:, None]
    # The batched 1 x d by d x 1 product is the same dot product that
    # np.linalg.norm takes of one row, so every row comes out bit for bit as
    # a per-row norm gives it; np.linalg.norm(axis=1) sums in another order.
    norms = np.sqrt((kept[:, None, :] @ kept[:, :, None])[:, 0, 0])
    kept = kept / norms[:, None]

    rows = kept
    weights = np.ones(len(kept), dtype=np.int64)
    if fold_duplicates and len(kept) > 1:
        # Rows compare by their bit patterns, so 0.0 and -0.0 stay
        # distinct.  The sort is stable, so each run of equal rows starts
        # at its first occurrence, and the folded rows keep that order.
        bits = kept.view(np.int64)
        order = np.lexsort(bits.T)
        ordered = bits[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], (ordered[1:] != ordered[:-1]).any(axis=1))))
        if len(starts) < len(kept):
            first = order[starts]
            counts = np.diff(starts, append=len(kept))
            keep = np.argsort(first)
            rows = kept[first[keep]]
            weights = counts[keep]

    return InfeasibleSystem(dim=ps.dim, rows=rows,
                            weights=weights,
                            zero_offset=zero_offset)


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
