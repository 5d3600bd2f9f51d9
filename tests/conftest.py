"""Shared fixtures and seeded instance generators for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from tukeydepth import simplex
from tukeydepth.model import PointSet, build_system
from tukeydepth.oracle import GeneralPositionError, oracle_depth_general


def gaussian_system(seed: int, n: int, d: int, query=None):
    """Seeded Gaussian cloud shifted against the query (default origin),
    re-drawn until the enumeration oracle accepts it as general position."""

    for attempt in range(40):
        rng = np.random.default_rng(seed + 7919 * attempt)
        pts = rng.normal(size=(n, d))
        q = np.zeros(d) if query is None else np.asarray(query, dtype=float)
        sys_ = build_system(PointSet(d, pts, q))
        try:
            depth = oracle_depth_general(sys_)
        except GeneralPositionError:
            continue
        return sys_, depth, pts
    raise RuntimeError(f"no general-position draw for seed={seed} n={n} d={d}")


def outside_hull_system(seed: int, n: int, d: int):
    """Cloud with the query pushed strictly outside its convex hull."""

    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, d))
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    margin = 1.0 + rng.uniform(0.5, 2.0)
    q = direction * (float(np.max(pts @ direction)) + margin)
    return build_system(PointSet(d, pts, q))


def screen_system(k: int, seed: int = 1, attempt: int = 0):
    """The outermost point of a 201-point Gaussian cloud, left out of it,
    against the other 200 (depth 0), drawn as the screening benchmark draws
    the given attempt; d alternates between 2 and 3."""

    d = 2 + k % 2
    pts = np.random.default_rng([seed, k, attempt]).normal(size=(201, d))
    q = int(np.argmax(np.linalg.norm(pts, axis=1)))
    return build_system(PointSet(d, np.delete(pts, q, axis=0), pts[q]))


def skewed_arc_system():
    """Depth 0, but the mean of its rows, nine near +85 degrees and one at
    -85 degrees, gives the last row a negative margin."""

    angles = np.radians(np.concatenate([np.linspace(84, 86, 9), [-85.0]]))
    return build_system(PointSet(
        2, np.column_stack([np.cos(angles), np.sin(angles)]), np.zeros(2)))


def count_warm_starts(monkeypatch) -> list[bool]:
    """Record whether each solve given a start accepted it.  A start given
    as a whole earlier solution is accepted when the kernel derives from
    it; when it cannot, the solve falls back to that solution's statuses,
    and whether those hold is what gets recorded."""

    accepted = []
    warm_start = simplex._Simplex._warm_start
    derive = simplex._Simplex._derive

    def spy_statuses(self, start):
        ok = warm_start(self, start)
        accepted.append(ok)
        return ok

    def spy_derive(self, earlier, model):
        ok = derive(self, earlier, model)
        if ok:
            accepted.append(True)
        return ok

    monkeypatch.setattr(simplex._Simplex, "_warm_start", spy_statuses)
    monkeypatch.setattr(simplex._Simplex, "_derive", spy_derive)
    return accepted


def count_phase_one(monkeypatch) -> list[int]:
    """Record the structural column count of each solve that enters the
    kernel's dual phase 1."""

    entries = []
    phase_one = simplex._Simplex._phase_one

    def spy(self):
        entries.append(self.n_struct)
        return phase_one(self)

    monkeypatch.setattr(simplex._Simplex, "_phase_one", spy)
    return entries


@pytest.fixture
def simplex_sys():
    return build_system(PointSet(2, [[1, 0], [0, 1], [-1, -1]], [0, 0]))


@pytest.fixture
def square_sys():
    return build_system(
        PointSet(2, [[1, 1], [1, -1], [-1, 1], [-1, -1]], [0, 0]))


@pytest.fixture
def outside_sys():
    return build_system(PointSet(2, [[1, 0], [2, 0], [3, 1]], [0, 5]))
