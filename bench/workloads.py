"""Seeded benchmark inputs, the op each workload times, and its checks.

An op is one ``build_system`` plus one solve of one instance.  Everything
that is not that op (drawing the clouds, the oracle reference depths, the
certificate re-check) runs outside the timed region.  The solver modules are
called through their module attributes so that a tracer can rebind them.
"""

from __future__ import annotations

import gc
import time
import traceback
from dataclasses import dataclass

import numpy as np

from tukeydepth import binsearch, engine, model, oracle


def corpus_shape(i: int) -> tuple[int, int]:
    return 8 + (i * 7) % 23, 2 + i % 4


# Acceptance corpus: instance i is a Gaussian cloud drawn from seed
# 10_000 + i with the shape above (n 8..30, d 2..5), the same instances as
# tests/test_acceptance.py.  The slice takes every third instance with
# n <= 23: 48 instances over all four dimensions, about 8 s a pass on a
# 2-core Xeon, so that four passes fit one run.  Larger instances cost up to
# a minute each (i=151); --instance reaches them.
CORPUS_SIZE = 200
CORPUS_BASE_SEED = 10_000
CORPUS_SLICE = tuple(i for i in range(2, CORPUS_SIZE, 3)
                     if corpus_shape(i)[0] <= 23)

# Outlier screening: leave-one-out queries against wide Gaussian clouds.
SCREEN_OPS = 40
SCREEN_N = 200

# Normalized op times are seconds at the speed where one SpeedProbe call
# takes this long.
PROBE_REFERENCE_S = 1e-3


@dataclass(frozen=True)
class Instance:
    name: str
    points: model.PointSet
    depth: int


@dataclass
class OpRecord:
    """One timed op and the outcome of its checks."""

    name: str
    seconds: float
    norm_seconds: float = 0.0
    failure: str | None = None
    depth: int | None = None
    wrong_depth: bool = False
    nodes: int = 0
    lps: int = 0
    heuristic_optimal: bool = False


def checked_instance(name: str, draw) -> Instance:
    """Call ``draw(attempt)`` until the enumeration oracle accepts the shifted
    rows as general position (as the acceptance generator does), and attach
    the reference depth: the planar sweep for d = 2, enumeration otherwise."""

    for attempt in range(40):
        ps = draw(attempt)
        sys_ = model.build_system(ps)
        try:
            depth = oracle.oracle_depth_general(sys_)
        except oracle.GeneralPositionError:
            continue
        if ps.dim == 2:
            depth = oracle.oracle_depth_2d(sys_)
        return Instance(name, ps, depth)
    raise RuntimeError(f"no general-position draw for {name}")


def corpus_instance(i: int) -> Instance:
    n, d = corpus_shape(i)

    def draw(attempt: int) -> model.PointSet:
        rng = np.random.default_rng(CORPUS_BASE_SEED + i + 7919 * attempt)
        return model.PointSet(d, rng.normal(size=(n, d)), np.zeros(d))

    return checked_instance(f"i={i}", draw)


def corpus_instances(seed: int) -> list[Instance]:
    """The fixed corpus slice, visited in a seed-drawn order.

    The clouds themselves never change with the seed: node counts swing by
    up to 2x when only the row order of a cloud changes, which would drown
    any solver change in input noise.
    """

    order = np.random.default_rng(seed).permutation(len(CORPUS_SLICE))
    return [corpus_instance(CORPUS_SLICE[k]) for k in order]


def screen_instance(seed: int, k: int) -> Instance:
    """Query k is the outermost point (by norm) of its own cloud, with the
    point itself left out.  The largest-norm point is a vertex of the hull,
    so its depth is 0 and the elastic heuristic closes the solve without the
    tree.  Clouds alternate between d = 2 and d = 3."""

    d = 2 + k % 2

    def draw(attempt: int) -> model.PointSet:
        rng = np.random.default_rng([seed, k, attempt])
        pts = rng.normal(size=(SCREEN_N + 1, d))
        q = int(np.argmax(np.linalg.norm(pts, axis=1)))
        return model.PointSet(d, np.delete(pts, q, axis=0), pts[q])

    return checked_instance(f"screen k={k}", draw)


def screen_instances(seed: int) -> list[Instance]:
    return [screen_instance(seed, k) for k in range(SCREEN_OPS)]


def make_instances(workload: str, seed: int) -> list[Instance]:
    if workload == "screen-wide":
        return screen_instances(seed)
    if workload in ("corpus-bc", "corpus-bisect"):
        return corpus_instances(seed)
    raise ValueError(f"unknown workload {workload!r}")


def solver_for(workload: str):
    """The public entry point each workload times, looked up at call time so
    a tracer's rebinding is seen."""

    if workload == "corpus-bisect":
        return lambda sys_: binsearch.solve_depth_binary(sys_)
    return lambda sys_: engine.solve_depth(sys_)


def run_op(inst: Instance, solve) -> OpRecord:
    """Time one build-and-solve, then check the result outside the timing."""

    t0 = time.perf_counter()
    try:
        sys_ = model.build_system(inst.points)
        res = solve(sys_)
    except Exception:  # a failed op is counted, the loop goes on
        return OpRecord(inst.name, time.perf_counter() - t0,
                        failure=traceback.format_exc())
    seconds = time.perf_counter() - t0
    rec = OpRecord(inst.name, seconds, depth=res.depth,
                   nodes=res.stats.nodes, lps=res.stats.lps,
                   wrong_depth=res.depth != inst.depth,
                   heuristic_optimal=(res.stats.heuristic_weight is not None
                                      and res.stats.heuristic_weight
                                      + sys_.zero_offset == inst.depth))
    rec.failure = certificate_failure(sys_, res)
    return rec


def certificate_failure(sys_, res) -> str | None:
    """Why the result is not a checked exact answer, or None if it is.

    The arithmetic re-check repeats the solver's own: every non-cover row
    must have a margin above cert_tol along the returned direction, and the
    cover's weight plus the zero offset must be the reported depth.
    """

    if not res.exact:
        return "exact=False"
    if res.certificate != "verified":
        return f"certificate={res.certificate}"
    cover = set(res.cover)
    non_cover = [j for j in range(sys_.n_rows) if j not in cover]
    if non_cover:
        margins = sys_.rows[non_cover] @ res.direction
        if not np.all(margins > engine.EngineConfig().cert_tol):
            return f"margin {float(margins.min()):.3g} not above cert_tol"
    if sys_.weight_of(cover) + sys_.zero_offset != res.depth:
        return "cover weight does not add up to the depth"
    return None


class SpeedProbe:
    """A fixed slice of numpy and interpreter work, independent of the
    package under test, timed between ops.

    On a shared 2-core Xeon virtual machine the same op ran up to 1.7x
    slower for seconds to minutes at a time, and the probe slowed down with
    it.  Op times divided by the probe time next to them repeat from run to
    run far better than raw wall times.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.normal(size=(40, 80))
        self.b = np.linalg.inv(rng.normal(size=(40, 40)) + 8 * np.eye(40))
        self.x = rng.normal(size=80)

    def __call__(self) -> float:
        x = self.x.copy()
        t0 = time.perf_counter()
        for _ in range(100):
            y = self.b @ (self.a @ x)
            j = int(np.argmax(np.abs(y))) % x.size
            x[j] = -x[j]
            k = sum(1 for v in range(y.size) if y[v] > 0) % x.size
            x[k] *= 0.5
        return time.perf_counter() - t0

    def normalize(self, seconds: float, probe_s: float) -> float:
        return seconds * PROBE_REFERENCE_S / probe_s


def run_passes(instances: list[Instance], solve, seconds: float,
               min_passes: int = 1, on_op=None
               ) -> tuple[list[OpRecord], int]:
    """Closed loop, one client: solve every instance in order, as whole
    passes.  After ``min_passes`` passes, another one starts only if, at the
    pace so far, it would end within ``seconds`` of the start.

    Whole passes keep the mix of instances identical in every run.  Each
    op's normalized time uses the mean of the probes just before and after
    it.  ``on_op(k)`` is called before op k (the tracer tags spans with it).
    """

    probe = SpeedProbe()
    records: list[OpRecord] = []
    passes = 0
    t_start = time.perf_counter()
    before = probe()
    while True:
        for inst in instances:
            if on_op is not None:
                on_op(len(records))
            gc.collect()  # no op pays for the garbage of the one before
            rec = run_op(inst, solve)
            after = probe()
            rec.norm_seconds = probe.normalize(rec.seconds,
                                               (before + after) / 2)
            before = after
            records.append(rec)
        passes += 1
        elapsed = time.perf_counter() - t_start
        if passes >= min_passes and elapsed * (passes + 1) / passes > seconds:
            return records, passes
