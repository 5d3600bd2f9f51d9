"""Spans around the solver's public functions, and the per-layer metrics
computed from them.

``Tracer`` rebinds every name under which a wrapped function is reachable
in the ``tukeydepth`` package (``engine.solve_lp``, ``elastic.solve_lp``,
``cuts.solve_lp``, ``engine.generate_cuts``, ...) and restores the original
objects on exit.  Spans stay in memory as ``[name, start, end, parent, op,
detail]`` lists until the caller writes them out.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from pathlib import Path

from tukeydepth import engine, simplex

# (defining module, attribute path, layer).  run_guess lives in engine but is
# the bisection probe, so its time is charged to binsearch.
TARGETS = (
    ("tukeydepth.simplex", "solve_lp", "simplex"),
    ("tukeydepth.elastic", "solve_elastic", "elastic"),
    ("tukeydepth.elastic", "chinneck_cover", "elastic"),
    ("tukeydepth.cuts", "generate_cuts", "cuts"),
    ("tukeydepth.cuts", "bis_cut", "cuts"),
    ("tukeydepth.engine", "solve_depth", "engine"),
    ("tukeydepth.engine", "BranchCutEngine.bound_and_cut", "engine"),
    ("tukeydepth.engine", "select_branch_variable", "engine"),
    ("tukeydepth.engine", "rounding_heuristic", "engine"),
    ("tukeydepth.engine", "complement_direction", "engine"),
    ("tukeydepth.binsearch", "solve_depth_binary", "binsearch"),
    ("tukeydepth.engine", "BranchCutEngine.run_guess", "binsearch"),
    ("tukeydepth.model", "build_system", "model"),
)
LAYER = {path.rsplit(".", 1)[-1]: layer for _, path, layer in TARGETS}
LAYERS = ("simplex", "elastic", "cuts", "engine", "binsearch", "model")

# An LP is charged to the innermost enclosing function of this table, except
# that the phase-1 check inside rounding_heuristic counts as rounding.
CALLER = {
    "chinneck_cover": "heuristic",
    "select_branch_variable": "branch",
    "generate_cuts": "cut",
    "bis_cut": "cut",
    "rounding_heuristic": "rounding",
    "complement_direction": "cert",
    "bound_and_cut": "node",
}
CALLERS = ("node", "branch", "heuristic", "cut", "rounding", "cert")
OUTCOMES = tuple(kind.value for kind in engine.OutcomeKind)

UNITS = {
    "simplex.lp_ms_p50": "ms",
    "simplex.lp_rows_mean": "rows",
    "cuts.yield": "cuts/call",
    "cuts.pool_size": "cuts",
    "engine.cut_rounds_mean": "rounds",
    "binsearch.nodes_per_probe": "nodes/probe",
}

NAME, START, END, PARENT, OP, DETAIL = range(6)


def _lp_detail(args, result):
    return args[0].n_rows, result.status is simplex.LpStatus.INFEASIBLE


# What each span keeps from its call, taken after its end time is read.
DETAILS = {
    "solve_lp": _lp_detail,
    "generate_cuts": lambda args, result: len(result),
    "rounding_heuristic": lambda args, result: result is not None,
    "bound_and_cut": lambda args, result: (result.kind.value,
                                           result.iterations,
                                           len(args[0].pool)),
}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tukeydepth"
                                  or name.startswith("tukeydepth."))]


class Tracer:
    """Context manager: while active, every target call records a span."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, detail = self.spans, self._stack, DETAILS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if detail is not None:
                rec[DETAIL] = detail(args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = _package_modules()
        try:
            for mod_name, path, _ in TARGETS:
                owner = sys.modules[mod_name]
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    self._rebind(cls, attr, self._wrap(attr, getattr(cls, attr)))
                    continue
                original = getattr(owner, path)
                wrapper = self._wrap(path, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        self._restore()
        return False

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """One JSON object per span: name, start, end, parent index, op."""

        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT],
                                     "op": s[OP]}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""

    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def lp_caller(spans: list[list], idx: int) -> str:
    caller = None
    p = spans[idx][PARENT]
    while p >= 0:
        name = spans[p][NAME]
        if caller is None:
            caller = CALLER.get(name)
            if caller is not None and caller != "cert":
                return caller
        elif name == "rounding_heuristic":
            return "rounding"
        p = spans[p][PARENT]
    return caller or "other"


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[list], heuristic_optimal: list[bool]) -> dict:
    """Per-layer counts and seconds over a set of spans (one traced pass).

    ``heuristic_optimal`` holds, per op, whether the elastic cover already
    had the oracle's weight.
    """

    dur = [s[END] - s[START] for s in spans]
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def calls(name: str) -> list[int]:
        return by_name.get(name, [])

    def returned(idx: list[int]) -> list[int]:
        # Spans of calls that raised carry no detail.
        return [i for i in idx if spans[i][DETAIL] is not None]

    def seconds(idx) -> float:
        return float(sum(dur[i] for i in idx))

    m: dict[str, float] = {}
    lps = calls("solve_lp")
    m["simplex.lp_calls"] = len(lps)
    m["simplex.lp_s"] = seconds(lps)
    m["simplex.lp_ms_p50"] = (1e3 * statistics.median(dur[i] for i in lps)
                              if lps else 0.0)
    solved = returned(lps)
    m["simplex.lp_rows_mean"] = (statistics.fmean(spans[i][DETAIL][0]
                                                  for i in solved)
                                 if solved else 0.0)
    m["simplex.lp_infeasible_share"] = _share(
        sum(spans[i][DETAIL][1] for i in solved), len(solved))
    by_caller: dict[str, list[int]] = {}
    for i in lps:
        by_caller.setdefault(lp_caller(spans, i), []).append(i)
    for c in CALLERS:
        m[f"simplex.lp_calls.{c}"] = len(by_caller.get(c, []))
        m[f"simplex.lp_s.{c}"] = seconds(by_caller.get(c, []))

    m["elastic.cover_calls"] = len(calls("chinneck_cover"))
    m["elastic.cover_s"] = seconds(calls("chinneck_cover"))
    m["elastic.solve_calls"] = len(calls("solve_elastic"))
    m["elastic.solve_s"] = seconds(calls("solve_elastic"))
    m["elastic.heuristic_optimal_share"] = _share(sum(heuristic_optimal),
                                                  len(heuristic_optimal))

    gen = returned(calls("generate_cuts"))
    m["cuts.generate_calls"] = len(gen)
    m["cuts.generate_s"] = seconds(gen)
    m["cuts.bis_calls"] = len(calls("bis_cut"))
    m["cuts.bis_s"] = seconds(calls("bis_cut"))
    m["cuts.yield"] = _share(sum(spans[i][DETAIL] for i in gen), len(gen))
    nodes = returned(calls("bound_and_cut"))
    pool_by_op: dict[int, int] = {}
    for i in nodes:
        op = spans[i][OP]
        pool_by_op[op] = max(pool_by_op.get(op, 0), spans[i][DETAIL][2])
    m["cuts.pool_size"] = (statistics.fmean(pool_by_op.values())
                           if pool_by_op else 0.0)

    m["engine.nodes"] = len(nodes)
    m["engine.node_s"] = seconds(nodes)
    m["engine.node_self_s"] = float(sum(own[i] for i in nodes))
    m["engine.cut_rounds_mean"] = (statistics.fmean(spans[i][DETAIL][1]
                                                    for i in nodes)
                                   if nodes else 0.0)
    for kind in OUTCOMES:
        m[f"engine.outcome_share.{kind}"] = _share(
            sum(spans[i][DETAIL][0] == kind for i in nodes), len(nodes))
    m["engine.branch_s"] = seconds(calls("select_branch_variable"))
    rounding = returned(calls("rounding_heuristic"))
    m["engine.rounding_calls"] = len(rounding)
    m["engine.rounding_hit_share"] = _share(
        sum(spans[i][DETAIL] for i in rounding), len(rounding))
    m["engine.cert_s"] = seconds(
        i for i in calls("complement_direction")
        if not _has_ancestor(spans, i, "rounding_heuristic"))

    probes = calls("run_guess")
    m["binsearch.probes"] = len(probes)
    m["binsearch.probe_s"] = seconds(probes)
    m["binsearch.nodes_per_probe"] = _share(
        sum(spans[spans[i][PARENT]][NAME] == "run_guess"
            for i in nodes if spans[i][PARENT] >= 0), len(probes))

    m["model.build_s"] = seconds(calls("build_system"))

    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(sum(
            own[i] for i, s in enumerate(spans) if LAYER[s[NAME]] == layer))
    return m


def unit(name: str) -> str:
    """Unit of a per-layer metric."""

    if name in UNITS:
        return UNITS[name]
    if "share" in name:
        return "share"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


def _has_ancestor(spans: list[list], idx: int, name: str) -> bool:
    p = spans[idx][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False
