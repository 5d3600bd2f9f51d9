"""Tests of the benchmark's own machinery.

Tracing must leave the package exactly as it found it, must not change what
the solver does, and must record well-nested spans; node and LP counts must
repeat between runs with BLAS pinned.  Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from tukeydepth import binsearch, engine, model  # noqa: E402

# Small corpus instances (n 20..24, d 2..3) that still branch and cut.
SMALL = (5, 20, 45)


def _package_bindings() -> dict:
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "tukeydepth" or name.startswith("tukeydepth."):
            for attr, value in vars(mod).items():
                found[(name, attr)] = value
    for attr in ("bound_and_cut", "run_guess"):
        found[("BranchCutEngine", attr)] = vars(engine.BranchCutEngine)[attr]
    return found


def _target_ids() -> set[int]:
    ids = set()
    for mod_name, path, _ in tracing.TARGETS:
        owner = sys.modules[mod_name]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        ids.add(id(vars(owner)[attr]))
    return ids


def _solvers():
    return (lambda s: engine.solve_depth(s),
            lambda s: binsearch.solve_depth_binary(s))


def test_tracer_rebinds_every_alias_and_restores_it():
    before = _package_bindings()
    originals = _target_ids()
    with tracing.Tracer() as tracer:
        during = _package_bindings()
        still_original = [k for k, v in during.items() if id(v) in originals]
        workloads.run_op(workloads.corpus_instance(SMALL[0]),
                         workloads.solver_for("corpus-bisect"))
    after = _package_bindings()
    assert not still_original
    assert tracer.spans
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_tracer_restores_after_an_exception():
    before = _package_bindings()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            1 / 0
    after = _package_bindings()
    assert all(after[k] is v for k, v in before.items())


@pytest.mark.parametrize("i", SMALL[:2])
def test_traced_solve_matches_untraced(i):
    inst = workloads.corpus_instance(i)
    for solve in _solvers():
        plain = solve(model.build_system(inst.points))
        with tracing.Tracer():
            traced = solve(model.build_system(inst.points))
        assert traced.depth == plain.depth == inst.depth
        assert traced.cover == plain.cover
        assert traced.stats.nodes == plain.stats.nodes
        assert traced.stats.lps == plain.stats.lps


def test_spans_nest_and_self_times_are_nonnegative():
    inst = workloads.corpus_instance(SMALL[2])
    with tracing.Tracer() as tracer:
        for k, solve in enumerate(_solvers()):
            tracer.op = k
            rec = workloads.run_op(inst, solve)
            assert rec.failure is None and not rec.wrong_depth
    spans = tracer.spans
    for s in spans:
        assert s[tracing.START] <= s[tracing.END]
        if s[tracing.PARENT] >= 0:
            parent = spans[s[tracing.PARENT]]
            assert parent[tracing.START] <= s[tracing.START]
            assert s[tracing.END] <= parent[tracing.END]
            assert parent[tracing.OP] == s[tracing.OP]
    assert min(tracing.self_times(spans)) >= -1e-12

    m = tracing.layer_metrics(spans, [True, True])
    assert m["engine.nodes"] > 0 and m["binsearch.probes"] > 0
    assert sum(m[f"simplex.lp_calls.{c}"] for c in tracing.CALLERS) \
        == m["simplex.lp_calls"]


def test_lp_caller_takes_innermost_and_charges_rounding_checks():
    def span(name, parent):
        return [name, 0.0, 1.0, parent, 0, None]

    spans = [span("solve_depth", -1),              # 0
             span("bound_and_cut", 0),             # 1
             span("solve_lp", 1),                  # 2 node
             span("select_branch_variable", 1),    # 3
             span("solve_elastic", 3),             # 4
             span("solve_lp", 4),                  # 5 branch
             span("rounding_heuristic", 1),        # 6
             span("complement_direction", 6),      # 7
             span("solve_lp", 7),                  # 8 rounding
             span("complement_direction", 0),      # 9
             span("solve_lp", 9),                  # 10 cert
             span("generate_cuts", 1),             # 11
             span("bis_cut", 11),                  # 12
             span("solve_lp", 12)]                 # 13 cut
    assert [tracing.lp_caller(spans, i) for i in (2, 5, 8, 10, 13)] \
        == ["node", "branch", "rounding", "cert", "cut"]


def _instance_counts() -> list[dict]:
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--instance", *map(str, SMALL)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = out.stdout.strip().splitlines()
    env = json.loads(lines[0].split(" ", 1)[1])
    assert env["blas_threads"] in (1, None)
    result = json.loads(lines[-1])
    assert result["correct"]
    return [(r["instance"], r["solver"], r["nodes"], r["lps"], r["lp_calls"])
            for r in result["instances"]]


def test_node_and_lp_counts_repeat_with_blas_pinned():
    first = _instance_counts()
    assert any(nodes > 0 for _, _, nodes, _, _ in first)
    assert _instance_counts() == first
