"""Benchmark of the tukeydepth solver: seeded closed-loop workloads with
end-to-end metrics, a traced run with per-layer metrics, and a named-instance
traced mode.

    python3 bench/run.py --workload corpus-bc --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload screen-wide --seed 1 --trace 1
    python3 bench/run.py --instance 151

Run it from the repository root.  It imports the package from ``src/`` of
the tree it sits in and fails without printing a result when that is
missing.  The last line of standard output is one JSON object; see
bench/README.md for the workloads and metric names.
"""

import os

# Node and LP counts only repeat with a fixed BLAS thread count, and the
# pools read these once, when numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench" / "results"
SETUP_ROUNDS = 3
MIN_PASSES = 4
WORKLOADS = ("corpus-bc", "corpus-bisect", "screen-wide")
TRACED_INSTANCE_SOLVERS = ("corpus-bc", "corpus-bisect")


def _import_package() -> float:
    """Import numpy and the package under test; returns the seconds taken."""

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import tukeydepth
    seconds = time.perf_counter() - t0
    origin = Path(tukeydepth.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"tukeydepth imported from {origin}, not {SRC}")
    return seconds


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()})
    except OSError:
        return None
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def _quantile(values: list[float], q: int) -> float:
    """q-th quartile (1 = p25, 2 = p50, 3 = p75), inclusive method."""

    return statistics.quantiles(values, n=4, method="inclusive")[q - 1]


def _failed(rec) -> bool:
    return rec.failure is not None or rec.wrong_depth


def per_instance(records, attr: str) -> list[float]:
    """Each instance's median over the passes of the run."""

    by_name: dict[str, list[float]] = {}
    for r in records:
        by_name.setdefault(r.name, []).append(getattr(r, attr))
    return [statistics.median(v) for v in by_name.values()]


def end_to_end(records, setup_s: float) -> dict:
    times = per_instance(records, "norm_seconds")
    failed = sum(_failed(r) for r in records)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "solve_s_p50": (_quantile(times, 2), "s"),
        "solve_s_p75": (_quantile(times, 3), "s"),
        "solves_per_s": (len(times) / sum(times), "1/s"),
        "ok_share": (1.0 - failed / len(records), "share"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def _report_failures(records) -> None:
    for r in records:
        if r.wrong_depth:
            print(f"WRONG DEPTH {r.name}: solver {r.depth}", file=sys.stderr)
        if r.failure is not None:
            print(f"FAILED {r.name}: {r.failure}", file=sys.stderr)


def _result_line(records, metrics: dict) -> str:
    return json.dumps({
        "correct": not any(r.wrong_depth for r in records),
        "attempted": len(records),
        "failed": sum(_failed(r) for r in records),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    })


def run_workload(args, import_s: float) -> int:
    import tracing
    import workloads

    probe = workloads.SpeedProbe()
    probe()  # the first call also pays for BLAS start-up
    setup_s = probe.normalize(import_s, probe())
    rounds = 1 if args.trace else SETUP_ROUNDS
    setup = []
    for _ in range(rounds):
        before = probe()
        t0 = time.perf_counter()
        instances = workloads.make_instances(args.workload, args.seed)
        seconds = time.perf_counter() - t0
        setup.append(probe.normalize(seconds, (before + probe()) / 2))
    setup_s += statistics.median(setup)
    solve = workloads.solver_for(args.workload)

    print(f"env {json.dumps(environment())}")
    print(f"workload {args.workload} seed {args.seed}: {len(instances)} "
          f"instances per pass; setup is the import plus the median of "
          f"{rounds} instance/oracle rounds")

    if not args.trace:
        records, passes = workloads.run_passes(instances, solve, args.seconds,
                                               MIN_PASSES)
        _report_failures(records)
        metrics = end_to_end(records, setup_s)
        failed = sum(_failed(r) for r in records)
        wall = per_instance(records, "seconds")
        print(f"{len(records)} ops in {passes} passes; the timings are "
              f"medians per instance over the passes (n={len(wall)} "
              f"instances), in seconds at probe speed")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<14} {value:12.6g} {unit}")
        print(f"  {'failed_share':<14} {failed / len(records):12.6g} share "
              f"({failed}/{len(records)} ops)")
        print(f"  raw wall time: p50 {_quantile(wall, 2):.6g} s, p75 "
              f"{_quantile(wall, 3):.6g} s, {len(wall) / sum(wall):.6g} "
              f"solves/s")
        print(_result_line(records, metrics))
        return 0

    plain, _ = workloads.run_passes(instances, solve, 0.0)
    tracer = tracing.Tracer()
    with tracer:
        traced, _ = workloads.run_passes(
            instances, solve, 0.0, on_op=lambda k: setattr(tracer, "op", k))
    records = plain + traced
    _report_failures(records)
    metrics = tracing.layer_metrics(tracer.spans,
                                    [r.heuristic_optimal for r in traced])
    plain_s = sum(r.norm_seconds for r in plain)
    metrics["trace.overhead_share"] = (
        sum(r.norm_seconds for r in traced) - plain_s) / plain_s
    spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    print(f"one untraced and one traced pass of {len(instances)} ops; "
          f"{len(tracer.spans)} spans written to "
          f"{spans_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:12.6g} {tracing.unit(name)}")
    print(_result_line(records, {k: (v, tracing.unit(k))
                                 for k, v in metrics.items()}))
    return 0


def run_instances(args) -> int:
    """Traced solves of named corpus instances with both solvers, outside
    the timed workloads; prints nodes, LPs and LP time by caller."""

    import tracing
    import workloads

    print(f"env {json.dumps(environment())}")
    rows = []
    for i in args.instance:
        if not 0 <= i < workloads.CORPUS_SIZE:
            raise SystemExit(f"instance {i} outside the corpus "
                             f"0..{workloads.CORPUS_SIZE - 1}")
        inst = workloads.corpus_instance(i)
        for workload in TRACED_INSTANCE_SOLVERS:
            tracer = tracing.Tracer()
            with tracer:
                tracer.op = 0
                rec = workloads.run_op(inst, workloads.solver_for(workload))
            m = tracing.layer_metrics(tracer.spans, [rec.heuristic_optimal])
            row = {"instance": i, "solver": workload, "n":
                   inst.points.n_points, "d": inst.points.dim,
                   "oracle_depth": inst.depth, "depth": rec.depth,
                   "ok": not _failed(rec), "wall_s": rec.seconds,
                   "nodes": rec.nodes, "lps": rec.lps,
                   "probes": m["binsearch.probes"],
                   "lp_calls": {c: m[f"simplex.lp_calls.{c}"]
                                for c in tracing.CALLERS},
                   "lp_s": {c: m[f"simplex.lp_s.{c}"] for c in tracing.CALLERS},
                   "self_s": {layer: m[f"{layer}.self_s"]
                              for layer in tracing.LAYERS}}
            rows.append(row)
            _report_failures([rec])
            print(f"i={i} {workload}: n={row['n']} d={row['d']} depth "
                  f"{rec.depth} (oracle {inst.depth}), {rec.seconds:.2f} s, "
                  f"{rec.nodes} nodes, {rec.lps} LPs")
            for c in tracing.CALLERS:
                print(f"  LP {c:<9} {row['lp_calls'][c]:6d} calls "
                      f"{row['lp_s'][c]:9.3f} s")
    print(json.dumps({"correct": all(r["depth"] == r["oracle_depth"]
                                     for r in rows),
                      "instances": rows}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time of a --trace 0 run; it always "
                             "makes at least %d whole passes" % MIN_PASSES)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instance", type=int, nargs="+", metavar="I",
                        help="traced solves of these acceptance-corpus "
                             "instances instead of a workload")
    args = parser.parse_args(argv)
    if (args.workload is None) == (args.instance is None):
        parser.error("give exactly one of --workload and --instance")
    try:
        import_s = _import_package()
    except ImportError as exc:
        print(f"bench: cannot import the package under test: {exc}",
              file=sys.stderr)
        return 2
    if args.instance:
        return run_instances(args)
    return run_workload(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
