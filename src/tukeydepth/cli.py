"""Command-line front end: ingestion, solving, MPS export and benchmarking.

Subcommands: depth (branch-and-cut), binsearch (bisection), heuristic
(greedy cover only), oracle (combinatorial verifier), export-mps, bench.
Results can be dumped as versioned JSON.  Exit codes: 0 ok, 1 usage or
input error, 2 solver failure or budget exhaustion, 3 certificate downgrade
(suppressed by --allow-unverified), 141 standard output closed by its reader
(128 + SIGPIPE, as a shell reports a process that signal ends).  TUKEY_LOG
sets the log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .binsearch import solve_depth_binary
from .elastic import chinneck_cover
from .engine import DepthResult, EngineConfig, MipForm, MipModel, solve_depth
from .model import ParamBounds, PointSet, build_system
from .mps import write_mps
from .oracle import oracle_depth_2d, oracle_depth_general

__all__ = ["read_points", "run", "main", "PointFileError"]

JSON_SCHEMA_VERSION = 4

log = logging.getLogger("tukeydepth")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVE = 2
EXIT_CERTIFICATE = 3
EXIT_PIPE = 141


class PointFileError(ValueError):
    """Malformed instance file; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def read_points(path, query_index: int | None = None,
                query_coords=None) -> PointSet:
    """Parse a plain-text instance: first line `n d`, then n rows of d
    finite reals.

    The query defaults to the first listed point.  A query given by index
    (including that default) is excluded from the point set, matching the
    leave-one-out convention for member points; a query given by explicit
    coordinates is not excluded, and any coincident points fold into the
    zero offset instead.
    """

    if query_index is not None and query_coords is not None:
        raise ValueError("give either a query index or query coordinates")

    tokens_per_line: list[tuple[int, list[str]]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            toks = raw.replace("−", "-").split()
            if toks:
                tokens_per_line.append((line_no, toks))

    if not tokens_per_line:
        raise PointFileError(1, "empty file")
    head_no, head = tokens_per_line[0]
    if len(head) != 2:
        raise PointFileError(head_no, "expected header `n d`")
    try:
        n, d = int(head[0]), int(head[1])
    except ValueError as exc:
        raise PointFileError(head_no, f"bad header: {exc}") from None
    if n < 1 or d < 1:
        raise PointFileError(head_no, "n and d must be positive")

    body = tokens_per_line[1:]
    if len(body) != n:
        where = body[n][0] if len(body) > n else (body[-1][0] if body else head_no)
        raise PointFileError(where, f"expected {n} point rows, found {len(body)}")
    points = np.empty((n, d))
    for i, (line_no, toks) in enumerate(body):
        if len(toks) != d:
            raise PointFileError(line_no,
                                 f"expected {d} coordinates, found {len(toks)}")
        try:
            points[i] = [float(t) for t in toks]
        except ValueError as exc:
            raise PointFileError(line_no, f"bad number: {exc}") from None
        if not np.isfinite(points[i]).all():
            raise PointFileError(line_no, "non-finite coordinate")

    if query_coords is not None:
        coords = np.asarray([float(v) for v in query_coords], dtype=float)
        if coords.shape != (d,):
            raise ValueError(f"query needs {d} coordinates")
        return PointSet(d, points, coords)

    idx = 0 if query_index is None else query_index
    if not 0 <= idx < n:
        raise ValueError(f"query index {idx} out of range 0..{n - 1}")
    query = points[idx].copy()
    remaining = np.delete(points, idx, axis=0)
    return PointSet(d, remaining, query)


def _config_from_args(args) -> EngineConfig:
    return EngineConfig(**{f.name: getattr(args, f.name)
                           for f in fields(EngineConfig)})


def _result_payload(result: DepthResult) -> dict:
    return {
        "schema": JSON_SCHEMA_VERSION,
        "depth": result.depth,
        "cover": list(result.cover),
        "direction": [float(v) for v in result.direction],
        "epsilon": result.epsilon,
        "certificate": result.certificate,
        "exact": result.exact,
        "lower_bound": result.lower_bound,
        "zero_offset": result.zero_offset,
        "stats": asdict(result.stats),
    }


def _emit_json(payload: dict | list, dest: str) -> None:
    text = json.dumps(payload, indent=2)
    if dest == "-":
        print(text)
    else:
        Path(dest).write_text(text + "\n", encoding="utf-8")


def _load_system(args):
    ps = read_points(args.file, args.query, args.query_coords)
    return build_system(ps)


def _exit_code(result: DepthResult, allow_unverified: bool) -> int:
    if not result.exact:
        log.warning("budget exhausted: depth in [%d, %d]",
                    result.lower_bound, result.depth)
        return EXIT_SOLVE
    if result.certificate != "verified" and not allow_unverified:
        log.warning("certificate not verified")
        return EXIT_CERTIFICATE
    return EXIT_OK


def _cmd_solve(args, solver) -> int:
    sys_ = _load_system(args)
    result = solver(sys_, _config_from_args(args))
    if args.json:
        _emit_json(_result_payload(result), args.json)
    else:
        print(result.depth)
    return _exit_code(result, args.allow_unverified)


def _cmd_heuristic(args) -> int:
    sys_ = _load_system(args)
    cover, _, _ = chinneck_cover(sys_)
    weight = sys_.weight_of(cover) + sys_.zero_offset
    payload = {"schema": JSON_SCHEMA_VERSION, "upper_bound": weight,
               "cover": sorted(int(j) for j in cover),
               "zero_offset": sys_.zero_offset}
    if args.json:
        _emit_json(payload, args.json)
    else:
        print(weight)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    sys_ = _load_system(args)
    if sys_.dim == 2 and not args.general:
        depth = oracle_depth_2d(sys_)
    else:
        depth = oracle_depth_general(sys_)
    if args.json:
        _emit_json({"schema": JSON_SCHEMA_VERSION, "depth": depth}, args.json)
    else:
        print(depth)
    return EXIT_OK


def _cmd_export(args) -> int:
    sys_ = _load_system(args)
    bounds = ParamBounds.for_system(sys_, args.epsilon)
    if args.form == "guess":
        mip = MipModel(sys_, bounds, MipForm.GUESS, guess=args.guess)
    else:
        mip = MipModel(sys_, bounds, MipForm.DEPTH)
    write_mps(mip, args.out)
    log.info("wrote %s", args.out)
    return EXIT_OK


def _cmd_bench(args) -> int:
    """One table row per instance, "unverified" after a failed certificate;
    ``--json`` writes the payloads with their file names instead of the
    table when it goes to standard output.  Exits with the highest code."""

    instances = sorted(Path(args.dir).glob("*.txt"))
    if not instances:
        print(f"no *.txt instances under {args.dir}", file=sys.stderr)
        return EXIT_USAGE
    solver = solve_depth_binary if args.algorithm == "binsearch" else solve_depth
    cfg = _config_from_args(args)
    table = args.json != "-"
    if table:
        print(f"{'Instance':<24} {'Num':>5} {'Dim':>4} {'Dep':>5} {'Nod':>7} "
              f"{'Tim':>9}")
    worst = EXIT_OK
    payloads = []
    for inst in instances:
        ps = read_points(inst, args.query, args.query_coords)
        sys_ = build_system(ps)
        t0 = time.monotonic()
        result = solver(sys_, cfg)
        elapsed = time.monotonic() - t0
        dep = str(result.depth) if result.exact else f"<={result.depth}"
        note = "" if result.certificate == "verified" else " unverified"
        if table:
            print(f"{inst.name:<24} {ps.n_points:>5} {ps.dim:>4} "
                  f"{dep:>5} {result.stats.nodes:>7} {elapsed:>9.2f}{note}")
        payloads.append({"instance": inst.name, **_result_payload(result)})
        worst = max(worst, _exit_code(result, args.allow_unverified))
    if args.json:
        _emit_json(payloads, args.json)
    return worst


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help="instance file: `n d` header then point rows")
    _add_query_args(p)


def _add_query_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--query", type=int, default=None, metavar="I",
                   help="0-based index of the member point to use as query "
                        "(default 0); the point is excluded from the set")
    p.add_argument("--query-coords", type=float, nargs="+", default=None,
                   metavar="V", help="explicit query coordinates")


def _add_engine_args(p: argparse.ArgumentParser) -> None:
    """One flag per ``EngineConfig`` field, named after it; the defaults
    are the dataclass's own."""

    p.add_argument("--rule", dest="branch_rule", choices=["greedy", "strong"])
    p.add_argument("--select", dest="node_selection",
                   choices=["depth-first", "best-first"])
    p.add_argument("--epsilon", type=float)
    p.add_argument("--cert-tol", type=float)
    p.add_argument("--time-limit", type=float)
    p.add_argument("--node-limit", type=int)
    p.set_defaults(**asdict(EngineConfig()))
    p.add_argument("--json", metavar="PATH",
                   help="write a JSON result ( '-' for stdout )")
    p.add_argument("--allow-unverified", action="store_true",
                   help="exit 0 even when the certificate check fails")


class _Parser(argparse.ArgumentParser):
    """Options are taken only by their full names: with abbreviations on,
    a removed flag could still parse as the prefix of another one (``--c``
    as ``--cert-tol``).  Subparsers are built from this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # argparse takes a token for a number only in plain decimal form,
        # so "-1e-1" would read as an option; accept every negative float
        # literal with digits.
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tukeydepth",
                     description="Exact halfspace depth via branch and cut.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_depth = sub.add_parser("depth", help="branch-and-cut depth")
    _add_instance_args(p_depth)
    _add_engine_args(p_depth)

    p_bin = sub.add_parser("binsearch", help="bisection depth")
    _add_instance_args(p_bin)
    _add_engine_args(p_bin)

    p_heur = sub.add_parser("heuristic", help="greedy cover upper bound")
    _add_instance_args(p_heur)
    p_heur.add_argument("--json", metavar="PATH")

    p_oracle = sub.add_parser("oracle", help="combinatorial verification depth")
    _add_instance_args(p_oracle)
    p_oracle.add_argument("--general", action="store_true",
                          help="force the subset enumerator even in 2-d")
    p_oracle.add_argument("--json", metavar="PATH")

    p_exp = sub.add_parser("export-mps", help="write the integer program")
    _add_instance_args(p_exp)
    p_exp.add_argument("out", help="target .mps path")
    p_exp.add_argument("--form", choices=["depth", "guess"], default="depth")
    p_exp.add_argument("--guess", type=int, default=1)
    p_exp.add_argument("--epsilon", type=float,
                       default=EngineConfig().epsilon)

    p_bench = sub.add_parser("bench", help="solve a directory of instances")
    p_bench.add_argument("dir")
    p_bench.add_argument("--algorithm", choices=["depth", "binsearch"],
                         default="depth")
    _add_query_args(p_bench)
    _add_engine_args(p_bench)

    return parser


def _setup_logging() -> None:
    level = os.environ.get("TUKEY_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _dispatch(args) -> int:
    if args.command == "depth":
        return _cmd_solve(args, solve_depth)
    if args.command == "binsearch":
        return _cmd_solve(args, solve_depth_binary)
    if args.command == "heuristic":
        return _cmd_heuristic(args)
    if args.command == "oracle":
        return _cmd_oracle(args)
    if args.command == "export-mps":
        return _cmd_export(args)
    if args.command == "bench":
        return _cmd_bench(args)
    raise AssertionError(f"unhandled command {args.command}")


def _stdout_to_devnull() -> None:
    """Point the stdout descriptor at the null device, so that the flush at
    exit of what the closed pipe did not take cannot raise again.  A stdout
    with no descriptor (a stand-in object) is left as it is."""

    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def run(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""

    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        code = _dispatch(args)
        # Output still buffered would otherwise meet a closed pipe only in
        # the flush at exit, outside this handler.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _stdout_to_devnull()
        return EXIT_PIPE
    except (PointFileError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
