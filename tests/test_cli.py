import argparse
import errno
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from tukeydepth import cli, elastic
from tukeydepth.cli import (EXIT_CERTIFICATE, EXIT_OK, EXIT_PIPE, EXIT_SOLVE,
                            EXIT_USAGE, PointFileError, read_points, run)
from tukeydepth.engine import EngineConfig, SolveStats

DATA = Path(__file__).parent / "data"


@pytest.fixture
def triangle_file(tmp_path):
    f = tmp_path / "triangle.txt"
    f.write_text("3 2\n1 0\n0 1\n-1 -1\n")
    return f


@pytest.fixture
def square_file(tmp_path):
    f = tmp_path / "square.txt"
    f.write_text("4 2\n1 1\n1 -1\n-1 1\n-1 -1\n")
    return f


def test_read_points_query_coords(triangle_file):
    ps = read_points(triangle_file, query_coords=[0, 0])
    assert ps.n_points == 3
    assert np.array_equal(ps.query, [0, 0])


def test_read_points_default_excludes_first(triangle_file):
    ps = read_points(triangle_file)
    assert ps.n_points == 2
    assert np.array_equal(ps.query, [1, 0])
    assert np.array_equal(ps.points, [[0, 1], [-1, -1]])


def test_read_points_query_index(triangle_file):
    ps = read_points(triangle_file, query_index=2)
    assert np.array_equal(ps.query, [-1, -1])
    assert ps.n_points == 2


def test_read_points_singleton(tmp_path):
    f = tmp_path / "one.txt"
    f.write_text("1 1\n5\n")
    ps = read_points(f)
    assert ps.n_points == 0
    assert np.array_equal(ps.query, [5.0])


def test_read_points_row_count_mismatch(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("3 2\n1 0\n0 1\n")
    with pytest.raises(PointFileError):
        read_points(f)


def test_read_points_ragged_row(tmp_path):
    f = tmp_path / "ragged.txt"
    f.write_text("2 2\n1 0\n0\n")
    with pytest.raises(PointFileError, match="line 3"):
        read_points(f)


def test_read_points_bad_number(tmp_path):
    f = tmp_path / "nan.txt"
    f.write_text("1 2\n1 x\n")
    with pytest.raises(PointFileError, match="line 2"):
        read_points(f)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_point_is_a_usage_error(bad, tmp_path, capsys):
    f = tmp_path / "nonfinite.txt"
    f.write_text(f"3 2\n1 0\n0 {bad}\n-1 -1\n")
    with pytest.raises(PointFileError, match="line 3: non-finite"):
        read_points(f)
    assert run(["depth", str(f), "--query-coords", "0", "0"]) == EXIT_USAGE
    assert "line 3: non-finite" in capsys.readouterr().err


# argparse takes "-inf" for an option, so only these two reach the reader.
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_query_coords_are_a_usage_error(bad, triangle_file,
                                                   capsys):
    rc = run(["depth", str(triangle_file), "--query-coords", "0", bad])
    assert rc == EXIT_USAGE
    assert "query has a non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("exponent, plain", [
    ("-1e-1", "-0.1"), ("-2E+0", "-2.0"), ("-.5e1", "-5")])
def test_negative_query_coords_in_exponent_form(exponent, plain, square_file,
                                                capsys):
    """A negative coordinate in exponent form is a value, not an option,
    and gives the depth of the same value written as a plain decimal."""

    printed = []
    for value in (exponent, plain):
        rc = run(["depth", str(square_file), "--query-coords", value, "0"])
        assert rc == EXIT_OK
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]


def test_negative_infinite_query_coord_is_a_usage_error(triangle_file):
    rc = run(["depth", str(triangle_file), "--query-coords", "-inf", "0"])
    assert rc == EXIT_USAGE


def test_read_points_roundtrip(triangle_file, tmp_path):
    ps = read_points(triangle_file, query_coords=[0, 0])
    rewritten = tmp_path / "again.txt"
    lines = [f"{ps.n_points} {ps.dim}"]
    lines += [" ".join(repr(float(v)) for v in row) for row in ps.points]
    rewritten.write_text("\n".join(lines) + "\n")
    again = read_points(rewritten, query_coords=[0, 0])
    assert np.array_equal(again.points, ps.points)


def test_depth_command(triangle_file, capsys):
    rc = run(["depth", str(triangle_file), "--query-coords", "0", "0"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.strip() == "1"


def test_all_depth_commands_agree(square_file, capsys):
    outputs = []
    for cmd in ("depth", "binsearch", "oracle"):
        rc = run([cmd, str(square_file), "--query-coords", "0", "0"])
        assert rc == EXIT_OK
        outputs.append(capsys.readouterr().out.strip())
    assert outputs == ["2", "2", "2"]


def test_heuristic_command(square_file, capsys):
    rc = run(["heuristic", str(square_file), "--query-coords", "0", "0"])
    assert rc == EXIT_OK
    assert int(capsys.readouterr().out.strip()) >= 2


def test_heuristic_command_outside_hull_runs_no_lp(square_file, capsys,
                                                   monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("the row mean should close this cover")

    monkeypatch.setattr(elastic, "solve_lp", no_lp)
    rc = run(["heuristic", str(square_file), "--query-coords", "5", "3"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.strip() == "0"


def test_json_output(square_file, tmp_path):
    out = tmp_path / "res.json"
    rc = run(["depth", str(square_file), "--query-coords", "0", "0",
              "--json", str(out)])
    assert rc == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["schema"] == 4
    assert payload["depth"] == 2
    assert payload["certificate"] == "verified"
    assert len(payload["direction"]) == 2
    assert sorted(payload) == sorted(
        ["schema", "depth", "cover", "direction", "epsilon", "certificate",
         "exact", "lower_bound", "zero_offset", "stats"])
    stats = payload["stats"]
    assert stats["dual_pivots"] > 0
    # Schema 4 dropped the primal finish's pivot total.
    assert [k for k in stats if k.endswith("_pivots")] == ["dual_pivots"]


def test_json_stats_are_the_solve_stats_fields(square_file, tmp_path):
    out = tmp_path / "res.json"
    rc = run(["binsearch", str(square_file), "--query-coords", "0", "0",
              "--json", str(out)])
    assert rc == EXIT_OK
    stats = json.loads(out.read_text())["stats"]
    assert list(stats) == [f.name for f in fields(SolveStats)]
    # Schema 4's eleven keys, the inherited LP counters first.
    assert list(stats) == [
        "lps", "dual_pivots", "cold_starts", "refactorized_starts",
        "derived_starts", "nodes", "cuts", "wall_time", "heuristic_weight",
        "guesses", "guess_values"]


def test_json_counts_lps_by_start(tmp_path, capsys):
    """Schema 3: the stats block counts the LPs of a solve by how they
    started, and the three counts add up to the LP count.  A cloud deep
    enough to run a tree has derived starts (cut rounds, dives, Chinneck
    trials) and cold ones (the first elastic LP, the cut LPs)."""

    rng = np.random.default_rng(3)
    points = tmp_path / "cloud.txt"
    rows = rng.normal(size=(16, 2)).tolist()
    points.write_text("16 2\n" + "\n".join(f"{x!r} {y!r}" for x, y in rows))
    for command in ("depth", "binsearch"):
        rc = run([command, str(points), "--query-coords", "0", "0",
                  "--json", "-"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 4
        stats = payload["stats"]
        starts = [stats[k] for k in ("cold_starts", "refactorized_starts",
                                     "derived_starts")]
        assert sum(starts) == stats["lps"]
        assert stats["nodes"] > 0
        assert stats["cold_starts"] > 0 and stats["derived_starts"] > 0


def test_json_stdout(triangle_file, capsys):
    rc = run(["oracle", str(triangle_file), "--query-coords", "0", "0",
              "--json", "-"])
    assert rc == EXIT_OK
    assert json.loads(capsys.readouterr().out)["depth"] == 1


class _ClosedPipe:
    """A stdout whose reader has gone: every write and flush fails."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    flush = write


def test_closed_stdout_exits_with_pipe_code(triangle_file, monkeypatch,
                                            capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    rc = run(["depth", str(triangle_file), "--query-coords", "0", "0",
              "--json", "-"])
    assert rc == EXIT_PIPE == 141
    assert "Traceback" not in capsys.readouterr().err


def test_closed_pipe_in_a_process_exits_quietly(triangle_file):
    """The reader closes its end before the command writes: the process
    exits 141 and writes nothing to stderr about it, not even from the
    flush of standard output at exit."""

    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tukeydepth.cli", "depth", str(triangle_file),
         "--query-coords", "0", "0", "--json", "-"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == EXIT_PIPE
    assert b"Traceback" not in err and b"Exception ignored" not in err


def test_usage_errors(tmp_path, capsys):
    assert run(["depth"]) == EXIT_USAGE
    capsys.readouterr()
    assert run(["nonsense"]) == EXIT_USAGE
    capsys.readouterr()
    missing = tmp_path / "missing.txt"
    assert run(["depth", str(missing)]) == EXIT_USAGE
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1 0\n")
    assert run(["oracle", str(bad)]) == EXIT_USAGE


def test_solver_budget_exit(tmp_path, capsys):
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(24, 2))
    f = tmp_path / "hard.txt"
    f.write_text("24 2\n" + "\n".join(
        " ".join(repr(float(v)) for v in p) for p in pts) + "\n")
    rc = run(["depth", str(f), "--query-coords", "0", "0", "--node-limit", "1"])
    out = capsys.readouterr().out.strip()
    if rc == EXIT_SOLVE:
        assert out  # still reports the best-known depth
    else:
        assert rc == EXIT_OK  # heuristic was already optimal at weight <= 1


def test_certificate_downgrade_exit(triangle_file, monkeypatch, capsys):
    import tukeydepth.cli as cli
    original = cli.solve_depth

    def degrade(sys_, cfg):
        res = original(sys_, cfg)
        res.certificate = "unverified"
        return res

    monkeypatch.setattr(cli, "solve_depth", degrade)
    rc = run(["depth", str(triangle_file), "--query-coords", "0", "0"])
    assert rc == EXIT_CERTIFICATE
    capsys.readouterr()
    rc = run(["depth", str(triangle_file), "--query-coords", "0", "0",
              "--allow-unverified"])
    assert rc == EXIT_OK
    capsys.readouterr()


def test_export_mps_matches_golden(triangle_file, tmp_path):
    out = tmp_path / "o.mps"
    rc = run(["export-mps", str(triangle_file), str(out),
              "--query-coords", "0", "0"])
    assert rc == EXIT_OK
    assert out.read_text() == (DATA / "triangle_depth.mps").read_text()


def test_export_mps_guess_form(triangle_file, tmp_path):
    out = tmp_path / "g.mps"
    rc = run(["export-mps", str(triangle_file), str(out), "--form", "guess",
              "--guess", "2", "--query-coords", "0", "0"])
    assert rc == EXIT_OK
    text = out.read_text()
    assert " L  CARD" in text and "EPS" in text


def test_bench_table(tmp_path, triangle_file, square_file, capsys):
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "a.txt").write_text(triangle_file.read_text())
    (bench / "b.txt").write_text(square_file.read_text())
    rc = run(["bench", str(bench), "--query-coords", "0", "0"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["Instance", "Num", "Dim", "Dep", "Nod", "Tim"]
    assert len(out) == 3
    assert out[1].split()[0] == "a.txt"
    assert out[1].split()[3] == "1"
    assert out[2].split()[3] == "2"


def _bench_dir(tmp_path, *files):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name, f in zip("abc", files):
        (bench / f"{name}.txt").write_text(f.read_text())
    return bench


def test_bench_writes_json(tmp_path, triangle_file, square_file, capsys):
    """``bench --json`` writes one ``depth --json`` payload per instance,
    with the instance's file name, in table order."""

    bench = _bench_dir(tmp_path, triangle_file, square_file)
    out = tmp_path / "bench.json"
    rc = run(["bench", str(bench), "--query-coords", "0", "0",
              "--json", str(out)])
    assert rc == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 3
    payloads = json.loads(out.read_text())
    assert [p["instance"] for p in payloads] == ["a.txt", "b.txt"]
    assert [p["depth"] for p in payloads] == [1, 2]
    single = tmp_path / "square.json"
    assert run(["depth", str(square_file), "--query-coords", "0", "0",
                "--json", str(single)]) == EXIT_OK
    expected = json.loads(single.read_text())
    assert payloads[1].keys() == {"instance"} | expected.keys()
    for key in ("schema", "depth", "cover", "certificate", "exact"):
        assert payloads[1][key] == expected[key]


def test_bench_json_to_stdout_replaces_the_table(tmp_path, triangle_file,
                                                 capsys):
    bench = _bench_dir(tmp_path, triangle_file)
    rc = run(["bench", str(bench), "--query-coords", "0", "0",
              "--json", "-"])
    assert rc == EXIT_OK
    payloads = json.loads(capsys.readouterr().out)
    assert [(p["instance"], p["depth"]) for p in payloads] == [("a.txt", 1)]


def test_bench_unverified_exit(tmp_path, triangle_file, square_file, capsys):
    """A certificate margin of 10 cannot be met: ``bench`` marks the rows,
    exits as ``depth`` does and honours --allow-unverified."""

    argv = ["--query-coords", "0", "0", "--cert-tol", "10"]
    assert run(["depth", str(square_file), *argv]) == EXIT_CERTIFICATE
    capsys.readouterr()
    bench = _bench_dir(tmp_path, triangle_file, square_file)
    out = tmp_path / "bench.json"
    assert run(["bench", str(bench), *argv, "--json", str(out)]) \
        == EXIT_CERTIFICATE
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[-1] for row in rows] == ["unverified"] * 2
    assert [p["certificate"] for p in json.loads(out.read_text())] \
        == ["unverified"] * 2
    assert run(["bench", str(bench), *argv, "--allow-unverified"]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[-1] for row in rows] == ["unverified"] * 2


def test_bench_empty_dir(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert run(["bench", str(empty)]) == EXIT_USAGE
    capsys.readouterr()


def test_engine_flags_match_config(triangle_file):
    """Each solving command has one flag per ``EngineConfig`` field plus
    --json and --allow-unverified and no other engine flag, ``heuristic``
    takes only --json, the flag defaults are the dataclass's, and
    --rule/--select reach their fields."""

    parser = cli._build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    names = {f.name for f in fields(EngineConfig)}
    instance = {"help", "query", "query_coords"}
    for command, extra in (("depth", set()), ("binsearch", set()),
                           ("bench", {"algorithm"})):
        dests = {a.dest for a in sub.choices[command]._actions
                 if a.option_strings}
        assert dests == (names | instance | extra
                         | {"json", "allow_unverified"}), command
    assert {a.dest for a in sub.choices["heuristic"]._actions
            if a.option_strings} == instance | {"json"}
    args = parser.parse_args(["depth", str(triangle_file)])
    assert cli._config_from_args(args) == EngineConfig()
    args = parser.parse_args(["depth", str(triangle_file), "--rule", "strong",
                              "--select", "best-first"])
    assert cli._config_from_args(args) == EngineConfig(
        branch_rule="strong", node_selection="best-first")


def test_other_commands_take_config_defaults(triangle_file, monkeypatch):
    """A bare ``export-mps`` reads its engine values from
    ``EngineConfig()``, so they cannot drift from ``depth``."""

    cfg = EngineConfig(epsilon=2e-4)
    monkeypatch.setattr(cli, "EngineConfig", lambda: cfg)
    parser = cli._build_parser()
    args = parser.parse_args(["export-mps", str(triangle_file), "o.mps"])
    assert args.epsilon == 2e-4
    monkeypatch.undo()
    parser = cli._build_parser()
    defaults = EngineConfig()
    args = parser.parse_args(["export-mps", str(triangle_file), "o.mps"])
    assert args.epsilon == defaults.epsilon


# Flags of tuning values that are now engine constants, each with the
# value the constant holds.
REMOVED_FLAGS = [("--strong-k", "4"), ("--cut-improve", "1e-3"),
                 ("--max-cut-rounds", "20"), ("--rounding-depth", "7"),
                 ("--rounding-iteration", "5"), ("--feas-tol", "1e-9"),
                 ("--viol-tol", "1e-7"), ("--heuristic-variant", "fast"),
                 ("--heuristic-k", "1")]
# The box half-width --c went from every command that took it: the
# direction box is always [-1, 1]^d.
BOX_FLAG_COMMANDS = ["depth", "binsearch", "bench", "export-mps"]


@pytest.mark.parametrize("command, flag, value", [
    ("depth", flag, value) for flag, value in REMOVED_FLAGS] + [
    ("heuristic", flag, value) for flag, value in REMOVED_FLAGS[-2:]] + [
    (command, "--c", "1") for command in BOX_FLAG_COMMANDS])
def test_removed_flag_is_usage_error(command, flag, value, square_file,
                                     tmp_path, capsys):
    out = [str(tmp_path / "o.mps")] if command == "export-mps" else []
    rc = run([command, str(square_file), *out, "--query-coords", "0", "0",
              flag, value])
    assert rc == EXIT_USAGE
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("instance, argv, message", [
    ("square_file", ["depth", "--epsilon", "0"], "must be positive"),
    ("square_file", ["binsearch", "--epsilon", "-1"], "must be positive"),
    ("triangle_file", ["depth", "--epsilon", "-1"], "must be positive"),
    ("triangle_file", ["binsearch", "--epsilon", "0"], "must be positive"),
    ("square_file", ["depth", "--time-limit", "nan"], "time_limit"),
    ("triangle_file", ["binsearch", "--time-limit", "-1"], "time_limit"),
    ("square_file", ["binsearch", "--node-limit", "-1"], "node_limit"),
    ("triangle_file", ["depth", "--cert-tol", "nan"], "cert_tol"),
])
def test_bad_engine_value_is_usage_error(instance, argv, message, request,
                                         capsys):
    """Out-of-range values exit 1 with an error line, also where the
    heuristic alone settles the depth (the triangle's depth is 1)."""

    path = str(request.getfixturevalue(instance))
    rc = run([argv[0], path, "--query-coords", "0", "0", *argv[1:]])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
