from pathlib import Path

import numpy as np
import pytest

from tukeydepth.engine import MipForm, MipModel
from tukeydepth.model import ParamBounds, PointSet, build_system
from tukeydepth.mps import render_mps, write_mps
from tukeydepth.simplex import Sense

DATA = Path(__file__).parent / "data"


def parse_mps(text: str):
    """Minimal reader for the subset this project writes: objective row,
    G/L rows, COLUMNS with integrality markers, RHS and BOUNDS."""

    section = None
    rows: dict[str, str] = {}
    obj_row = None
    cols: dict[str, dict[str, float]] = {}
    integers: set[str] = set()
    rhs: dict[str, float] = {}
    bounds: dict[str, list] = {}
    in_int = False
    order: list[str] = []

    for raw in text.splitlines():
        if not raw.strip():
            continue
        head = raw.split()
        if raw[0] not in " \t":
            section = head[0]
            continue
        if section == "ROWS":
            sense, name = head
            if sense == "N":
                obj_row = name
            else:
                rows[name] = sense
        elif section == "COLUMNS":
            if len(head) >= 3 and head[1] == "'MARKER'":
                in_int = head[2] == "'INTORG'"
                continue
            col = head[0]
            if col not in cols:
                cols[col] = {}
                order.append(col)
                if in_int:
                    integers.add(col)
            for rname, value in zip(head[1::2], head[2::2]):
                cols[col][rname] = float(value)
        elif section == "RHS":
            for rname, value in zip(head[1::2], head[2::2]):
                rhs[rname] = float(value)
        elif section == "BOUNDS":
            kind, _, col = head[:3]
            value = float(head[3]) if len(head) > 3 else None
            bounds.setdefault(col, []).append((kind, value))
    return {"obj_row": obj_row, "rows": rows, "cols": cols, "order": order,
            "integers": integers, "rhs": rhs, "bounds": bounds}


@pytest.fixture
def simplex_mip(simplex_sys):
    return MipModel(simplex_sys, ParamBounds.for_system(simplex_sys),
                    MipForm.DEPTH)


def test_golden_file_match(simplex_mip):
    golden = (DATA / "triangle_depth.mps").read_text()
    assert render_mps(simplex_mip) == golden


def test_deterministic_column_order(simplex_mip):
    parsed = parse_mps(render_mps(simplex_mip))
    assert parsed["order"] == ["X1", "X2", "S1", "S2", "S3"]
    assert parsed["integers"] == {"S1", "S2", "S3"}
    assert parsed["rows"] == {"R1": "G", "R2": "G", "R3": "G"}


def test_roundtrip_values_exact(simplex_mip):
    parsed = parse_mps(render_mps(simplex_mip))
    sys_ = simplex_mip.sys
    M = simplex_mip.bounds.bigM
    for i in range(sys_.dim):
        for j in range(sys_.n_rows):
            v = sys_.rows[j, i]
            got = parsed["cols"][f"X{i+1}"].get(f"R{j+1}", 0.0)
            assert got == v, "values must round-trip bit-exactly"
    for j in range(sys_.n_rows):
        assert parsed["cols"][f"S{j+1}"][f"R{j+1}"] == M
        assert parsed["cols"][f"S{j+1}"]["COST"] == float(sys_.weights[j])
        assert parsed["rhs"][f"R{j+1}"] == simplex_mip.bounds.epsilon
    for i in range(sys_.dim):
        kinds = dict(parsed["bounds"][f"X{i+1}"])
        assert kinds["LO"] == -1.0
        assert kinds["UP"] == 1.0


def test_guess_form_structure(simplex_sys):
    mip = MipModel(simplex_sys, ParamBounds.for_system(simplex_sys),
                   MipForm.GUESS, guess=2)
    parsed = parse_mps(render_mps(mip))
    assert parsed["rows"]["CARD"] == "L"
    assert parsed["rhs"]["CARD"] == 2.0
    assert parsed["order"][-1] == "EPS"
    assert parsed["cols"]["EPS"]["COST"] == -1.0
    assert all(parsed["cols"]["EPS"][f"R{j+1}"] == -1.0 for j in range(3))
    assert dict(parsed["bounds"]["EPS"])["UP"] == mip.bounds.bigM
    for j in range(3):
        assert parsed["cols"][f"S{j+1}"]["CARD"] == float(
            simplex_sys.weights[j])
        assert "COST" not in parsed["cols"][f"S{j+1}"]


def test_weighted_objective_coefficients():
    pts = [[1, 0]] * 3 + [[0, 1]] * 2 + [[-1, -1]]
    sys_ = build_system(PointSet(2, pts, [0, 0]))
    mip = MipModel(sys_, ParamBounds.for_system(sys_), MipForm.DEPTH)
    parsed = parse_mps(render_mps(mip))
    assert parsed["cols"]["S1"]["COST"] == 3.0
    assert parsed["cols"]["S2"]["COST"] == 2.0
    assert parsed["cols"]["S3"]["COST"] == 1.0


@pytest.mark.parametrize("form, guess", [(MipForm.DEPTH, None),
                                         (MipForm.GUESS, 3)])
def test_render_is_the_relaxation(form, guess):
    """Every entry of the text is the relaxation's own: objective and row
    coefficients (zeros left out), senses, right-hand sides (zeros left
    out) and bounds, with exactly the binaries between the markers."""

    pts = [[1, 0]] * 3 + [[0, 1]] * 2 + [[-1, -1], [2, 1], [-1, 3]] * 2
    sys_ = build_system(PointSet(2, pts, [0, 0]))
    assert sorted(sys_.weights) == [2, 2, 2, 2, 3]
    mip = MipModel(sys_, ParamBounds.for_system(sys_), form, guess=guess)
    lp = mip.relaxation()
    parsed = parse_mps(render_mps(mip))
    d, n, extra = mip.dim, mip.n_binaries, int(mip.has_eps_var)
    cols = ([f"X{i + 1}" for i in range(d)]
            + [f"S{j + 1}" for j in range(n)] + ["EPS"] * extra)
    rows = [f"R{j + 1}" for j in range(n)] + ["CARD"] * extra
    sense = {Sense.GE: "G", Sense.LE: "L", Sense.EQ: "E"}

    assert parsed["obj_row"] == "COST"
    assert parsed["rows"] == {r: sense[s] for r, s in zip(rows, lp.senses)}
    assert parsed["order"] == cols
    assert parsed["integers"] == set(cols[d:d + n])
    for k, col in enumerate(cols):
        values = [lp.objective[k], *lp.row_coeffs[:, k]]
        assert parsed["cols"][col] == {
            r: v for r, v in zip(["COST", *rows], values) if v != 0.0}
        kinds = dict(parsed["bounds"][col])
        if col in parsed["integers"]:
            assert kinds == {"BV": None}
        else:
            assert kinds.get("LO", 0.0) == lp.lower[k]
            assert kinds["UP"] == lp.upper[k]
    assert {r: parsed["rhs"].get(r, 0.0) for r in rows} == dict(
        zip(rows, lp.rhs))


def _corpus_and_line_systems():
    """The acceptance corpus clouds as first drawn (instance i: seed
    10_000 + i, n 8..30, d 2..5), then three points on a line through the
    query, where every row is orthogonal to the second axis."""

    for i in range(200):
        n, d = 8 + (i * 7) % 23, 2 + i % 4
        pts = np.random.default_rng(10_000 + i).normal(size=(n, d))
        yield build_system(PointSet(d, pts, np.zeros(d)))
    yield build_system(PointSet(2, [[1, 0], [-1, 0], [2, 0]], [0, 0]))


@pytest.mark.parametrize("form, guess", [(MipForm.DEPTH, None),
                                         (MipForm.GUESS, 1)])
def test_every_bounded_column_is_declared(form, guess):
    """Fixed-format readers know a column only from COLUMNS, so each one
    BOUNDS names must appear there, even with no nonzero coefficient."""

    for sys_ in _corpus_and_line_systems():
        mip = MipModel(sys_, ParamBounds.for_system(sys_), form, guess=guess)
        parsed = parse_mps(render_mps(mip))
        assert set(parsed["bounds"]) <= set(parsed["cols"])
        assert parsed["order"] == list(parsed["bounds"])


def test_all_zero_column_gets_a_zero_cost():
    sys_ = build_system(PointSet(2, [[1, 0], [-1, 0], [2, 0]], [0, 0]))
    mip = MipModel(sys_, ParamBounds.for_system(sys_), MipForm.DEPTH)
    lines = render_mps(mip).splitlines()
    assert "    X2        COST      0" in lines
    assert parse_mps("\n".join(lines))["cols"]["X2"] == {"COST": 0.0}


def test_write_mps_file(tmp_path, simplex_mip):
    target = tmp_path / "out.mps"
    write_mps(simplex_mip, target)
    assert target.read_text() == render_mps(simplex_mip)
    assert target.read_text().endswith("ENDATA\n")
