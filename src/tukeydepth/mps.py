"""Fixed-format MPS export of the big-M integer programs.

The writer renders ``MipModel.relaxation()``, the one definition of the
program, and adds only what an LP lacks: the binaries sit between
INTORG/INTEND markers and carry BV bounds.  Every coefficient, sense,
right-hand side and bound comes from that LP, so this module knows nothing
of how the program is built.  Columns keep the LP's order and are named
X1.. (the direction), S1.. (the binaries) and EPS (the margin column, where
there is one); rows are named R1.. (one per binary) and CARD (the
cardinality row, where there is one).  Zero coefficients, zero right-hand
sides and zero lower bounds are left out, except that a column with no
nonzero entry is written with an explicit zero cost so that every column
BOUNDS names is declared under COLUMNS.  Values are written with
shortest round-tripping precision so a parse of our own output reproduces
the model bit-exactly.  Names stay within eight characters for
fixed-format readers.
"""

from __future__ import annotations

from .engine import MipModel
from .simplex import Sense

__all__ = ["write_mps", "render_mps"]

# Field start columns follow the classic fixed layout (2/5/15/25/40); the
# value fields are wider than the historical 12 characters because doubles
# need up to 17 significant digits to survive a round trip.
_F1 = 1
_F2 = 4
_F3 = 14
_F4 = 24
_F5 = 44


def _num(value: float) -> str:
    out = repr(float(value))
    if out.endswith(".0"):
        out = out[:-2]
    return out


def _line(*fields: tuple[int, str]) -> str:
    chars: list[str] = []
    for start, text in fields:
        if len(chars) < start:
            chars.extend(" " * (start - len(chars)))
        elif chars:
            chars.append(" ")
        chars.extend(text)
    return "".join(chars)


def _col_entries(name: str, entries: list[tuple[str, float]]) -> list[str]:
    lines = []
    for i in range(0, len(entries), 2):
        pair = entries[i:i + 2]
        fields = [(_F2, name), (_F3, pair[0][0]), (_F4, _num(pair[0][1]))]
        if len(pair) == 2:
            fields += [(_F5, pair[1][0]), (_F5 + 20, _num(pair[1][1]))]
        lines.append(_line(*fields))
    return lines


_SENSE = {Sense.GE: "G", Sense.LE: "L", Sense.EQ: "E"}


def render_mps(mip: MipModel) -> str:
    """Render the integer program as MPS text."""

    lp = mip.relaxation()
    d, n = mip.dim, mip.n_binaries
    col_names = ([f"X{i + 1}" for i in range(d)]
                 + [f"S{j + 1}" for j in range(n)]
                 + ["EPS"] * (len(lp.objective) - d - n))
    row_names = ([f"R{j + 1}" for j in range(n)]
                 + ["CARD"] * (len(lp.rhs) - n))

    lines = [_line((0, "NAME"), (_F3, "TUKDEPTH")), "ROWS",
             _line((_F1, "N"), (_F2, "COST"))]
    for rn, sense in zip(row_names, lp.senses):
        lines.append(_line((_F1, _SENSE[sense]), (_F2, rn)))

    def column(col: int) -> list[str]:
        values = [lp.objective[col], *lp.row_coeffs[:, col]]
        entries = [(rn, v) for rn, v in zip(["COST", *row_names], values)
                   if v != 0.0]
        return _col_entries(col_names[col], entries or [("COST", 0.0)])

    lines.append("COLUMNS")
    for col in range(d):
        lines += column(col)
    lines.append(_line((_F2, "MARKER"), (_F3, "'MARKER'"), (_F4, "'INTORG'")))
    for col in range(d, d + n):
        lines += column(col)
    lines.append(_line((_F2, "MARKER"), (_F3, "'MARKER'"), (_F4, "'INTEND'")))
    for col in range(d + n, len(col_names)):
        lines += column(col)

    lines.append("RHS")
    lines += _col_entries("RHS", [(rn, v) for rn, v in zip(row_names, lp.rhs)
                                  if v != 0.0])

    lines.append("BOUNDS")
    for col, cn in enumerate(col_names):
        if d <= col < d + n:
            lines.append(_line((_F1, "BV"), (_F2, "BND"), (_F3, cn)))
            continue
        if lp.lower[col] != 0.0:
            lines.append(_line((_F1, "LO"), (_F2, "BND"), (_F3, cn),
                               (_F4, _num(lp.lower[col]))))
        lines.append(_line((_F1, "UP"), (_F2, "BND"), (_F3, cn),
                           (_F4, _num(lp.upper[col]))))

    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def write_mps(mip: MipModel, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(render_mps(mip))
