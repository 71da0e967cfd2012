"""Dense split-analysis tables over all pairs (i, j) up to a bound.

Three kinds: per-cell depth inside the tree for i + j, per-cell
(carry, xor) parent, and per-cell child count.  The anti-diagonal at n
is exactly the node set of the tree for n, so the tables are a flat,
exportable view of every tree up to the bound.  Storage is a dense
(n_max + 1) square, hence the quadratic default cap; the CLI writes
the CSV row by row instead and never holds the square.
"""

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .core import _lane_depths, _require_naturals, ensure_within

__all__ = [
    "DEFAULT_MATRIX_CAP",
    "MatrixKind",
    "AnalysisMatrix",
    "DiagonalStats",
    "build_matrix",
    "anti_diagonal",
    "diagonal_stats",
    "parent_occurrences",
    "export_csv",
]

DEFAULT_MATRIX_CAP = 4096


class MatrixKind(Enum):
    DEPTH = "depth"
    PARENT = "parent"
    FREQUENCY = "freq"


@dataclass(frozen=True)
class AnalysisMatrix:
    """cells[i][j] holds an int (depth, child count) or a parent pair."""

    n_max: int
    kind: MatrixKind
    cells: tuple


def _depth_rows(n_max, rows):
    """Depth rows i in `rows` over columns 0..n_max, as bytes: column j is a
    lane of one _lane_depths walk.  Lanes are wide enough for the largest sum
    i + j <= 2 n_max, and every depth is below 256."""
    size = n_max + 1
    width = ((2 * size).bit_length() + 8) // 8
    ones = int.from_bytes(b"\x01".ljust(width, b"\x00") * size, "little")
    cols = int.from_bytes(b"".join(j.to_bytes(width, "little") for j in range(size)), "little")
    for i in rows:
        yield _lane_depths(i * ones, cols, ones, width).to_bytes(size * width, "little")[::width]


def _rows(kind, n_max, cap):
    """Checks the arguments now; the rows (cells (i, 0..n_max)) come lazily."""
    _require_naturals(n_max)
    ensure_within(n_max, cap, DEFAULT_MATRIX_CAP, "matrix bound")
    if not isinstance(kind, MatrixKind):
        raise ValueError(f"unknown matrix kind: {kind!r}")
    cols = range(n_max + 1)
    if kind is MatrixKind.DEPTH:
        return _depth_rows(n_max, cols)
    if kind is MatrixKind.PARENT:
        return (tuple(((i & j) << 1, i ^ j) for j in cols) for i in cols)
    counts = tuple(1 << j.bit_count() for j in cols)  # children where (i >> 1) & j is 0
    return (
        tuple(c - 1 for c in counts) if i == 0  # the root's self step is no child edge
        else (0,) * len(cols) if i & 1
        else tuple(0 if i >> 1 & j else c for j, c in zip(cols, counts))
        for i in cols
    )


def build_matrix(kind: MatrixKind, n_max: int, cap: int | None = None) -> AnalysisMatrix:
    return AnalysisMatrix(n_max=n_max, kind=kind, cells=tuple(map(tuple, _rows(kind, n_max, cap))))


def _check_diagonal(matrix, n):
    _require_naturals(n)
    if n > matrix.n_max:
        raise ValueError(f"diagonal {n} outside 0..{matrix.n_max}")


def anti_diagonal(matrix: AnalysisMatrix, n: int) -> list:
    """Cell values from (n, 0) to (0, n); element k is cells[n - k][k]."""
    _check_diagonal(matrix, n)
    return [matrix.cells[n - k][k] for k in range(n + 1)]


@dataclass(frozen=True)
class DiagonalStats:
    max_depth: int
    average_height: Fraction
    histogram: dict


def diagonal_stats(matrix: AnalysisMatrix, n: int) -> DiagonalStats:
    """Depth profile of one tree read off its anti-diagonal.

    average_height is the exact rational (sum of diagonal) / (n + 1);
    the histogram maps each depth to how many nodes sit there.
    """
    if matrix.kind is not MatrixKind.DEPTH:
        raise ValueError("diagonal_stats needs a depth matrix")
    diagonal = anti_diagonal(matrix, n)
    return DiagonalStats(
        max_depth=max(diagonal),
        average_height=Fraction(sum(diagonal), n + 1),
        histogram=dict(sorted(Counter(diagonal).items())),
    )


def parent_occurrences(matrix: AnalysisMatrix, target, n: int) -> int:
    """How often `target` appears on anti-diagonal n of a parent matrix.

    Equals the predecessor count of target when target sums to n,
    including the root's self-occurrence for target = (0, n); that is
    one more than the root's child count, which drops the self-loop.
    """
    if matrix.kind is not MatrixKind.PARENT:
        raise ValueError("parent_occurrences needs a parent matrix")
    _check_diagonal(matrix, n)
    want = tuple(target)
    return sum(1 for k in range(n + 1) if matrix.cells[n - k][k] == want)


def _csv_lines(kind, n_max, rows, text=str):
    yield "i\\j," + ",".join(map(text, range(n_max + 1))) + "\n"
    for i, row in enumerate(rows):
        if kind is MatrixKind.PARENT:
            rendered = [f"({text(p)};{text(q)})" for p, q in row]
        else:
            rendered = map(text, row)
        yield f"{i}," + ",".join(rendered) + "\n"


def _stream_csv(kind, n_max, cap):
    """export_csv(build_matrix(...)) line by line, in memory linear in n_max; a cell
    is at most 2 n_max, so a list of decimals renders it (export_csv keeps str)."""
    rows = _rows(kind, n_max, cap)
    return _csv_lines(kind, n_max, rows, list(map(str, range(2 * n_max + 2))).__getitem__)


def export_csv(matrix: AnalysisMatrix) -> str:
    """CSV with a row label i and column header j.

    Parent cells render as "(p;q)" so the comma stays a field
    separator.  Byte-deterministic.
    """
    return "".join(_csv_lines(matrix.kind, matrix.n_max, matrix.cells))
