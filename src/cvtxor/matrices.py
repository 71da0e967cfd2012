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

from .core import _require_naturals, ensure_within
from .tree import _depth, _pred_count

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


_CELL = {
    MatrixKind.DEPTH: _depth,
    MatrixKind.PARENT: lambda i, j: ((i & j) << 1, i ^ j),
    MatrixKind.FREQUENCY: lambda i, j: _pred_count(i, j) - (i == 0),  # no root self-loop
}


def _rows(kind, n_max, cap):
    """Checks the arguments now; the rows (cells (i, 0..n_max)) come lazily."""
    _require_naturals(n_max)
    ensure_within(n_max, cap, DEFAULT_MATRIX_CAP, "matrix bound")
    if not isinstance(kind, MatrixKind):
        raise ValueError(f"unknown matrix kind: {kind!r}")
    cell = _CELL[kind]
    size = n_max + 1
    return (tuple(cell(i, j) for j in range(size)) for i in range(size))


def build_matrix(kind: MatrixKind, n_max: int, cap: int | None = None) -> AnalysisMatrix:
    return AnalysisMatrix(n_max=n_max, kind=kind, cells=tuple(_rows(kind, n_max, cap)))


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


def _csv_lines(kind, n_max, rows):
    yield "i\\j," + ",".join(map(str, range(n_max + 1))) + "\n"
    for i, row in enumerate(rows):
        if kind is MatrixKind.PARENT:
            rendered = (f"({p};{q})" for p, q in row)
        else:
            rendered = map(str, row)
        yield f"{i}," + ",".join(rendered) + "\n"


def export_csv(matrix: AnalysisMatrix) -> str:
    """CSV with a row label i and column header j.

    Parent cells render as "(p;q)" so the comma stays a field
    separator.  Byte-deterministic.
    """
    return "".join(_csv_lines(matrix.kind, matrix.n_max, matrix.cells))
