"""Dense analysis tables and their anti-diagonal views."""

from fractions import Fraction

import pytest

from cvtxor import (
    AnalysisMatrix,
    LimitError,
    MatrixKind,
    anti_diagonal,
    build_matrix,
    build_top_down,
    cvt,
    diagonal_stats,
    export_csv,
    parent_occurrences,
    predecessor_count,
    xor,
)
from cvtxor.matrices import _depth_rows, _rows
from oracles import brute_predecessors, carry_chain_depth, chain_depth


def test_depth_cells_match_the_walked_chains():
    matrix = build_matrix(MatrixKind.DEPTH, 24)
    for i in range(25):
        for j in range(25):
            assert matrix.cells[i][j] == chain_depth((i, j))


def test_depth_diagonals_match_the_carry_chain_oracle():
    matrix = build_matrix(MatrixKind.DEPTH, 64)
    for n in range(65):
        assert anti_diagonal(matrix, n) == [carry_chain_depth(n - k, k) for k in range(n + 1)]


@pytest.mark.parametrize("n_max", [62, 63, 16382, 16383])
def test_depth_rows_match_the_oracle_where_the_lane_width_grows(n_max):
    # Lanes are 1 byte up to 62, 2 bytes from 63 and 3 bytes from 16383;
    # the last row holds the largest sums i + j.
    rows = range(n_max + 1) if n_max < 64 else (1, n_max)
    for i, row in zip(rows, _depth_rows(n_max, rows)):
        assert list(row) == [chain_depth((i, j)) for j in range(n_max + 1)], i
    first = next(_rows(MatrixKind.DEPTH, n_max, cap=n_max))
    assert list(first) == [0] * (n_max + 1)


def test_parent_cells_are_the_step_images():
    matrix = build_matrix(MatrixKind.PARENT, 24)
    for i in range(25):
        for j in range(25):
            assert matrix.cells[i][j] == (cvt(i, j), xor(i, j))


def test_frequency_cells_count_children():
    matrix = build_matrix(MatrixKind.FREQUENCY, 24)
    for i in range(25):
        for j in range(25):
            expected = predecessor_count((i, j))
            if i == 0:
                expected -= 1  # the root's self step is not a child edge
            assert matrix.cells[i][j] == expected


def test_frequency_cells_match_the_diagonal_scan():
    matrix = build_matrix(MatrixKind.FREQUENCY, 32)
    for i in range(33):
        for j in range(33):
            # the root's self step is not a child edge
            assert matrix.cells[i][j] == len(brute_predecessors((i, j))) - (i == 0), (i, j)


def test_frequency_odd_rows_vanish():
    matrix = build_matrix(MatrixKind.FREQUENCY, 33)
    for i in range(1, 34, 2):
        assert set(matrix.cells[i]) == {0}


def test_pinned_depth_diagonal():
    matrix = build_matrix(MatrixKind.DEPTH, 8)
    assert anti_diagonal(matrix, 8) == [1, 4, 3, 4, 2, 4, 3, 4, 0]


def test_diagonal_is_the_tree_in_coordinate_order():
    matrix = build_matrix(MatrixKind.DEPTH, 12)
    tree = build_top_down(12)
    assert anti_diagonal(matrix, 12) == [tree.depth[12 - k] for k in range(13)]


def test_frequency_diagonals_sum_to_their_totals():
    matrix = build_matrix(MatrixKind.FREQUENCY, 64)
    for n in range(65):
        assert sum(anti_diagonal(matrix, n)) == n


def test_diagonal_stats_pinned_average():
    stats = diagonal_stats(build_matrix(MatrixKind.DEPTH, 8), 8)
    assert stats.max_depth == 4
    assert stats.average_height == Fraction(25, 9)
    assert stats.histogram == {0: 1, 1: 1, 2: 1, 3: 2, 4: 4}


def test_diagonal_stats_rejects_other_kinds():
    with pytest.raises(ValueError):
        diagonal_stats(build_matrix(MatrixKind.FREQUENCY, 8), 8)


def test_parent_occurrences_counts_children_of_a_pair():
    matrix = build_matrix(MatrixKind.PARENT, 8)
    assert parent_occurrences(matrix, (2, 6), 8) == 4
    assert parent_occurrences(matrix, (6, 2), 8) == 0
    with pytest.raises(ValueError):
        parent_occurrences(build_matrix(MatrixKind.DEPTH, 8), (2, 6), 8)


def test_diagonal_bounds_checked():
    matrix = build_matrix(MatrixKind.DEPTH, 8)
    with pytest.raises(ValueError):
        anti_diagonal(matrix, 9)
    with pytest.raises(ValueError):
        anti_diagonal(matrix, -1)


def test_csv_export_golden_frequency():
    assert export_csv(build_matrix(MatrixKind.FREQUENCY, 2)) == (
        "i\\j,0,1,2\n0,0,1,1\n1,0,0,0\n2,1,0,2\n"
    )


def test_csv_export_golden_depth():
    assert export_csv(build_matrix(MatrixKind.DEPTH, 3)) == (
        "i\\j,0,1,2,3\n0,0,0,0,0\n1,1,2,1,3\n2,1,1,2,2\n3,1,3,2,2\n"
    )


def test_csv_export_golden_parent():
    assert export_csv(build_matrix(MatrixKind.PARENT, 1)) == (
        "i\\j,0,1\n0,(0;0),(0;1)\n1,(0;1),(2;0)\n"
    )


def test_cap_and_input_validation():
    with pytest.raises(LimitError):
        build_matrix(MatrixKind.DEPTH, 4097)
    with pytest.raises(LimitError):
        build_matrix(MatrixKind.DEPTH, 20, cap=10)
    with pytest.raises(ValueError):
        build_matrix(MatrixKind.DEPTH, -1)


def test_csv_export_renders_caller_built_cells_as_str():
    # Cells outside 0..2 n_max cannot come from build_matrix; they still render as str(v).
    depth = AnalysisMatrix(n_max=1, kind=MatrixKind.DEPTH, cells=((0, -5), (99, 1)))
    assert export_csv(depth) == "i\\j,0,1\n0,0,-5\n1,99,1\n"
    parent = AnalysisMatrix(
        n_max=1, kind=MatrixKind.PARENT, cells=(((0, 0), (-3, 99)), ((0, 1), (2, 0)))
    )
    assert export_csv(parent) == "i\\j,0,1\n0,(0;0),(-3;99)\n1,(0;1),(2;0)\n"
