"""Dense analysis tables and their anti-diagonal views."""

from fractions import Fraction

import pytest

from cvtxor import (
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
from oracles import carry_chain_depth, chain_depth


def test_depth_cells_match_the_walked_chains():
    matrix = build_matrix(MatrixKind.DEPTH, 24)
    for i in range(25):
        for j in range(25):
            assert matrix.cells[i][j] == chain_depth((i, j))


def test_depth_diagonals_match_the_carry_chain_oracle():
    matrix = build_matrix(MatrixKind.DEPTH, 64)
    for n in range(65):
        assert anti_diagonal(matrix, n) == [carry_chain_depth(n - k, k) for k in range(n + 1)]


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
