"""Convergence trees: predecessors, classification, both builders."""

import dataclasses
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cvtxor.tree
from cvtxor import (
    CvtXorTree,
    LimitError,
    MatrixKind,
    NodeClass,
    add_recursive,
    anti_diagonal,
    bit_length,
    build_bottom_up,
    build_matrix,
    build_top_down,
    classify_node,
    cvt,
    depth_of,
    export_dot,
    export_json,
    goldbach_pairs,
    goldbach_sweep,
    is_prime,
    odd_odd_cvt_grid,
    palindrome_row,
    parent_of,
    power_of_two_check,
    predecessor_count,
    predecessors_of,
    prime_sieve,
    tree_stats,
    xor,
)
from cvtxor.tree import _CHUNK, _class_depth_counts, _dot_lines, _dp_stats, _json_lines, _slices
from oracles import brute_predecessors, carry_chain_depth, chain_depth, tree_dot, tree_json

small_pairs = st.tuples(
    st.integers(min_value=0, max_value=512), st.integers(min_value=0, max_value=512)
)
wide_pairs = st.tuples(
    st.integers(min_value=0, max_value=2**64), st.integers(min_value=0, max_value=2**64)
)


def test_pinned_predecessor_sets():
    assert predecessors_of((2, 6)) == {(1, 7), (7, 1), (3, 5), (5, 3)}
    assert predecessors_of((6, 2)) == set()
    assert predecessors_of((0, 8)) == {(0, 8), (8, 0)}
    assert predecessors_of((2, 0)) == {(1, 1)}


def test_odd_first_coordinate_has_no_predecessors():
    # a carry word always ends in a zero bit
    assert predecessors_of((1, 5)) == set()
    assert predecessors_of((3, 3)) == set()


@given(small_pairs)
def test_predecessors_match_diagonal_scan(pair):
    assert predecessors_of(pair) == brute_predecessors(pair)


@given(small_pairs)
def test_predecessor_count_matches_the_set(pair):
    assert predecessor_count(pair) == len(predecessors_of(pair))


@given(small_pairs)
def test_every_predecessor_steps_back_to_the_pair(pair):
    for pred in predecessors_of(pair):
        assert parent_of(pred) == pair


def test_classification_of_the_four_kinds():
    assert classify_node((0, 8)) is NodeClass.ROOT
    assert classify_node((0, 0)) is NodeClass.ROOT
    assert classify_node((3, 5)) is NodeClass.ODD_LEAF
    assert classify_node((6, 2)) is NodeClass.CONTRADICTORY_EVEN_LEAF
    assert classify_node((2, 6)) is NodeClass.INTERNAL
    assert classify_node((8, 0)) is NodeClass.INTERNAL


def test_class_names_render_as_expected():
    assert [c.value for c in NodeClass] == [
        "Root",
        "OddLeaf",
        "ContradictoryEvenLeaf",
        "Internal",
    ]


@given(small_pairs)
def test_leaf_classes_are_exactly_the_childless_non_roots(pair):
    kind = classify_node(pair)
    empty = predecessors_of(pair) == set()
    if kind in (NodeClass.ODD_LEAF, NodeClass.CONTRADICTORY_EVEN_LEAF):
        assert empty
    if kind is NodeClass.INTERNAL:
        assert not empty


@given(small_pairs)
def test_depth_matches_the_walked_chain(pair):
    assert depth_of(pair) == chain_depth(pair)


@given(wide_pairs)
def test_depth_matches_the_longest_carry_chain(pair):
    assert depth_of(pair) == carry_chain_depth(*pair)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 8, 18, 40, 100, 255, 256])
def test_tree_has_one_node_per_splitting(n):
    tree = build_top_down(n)
    assert tree.nodes == range(n + 1)
    assert len(tree.nodes) == n + 1
    assert len(tree.parent) == len(tree.children) == len(tree.depth) == n + 1
    assert tree.parent[0] is None
    assert None not in tree.parent[1:]
    assert list(tree.depth) == [depth_of((a, n - a)) for a in range(n + 1)]
    assert tree.root == (0, n)
    assert tree.edge_count == n


@pytest.mark.parametrize("n", [0, 1, 2, 8, 18, 40, 127, 128])
def test_builders_agree(n):
    top = build_top_down(n)
    bottom = build_bottom_up(n)
    assert top.nodes == bottom.nodes
    assert top.parent == bottom.parent
    assert top.children == bottom.children
    assert top.depth == bottom.depth


def test_loops_never_call_the_pair_check(monkeypatch):
    def build_all():
        return (
            [build_matrix(kind, 16) for kind in MatrixKind],
            build_top_down(300),
            goldbach_pairs(100),
            goldbach_sweep(4, 100, per_n=True),
        )

    expected = build_all()

    def forbidden(pair):
        raise AssertionError(f"pair check called in a loop on {pair!r}")

    monkeypatch.setattr(cvtxor.tree, "_checked_pair", forbidden)
    assert build_all() == expected
    with pytest.raises(AssertionError):
        depth_of((1, 2))  # the patch is live for the public pair functions


def test_a_tree_stores_parent_and_depth_only():
    assert tuple(f.name for f in dataclasses.fields(CvtXorTree)) == ("n", "parent", "depth")


def test_no_build_stats_or_export_derives_children():
    tree = build_bottom_up(40)
    tree_stats(tree)
    list(_dot_lines(tree.n, _slices(tree)))
    list(_json_lines(tree.n, _slices(tree)))
    assert "children" not in vars(tree)


def test_leaf_count_matches_the_diagonal_scan():
    for n in [*range(129), 255, 256]:
        leaves = sum(not brute_predecessors((a, n - a)) for a in range(1, n + 1))
        assert tree_stats(build_top_down(n)).leaf_count == leaves, n
        assert tree_stats(build_bottom_up(n)).leaf_count == leaves, n


@pytest.mark.parametrize("lo, hi", [(0, 600), (600, 850), (850, 1025)])  # about equal work
def test_stats_dp_equals_the_stats_of_the_built_tree(lo, hi):
    for n in range(lo, hi):
        assert _dp_stats(n) == tree_stats(build_top_down(n)), n


def test_class_depth_counts_equal_the_built_tree():
    for n in [*range(200), 1024]:
        tree = build_top_down(n)
        classes = (classify_node((a, n - a)).value for a in tree.nodes)
        assert _class_depth_counts(n) == Counter(zip(classes, tree.depth)), n


@pytest.mark.parametrize("n", [4095, 4096, 65535, 65536])
def test_stats_dp_at_all_ones_and_powers_of_two(n):
    assert _dp_stats(n) == tree_stats(build_top_down(n))


def test_children_are_sorted_and_parent_linked():
    tree = build_top_down(40)
    for node, kids in enumerate(tree.children):
        assert list(kids) == sorted(kids)
        for kid in kids:
            assert tree.parent[kid] == node
    assert tree.parent[0] is None  # the self step is metadata, not an edge


def test_root_self_step_is_not_a_child_edge():
    tree = build_top_down(8)
    assert 0 not in tree.children[0]
    assert tree.children[0] == (8,)


def test_stats_for_the_nine_node_tree():
    stats = tree_stats(build_top_down(8))
    assert stats.node_count == 9
    assert stats.leaf_count == 5
    assert stats.max_depth == 4
    assert stats.average_depth == Fraction(25, 9)
    assert stats.nodes_per_depth == {0: 1, 1: 1, 2: 1, 3: 2, 4: 4}


def test_stats_for_the_degenerate_tree():
    stats = tree_stats(build_top_down(0))
    assert stats.node_count == 1
    assert stats.leaf_count == 0
    assert stats.max_depth == 0
    assert stats.average_depth == Fraction(0)


def test_cap_is_enforced():
    with pytest.raises(LimitError):
        build_top_down(2**20 + 1)
    with pytest.raises(LimitError):
        build_bottom_up(11, cap=10)
    assert len(build_top_down(11, cap=11).nodes) == 12


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        predecessors_of((-2, 6))
    with pytest.raises(ValueError):
        classify_node((2, -6))
    with pytest.raises(ValueError):
        build_top_down(-1)
    with pytest.raises(ValueError):
        build_bottom_up(-1)
    with pytest.raises(ValueError):
        predecessor_count((0, -1))
    with pytest.raises(ValueError):
        depth_of((0, -1))


PAIR_FUNCTIONS = {
    fn.__name__: fn
    for fn in (parent_of, predecessors_of, predecessor_count, classify_node, depth_of)
}
SCALAR_CALLS = {
    "cvt": lambda bad: cvt(bad, 2),
    "xor": lambda bad: xor(2, bad),
    "bit_length": bit_length,
    "add_recursive": lambda bad: add_recursive(bad, 2),
    "build_top_down": build_top_down,
    "build_bottom_up": build_bottom_up,
    "build_matrix": lambda bad: build_matrix(MatrixKind.DEPTH, bad),
    "anti_diagonal": lambda bad: anti_diagonal(build_matrix(MatrixKind.DEPTH, 2), bad),
    "odd_odd_cvt_grid": odd_odd_cvt_grid,
    "palindrome_row": palindrome_row,
    "power_of_two_check": power_of_two_check,
    "prime_sieve": prime_sieve,
    "goldbach_pairs": goldbach_pairs,
    "goldbach_sweep": lambda bad: goldbach_sweep(4, bad),
    "is_prime": is_prime,
}


@pytest.mark.parametrize("bad", [1.5, True, (3,)], ids=["float", "bool", "short-pair"])
@pytest.mark.parametrize("name", [*PAIR_FUNCTIONS, *SCALAR_CALLS])
def test_malformed_inputs_raise_a_typed_error_naming_them(name, bad):
    # A bool or non-int operand, coordinate or total is a TypeError; a
    # pair that is not two items is a ValueError.
    if name in SCALAR_CALLS:
        call, error = SCALAR_CALLS[name], TypeError
    elif isinstance(bad, tuple):
        call, error = PAIR_FUNCTIONS[name], ValueError
    else:
        call, error = (lambda v: PAIR_FUNCTIONS[name]((v, 2))), TypeError
    with pytest.raises(error, match=re.escape(repr(bad))):
        call(bad)


def test_dot_export_golden():
    assert export_dot(build_top_down(2)) == (
        "digraph cvtxor_2 {\n"
        '  "(0,2)" [shape=doublecircle];\n'
        '  "(1,1)";\n'
        '  "(2,0)";\n'
        '  "(0,2)" -> "(0,2)" [label="self"];\n'
        '  "(1,1)" -> "(2,0)";\n'
        '  "(2,0)" -> "(0,2)";\n'
        "}\n"
    )


def test_dot_export_names_every_node_once():
    text = export_dot(build_top_down(18))
    assert text.count('"(0,18)" [shape=doublecircle];') == 1
    for a in range(19):
        assert f'"({a},{18 - a})"' in text
    # one parent edge per non-root node plus the root's self edge
    assert text.count(" -> ") == 19


@pytest.mark.parametrize("build", [build_top_down, build_bottom_up])
def test_exports_equal_the_oracle_documents(build):
    chunk_edges = [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]
    for n in [*range(81), 255, 256, 1000, 4097, *chunk_edges]:
        tree = build(n)
        assert export_json(tree) == tree_json(n), n
        assert export_dot(tree) == tree_dot(n), n


def test_json_export_round_trips():
    import json

    payload = json.loads(export_json(build_top_down(4)))
    assert payload["n"] == 4
    assert payload["node_count"] == 5
    by_pair = {(entry["x"], entry["y"]): entry for entry in payload["nodes"]}
    assert by_pair[(0, 4)]["class"] == "Root"
    assert by_pair[(0, 4)]["parent"] is None
    assert by_pair[(1, 3)] == {"x": 1, "y": 3, "depth": 3, "class": "OddLeaf", "parent": [2, 2]}
