"""Acceptance gate: the fourteen end-to-end claims this package makes.

Each test prints one PASS/FAIL line (run with -s to see them live) and
checks one claim in full, against independent oracles where one exists.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction

from cvtxor import (
    MatrixKind,
    NodeClass,
    add_recursive,
    anti_diagonal,
    build_bottom_up,
    build_matrix,
    build_top_down,
    cvt,
    diagonal_stats,
    depth_of,
    goldbach_pairs,
    goldbach_sweep,
    odd_odd_cvt_grid,
    palindrome_row,
    predecessors_of,
    prime_sieve,
    tree_stats,
    xor,
)
from oracles import carry_word


def _report(index, label, failures):
    ok = not failures
    print(f"{'PASS' if ok else 'FAIL'} [{index}/14] {label}")
    assert ok, f"{label}; first failures: {failures[:5]}"


def test_c01_every_tree_has_one_node_per_splitting():
    failures = []
    for n in range(2049):
        tree = build_top_down(n)
        if len(tree.nodes) != n + 1:
            failures.append((n, len(tree.nodes)))
        # nodes is range(n + 1); what makes the count real is that the
        # search reached every split, each at its own depth
        if len(tree.parent) != n + 1 or tree.parent[0] is not None or None in tree.parent[1:]:
            failures.append(("unreached", n))
        # the search's levels against one lane walk of the anti-diagonal (the
        # bottom-up builder); depth_of is checked against the oracles in test_tree
        if tree.depth != build_bottom_up(n).depth:
            failures.append(("depth", n))
    _report(1, "trees up to 2048 have exactly total-plus-one nodes", failures)


def test_c02_random_additions_converge_to_the_sum():
    rng = random.Random(20260816)
    failures = []
    for _ in range(100_000):
        x = rng.randrange(1 << rng.randint(1, 64))
        y = rng.randrange(1 << rng.randint(1, 64))
        trace = add_recursive(x, y)
        if trace.sum != x + y or trace.iterations > max(x, y).bit_length() + 1:
            failures.append((x, y))
    _report(2, "100000 random additions hit the sum within the width bound", failures)


def test_c03_predecessors_match_full_diagonal_scans():
    failures = []
    for n in range(257):
        groups = {}
        for p in range(n + 1):
            q = n - p
            groups.setdefault((carry_word(p, q), p ^ q), set()).add((p, q))
        for a in range(n + 1):
            node = (a, n - a)
            if predecessors_of(node) != groups.get(node, set()):
                failures.append(node)
    _report(3, "predecessor sets equal brute-force scans on all diagonals to 256", failures)


def test_c04_pinned_predecessor_sets():
    failures = []
    if predecessors_of((2, 6)) != {(1, 7), (7, 1), (3, 5), (5, 3)}:
        failures.append((2, 6))
    if predecessors_of((6, 2)) != set():
        failures.append((6, 2))
    _report(4, "pinned predecessor sets for (2,6) and (6,2)", failures)


def test_c05_depth_is_symmetric_in_the_splitting():
    failures = []
    for n in range(513):
        for a in range(1, n):
            if depth_of((a, n - a)) != depth_of((n - a, a)):
                failures.append((a, n - a))
        if depth_of((0, n)) != 0:
            failures.append((0, n))
        if n >= 1 and depth_of((n, 0)) != 1:
            failures.append((n, 0))
    _report(5, "depth is mirror-symmetric on every diagonal to 512", failures)


def test_c06_odd_pair_carries_are_two_mod_four():
    failures = [
        (x, y)
        for x in range(1, 1024, 2)
        for y in range(1, 1024, 2)
        if cvt(x, y) % 4 != 2
    ]
    _report(6, "odd pairs to 1023 all carry 2 mod 4", failures)


def test_c07_power_of_two_rows_are_constant_two():
    failures = []
    for k in range(1, 21):
        row = palindrome_row(2**k)
        if set(row) != {2}:
            failures.append(k)
    _report(7, "rows for 2**k collapse to the constant 2 for k to 20", failures)


def test_c08_heights_of_the_extreme_families():
    failures = []
    for k in range(2, 17):
        if tree_stats(build_top_down(2**k - 2)).max_depth != 2:
            failures.append(2**k - 2)
        if tree_stats(build_top_down(2**k - 1)).max_depth != 1:
            failures.append(2**k - 1)
    _report(8, "trees for 2**k-2 top out at depth 2 and for 2**k-1 at depth 1", failures)


def test_c09_both_builders_construct_the_same_tree():
    failures = []
    for n in range(513):
        top = build_top_down(n)
        bottom = build_bottom_up(n)
        if (
            top.nodes != bottom.nodes
            or top.parent != bottom.parent
            or top.children != bottom.children
            or top.depth != bottom.depth
        ):
            failures.append(n)
    _report(9, "top-down and bottom-up builds agree node-for-node to 512", failures)


def test_c10_matrices_are_consistent_with_the_trees():
    depth = build_matrix(MatrixKind.DEPTH, 256)
    parent = build_matrix(MatrixKind.PARENT, 256)
    freq = build_matrix(MatrixKind.FREQUENCY, 256)
    failures = []
    for n in range(257):
        tree = build_top_down(n)
        if anti_diagonal(depth, n) != [tree.depth[n - k] for k in range(n + 1)]:
            failures.append(("depth", n))
        if sum(anti_diagonal(freq, n)) != n:
            failures.append(("freq-sum", n))
    for i in range(257):
        for j in range(257):
            if parent.cells[i][j] != (cvt(i, j), xor(i, j)):
                failures.append(("parent", i, j))
            if i % 2 and freq.cells[i][j] != 0:
                failures.append(("freq-odd", i, j))
    _report(10, "all three matrices agree with trees and step images at 256", failures)


def test_c11_average_depth_of_the_nine_node_tree():
    stats = diagonal_stats(build_matrix(MatrixKind.DEPTH, 8), 8)
    failures = [] if stats.average_height == Fraction(25, 9) else [stats.average_height]
    _report(11, "average node depth on diagonal 8 is exactly 25/9", failures)


def test_c12_million_wide_prime_split_sweep():
    failures = []
    summary = goldbach_sweep(4, 10**6)
    if summary.counterexamples != ():
        failures.append(("counterexamples", summary.counterexamples[:3]))
    if summary.checked != (10**6 - 4) // 2 + 1:
        failures.append(("checked", summary.checked))
    # above 4 the split (2, total-2) is never prime-prime, so every
    # split is odd-odd; the sweep must count all of them as such
    if summary.all_odd_leaf_count != summary.checked - 1:
        failures.append(("all-odd-leaf", summary.all_odd_leaf_count))
    for n in range(6, 2001, 2):
        report = goldbach_pairs(n)
        if not report.has_pair:
            failures.append(("missing-pair", n))
        if any(
            pair.node_class is not NodeClass.ODD_LEAF
            for pair in report.pairs
            if pair.p % 2
        ):
            failures.append(("class", n))
    rng = random.Random(8)
    for n in sorted(rng.randrange(6, 10**6, 2) + 2 for _ in range(8)):
        report = goldbach_pairs(n)
        if not report.has_pair or any(
            pair.node_class is not NodeClass.ODD_LEAF
            for pair in report.pairs
            if pair.p % 2
        ):
            failures.append(("sampled", n))
    _report(12, "every even total to one million splits into primes, odd splits are leaves", failures)


def test_c13_grid_values_match_brute_recomputation():
    grid = odd_odd_cvt_grid(63)
    odds = range(1, 64, 2)
    failures = []
    for x in odds:
        for y in odds:
            if grid.cells[x][y] != grid.cells[y][x]:
                failures.append(("symmetry", x, y))
            if grid.cells[x][y] % 4 != 2:
                failures.append(("residue", x, y))
    values = {grid.cells[x][y] for x in odds for y in odds}
    brute = {carry_word(x, y) for x in odds for y in odds}
    if values != brute:
        failures.append(("oracle-set", values ^ brute))
    if values != set(range(2, 127, 4)):
        failures.append(("value-set", sorted(values)[:8]))
    _report(13, "the 63-limit grid is symmetric, 2 mod 4, and matches brute values", failures)


def test_c14_repeated_cli_runs_are_byte_identical():
    invocations = (
        ["tree", "40", "--format", "dot"],
        ["matrix", "--kind", "freq", "--max", "64"],
        ["fractal", "--max", "63"],
    )
    failures = []
    for args in invocations:
        outputs = []
        for seed in ("0", "1"):
            env = {k: v for k, v in os.environ.items() if k != "CVTX_LIMIT"}
            env["PYTHONHASHSEED"] = seed
            proc = subprocess.run(
                [sys.executable, "-m", "cvtxor", *args],
                capture_output=True,
                env=env,
            )
            if proc.returncode != 0:
                failures.append(("returncode", args, proc.returncode))
            outputs.append(proc.stdout)
        if outputs[0] != outputs[1]:
            failures.append(("bytes", args))
    _report(14, "repeated tree, matrix, and fractal runs emit identical bytes", failures)
