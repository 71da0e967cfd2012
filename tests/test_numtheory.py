"""Odd-pair carry grid, palindrome rows, primality, prime splits."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvtxor import (
    FractalGrid,
    LimitError,
    NodeClass,
    export_pgm,
    goldbach_pairs,
    goldbach_sweep,
    is_prime,
    odd_odd_cvt_grid,
    palindrome_row,
    power_of_two_check,
    prime_sieve,
)
from cvtxor.numtheory import _splits
from oracles import brute_predecessors, carry_word, chain_depth, trial_division_prime


def test_primality_agrees_with_trial_division_exhaustively():
    for n in range(10_000):
        assert is_prime(n) == trial_division_prime(n), n


@given(st.integers(min_value=0, max_value=10**12))
def test_primality_agrees_with_trial_division_sampled(n):
    assert is_prime(n) == trial_division_prime(n)


def test_strong_pseudoprimes_are_rejected():
    for n in (561, 1105, 1729, 25326001, 3215031751, 3825123056546413051):
        assert not is_prime(n)


def test_primality_range_is_bounded():
    with pytest.raises(ValueError):
        is_prime(10**25)


def test_sieve_matches_trial_division():
    sieve = prime_sieve(5000)
    for n in range(5001):
        assert bool(sieve[n]) == trial_division_prime(n), n
    assert list(prime_sieve(0)) == [0]
    assert list(prime_sieve(1)) == [0, 0]
    assert list(prime_sieve(2)) == [0, 0, 1]


def test_grid_is_symmetric_with_carry_residue_two():
    grid = odd_odd_cvt_grid(63)
    for x in range(1, 64, 2):
        for y in range(1, 64, 2):
            assert grid.cells[x][y] == grid.cells[y][x]
            assert grid.cells[x][y] % 4 == 2
            assert grid.cells[x][y] == carry_word(x, y)
    assert grid.side == 32


def test_grid_diagonal_doubles_the_coordinate():
    grid = odd_odd_cvt_grid(31)
    for x in range(1, 32, 2):
        assert grid.cells[x][x] == 2 * x


def test_grid_input_validation():
    with pytest.raises(ValueError):
        odd_odd_cvt_grid(10)
    with pytest.raises(ValueError):
        odd_odd_cvt_grid(-3)
    with pytest.raises(LimitError):
        odd_odd_cvt_grid(4097)


def test_pinned_palindrome_rows():
    assert palindrome_row(2) == [2]
    assert palindrome_row(8) == [2, 2, 2, 2]
    assert palindrome_row(10) == [2, 6, 10, 6, 2]


@given(st.integers(min_value=1, max_value=500))
def test_rows_read_the_same_reversed(half):
    row = palindrome_row(2 * half)
    assert row == row[::-1]


def test_row_input_validation():
    with pytest.raises(ValueError):
        palindrome_row(7)
    with pytest.raises(ValueError):
        palindrome_row(0)


def test_power_of_two_rows_collapse_to_two():
    for k in range(1, 13):
        assert power_of_two_check(k)
    with pytest.raises(ValueError):
        power_of_two_check(0)
    with pytest.raises(LimitError):
        power_of_two_check(25)


def test_smallest_total_reports_the_even_prime_split():
    report = goldbach_pairs(4)
    assert report.has_pair
    assert len(report.pairs) == 1
    pair = report.pairs[0]
    assert (pair.p, pair.q) == (2, 2)
    assert pair.node_class is NodeClass.INTERNAL
    assert pair.depth == 2


def test_ten_splits_into_two_odd_leaves():
    report = goldbach_pairs(10)
    assert [(p.p, p.q) for p in report.pairs] == [(3, 7), (5, 5)]
    assert all(p.node_class is NodeClass.ODD_LEAF for p in report.pairs)
    assert [p.depth for p in report.pairs] == [3, 2]


def test_pair_enumeration_is_complete_and_ordered():
    report = goldbach_pairs(100)
    assert [(p.p, p.q) for p in report.pairs] == [
        (3, 97),
        (11, 89),
        (17, 83),
        (29, 71),
        (41, 59),
        (47, 53),
    ]


def test_goldbach_input_validation():
    for bad in (2, 3, 7):
        with pytest.raises(ValueError):
            goldbach_pairs(bad)
    with pytest.raises(LimitError):
        goldbach_pairs(1 << 25)


def test_sweep_counts_and_finds_no_counterexamples():
    summary = goldbach_sweep(4, 200)
    assert summary.checked == 99
    assert summary.counterexamples == ()
    # only the smallest total keeps its even split (2, 2); above it,
    # total - 2 is an even composite, so every split is a pair of odds
    assert summary.all_odd_leaf_count == 98
    assert summary.reports is None


def test_sweep_detail_matches_single_total_reports():
    summary = goldbach_sweep(4, 60, per_n=True)
    assert summary.reports is not None
    for report in summary.reports:
        assert report == goldbach_pairs(report.n)


def test_pair_depth_and_class_match_the_oracles():
    leaves = {NodeClass.ODD_LEAF, NodeClass.CONTRADICTORY_EVEN_LEAF}
    totals = range(4, 301, 2)
    reports = [goldbach_pairs(n) for n in totals]
    reports += goldbach_sweep(4, 300, per_n=True).reports
    assert [r.n for r in reports] == [*totals, *totals]
    for report in reports:
        for pair in report.pairs:
            split = (pair.p, pair.q)
            assert pair.depth == chain_depth(split), split
            assert (pair.node_class in leaves) == (not brute_predecessors(split)), split


def test_split_depths_match_the_oracle_across_the_lane_width_step():
    # a total below 2^15 walks its splits in 2-byte lanes, one from 2^15 on in 3-byte lanes
    stop = 32790
    sieve = prime_sieve(stop)
    for n, splits in _splits(range(32764, stop + 1, 2), sieve):
        primes = [p for p in range(2, n // 2 + 1) if sieve[p] and sieve[n - p]]
        assert [p for p, _, _ in splits] == primes, n
        assert [d for _, _, d in splits] == [chain_depth((p, n - p)) for p in primes], n


def test_a_total_without_prime_splits_walks_no_lanes():
    sieve = _thinned(lambda k: k == 3)(12)  # 3 is the only prime left
    assert list(_splits((6, 10, 12), sieve)) == [
        (6, [(3, "OddLeaf", chain_depth((3, 3)))]), (10, []), (12, [])
    ]


def _thinned(keep):
    """A prime_sieve stand-in that clears every prime failing keep(k):
    flags the real sieve never gives, so that counterexamples appear."""
    return lambda limit: bytearray(f and keep(k) for k, f in enumerate(prime_sieve(limit)))


def _brute_summary(flags, start, stop):
    """(counterexamples, all_odd_leaf_count) by trying every split of every total."""
    totals = range(start, stop + 1, 2)
    split = {n: any(flags[p] and flags[n - p] for p in range(n // 2 + 1)) for n in totals}
    odd_leaves = sum(1 for n in totals if split[n] and not flags[n - 2])
    return tuple(n for n in totals if not split[n]), odd_leaves


NO_3_5_7 = tuple(range(6, 21, 2))  # 22 = 11 + 11 is the first total after 4 with a split


@pytest.mark.parametrize(
    "keep, start, stop, expected",
    [
        (lambda k: k not in (3, 5, 7), 4, 400, NO_3_5_7),  # an adjacent run
        (lambda k: k not in (3, 5, 7), 6, 30, NO_3_5_7),  # one at the start
        (lambda k: k not in (3, 5, 7), 4, 20, NO_3_5_7),  # one at the end
        (lambda k: k not in (3, 5, 7), 12, 20, NO_3_5_7[3:]),  # all; stops at 2 * 11 > 20
        (lambda k: k not in (3, 5, 7), 4, 4, ()),
        (lambda k: k not in (3, 5, 7), 22, 600, ()),
        (lambda k: k == 2, 4, 4, ()),
        (lambda k: k == 2, 6, 60, tuple(range(6, 61, 2))),  # all; runs out of primes
        (lambda k: k == 2, 4, 1010, tuple(range(6, 1011, 2))),
        (lambda k: k % 4 == 1, 4, 300, None),  # every total 0 mod 4, and some others
    ],
)
def test_sweep_matches_a_brute_force_on_thinned_sieves(monkeypatch, keep, start, stop, expected):
    fake = _thinned(keep)
    counterexamples, odd_leaves = _brute_summary(fake(stop), start, stop)
    if expected is None:
        assert set(range(start, stop + 1, 4)) < set(counterexamples)
    else:
        assert counterexamples == expected
    monkeypatch.setattr("cvtxor.numtheory.prime_sieve", fake)
    summary = goldbach_sweep(start, stop)
    assert summary.checked == (stop - start) // 2 + 1
    assert summary.counterexamples == counterexamples
    assert summary.all_odd_leaf_count == odd_leaves


@pytest.mark.parametrize("width", [1, 2, 7, 64, 301, 302])
def test_sweep_converts_the_sieve_in_any_slice_width(monkeypatch, width):
    # 4..300 sieves 301 flags: one slice at 301 and more, a short top slice below.
    fake = _thinned(lambda k: k % 4 == 1)
    counterexamples, odd_leaves = _brute_summary(fake(300), 4, 300)
    monkeypatch.setattr("cvtxor.numtheory.prime_sieve", fake)
    monkeypatch.setattr("cvtxor.numtheory._SLICE", width)
    summary = goldbach_sweep(4, 300)
    assert (summary.counterexamples, summary.all_odd_leaf_count) == (counterexamples, odd_leaves)


def test_sweep_input_validation():
    with pytest.raises(ValueError):
        goldbach_sweep(3, 10)
    with pytest.raises(ValueError):
        goldbach_sweep(10, 4)
    with pytest.raises(ValueError):
        goldbach_sweep(4, 11)
    with pytest.raises(LimitError):
        goldbach_sweep(4, 1 << 25)


def test_pgm_golden_for_the_four_by_four_grid():
    assert export_pgm(odd_odd_cvt_grid(7)) == (
        "P2\n4 4\n14\n2 2 2 2\n2 6 2 6\n2 2 10 10\n2 6 10 14\n"
    )


def test_pgm_header_tracks_the_grid_peak():
    text = export_pgm(odd_odd_cvt_grid(63))
    lines = text.splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "32 32"
    assert lines[2] == "126"
    assert len(lines) == 3 + 32
    assert all(len(row.split()) == 32 for row in lines[3:])


def test_pgm_rescales_only_past_the_format_ceiling():
    oversized = FractalGrid(limit=3, cells={1: {1: 2, 3: 2}, 3: {1: 2, 3: 131070}})
    text = export_pgm(oversized)
    lines = text.splitlines()
    assert lines[2] == "65535"
    assert lines[4].split() == ["1", "65535"]


def test_pgm_renders_caller_built_cells_as_str():
    # A negative cell cannot come from odd_odd_cvt_grid; it still renders as str(v).
    grid = FractalGrid(limit=3, cells={1: {1: 2, 3: -5}, 3: {1: -5, 3: 6}})
    assert export_pgm(grid) == "P2\n2 2\n6\n2 -5\n-5 6\n"
