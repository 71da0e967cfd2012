"""Odd-pair carry structure and prime-pair reporting.

The carry word of two odd numbers always carries out of bit one, so it
is 2 mod 4; plotting it over all odd pairs draws the AND fractal.
Walking one anti-diagonal of that grid gives a palindromic row, and
the entries whose split is a pair of primes are exactly the two-prime
decompositions of the even total.
"""

from dataclasses import dataclass, replace
from itertools import compress
from math import isqrt

from .core import _require_naturals, ensure_within
from .tree import NodeClass, _class_name, _depth

__all__ = [
    "DEFAULT_GRID_CAP",
    "DEFAULT_SWEEP_CAP",
    "DEFAULT_EXPONENT_CAP",
    "FractalGrid",
    "GoldbachPair",
    "GoldbachReport",
    "SweepSummary",
    "odd_odd_cvt_grid",
    "palindrome_row",
    "power_of_two_check",
    "is_prime",
    "prime_sieve",
    "goldbach_pairs",
    "goldbach_sweep",
    "export_pgm",
]

DEFAULT_GRID_CAP = 4095  # dense (limit+1)/2 square; memory is quadratic
DEFAULT_SWEEP_CAP = 1 << 24
DEFAULT_EXPONENT_CAP = 24
_SLICE = 1 << 20  # sieve flags per "0"/"1" digit slice in _sweep's conversion

# Strong-probable-prime witness set, exact for everything below this bound.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_EXACT_BOUND = 3_317_044_064_679_887_385_961_981


@dataclass(frozen=True)
class FractalGrid:
    """Carry values over all (odd, odd) pairs up to an odd limit.

    cells[x][y] is indexed by the odd coordinates themselves and is
    symmetric; every stored value is 2 mod 4.
    """

    limit: int
    cells: dict

    @property
    def side(self) -> int:
        return (self.limit + 1) // 2


def _grid_odds(limit, cap):
    _require_naturals(limit)
    if limit < 1 or limit % 2 == 0:
        raise ValueError("grid limit must be odd and >= 1")
    ensure_within(limit, cap, DEFAULT_GRID_CAP, "grid limit")
    return range(1, limit + 1, 2)


def odd_odd_cvt_grid(limit: int, cap: int | None = None) -> FractalGrid:
    odds = _grid_odds(limit, cap)
    cells = {x: {y: (x & y) << 1 for y in odds} for x in odds}
    return FractalGrid(limit=limit, cells=cells)


def palindrome_row(n: int) -> list:
    """Carry values cvt(k, n - k) over odd k; reads the same reversed."""
    _require_naturals(n)
    if n < 2 or n % 2:
        raise ValueError("row total must be even and >= 2")
    return [(k & (n - k)) << 1 for k in range(1, n, 2)]


def power_of_two_check(k: int, cap: int | None = None) -> bool:
    """True iff the whole row for 2**k collapses to the constant 2.

    Splitting a power of two into two odd parts leaves every bit above
    the lowest complementary, so the only carry comes out of bit one.
    """
    _require_naturals(k)
    if k < 1:
        raise ValueError("exponent must be >= 1")
    ensure_within(k, cap, DEFAULT_EXPONENT_CAP, "exponent")
    n = 1 << k
    return all((a & (n - a)) << 1 == 2 for a in range(1, n, 2))


def is_prime(n: int) -> bool:
    """Deterministic primality verdict for n below ~3.3e24.

    Small-prime division first, then a strong-probable-prime round per
    fixed witness; the witness set is known exact under _EXACT_BOUND,
    so anything larger is rejected rather than answered probabilistically.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"expected an integer, got {n!r}")
    if n > _EXACT_BOUND:
        raise ValueError(f"{n} exceeds the deterministic primality range")
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_sieve(limit: int) -> bytearray:
    """Flags indexed 0..limit: sieve[k] == 1 iff k is prime."""
    _require_naturals(limit)
    sieve = bytearray(b"\x01") * (limit + 1)
    sieve[0 : min(2, limit + 1)] = b"\x00" * min(2, limit + 1)
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))  # bytes would be copied
    return sieve


@dataclass(frozen=True)
class GoldbachPair:
    p: int
    q: int
    node_class: NodeClass
    depth: int


@dataclass(frozen=True)
class GoldbachReport:
    """All prime splits of one even total, as nodes of its tree."""

    n: int
    pairs: tuple

    @property
    def has_pair(self) -> bool:
        return bool(self.pairs)


def _splits(totals, sieve):
    """(n, [(p, class name, depth) per prime split p + (n - p), p <= n - p]) per total."""
    for n in totals:
        low = compress(range(n // 2 + 1), sieve)
        yield n, [(p, _class_name(p, n - p), _depth(p, n - p)) for p in low if sieve[n - p]]


def _report_from_sieve(totals, sieve):
    for n, splits in _splits(totals, sieve):
        pairs = tuple(GoldbachPair(p, n - p, NodeClass(c), d) for p, c, d in splits)
        yield GoldbachReport(n=n, pairs=pairs)


def _check_even_total(n):
    _require_naturals(n)
    if n < 4 or n % 2:
        raise ValueError("total must be even and >= 4")


def goldbach_pairs(n: int, cap: int | None = None) -> GoldbachReport:
    """Every (p, q), p <= q, both prime, p + q = n, with its node class
    and its depth in the tree for n."""
    _check_even_total(n)
    ensure_within(n, cap, DEFAULT_SWEEP_CAP, "even total")
    return next(_report_from_sieve((n,), prime_sieve(n)))


@dataclass(frozen=True)
class SweepSummary:
    """Existence scan over a range of even totals.

    counterexamples lists totals with no prime split (expected empty);
    all_odd_leaf_count counts totals with a split and n - 2 not prime:
    only (2, n - 2) has an even part, so all their splits are odd leaves.
    reports holds per-total detail only when asked; the CLI streams it.
    """

    start: int
    stop: int
    checked: int
    counterexamples: tuple
    all_odd_leaf_count: int
    reports: tuple | None


def _sweep(start, stop, cap):
    """goldbach_sweep's summary without reports, and the sieve it ran on.

    Bitset method: bit k of prime_bits is set iff k is prime, and each
    prime p in turn clears prime_bits << p (every p + q, q prime) from
    the totals still to do, until none is left or 2p passes the highest.
    That is one big-int pass per prime up to the range's largest minimal
    Goldbach prime: 133 to ~2^22, 145 to 2^24 (it stays small; Oliveira
    e Silva et al., Math. Comp. 83, 2014).  A counterexample n would
    cost passes up to n / 2; none exists below the default cap.
    """
    _check_even_total(start)
    _require_naturals(stop)
    if stop < start or stop % 2:
        raise ValueError("range end must be even and >= the start")
    ensure_within(stop, cap, DEFAULT_SWEEP_CAP, "sweep bound")
    sieve = prime_sieve(stop)
    prime_bits = 0
    for lo in reversed(range(0, stop + 1, _SLICE)):  # high to low, so no whole digit string
        digits = sieve[lo : lo + _SLICE].translate(bytes.maketrans(b"\x00\x01", b"01"))[::-1]
        prime_bits = prime_bits << len(digits) | int(digits, 2)
    evens = todo = ((1 << (stop - start + 2)) - 1) // 3 << start
    for p in compress(range(stop // 2 + 1), sieve):
        if todo.bit_length() <= 2 * p:  # also when todo is 0
            break
        todo ^= todo & prime_bits << p  # no ~: a negative operand costs extra copies
    found = evens ^ todo
    all_odd_leaf = found.bit_count() - (found & prime_bits << 2).bit_count()
    counterexamples = []
    while todo:
        counterexamples.append((todo & -todo).bit_length() - 1)
        todo &= todo - 1
    checked = (stop - start) // 2 + 1
    return SweepSummary(start, stop, checked, tuple(counterexamples), all_odd_leaf, None), sieve


def goldbach_sweep(
    start: int, stop: int, per_n: bool = False, cap: int | None = None
) -> SweepSummary:
    summary, sieve = _sweep(start, stop, cap)
    reports = _report_from_sieve(range(start, stop + 1, 2), sieve)
    return replace(summary, reports=tuple(reports)) if per_n else summary


def _pgm_lines(side, peak, rows, text=str):
    stated = min(peak, 65535)
    yield f"P2\n{side} {side}\n{stated}\n"
    for row in rows:
        if peak > stated:
            row = (v * stated // peak for v in row)
        yield " ".join(map(text, row)) + "\n"


def export_pgm(grid: FractalGrid) -> str:
    """Plain-text PGM ("P2") of the grid, one raster row per odd y.

    Rows run from y = 1 upward; values are the raw carry values with
    the grid maximum as the stated gray ceiling (rescaled only in the
    off-cap case where that ceiling would exceed the format's 65535).
    """
    odds = range(1, grid.limit + 1, 2)
    peak = max(max(row.values()) for row in grid.cells.values())
    rows = ((grid.cells[x][y] for x in odds) for y in odds)
    return "".join(_pgm_lines(grid.side, peak, rows))


def _stream_pgm(limit: int, cap: int | None = None):
    """export_pgm(odd_odd_cvt_grid(limit, cap)) line by line, in memory
    linear in the side; the peak is cvt(limit, limit) = 2 limit, as
    cvt(x, y) = 2 (x & y) <= 2 min(x, y): a list of decimals renders it."""
    odds = _grid_odds(limit, cap)
    rows = (((x & y) << 1 for x in odds) for y in odds)
    return _pgm_lines(len(odds), 2 * limit, rows, list(map(str, range(2 * limit + 1))).__getitem__)
