"""Odd-pair carry structure and prime-pair reporting.

The carry word of two odd numbers always carries out of bit one, so it
is 2 mod 4; plotting it over all odd pairs draws the AND fractal.
Walking one anti-diagonal of that grid gives a palindromic row, and
the entries whose split is a pair of primes are exactly the two-prime
decompositions of the even total.
"""

from dataclasses import dataclass
from itertools import compress
from math import isqrt

from .limits import ensure_within
from .tree import NodeClass, classify_node, depth_of

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
    if n < 2 or n % 2:
        raise ValueError("row total must be even and >= 2")
    return [(k & (n - k)) << 1 for k in range(1, n, 2)]


def power_of_two_check(k: int, cap: int | None = None) -> bool:
    """True iff the whole row for 2**k collapses to the constant 2.

    Splitting a power of two into two odd parts leaves every bit above
    the lowest complementary, so the only carry comes out of bit one.
    """
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
    if limit < 0:
        raise ValueError("sieve limit must be non-negative")
    sieve = bytearray(b"\x01") * (limit + 1)
    sieve[0 : min(2, limit + 1)] = b"\x00" * min(2, limit + 1)
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(range(p * p, limit + 1, p))
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


def _report_from_sieve(n, sieve):
    pairs = []
    for p in compress(range(n // 2 + 1), sieve):
        if sieve[n - p]:
            node = (p, n - p)
            pairs.append(
                GoldbachPair(p=p, q=n - p, node_class=classify_node(node), depth=depth_of(node))
            )
    return GoldbachReport(n=n, pairs=tuple(pairs))


def _check_even_total(n):
    if n < 4 or n % 2:
        raise ValueError("total must be even and >= 4")


def goldbach_pairs(n: int, cap: int | None = None) -> GoldbachReport:
    """Every (p, q), p <= q, both prime, p + q = n, with its node class
    and its depth in the tree for n."""
    _check_even_total(n)
    ensure_within(n, cap, DEFAULT_SWEEP_CAP, "even total")
    return _report_from_sieve(n, prime_sieve(n))


@dataclass(frozen=True)
class SweepSummary:
    """Existence scan over a range of even totals.

    counterexamples lists totals with no prime split (expected empty);
    all_odd_leaf_count counts totals whose every prime split has both
    parts odd.  reports carries full per-total detail only when asked,
    since it enumerates every split.
    """

    start: int
    stop: int
    checked: int
    counterexamples: tuple
    all_odd_leaf_count: int
    reports: tuple | None


def goldbach_sweep(
    start: int, stop: int, per_n: bool = False, cap: int | None = None
) -> SweepSummary:
    _check_even_total(start)
    if stop < start or stop % 2:
        raise ValueError("range end must be even and >= the start")
    ensure_within(stop, cap, DEFAULT_SWEEP_CAP, "sweep bound")
    sieve = prime_sieve(stop)
    primes = [p for p in range(2, stop // 2 + 1) if sieve[p]]
    counterexamples = []
    all_odd_leaf = 0
    reports = [] if per_n else None
    for n in range(start, stop + 1, 2):
        found = False
        for p in primes:
            if p + p > n:
                break
            if sieve[n - p]:
                found = True
                break
        if not found:
            counterexamples.append(n)
        elif not sieve[n - 2]:
            # The only prime split with an even part is (2, n - 2), and a
            # pair of odd parts is always an odd leaf; so "every prime
            # split is an odd leaf" is exactly "n - 2 is not prime".
            all_odd_leaf += 1
        if per_n:
            reports.append(_report_from_sieve(n, sieve))
    return SweepSummary(
        start=start,
        stop=stop,
        checked=(stop - start) // 2 + 1,
        counterexamples=tuple(counterexamples),
        all_odd_leaf_count=all_odd_leaf,
        reports=tuple(reports) if per_n else None,
    )


def _pgm_lines(side, peak, rows):
    stated = min(peak, 65535)
    yield f"P2\n{side} {side}\n{stated}\n"
    for row in rows:
        if peak > stated:
            row = (v * stated // peak for v in row)
        yield " ".join(map(str, row)) + "\n"


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
    cvt(x, y) = 2 (x & y) <= 2 min(x, y)."""
    odds = _grid_odds(limit, cap)
    return _pgm_lines(len(odds), 2 * limit, (((x & y) << 1 for x in odds) for y in odds))
