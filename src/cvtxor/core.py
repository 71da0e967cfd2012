"""Carry/xor word splitting and the recursive addition it drives.

Adding two non-negative integers bitwise produces a carry word and a
carry-free sum word whose total equals the ordinary sum.  Re-splitting
the two words drives the carry to zero in at most one step more than
the width of the wider operand.  Everything here works on plain Python
ints, so operands are arbitrary precision and nothing can overflow.
"""

from dataclasses import dataclass

__all__ = ["cvt", "xor", "bit_length", "add_recursive", "AdditionTrace"]


def _require_naturals(*values):
    """The package's one input rule: every operand, coordinate and total
    is an int (TypeError for a bool or anything else) and not negative."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise TypeError(f"expected a non-negative integer, got {v!r}")
        if v < 0:
            raise ValueError(f"expected a non-negative integer, got {v}")


def cvt(x: int, y: int) -> int:
    """Carry word of x + y: the bitwise AND shifted left one position.

    Always even; one bit wider than the operands at most.  For two odd
    operands the low AND bit is set, so the result is 2 mod 4.
    """
    _require_naturals(x, y)
    return (x & y) << 1


def xor(x: int, y: int) -> int:
    """Carry-free sum word of x + y: the bitwise exclusive or."""
    _require_naturals(x, y)
    return x ^ y


def bit_length(x: int) -> int:
    """Number of significant binary digits; zero has none."""
    _require_naturals(x)
    return x.bit_length()


@dataclass(frozen=True)
class AdditionTrace:
    """Step record of repeated (carry, xor) splitting down to (0, sum).

    steps[0] is the input pair, steps[-1] has first coordinate 0, and
    every step sums to the same total.  iterations counts the hops, so
    a trace that starts at rest has zero.
    """

    steps: tuple
    sum: int

    @property
    def iterations(self) -> int:
        return len(self.steps) - 1


def add_recursive(x: int, y: int) -> AdditionTrace:
    """Add by splitting into carry and xor words until the carry dies.

    A pair (a, 0) still takes one final hop to (0, a), which counts as
    an iteration.  Converges within bit_length(max(x, y)) + 1 hops; the
    bound and the sum are both rechecked before returning.
    """
    _require_naturals(x, y)
    bound = max(x, y).bit_length() + 1
    steps = [(x, y)]
    a, b = x, y
    while a != 0:
        a, b = (a & b) << 1, a ^ b
        steps.append((a, b))
        if len(steps) - 1 > bound:
            raise AssertionError("carry/xor splitting failed to converge")
    if b != x + y:
        raise AssertionError("carry/xor splitting lost the sum")
    return AdditionTrace(steps=tuple(steps), sum=b)
