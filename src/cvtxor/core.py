"""Carry/xor word splitting and the recursive addition it drives.

Adding two non-negative integers bitwise produces a carry word and a
carry-free sum word whose total equals the ordinary sum.  Re-splitting
the two words drives the carry to zero in at most one step more than
the width of the wider operand.  Everything here works on plain Python
ints, so operands are arbitrary precision and nothing can overflow.

The two argument rules every module applies live here too: the input
rule (non-negative ints) and the size rule (the per-construction cap).
So does the one text cache every streamed document renders numbers through.
"""

from dataclasses import dataclass

__all__ = ["cvt", "xor", "bit_length", "add_recursive", "AdditionTrace", "LimitError"]


def _require_naturals(*values):
    """The package's one input rule: every operand, coordinate and total
    is an int (TypeError for a bool or anything else) and not negative."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise TypeError(f"expected a non-negative integer, got {v!r}")
        if v < 0:
            raise ValueError(f"expected a non-negative integer, got {v}")


class LimitError(Exception):
    """A requested construction exceeds the active size cap."""


def ensure_within(value, cap, default, what):
    """The size rule: raise LimitError if value is above the active cap.

    cap=None means "use the module default"; anything else overrides it.
    """
    active = default if cap is None else cap
    if value > active:
        raise LimitError(f"{what} {value} exceeds the active limit {active}")


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


def _lanes(values, bound):
    """Lane width in bytes, `ones` (1 per lane) and `values`, each <= bound, one per lane."""
    width = (bound.bit_length() + 8) // 8  # keeps every value below its lane's top bit
    ones = int.from_bytes(b"\x01".ljust(width, b"\x00") * len(values), "little")
    packed = b"".join(v.to_bytes(width, "little") for v in values)
    return width, ones, int.from_bytes(packed, "little")


def _lane_depths(x, y, ones, width):
    """Depths of many pairs at once, in lane order: lane k is the k-th
    `width`-byte field of x and y, and `ones` holds 1 in each lane.  Each round
    adds 1 to every lane whose carry word is not 0 yet (Warren, Hacker's
    Delight, ch. 6).  Every lane value must stay below the lane's top bit; a
    carry word never exceeds its sum, so bounding the sums does it, and then no
    lane spills into the next.  So a depth is at most 8 * width: below 32-byte
    lanes it is each lane's low byte (a bytes object), from there a whole lane."""
    top = 8 * width - 1
    low, high = ones * ((1 << top) - 1), ones << top
    count = 0
    while x:
        count += ((x + low) & high) >> top  # no `| x`: the top bits are clear
        x, y = (x & y) << 1, x ^ y
    lanes = count.to_bytes(-(-ones.bit_length() // (8 * width)) * width, "little")
    if width < 32:
        return lanes[::width]
    return [int.from_bytes(lanes[k:k + width], "little") for k in range(0, len(lanes), width)]


class _Labels(dict):
    """Text per key, rendered by `render` on the first lookup of each key."""

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, key):
        text = self[key] = self.render(key)
        return text


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
