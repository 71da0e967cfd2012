"""Independent reference implementations the tests check against.

Everything here is written the slow, obvious way on purpose: carries
placed bit position by bit position, predecessors found by scanning a
whole anti-diagonal, depth by literally walking the chain (and, as a
second view, by measuring carry chains), primality by trial division.
None of it shares code with the package.
"""


def carry_word(x, y):
    """Carry out of each bit position, placed one position higher."""
    out = 0
    for i in range(max(x.bit_length(), y.bit_length())):
        if (x >> i) & 1 and (y >> i) & 1:
            out |= 1 << (i + 1)
    return out


def brute_predecessors(pair):
    """All splittings of the same total that step to this pair."""
    a, b = pair
    n = a + b
    return {
        (p, n - p)
        for p in range(n + 1)
        if carry_word(p, n - p) == a and p ^ (n - p) == b
    }


def chain_depth(pair):
    """Steps of (carry, xor) until the carry word dies out."""
    a, b = pair
    steps = 0
    while a:
        a, b = carry_word(a, b), a ^ b
        steps += 1
    return steps


def carry_chain_depth(a, b):
    """Depth in closed form: one hop if a is nonzero, plus the longest
    carry chain of a + b (Burks, Goldstine and von Neumann, 1946).

    A chain is a run of carry-in bits (a + b) ^ a ^ b; a generate
    position (both operand bits set) starts a fresh chain one bit up.
    """
    carries = (a + b) ^ a ^ b
    generates = a & b
    longest = run = 0
    for i in range(carries.bit_length()):
        if not (carries >> i) & 1:
            run = 0
            continue
        if i > 0 and (generates >> (i - 1)) & 1:
            run = 0
        run += 1
        longest = max(longest, run)
    return (1 if a else 0) + longest


def trial_division_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True
