"""Independent reference implementations the tests check against.

Everything here is written the slow, obvious way on purpose: carries
placed bit position by bit position, predecessors found by scanning a
whole anti-diagonal, depth by literally walking the chain (and, as a
second view, by measuring carry chains), primality by trial division,
tree documents by the standard json encoder.  None of it shares code
with the package.
"""

import json


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


def _diagonal_parents(n):
    """First coordinate of each split's (carry, xor) image, a = 0..n.

    The image of (a, n - a) sums to n again, so its first coordinate
    names it; a split has predecessors (brute_predecessors is not
    empty) exactly when it is the image of some split.
    """
    return [carry_word(a, n - a) for a in range(n + 1)]


def tree_json(n):
    """The tree document for the total n, encoded by json.dumps."""
    parents = _diagonal_parents(n)
    stepped_to = set(parents[1:])  # the root's step to itself is no child edge
    nodes = []
    for a, p in enumerate(parents):
        if a == 0:
            kind = "Root"
        elif a % 2:
            kind = "OddLeaf"
        elif a not in stepped_to:
            kind = "ContradictoryEvenLeaf"
        else:
            kind = "Internal"
        nodes.append({
            "x": a,
            "y": n - a,
            "depth": chain_depth((a, n - a)),
            "class": kind,
            "parent": [p, n - p] if a else None,
        })
    return json.dumps({"n": n, "node_count": n + 1, "nodes": nodes}, indent=2) + "\n"


def tree_dot(n):
    """The tree for the total n as a Graphviz digraph: one vertex per
    split, the root first and double-circled, then its self loop and one
    child -> parent edge per other split."""
    lines = [f"digraph cvtxor_{n} {{", f'  "(0,{n})" [shape=doublecircle];']
    lines += [f'  "({a},{n - a})";' for a in range(1, n + 1)]
    lines.append(f'  "(0,{n})" -> "(0,{n})" [label="self"];')
    lines += [
        f'  "({a},{n - a})" -> "({p},{n - p})";'
        for a, p in enumerate(_diagonal_parents(n)) if a
    ]
    return "\n".join(lines + ["}"]) + "\n"


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
