"""Independent reference implementations the tests check against.

Everything here is written the slow, obvious way on purpose: carries
placed bit position by bit position, predecessors found by scanning a
whole anti-diagonal, depth by literally walking the chain (and, as a
second view, by measuring carry chains), primality by trial division,
tree and Goldbach documents by the standard json encoder.  None of it
shares code with the package.
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


def _split_class(a, b):
    """Node class of the split (a, b) among the splits of a + b."""
    if a == 0:
        return "Root"
    if a % 2:
        return "OddLeaf"
    return "Internal" if brute_predecessors((a, b)) else "ContradictoryEvenLeaf"


def goldbach_document(start, stop, counterexamples, all_odd_leaf_count, per_n=None):
    """The goldbach document as json.dumps lays it out.

    per_n, when given, lists (n, [(p, q, class, depth), ...]) per total.
    """
    payload = {
        "range": [start, stop],
        "checked": (stop - start) // 2 + 1,
        "counterexamples": list(counterexamples),
        "all_odd_leaf_count": all_odd_leaf_count,
    }
    if per_n is not None:
        payload["per_n"] = [
            {
                "n": n,
                "pairs": [
                    {"p": p, "q": q, "class": kind, "depth": depth}
                    for p, q, kind, depth in pairs
                ],
            }
            for n, pairs in per_n
        ]
    return json.dumps(payload, indent=2) + "\n"


def goldbach_json(start, stop, per_n):
    """The goldbach document for the even totals start..stop: prime
    splits by trial division, classes by scanning the anti-diagonal,
    depths by walking the chain."""
    splits = {
        n: [p for p in range(2, n // 2 + 1)
            if trial_division_prime(p) and trial_division_prime(n - p)]
        for n in range(start, stop + 1, 2)
    }
    detail = [
        (n, [(p, n - p, _split_class(p, n - p), chain_depth((p, n - p))) for p in ps])
        for n, ps in splits.items()
    ]
    return goldbach_document(
        start,
        stop,
        [n for n, ps in splits.items() if not ps],
        sum(1 for ps in splits.values() if ps and all(p % 2 for p in ps)),
        detail if per_n else None,
    )


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
