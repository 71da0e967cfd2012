"""Output checks that share no code with cvtxor.

Every oracle here starts from the definitions: the step
(x, y) -> ((x & y) << 1, x ^ y), the carry word x + y - (x ^ y), walks up
parent chains, counts over whole anti-diagonals, and a private sieve.
check(job, data) returns a list of problems; an empty list means the
output bytes are right.
"""

import json
import random
import re
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from math import isqrt

__all__ = ["check", "prime_splits"]

_MAX_PROBLEMS = 5


def _sieve(limit):
    """Flags indexed 0..limit, 1 exactly at the primes."""
    flags = bytearray([1]) * (limit + 1)
    flags[: min(2, limit + 1)] = bytes(min(2, limit + 1))
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


def prime_splits(start, stop):
    """For each even n in [start, stop], every prime p <= n - p with n - p
    prime, ascending."""
    flags = _sieve(stop)
    primes = [p for p in range(2, stop // 2 + 1) if flags[p]]
    return {
        n: [p for p in primes[: bisect_right(primes, n // 2)] if flags[n - p]]
        for n in range(start, stop + 1, 2)
    }


def _step(x, y):
    return (x & y) << 1, x ^ y


def _depth(x, y):
    d = 0
    while x:
        x, y = _step(x, y)
        d += 1
    return d


def _classify(x, y):
    # A pair has a predecessor (a, b) iff a & b == x >> 1 and a ^ b == y for
    # some a, b; AND and XOR bits are disjoint, so that needs an even x whose
    # half shares no bit with y.
    if x == 0:
        return "Root"
    if x & 1:
        return "OddLeaf"
    return "ContradictoryEvenLeaf" if (x >> 1) & y else "Internal"


def _tree_arrays(n):
    """First coordinate of each split's parent, and each split's depth."""
    parent = [(a & (n - a)) << 1 for a in range(n + 1)]
    depth = [-1] * (n + 1)
    depth[0] = 0
    for a in range(1, n + 1):
        chain = []
        x = a
        while depth[x] < 0:
            chain.append(x)
            x = parent[x]
        d = depth[x]
        for x in reversed(chain):
            d += 1
            depth[x] = d
    return parent, depth


class _Problems(list):
    def add(self, message):
        if len(self) < _MAX_PROBLEMS:
            self.append(message)


def _check_stats(n, text, problems):
    parent, depth = _tree_arrays(n)
    children = Counter(parent[1:])
    leaves = sum(1 for a in range(1, n + 1) if not children[a])
    avg = Fraction(sum(depth), n + 1)
    per_depth = Counter(depth)
    expected = (
        f"node_count: {n + 1}\n"
        f"leaf_count: {leaves}\n"
        f"max_depth: {max(depth)}\n"
        f"average_depth: {avg} ({avg.numerator / avg.denominator:.6f})\n"
        f"nodes_per_depth: {' '.join(f'{d}:{per_depth[d]}' for d in sorted(per_depth))}\n"
    )
    if text != expected:
        problems.add(f"stats {n}: output differs from the recomputed summary")


_VERTEX = re.compile(r'  "\((\d+),(\d+)\)"( \[shape=doublecircle\])?;')
_EDGE = re.compile(r'  "\((\d+),(\d+)\)" -> "\((\d+),(\d+)\)"( \[label="self"\])?;')


def _check_dot(n, text, problems):
    lines = text.split("\n")
    if lines[0] != f"digraph cvtxor_{n} {{" or lines[-2:] != ["}", ""]:
        problems.add(f"dot {n}: bad header or footer")
        return
    root = (0, n)
    vertices, children, marked, loops = set(), set(), [], []
    for line in lines[1:-2]:
        if m := _EDGE.fullmatch(line):
            child = (int(m[1]), int(m[2]))
            par = (int(m[3]), int(m[4]))
            if m[5]:
                loops.append((child, par))
            elif child == root or child in children or par != _step(*child):
                problems.add(f"dot {n}: bad edge {line.strip()}")
            else:
                children.add(child)
        elif m := _VERTEX.fullmatch(line):
            v = (int(m[1]), int(m[2]))
            if v in vertices or sum(v) != n:
                problems.add(f"dot {n}: bad or repeated vertex {v}")
            vertices.add(v)
            if m[3]:
                marked.append(v)
        else:
            problems.add(f"dot {n}: unparsed line {line[:60]!r}")
    if len(vertices) != n + 1:
        problems.add(f"dot {n}: {len(vertices)} vertices, expected {n + 1}")
    if len(children) != n or not children <= vertices:
        problems.add(f"dot {n}: {len(children)} tree edges, expected {n}")
    if marked != [root] or loops != [(root, root)]:
        problems.add(f"dot {n}: root marking or self loop wrong")


def _check_tree_json(n, text, problems):
    doc = json.loads(text)
    nodes = doc["nodes"]
    if doc["n"] != n or doc["node_count"] != n + 1 or len(nodes) != n + 1:
        problems.add(f"json {n}: wrong node count")
        return
    by_x = {}
    for node in nodes:
        x, y = node["x"], node["y"]
        if x + y != n or x in by_x:
            problems.add(f"json {n}: bad or repeated node ({x},{y})")
            return
        by_x[x] = node
    has_children = {node["parent"][0] for node in nodes if node["parent"] is not None}
    for x, node in by_x.items():
        y, par = node["y"], node["parent"]
        if x == 0:
            ok = par is None and node["depth"] == 0
        else:
            ok = par == list(_step(x, y)) and node["depth"] == by_x[par[0]]["depth"] + 1
        if x == 0:
            cls = "Root"
        elif x in has_children:
            cls = "Internal"
        else:
            cls = "OddLeaf" if x & 1 else "ContradictoryEvenLeaf"
        if not ok or node["class"] != cls:
            problems.add(f"json {n}: node ({x},{y}) has a wrong parent, depth or class")


def _diagonal_children(n):
    """Child count of each node of tree n, by counting step images."""
    return Counter(_step(a, n - a) for a in range(1, n + 1))


def _check_matrix(kind, n_max, text, problems):
    lines = text.split("\n")
    size = n_max + 1
    if lines[0] != "i\\j," + ",".join(map(str, range(size))) or len(lines) != size + 2 \
            or lines[-1] != "":
        problems.add(f"matrix {kind} {n_max}: bad header or row count")
        return
    rows = []
    for i, line in enumerate(lines[1:-1]):
        fields = line.split(",")
        if fields[0] != str(i) or len(fields) != size + 1:
            problems.add(f"matrix {kind} {n_max}: malformed row {i}")
            return
        rows.append(fields[1:])

    diagonals = {}

    def expected(i, j):
        if kind == "depth":
            return str(_depth(i, j))
        if kind == "parent":
            return "({};{})".format(*_step(i, j))
        if i + j not in diagonals:
            diagonals[i + j] = _diagonal_children(i + j)
        return str(diagonals[i + j][(i, j)])

    rng = random.Random(f"check:{kind}:{n_max}")
    picks = sorted({0, n_max, *rng.sample(range(size), min(size, 4))})
    cells = {(i, j) for i in picks for j in range(size)}
    cells |= {(n - k, k) for n in picks for k in range(n + 1)}
    for i, j in sorted(cells):
        if rows[i][j] != expected(i, j):
            problems.add(f"matrix {kind} {n_max}: cell ({i},{j}) is {rows[i][j]}")
    if kind == "freq":
        for n in range(size):
            if sum(int(rows[n - k][k]) for k in range(n + 1)) != n:
                problems.add(f"matrix freq {n_max}: anti-diagonal {n} does not sum to {n}")


def _check_pgm(limit, text, problems):
    odds = range(1, limit + 1, 2)
    grid = [[x + y - (x ^ y) for x in odds] for y in odds]
    peak = max(max(row) for row in grid)
    stated = min(peak, 65535)
    lines = ["P2", f"{len(odds)} {len(odds)}", str(stated)]
    lines += [" ".join(str(v * stated // peak) for v in row) for row in grid]
    if text != "\n".join(lines) + "\n":
        problems.add(f"fractal {limit}: output differs from the recomputed grid")


def _goldbach_totals(start, stop, flags):
    """(counterexamples, all-odd-leaf count) over the even totals in range."""
    bits = int(flags[::-1].translate(bytes.maketrans(b"\x00\x01", b"01")), 2)
    evens = int.from_bytes(b"\x55" * (stop // 8 + 1), "little")
    want = evens & ((1 << (stop + 1)) - 1) & ~((1 << start) - 1)
    covered = 0
    p = 1
    while want & ~covered:
        p = flags.find(1, p + 1)
        if p < 0 or p > stop // 2:
            break
        covered |= bits << p
    missing = want & ~covered
    counterexamples = [n for n in range(start, stop + 1, 2) if missing >> n & 1]
    odd_only = flags[start - 2 : stop - 1 : 2].count(0)
    odd_only -= sum(1 for n in counterexamples if not flags[n - 2])
    return counterexamples, odd_only


def _check_goldbach(start, stop, per_n, text, problems):
    flags = _sieve(stop)
    counterexamples, odd_only = _goldbach_totals(start, stop, flags)
    expected = {
        "range": [start, stop],
        "checked": (stop - start) // 2 + 1,
        "counterexamples": counterexamples,
        "all_odd_leaf_count": odd_only,
    }
    if per_n:
        expected["per_n"] = [
            {
                "n": n,
                "pairs": [
                    {"p": p, "q": n - p, "class": _classify(p, n - p), "depth": _depth(p, n - p)}
                    for p in splits
                ],
            }
            for n, splits in prime_splits(start, stop).items()
        ]
    if json.loads(text) != expected:
        problems.add(f"goldbach {start}..{stop}: summary differs from the recomputed one")


def _check_triangle(t, text, problems):
    flags = _sieve(t)
    lines = []
    for n in range(2, t + 1, 2):
        cells = (
            f"{n - (k ^ (n - k))}{'*' if flags[k] and flags[n - k] else ''}"
            for k in range(1, n, 2)
        )
        lines.append(f"{n}: " + " ".join(cells))
    if text != "\n".join(lines) + "\n":
        problems.add(f"triangle {t}: output differs from the recomputed rows")


def check(job, data):
    """Problems found in one job's output bytes (empty when correct)."""
    problems = _Problems()
    try:
        text = data.decode("utf-8")
        p = job.params
        if job.kind == "stats":
            _check_stats(p["n"], text, problems)
        elif job.kind == "dot":
            _check_dot(p["n"], text, problems)
        elif job.kind == "json":
            _check_tree_json(p["n"], text, problems)
        elif job.kind == "matrix":
            _check_matrix(p["kind"], p["n_max"], text, problems)
        elif job.kind == "fractal":
            _check_pgm(p["limit"], text, problems)
        elif job.kind == "triangle":
            _check_triangle(p["t"], text, problems)
        else:
            _check_goldbach(p["start"], p["stop"], job.kind == "per_n", text, problems)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.add(f"{job.kind}: unreadable output ({type(exc).__name__}: {exc})")
    return list(problems)
