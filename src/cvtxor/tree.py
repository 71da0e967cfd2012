"""Convergence trees over all ordered two-part splits of a sum.

For a total n, every pair (a, b) with a + b = n maps to its
(carry, xor) image, which sums to n again; iterating always lands on
(0, n).  That induces a tree on the n + 1 splits, rooted at (0, n).
The root is a fixed point of the map; its self-loop is kept as
metadata (and drawn by the exporters), never stored as a parent edge.
"""

import json
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .core import _require_naturals
from .limits import ensure_within

__all__ = [
    "DEFAULT_TREE_CAP",
    "NodeClass",
    "CvtXorTree",
    "TreeStats",
    "parent_of",
    "predecessors_of",
    "predecessor_count",
    "classify_node",
    "depth_of",
    "build_top_down",
    "build_bottom_up",
    "tree_stats",
    "export_dot",
    "export_json",
]

DEFAULT_TREE_CAP = 1 << 20


class NodeClass(Enum):
    ROOT = "Root"
    ODD_LEAF = "OddLeaf"
    CONTRADICTORY_EVEN_LEAF = "ContradictoryEvenLeaf"
    INTERNAL = "Internal"


def _checked_pair(pair):
    try:
        x, y = pair
    except ValueError:
        raise ValueError(f"expected a pair of two coordinates, got {pair!r}") from None
    # per-cell callers: plain naturals skip the call, the rest meet the one rule
    if type(x) is not int or type(y) is not int or x < 0 or y < 0:
        _require_naturals(x, y)
    return x, y


def parent_of(pair) -> tuple:
    """(carry, xor) of the pair; a fixed point exactly at (0, n)."""
    x, y = _checked_pair(pair)
    return ((x & y) << 1, x ^ y)


def predecessors_of(pair) -> set:
    """All pairs whose (carry, xor) image is `pair`.

    Per bit position, a set carry bit one place up forces both operand
    bits to 1 when the xor bit is clear and is unsatisfiable when it is
    set; a clear carry bit with a set xor bit leaves a free left/right
    choice; everything else forces 0/0.  An odd first coordinate can
    never be a carry word, so it has no predecessors at all.

    Note (0, n) is mathematically its own predecessor; tree builders
    drop that element, this raw inverse keeps it.
    """
    x, y = _checked_pair(pair)
    if x & 1 or (x >> 1) & y:
        return set()
    base = x >> 1
    preds = set()
    t = y
    while True:
        preds.add((base | t, base | (y ^ t)))
        if t == 0:
            break
        t = (t - 1) & y
    return preds


def predecessor_count(pair) -> int:
    """len(predecessors_of(pair)) without materializing the set.

    Zero on contradiction or odd first coordinate, else 2 to the number
    of free positions (the set bits of the second coordinate).
    """
    x, y = _checked_pair(pair)
    if x & 1 or (x >> 1) & y:
        return 0
    return 1 << y.bit_count()


def classify_node(pair) -> NodeClass:
    """Root / OddLeaf / ContradictoryEvenLeaf / Internal, by bit scan.

    Agrees with emptiness of predecessors_of without paying for the
    enumeration: a contradiction position is a set carry bit directly
    above a set xor bit.
    """
    x, y = _checked_pair(pair)
    if x == 0:
        return NodeClass.ROOT
    if x & 1:
        return NodeClass.ODD_LEAF
    if (x >> 1) & y:
        return NodeClass.CONTRADICTORY_EVEN_LEAF
    return NodeClass.INTERNAL


def depth_of(pair) -> int:
    """Parent hops from the pair to the root of its own sum's tree."""
    x, y = _checked_pair(pair)
    d = 0
    while x:
        x, y = (x & y) << 1, x ^ y
        d += 1
    return d


@dataclass(frozen=True)
class CvtXorTree:
    """Immutable tree for one sum: share freely across readers.

    Node a is the split (a, n - a), and every field is a tuple indexed
    by a: parent[a] is the node it steps to, (a & (n - a)) << 1, or
    None at the root 0; children[a] is the ascending tuple of nodes
    stepping to a; depth[a] is the hop count to the root.
    """

    n: int
    parent: tuple
    children: tuple
    depth: tuple

    @property
    def nodes(self) -> range:
        return range(self.n + 1)

    @property
    def root(self) -> tuple:
        return (0, self.n)

    @property
    def edge_count(self) -> int:
        return self.n


def _tree(n, parent, depth):
    """Freeze a builder's lists; children come out ascending as a runs 0..n."""
    children = [[] for _ in parent]
    for a, p in enumerate(parent):
        if p is not None:
            children[p].append(a)
    return CvtXorTree(n, tuple(parent), tuple(map(tuple, children)), tuple(depth))


def build_top_down(n: int, cap: int | None = None) -> CvtXorTree:
    """Breadth-first expansion from (0, n) through predecessor sets."""
    _require_naturals(n)
    ensure_within(n, cap, DEFAULT_TREE_CAP, "tree sum")
    parent = [None] * (n + 1)
    depth = [0] * (n + 1)
    queue = deque([0])
    while queue:
        a = queue.popleft()
        d = depth[a] + 1
        for kid, _ in predecessors_of((a, n - a)):
            if kid != a:  # only the root is its own predecessor
                parent[kid] = a
                depth[kid] = d
                queue.append(kid)
    return _tree(n, parent, depth)


def build_bottom_up(n: int, cap: int | None = None) -> CvtXorTree:
    """Walk every split (a, n - a) up its parent chain, merging shared
    ancestry, until every chain lands on (0, n).

    Node-for-node and edge-for-edge identical to build_top_down(n).
    """
    _require_naturals(n)
    ensure_within(n, cap, DEFAULT_TREE_CAP, "tree sum")
    parent = [None] * (n + 1)
    depth = [0] + [None] * n
    for a in range(1, n + 1):
        chain = []
        cur = a
        while depth[cur] is None:
            chain.append(cur)
            cur = (cur & (n - cur)) << 1
        d = depth[cur]
        for link in reversed(chain):
            parent[link] = cur
            d += 1
            depth[link] = d
            cur = link
    return _tree(n, parent, depth)


@dataclass(frozen=True)
class TreeStats:
    node_count: int
    leaf_count: int
    max_depth: int
    average_depth: Fraction
    nodes_per_depth: dict


def tree_stats(tree: CvtXorTree) -> TreeStats:
    """Size, leaf, and depth-profile summary of a built tree.

    average_depth is an exact rational; the root never counts as a
    leaf, so the bare tree for n = 0 reports zero leaves.
    """
    per_depth = [0] * (max(tree.depth) + 1)  # a node at depth d has ancestors at every depth below
    for d in tree.depth:
        per_depth[d] += 1
    count = tree.n + 1
    return TreeStats(
        node_count=count,
        leaf_count=sum(1 for kids in tree.children[1:] if not kids),
        max_depth=len(per_depth) - 1,
        average_depth=Fraction(sum(tree.depth), count),
        nodes_per_depth=dict(enumerate(per_depth)),
    )


def export_dot(tree: CvtXorTree) -> str:
    """Graphviz document: child -> parent edges, the root double-circled
    and carrying its "self" loop.  Byte-deterministic for a given n."""
    n = tree.n
    lines = [f"digraph cvtxor_{n} {{", f'  "(0,{n})" [shape=doublecircle];']
    lines += (f'  "({a},{n - a})";' for a in range(1, n + 1))
    lines.append(f'  "(0,{n})" -> "(0,{n})" [label="self"];')
    lines += (
        f'  "({a},{n - a})" -> "({p},{n - p})";'
        for a, p in enumerate(tree.parent)
        if p is not None
    )
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(tree: CvtXorTree) -> str:
    """Lossless structured dump, nodes in the order a = 0..n.

    Top-level keys: "n", "node_count", "nodes"; each node carries x, y,
    depth, class, and parent ([x, y], or null for the root).
    """
    n = tree.n
    nodes = [
        {
            "x": a,
            "y": n - a,
            "depth": tree.depth[a],
            "class": classify_node((a, n - a)).value,
            "parent": [p, n - p] if p is not None else None,
        }
        for a, p in enumerate(tree.parent)
    ]
    doc = {"n": n, "node_count": n + 1, "nodes": nodes}
    return json.dumps(doc, indent=2) + "\n"
