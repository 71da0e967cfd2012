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
    x, y = pair
    if x < 0 or y < 0:
        raise ValueError("operands must be non-negative integers")
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

    parent has no entry for the root; children holds a (possibly empty)
    ascending tuple for every node, so edge count == len(parent) == n.
    """

    n: int
    nodes: frozenset
    parent: dict
    children: dict
    depth: dict

    @property
    def root(self) -> tuple:
        return (0, self.n)

    @property
    def edge_count(self) -> int:
        return len(self.parent)


def build_top_down(n: int, cap: int | None = None) -> CvtXorTree:
    """Breadth-first expansion from (0, n) through predecessor sets.

    Children are stored ascending by first coordinate, which makes the
    whole structure (and every export) deterministic.
    """
    ensure_within(n, cap, DEFAULT_TREE_CAP, "tree sum")
    root = (0, n)
    nodes = {root}
    parent = {}
    children = {}
    depth = {root: 0}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        kids = sorted(p for p in predecessors_of(node) if p != node)
        children[node] = tuple(kids)
        d = depth[node] + 1
        for kid in kids:
            nodes.add(kid)
            parent[kid] = node
            depth[kid] = d
            queue.append(kid)
    return CvtXorTree(
        n=n, nodes=frozenset(nodes), parent=parent, children=children, depth=depth
    )


def build_bottom_up(n: int, cap: int | None = None) -> CvtXorTree:
    """Walk every split (a, n - a) up its parent chain, merging shared
    ancestry, until every chain lands on (0, n).

    Node-for-node and edge-for-edge identical to build_top_down(n).
    """
    if n < 0:
        raise ValueError("tree sum must be non-negative")
    ensure_within(n, cap, DEFAULT_TREE_CAP, "tree sum")
    root = (0, n)
    depth = {root: 0}
    parent = {}
    for a in range(1, n + 1):
        chain = []
        cur = (a, n - a)
        while cur not in depth:
            chain.append(cur)
            cur = parent_of(cur)
        d = depth[cur]
        anchor = cur
        for link in reversed(chain):
            parent[link] = anchor
            d += 1
            depth[link] = d
            anchor = link
    kids = {node: [] for node in depth}
    for child, par in parent.items():
        kids[par].append(child)
    children = {node: tuple(sorted(k)) for node, k in kids.items()}
    return CvtXorTree(
        n=n, nodes=frozenset(depth), parent=parent, children=children, depth=depth
    )


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
    per_depth = {}
    for d in tree.depth.values():
        per_depth[d] = per_depth.get(d, 0) + 1
    count = len(tree.nodes)
    leaves = sum(
        1 for node in tree.nodes if node != tree.root and not tree.children[node]
    )
    return TreeStats(
        node_count=count,
        leaf_count=leaves,
        max_depth=max(per_depth),
        average_depth=Fraction(sum(tree.depth.values()), count),
        nodes_per_depth=dict(sorted(per_depth.items())),
    )


def export_dot(tree: CvtXorTree) -> str:
    """Graphviz document: child -> parent edges, the root double-circled
    and carrying its "self" loop.  Byte-deterministic for a given n."""
    lines = [f"digraph cvtxor_{tree.n} {{"]
    for x, y in sorted(tree.nodes):
        attr = " [shape=doublecircle]" if (x, y) == tree.root else ""
        lines.append(f'  "({x},{y})"{attr};')
    rx, ry = tree.root
    lines.append(f'  "({rx},{ry})" -> "({rx},{ry})" [label="self"];')
    for cx, cy in sorted(tree.parent):
        px, py = tree.parent[(cx, cy)]
        lines.append(f'  "({cx},{cy})" -> "({px},{py})";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(tree: CvtXorTree) -> str:
    """Lossless structured dump, nodes sorted by coordinates.

    Top-level keys: "n", "node_count", "nodes"; each node carries x, y,
    depth, class, and parent ([x, y], or null for the root).
    """
    nodes = []
    for x, y in sorted(tree.nodes):
        p = tree.parent.get((x, y))
        nodes.append(
            {
                "x": x,
                "y": y,
                "depth": tree.depth[(x, y)],
                "class": classify_node((x, y)).value,
                "parent": list(p) if p is not None else None,
            }
        )
    doc = {"n": tree.n, "node_count": len(tree.nodes), "nodes": nodes}
    return json.dumps(doc, indent=2) + "\n"
