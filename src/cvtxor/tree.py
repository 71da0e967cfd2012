"""Convergence trees over all ordered two-part splits of a sum.

For a total n, every pair (a, b) with a + b = n maps to its
(carry, xor) image, which sums to n again; iterating always lands on
(0, n).  That induces a tree on the n + 1 splits, rooted at (0, n).
The root is a fixed point of the map; its self-loop is kept as
metadata (and drawn by the exporters), never stored as a parent edge.
"""

from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .core import _require_naturals, ensure_within

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
    """Unpack, then the input rule: once per public pair call, never in a loop."""
    try:
        x, y = pair
    except ValueError:
        raise ValueError(f"expected a pair of two coordinates, got {pair!r}") from None
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
    return set(_preds(*_checked_pair(pair)))


def _preds(x, y):
    if x & 1 or (x >> 1) & y:
        return
    base = x >> 1
    t = y
    while True:
        yield (base | t, base | (y ^ t))
        if t == 0:
            return
        t = (t - 1) & y


def predecessor_count(pair) -> int:
    """len(predecessors_of(pair)) without the set: zero on contradiction or odd
    first coordinate, else 2 to the number of set bits of the second coordinate."""
    return _pred_count(*_checked_pair(pair))


def _pred_count(x, y):
    if x & 1 or (x >> 1) & y:
        return 0
    return 1 << y.bit_count()


def classify_node(pair) -> NodeClass:
    """Root / OddLeaf / ContradictoryEvenLeaf / Internal, by bit scan.

    Agrees with emptiness of predecessors_of without paying for the
    enumeration: a contradiction position is a set carry bit directly
    above a set xor bit.
    """
    return NodeClass(_class_name(*_checked_pair(pair)))


def _class_name(x, y):
    """The NodeClass value of (x, y): the one copy of the class rule."""
    if x == 0:
        return "Root"
    if x & 1:
        return "OddLeaf"
    if (x >> 1) & y:
        return "ContradictoryEvenLeaf"
    return "Internal"


def depth_of(pair) -> int:
    """Parent hops from the pair to the root of its own sum's tree."""
    return _depth(*_checked_pair(pair))


def _depth(x, y):
    d = 0
    while x:
        x, y = (x & y) << 1, x ^ y
        d += 1
    return d


@dataclass(frozen=True)
class CvtXorTree:
    """Immutable tree for one sum: share freely across readers.

    Node a is the split (a, n - a), and both fields are tuples indexed
    by a: parent[a] is the node it steps to, (a & (n - a)) << 1, or
    None at the root 0; depth[a] is the hop count to the root.
    """

    n: int
    parent: tuple
    depth: tuple

    @cached_property
    def children(self) -> tuple:
        """children[a]: the ascending nodes stepping to a, derived on first read, then kept."""
        kids = [[] for _ in self.parent]
        for a, p in enumerate(self.parent):
            if p is not None:
                kids[p].append(a)
        return tuple(map(tuple, kids))

    @property
    def nodes(self) -> range:
        return range(self.n + 1)

    @property
    def root(self) -> tuple:
        return (0, self.n)

    @property
    def edge_count(self) -> int:
        return self.n


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
        for kid, _ in _preds(a, n - a):
            if kid != a:  # only the root is its own predecessor
                parent[kid] = a
                depth[kid] = d
                queue.append(kid)
    return CvtXorTree(n, tuple(parent), tuple(depth))


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
        chain, cur = [], a
        while depth[cur] is None:
            chain.append(cur)
            cur = (cur & (n - cur)) << 1
        d = depth[cur]
        for link in reversed(chain):
            parent[link] = cur
            d += 1
            depth[link] = d
            cur = link
    return CvtXorTree(n, tuple(parent), tuple(depth))


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
    count = tree.n + 1
    return TreeStats(
        node_count=count,
        leaf_count=tree.n - len(set(tree.parent[1:]).difference((0,))),
        max_depth=max(tree.depth),
        average_depth=Fraction(sum(tree.depth), count),
        nodes_per_depth=dict(sorted(Counter(tree.depth).items())),
    )


_CHUNK = 1024  # nodes per rendered piece: few writes, and each piece stays small


def _dot_lines(tree):
    """export_dot's document, a chunk of nodes at a time."""
    n, parent = tree.n, tree.parent
    ends = {p: f'"({p},{n - p})";\n' for p in set(parent) - {None}}  # root and internal nodes
    yield f"digraph cvtxor_{n} {{\n"
    yield f'  "(0,{n})" [shape=doublecircle];\n'
    for lo in range(1, n + 1, _CHUNK):
        yield "".join([f'  "({a},{n - a})";\n' for a in range(lo, min(lo + _CHUNK, n + 1))])
    yield f'  "(0,{n})" -> "(0,{n})" [label="self"];\n'
    for lo in range(1, n + 1, _CHUNK):
        hi = min(lo + _CHUNK, n + 1)
        parts = [None, None] * (hi - lo)
        parts[0::2] = [f'  "({a},{n - a})" -> ' for a in range(lo, hi)]
        parts[1::2] = map(ends.__getitem__, parent[lo:hi])
        yield "".join(parts)
    yield "}\n"


def export_dot(tree: CvtXorTree) -> str:
    """Graphviz document: child -> parent edges, the root double-circled
    and carrying its "self" loop.  Byte-deterministic for a given n."""
    return "".join(_dot_lines(tree))


def _json_lines(tree):
    """export_json's document a chunk of nodes at a time, in json.dumps(indent=2)'s layout."""
    n, parent, depth = tree.n, tree.parent, tree.depth
    decimals = list(map(str, range(max(depth) + 1)))
    links = {p: f"[\n        {p},\n        {n - p}\n      ]" for p in set(parent) - {None}}
    links[None] = "null"
    node = [',\n    {\n      "x": ', None, None, ',\n      "class": "', None,
            '",\n      "parent": ', None, "\n    }"]  # None slots are filled per chunk
    yield f'{{\n  "n": {n},\n  "node_count": {n + 1},\n  "nodes": ['
    for lo in range(0, n + 1, _CHUNK):
        hi = min(lo + _CHUNK, n + 1)
        parts = node * (hi - lo)
        parts[1::8] = [f'{a},\n      "y": {n - a},\n      "depth": ' for a in range(lo, hi)]
        parts[2::8] = map(decimals.__getitem__, depth[lo:hi])
        parts[4::8] = map(_class_name, range(lo, hi), range(n - lo, n - hi, -1))
        parts[6::8] = map(links.__getitem__, parent[lo:hi])
        if lo == 0:
            parts[0] = parts[0][1:]  # node 0 takes no separator
        yield "".join(parts)
    yield "\n  ]\n}\n"


def export_json(tree: CvtXorTree) -> str:
    """Lossless structured dump, nodes in the order a = 0..n.

    Top-level keys: "n", "node_count", "nodes"; each node carries x, y,
    depth, class, and parent ([x, y], or null for the root).
    """
    return "".join(_json_lines(tree))
