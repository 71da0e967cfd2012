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
from itertools import repeat
from operator import and_, lshift

from .core import _lane_depths, _lanes, _require_naturals, ensure_within

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
    x, y = _checked_pair(pair)
    return {(a, x + y - a) for a in _preds(x, y)}


def _preds(x, y):
    """The first coordinates of the predecessors of (x, y); each one's second is x + y - a."""
    if x & 1 or (x >> 1) & y:
        return
    base, t = x >> 1, y
    while True:
        yield base | t
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
    parent, depth = [None] * (n + 1), [0] * (n + 1)
    queue = deque([0])
    while queue:
        a = queue.popleft()
        d = depth[a] + 1
        for kid in _preds(a, n - a):
            if kid != a:  # only the root is its own predecessor
                parent[kid] = a
                depth[kid] = d
                queue.append(kid)
    return CvtXorTree(n, tuple(parent), tuple(depth))


def build_bottom_up(n: int, cap: int | None = None) -> CvtXorTree:
    """Every node's parent and depth from their closed forms, a chunk of
    nodes at a time (_chunks), so no node waits on another.

    Node-for-node and edge-for-edge identical to build_top_down(n).  This
    replaced a walk of each split up its parent chain that merged the
    shared ancestry: at 2^20 the chunks take 0.27-0.32 s and 40 MiB peak
    RSS, the chain merge took 0.42-0.63 s and 48 MiB (2-vCPU Xeon VM,
    Python 3.11).
    """
    _require_naturals(n)
    ensure_within(n, cap, DEFAULT_TREE_CAP, "tree sum")
    parent, depth = [], bytearray()
    for parents, depths in _chunks(n):
        parent += parents
        depth += depths
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


def _class_depth_counts(n):
    """Counter of (class name, depth) over the nodes of the tree for n, by a
    digit DP over n's bits from the least significant: no tree is built.

    A node is the split (a, b = n - a).  Bit a_i is free and b_i is forced
    to n_i ^ a_i ^ carry, and a path whose last carry is 0 is one node.
    The depth is [a != 0] plus the longest carry chain of a + b (Burks,
    Goldstine and von Neumann, 1946): a chain is a run of carry-in bits,
    and a generate bit (a_i = b_i = 1) starts a fresh one.  So the run
    kept per state is 0 unless the next bit continues it.  The class
    follows a_0 and the first contradiction a_{i+1} & b_i; the last b bit
    is kept only while a contradiction can still change the class.
    """
    states = Counter({(0, 0, 0, "Root", 0): 1})  # carry, run, longest run, class, last b bit
    for i in range(n.bit_length()):
        bit, after = n >> i & 1, Counter()
        for (carry, run, longest, kind, last_b), count in states.items():
            run = run + 1 if carry else 0
            longest = max(longest, run)
            for a in (0, 1):
                b = bit ^ a ^ carry
                out = a & b | carry & (a | b)
                grown = ("OddLeaf" if i == 0 else "Internal") if a and kind == "Root" else kind
                if a and last_b and grown == "Internal":
                    grown = "ContradictoryEvenLeaf"
                keep_b = b if grown in ("Root", "Internal") else 0
                after[out, run if out and not a & b else 0, longest, grown, keep_b] += count
        states = after
    counts = Counter()
    for (carry, _, longest, kind, _), count in states.items():
        if not carry:
            counts[kind, longest + (kind != "Root")] += count
    return counts


def _dp_stats(n):
    """tree_stats(build_bottom_up(n)) from _class_depth_counts, without the tree."""
    per_depth, internal = Counter(), 0
    for (kind, depth), count in _class_depth_counts(n).items():
        per_depth[depth] += count
        if kind == "Internal":
            internal += count
    return TreeStats(
        node_count=n + 1,
        leaf_count=n - internal,
        max_depth=max(per_depth),
        average_depth=Fraction(sum(d * count for d, count in per_depth.items()), n + 1),
        nodes_per_depth=dict(sorted(per_depth.items())),
    )


_CHUNK = 1024  # nodes per chunk and per rendered piece: few writes, and each piece stays small


def _chunks(n, depths=True):
    """The tree for n as (parents, depths) per chunk of _CHUNK nodes, each
    from its closed form: node a steps to (a & (n - a)) << 1 (None at the
    root), and one _lane_depths walk over lanes x = lo + k, y = n - lo - k
    gives the chunk's depths (None when depths is false)."""
    width, ones, idx = _lanes(range(_CHUNK), max(n, _CHUNK))  # room for n and for k <= _CHUNK
    for lo in range(0, n + 1, _CHUNK):
        hi = min(lo + _CHUNK, n + 1)
        parents = list(map(lshift, map(and_, range(lo, hi), range(n - lo, n - hi, -1)), repeat(1)))
        if lo == 0:
            parents[0] = None
        hops = None
        if depths:
            m = (1 << 8 * width * (hi - lo)) - 1  # drops the lanes past n
            hops = _lane_depths((lo * ones + idx) & m, ((n - lo) * ones - idx) & m, ones & m, width)
        yield parents, hops


def _slices(tree):
    """A built tree as (parents, depths) per chunk of _CHUNK nodes."""
    for lo in range(0, tree.n + 1, _CHUNK):
        yield tree.parent[lo:lo + _CHUNK], tree.depth[lo:lo + _CHUNK]


class _Labels(dict):
    """Text per key, rendered by `render` on the first lookup of each key."""

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, key):
        text = self[key] = self.render(key)
        return text


def _dot_lines(n, chunks):
    """export_dot's document a chunk of nodes at a time, from (parents, _) chunks."""
    ends = _Labels(lambda p: f'"({p},{n - p})";\n')
    yield f"digraph cvtxor_{n} {{\n"
    yield f'  "(0,{n})" [shape=doublecircle];\n'
    for lo in range(1, n + 1, _CHUNK):
        yield "".join([f'  "({a},{n - a})";\n' for a in range(lo, min(lo + _CHUNK, n + 1))])
    yield f'  "(0,{n})" -> "(0,{n})" [label="self"];\n'
    for lo, (parents, _) in zip(range(0, n + 1, _CHUNK), chunks):
        start, hi = lo or 1, lo + len(parents)  # the root has no parent edge
        parts = [None, None] * (hi - start)
        parts[0::2] = [f'  "({a},{n - a})" -> ' for a in range(start, hi)]
        parts[1::2] = map(ends.__getitem__, parents[start - lo:])
        yield "".join(parts)
    yield "}\n"


def export_dot(tree: CvtXorTree) -> str:
    """Graphviz document: child -> parent edges, the root double-circled
    and carrying its "self" loop.  Byte-deterministic for a given n."""
    return "".join(_dot_lines(tree.n, _slices(tree)))


def _json_lines(n, chunks):
    """export_json's document a chunk of nodes at a time, from (parents, depths)
    chunks, in json.dumps(indent=2)'s layout."""
    decimals = _Labels(str)
    links = _Labels(lambda p: f"[\n        {p},\n        {n - p}\n      ]")
    links[None] = "null"
    node = [',\n    {\n      "x": ', None, None, ',\n      "class": "', None,
            '",\n      "parent": ', None, "\n    }"]  # None slots are filled per chunk
    yield f'{{\n  "n": {n},\n  "node_count": {n + 1},\n  "nodes": ['
    for lo, (parents, depths) in zip(range(0, n + 1, _CHUNK), chunks):
        hi = lo + len(parents)
        parts = node * (hi - lo)
        parts[1::8] = [f'{a},\n      "y": {n - a},\n      "depth": ' for a in range(lo, hi)]
        parts[2::8] = map(decimals.__getitem__, depths)
        parts[4::8] = map(_class_name, range(lo, hi), range(n - lo, n - hi, -1))
        parts[6::8] = map(links.__getitem__, parents)
        if lo == 0:
            parts[0] = parts[0][1:]  # node 0 takes no separator
        yield "".join(parts)
    yield "\n  ]\n}\n"


def export_json(tree: CvtXorTree) -> str:
    """Lossless structured dump, nodes in the order a = 0..n.

    Top-level keys: "n", "node_count", "nodes"; each node carries x, y,
    depth, class, and parent ([x, y], or null for the root).
    """
    return "".join(_json_lines(tree.n, _slices(tree)))
