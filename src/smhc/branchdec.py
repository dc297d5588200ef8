"""Branch decompositions and width computation for symmetric cut functions.

A decomposition is a subcubic tree plus a bijection from its leaves onto a
set of elements (vertex ids).  Each tree edge induces a cut of the element
set; the f-width is the maximum f over those cuts.  Validation walks the
tree once and keeps that walk: a post-order with each node's parent and
the element mask below it, from which `cuts` reads every cut and along
which the solver runs.

The exact minimum-width search minimizes over element subsets rather than
enumerating labeled subcubic trees: every rooted binary merge order
corresponds to a subcubic tree, so minimizing over subset partitions is
equivalent and exponentially cheaper.  It evaluates f once per cut and
prunes by branch and bound, with a bound that keeps the first minimal
split and each sub-search capped at its parent's current best, so it
picks the tree the full subset program picks.  It and the greedy
bisection both turn their choice of split per subset into a plain table
(edges, leaf_map) through one builder, `_binary_tree`, and return it
unvalidated: the pipeline glues a graph's tables into one tree and
validates that.  `approx_decomposition` picks between the searches by the
number of elements alone: exact up to EXACT_SIZE_LIMIT.
"""

from __future__ import annotations

from .graph import bits, mask_of

EXACT_SIZE_LIMIT = 12


class SizeLimitExceeded(ValueError):
    """Raised when an exact oracle is asked about an instance over its limit."""


class BranchDecomposition:
    """Subcubic tree with leaves bijectively mapped to elements."""

    def __init__(self, edges: list[tuple[int, int]], leaf_map: dict[int, int]):
        self.edges = sorted(tuple(sorted(e)) for e in edges)
        self.leaf_map = dict(leaf_map)
        nodes = set(self.leaf_map)
        for u, v in self.edges:
            nodes.add(u)
            nodes.add(v)
        self.nodes = sorted(nodes)
        self._adj: dict[int, list[int]] = {u: [] for u in self.nodes}
        for u, v in self.edges:
            self._adj[u].append(v)
            self._adj[v].append(u)
        self.elements = mask_of(self.leaf_map.values())
        self.validate()

    def validate(self) -> None:
        """Check the tree and record one walk of it.

        `post_order` is rooted at a subdivision of edges[0] = (x, y): it
        visits x's subtree before y's, and each node's children in `_adj`
        order.  With it go `parent` (None at x and y) and `below`, the
        element mask under each node.  A node reached twice (a cycle) or
        never (a second component) raises.
        """
        n_nodes = len(self.nodes)
        if len(self.edges) != n_nodes - 1:
            raise ValueError("decomposition tree is not a tree")
        if self.edges:
            x, y = self.edges[0]
            stack = [(x, y), (y, x)]  # y pops first, so its subtree ends last
        else:
            stack = [(self.nodes[0], None)]
        parent: dict[int, int | None] = {}
        while stack:
            node, up = stack.pop()
            if node in parent:
                raise ValueError("decomposition tree has a cycle")
            parent[node] = up
            stack.extend((w, node) for w in self._adj[node] if w != up)
        if len(parent) != n_nodes:
            raise ValueError("decomposition tree is disconnected")
        if self.edges:
            parent[x] = parent[y] = None
        self.post_order = list(parent)[::-1]
        self.parent = parent
        self.below = below = dict.fromkeys(parent, 0)
        for node in self.post_order:
            if node in self.leaf_map:
                below[node] |= 1 << self.leaf_map[node]
            if parent[node] is not None:
                below[parent[node]] |= below[node]
        vals = list(self.leaf_map.values())
        if len(set(vals)) != len(vals):
            raise ValueError("leaf_map is not injective")
        for u in self.nodes:
            deg = len(self._adj[u])
            if u in self.leaf_map:
                if deg > 1:
                    raise ValueError(f"leaf node {u} has degree {deg}")
            else:
                if n_nodes > 2 and deg != 3:
                    raise ValueError(f"internal node {u} has degree {deg}")

    # -- cuts --------------------------------------------------------------

    def cuts(self) -> list[tuple[int, int]]:
        """One (side_a, side_b) element-mask pair per tree edge (u, v), the
        side holding u first."""
        below, full = self.below, self.elements
        out = []
        for u, v in self.edges:
            side = below[u] if self.parent[u] == v else full & ~below[v]
            out.append((side, full & ~side))
        return out

    def f_width(self, f) -> int:
        """Maximum of f over all induced cuts (0 for a single leaf)."""
        width = 0
        for a, _ in self.cuts():
            width = max(width, f(a))
        return width

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"nodes": list(self.nodes),
                "edges": [list(e) for e in self.edges],
                "leaf_map": {str(k): v for k, v in self.leaf_map.items()}}

    @classmethod
    def from_json(cls, data: dict) -> "BranchDecomposition":
        """Inverse of `to_json`; any malformed input raises ValueError, a
        boolean node id or leaf vertex too (JSON's true and false are not
        vertex ids, though Python reads them as 1 and 0)."""
        if (not isinstance(data, dict) or not isinstance(data.get("edges"), list)
                or not isinstance(data.get("leaf_map"), dict)):
            raise ValueError("decomposition needs 'edges' (list) and 'leaf_map' (object)")
        try:
            edges = [tuple(e) for e in data["edges"]]
            leaf_map = {int(k): v for k, v in data["leaf_map"].items()}
            if any(isinstance(x, bool) for x in [*data["leaf_map"], *leaf_map.values(),
                                                 *(x for e in edges for x in e)]):
                raise ValueError("malformed decomposition: a node id or leaf vertex is a boolean")
            return cls(edges, leaf_map)
        except TypeError as exc:
            raise ValueError(f"malformed decomposition: {exc}") from exc


# -- building a tree from a recursive bisection ------------------------------

def _binary_tree(full: int, split) -> tuple[list, dict]:
    """Table (edges, leaf_map) of the tree of the recursive bisection of
    the element mask `full`, where `split(mask)` is the left part of a mask
    of two or more elements: a non-empty proper part of it, or ValueError.

    Nodes are numbered in post-order (left subtree, right subtree, then
    the node) from the highest element + 1, and the two halves of `full`
    are joined by the root edge.  A single element is node 0.
    """
    if not full & (full - 1):
        return [], {0: full.bit_length() - 1}
    edges: list[tuple[int, int]] = []
    leaf_map: dict[int, int] = {}
    done: list[int] = []  # roots of the finished subtrees, left before right
    stack = [(full, 0)]  # (mask, its left part once split)
    node = full.bit_length()
    while stack:
        mask, part = stack.pop()
        if not part and mask & (mask - 1):
            part = split(mask)
            if part & ~mask or part in (0, mask):
                raise ValueError(f"split({mask:#x}) gave {part:#x}, not a proper part")
            stack += [(mask, part), (mask ^ part, 0), (part, 0)]
            continue
        if part:
            right, left = done.pop(), done.pop()
            edges += [(node, left), (node, right)]
        else:
            leaf_map[node] = mask.bit_length() - 1
        done.append(node)
        node += 1
    (_, left), (_, right) = edges[-2:]  # the node of `full`, numbered last,
    edges[-2:] = [(left, right)]        # gives way to the root edge
    return edges, leaf_map


# -- exact minimum-width search -------------------------------------------

def _small_tree(elements: list[int]) -> tuple[list, dict]:
    """Table of the one tree on one or two elements: nodes 0 and 1 in
    list order, joined by the root edge."""
    return [(0, 1)][:len(elements) - 1], dict(enumerate(elements))


def exact_branch_width(elements: list[int], f) -> tuple[int, tuple[list, dict]]:
    """Minimum f-width over all branch decompositions of the element list,
    and the table (edges, leaf_map) of a tree that attains it.

    For an index subset m of two or more elements, its best is the least
    cand = max(val[part], val[m ^ part]) over the parts holding m's lowest
    element, the first in numeric order winning, and val[m] = max(f(m),
    best), or best alone for the full set; a single element's val is its f.
    The search solves subsets top-down from the full set, each only when a
    part reaches it, and makes the choices that the bottom-up program over
    every subset makes.  `lower[m]` is a lower bound on val[m], f(m) at
    first:

    - a part with max(lower[part], lower[m ^ part]) ≥ the best so far
      cannot lower it strictly and is skipped unsolved;
    - every val is at least the f of some single element (by induction),
      so no cand is below `floor`, the least of those, and the first cand
      equal to it is the first minimum: the rest of m is skipped;
    - a subset is solved with its parent's current best as both its start
      and its cap.  If no part of it has cand < cap, then val[m] ≥ cap,
      so the parent could not improve through it: the search stores cap
      in lower[m] (above f(m), as the parent only solves parts whose
      lower is below its best), leaves val[m] unset and records no choice.
      A superset whose best is above cap solves m again and finds a best
      ≥ cap > f(m), so max(lower[m], best) is still val[m] and the first
      minimal part is still the choice.

    f is evaluated once per cut, on the side without the highest element,
    and never on the empty or full set; on one element, never.
    """
    k = len(elements)
    if not k:
        raise ValueError("exact branch width needs at least one element")
    if k <= 2:
        return f(1 << elements[0]) if k == 2 else 0, _small_tree(elements)
    masks = [0]  # masks[s]: element mask of the index subset s
    for v in sorted(elements):
        masks += [m | 1 << v for m in masks]
    top = len(masks) - 1
    lower = [0] * len(masks)  # lower[s] ≤ val[s], f(masks[s]) until capped
    for s in range(1, len(masks) >> 1):
        lower[s] = lower[top ^ s] = f(masks[s])
    val: list[int | None] = [None] * len(masks)
    for i in range(k):
        val[1 << i] = lower[1 << i]
    floor = min(lower[1 << i] for i in range(k))
    above = max(lower) + 1  # above every cand: each val is a max of f's
    choice: dict[int, int] = {}
    stack = [(top, 0, above, 0, above)]  # (subset, next sub, best so far, its part, cap)
    while stack:
        m, sub, best, bestpart, cap = stack.pop()
        low = m & -m
        rest = m ^ low
        while sub != rest and best != floor:  # the parts holding `low` but
            part = sub | low                  # not all of m, in numeric order
            other = m ^ part
            if lower[part] < best > lower[other]:
                a, b = val[part], val[other]
                if a is None or b is None:  # solve that side, then come back
                    stack += [(m, sub, best, bestpart, cap),
                              (part if a is None else other, 0, best, 0, best)]
                    break
                cand = a if a > b else b
                if cand < best:
                    best, bestpart = cand, part
            sub = (sub - rest) & rest
        else:
            if best < cap:  # always so at the top, whose cap `above` exceeds every cand
                choice[masks[m]] = masks[bestpart]
                val[m] = best if m == top else max(lower[m], best)
            else:  # no part of m beats its parent's best: val[m] >= cap
                lower[m] = cap
    return val[top], _binary_tree(masks[top], choice.__getitem__)


# -- greedy bisection, and the choice by size --------------------------------

def greedy_decomposition(f, elements: list[int]) -> tuple[list, dict]:
    """Table of the recursive balanced bisection by deterministic local
    search on f: each step moves the lowest element whose move lowers f
    and keeps both parts at a third or more, until no move does."""

    def bisect(rest: int) -> int:
        items = list(bits(rest))
        third = len(items) // 3
        a = mask_of(items[:len(items) // 2])
        cur = f(a)
        while True:
            for v in items:
                na = a ^ 1 << v
                if not (na & rest) or na == rest:
                    continue
                if na.bit_count() < third or (rest & ~na).bit_count() < third:
                    continue
                val = f(na)
                if val < cur:
                    a, cur = na, val
                    break
            else:
                return a

    return _binary_tree(mask_of(elements), bisect)


def approx_decomposition(f, elements: list[int]) -> tuple[list, dict]:
    """Table of a decomposition of the element set under the symmetric cut
    function f: `exact_branch_width`'s tree on at most EXACT_SIZE_LIMIT
    elements and `greedy_decomposition`'s above.

    On at most three elements it builds the exact tree without
    evaluating f.  One or two elements have one tree, whose width the
    search evaluates and this discards.  On x < y < z, f({y, z}) =
    f({x}), so each of the three splits costs max(f(x), f(y), f(z)) and
    the search keeps the first, the lowest element.
    """
    if len(elements) > EXACT_SIZE_LIMIT:
        return greedy_decomposition(f, elements)
    if len(elements) < 3:
        return _small_tree(sorted(elements))
    if len(elements) == 3:
        return _binary_tree(mask_of(elements), lambda m: m & -m)
    return exact_branch_width(sorted(elements), f)[1]
