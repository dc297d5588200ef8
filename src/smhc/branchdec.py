"""Branch decompositions and width computation for symmetric cut functions.

A decomposition is a subcubic tree plus a bijection from its leaves onto a
set of elements (vertex ids).  Each tree edge induces a cut of the element
set; the f-width is the maximum f over those cuts.  The constructor
checks the tree in the one walk that it keeps: a post-order with each
node's parent and the element mask below it, from which `cuts` reads
every cut and along which the solver runs.

The exact minimum-width search minimizes over element subsets rather than
enumerating labeled subcubic trees: every rooted binary merge order
corresponds to a subcubic tree, so minimizing over subset partitions is
equivalent and exponentially cheaper.  It evaluates f once per cut and
prunes by branch and bound, with a bound that keeps the first minimal
split and each sub-search capped at its parent's current best, so it
picks the tree the full subset program picks.  It and the caterpillar
over a list of elements both turn their choice of split per subset into
a plain table (edges, leaf_map) through one builder, `_binary_tree`, and
return it unvalidated: the pipeline glues a graph's tables into one tree
and validates that.  `approx_decomposition` picks between them by the
number of elements alone: exact up to EXACT_SIZE_LIMIT, the caterpillar
in the caller's order above it.
"""

from __future__ import annotations

from itertools import chain

from .graph import mask_of

EXACT_SIZE_LIMIT = 12


class SizeLimitExceeded(ValueError):
    """Raised when an exact oracle is asked about an instance over its limit."""


class BranchDecomposition:
    """Subcubic tree with leaves bijectively mapped to elements."""

    def __init__(self, edges: list[tuple[int, int]], leaf_map: dict[int, int]):
        """Build and check the tree in one walk, and keep that walk.

        The edges are normalised to u < v and sorted once, and each
        node's adjacency list is filled in that order.  The checks raise
        ValueError, in this order: not n - 1 edges for n nodes ("not a
        tree"), a node reached twice ("a cycle") or never ("disconnected"),
        a vertex on two leaves, then the first node in id order whose
        degree does not fit: a leaf above 1, or, on more than two nodes,
        an inner node other than 3.  `post_order` is rooted at a
        subdivision of edges[0] = (x, y): it visits x's subtree before
        y's, and each node's children in adjacency order.  With it go
        `parent` (None at x and y) and `below`, the element mask under
        each node.

        Malformed ids raise what the plain forms raise first: when the
        normalisation fails (an edge without two ends, or ends that do
        not compare), the edges are sorted again as
        `sorted(tuple(sorted(e)) for e in edges)`, and when the node ids
        do not sort, they are sorted as the set of the leaves and then
        the edge ends; a TypeError turns into ValueError in `from_json`.
        """
        try:
            self.edges = es = sorted([(v, u) if v < u else (u, v) for u, v in edges])
        except (TypeError, ValueError):  # raise what the full sort raises first
            self.edges = es = sorted(tuple(sorted(e)) for e in edges)
        self.leaf_map = leaves = dict(leaf_map)
        adj: dict[int, list[int]] = {u: [] for u in leaves}
        for u, v in es:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        try:
            self.nodes = sorted(adj)
        except TypeError:  # the message names the types in the set's order
            self.nodes = sorted({*leaves, *(x for e in es for x in e)})
        self._adj = adj
        self.elements = mask_of(leaves.values())
        n_nodes = len(adj)
        if len(es) != n_nodes - 1:
            raise ValueError("decomposition tree is not a tree")
        if es:
            x, y = es[0]
            stack = [(x, y), (y, x)]  # y pops first, so its subtree ends last
        else:
            stack = [(self.nodes[0], None)]
        parent: dict[int, int | None] = {}
        fixed = n_nodes > 2  # whether an inner node needs degree 3
        bad = False  # a node whose degree does not fit
        while stack:
            node, up = stack.pop()
            if node in parent:
                raise ValueError("decomposition tree has a cycle")
            parent[node] = up
            nbrs = adj[node]
            if len(nbrs) > 1 if node in leaves else fixed and len(nbrs) != 3:
                bad = True
            for w in nbrs:
                if w != up:
                    stack.append((w, node))
        if n_nodes != len(parent):
            raise ValueError("decomposition tree is disconnected")
        if es:
            parent[x] = parent[y] = None
        if len(set(leaves.values())) != len(leaves):
            raise ValueError("leaf_map is not injective")
        if bad:
            for u in self.nodes:
                deg = len(adj[u])
                if u in leaves:
                    if deg > 1:
                        raise ValueError(f"leaf node {u} has degree {deg}")
                elif fixed and deg != 3:
                    raise ValueError(f"internal node {u} has degree {deg}")
        self.post_order = list(parent)[::-1]
        self.parent = parent
        self.below = below = dict.fromkeys(parent, 0)
        for node, v in leaves.items():
            below[node] = 1 << v
        for node, up in reversed(parent.items()):  # the post-order
            if up is not None:
                below[up] |= below[node]

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
        edges, leaves = data["edges"], data["leaf_map"]
        try:
            # one pass over the ids for their types; a non-iterable edge raises
            # here, before any key is converted
            kinds = set(map(type, chain(chain.from_iterable(edges), leaves, leaves.values())))
            leaf_map = dict(zip(map(int, leaves), leaves.values()))
            if bool in kinds:
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


# -- the choice by size ---------------------------------------------------

def approx_decomposition(f, elements: list[int]) -> tuple[list, dict]:
    """Table of a decomposition of the element set under the symmetric cut
    function f: `exact_branch_width`'s tree on at most EXACT_SIZE_LIMIT
    elements, whatever their order, and above it the caterpillar over the
    elements in the given order, whose cuts are the list's prefixes.  The
    caterpillar is `_binary_tree`'s with each split taking the mask's
    first element in that order; it never evaluates f.

    On at most three elements it writes the exact tree down without
    evaluating f.  One or two elements have one tree, whose width the
    search evaluates and this discards.  On x < y < z, f({y, z}) =
    f({x}), so each of the three splits costs max(f(x), f(y), f(z)) and
    the search keeps the first, {x} against {y, z}.  Its table is the one
    `_binary_tree` numbers from n = z + 1: leaves n, n + 1, n + 2 for x,
    y, z, node n + 3 joining y and z, and the root edge from x to it.
    """
    if len(elements) > EXACT_SIZE_LIMIT:
        suffix, first = 0, {}  # each split of the caterpillar is of a suffix
        for v in reversed(elements):
            suffix |= 1 << v
            first[suffix] = 1 << v
        return _binary_tree(suffix, first.__getitem__)
    if len(elements) < 3:
        return _small_tree(sorted(elements))
    if len(elements) == 3:
        x, y, z = sorted(elements)
        n = z + 1
        return [(n + 3, n + 1), (n + 3, n + 2), (n, n + 3)], {n: x, n + 1: y, n + 2: z}
    return exact_branch_width(sorted(elements), f)[1]
