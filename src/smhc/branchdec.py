"""Branch decompositions and width computation for symmetric cut functions.

A decomposition is a subcubic tree plus a bijection from its leaves onto a
set of elements (vertex ids).  Each tree edge induces a cut of the element
set; the f-width is the maximum f over those cuts.  Validation walks the
tree once and keeps that walk: a post-order with each node's parent and
the element mask below it, from which `cuts` reads every cut and along
which the solver runs.

The exact minimum-width search runs a dynamic program over element subsets
rather than enumerating labeled subcubic trees: every rooted binary merge
order corresponds to a subcubic tree, so minimizing over subset partitions
is equivalent and exponentially cheaper.  It evaluates f once per proper
subset.  It and the greedy bisection both turn their choice of split per
subset into a tree through one builder, `_binary_tree`.  A literal
(2n-5)!! tree enumerator is kept for cross-checking at tiny sizes.
"""

from __future__ import annotations

import json

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
        """Inverse of `to_json`; any malformed input raises ValueError."""
        if (not isinstance(data, dict) or not isinstance(data.get("edges"), list)
                or not isinstance(data.get("leaf_map"), dict)):
            raise ValueError("decomposition needs 'edges' (list) and 'leaf_map' (object)")
        try:
            return cls([tuple(e) for e in data["edges"]],
                       {int(k): v for k, v in data["leaf_map"].items()})
        except TypeError as exc:
            raise ValueError(f"malformed decomposition: {exc}") from exc

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


# -- building a tree from a recursive bisection ------------------------------

def _binary_tree(full: int, split, first_id: int) -> BranchDecomposition:
    """Tree of the recursive bisection of the element mask `full`, where
    `split(mask)` is the left part of a mask of two or more elements.

    Nodes are numbered from `first_id` in post-order (left subtree, right
    subtree, then the node), and the two halves of `full` are joined by
    the root edge.  A single element is node 0.
    """
    if not full & (full - 1):
        return BranchDecomposition([], {0: full.bit_length() - 1})
    edges: list[tuple[int, int]] = []
    leaf_map: dict[int, int] = {}
    done: list[int] = []  # roots of the finished subtrees, left before right
    stack = [(full, 0)]  # (mask, its left part once split)
    node = first_id
    while stack:
        mask, part = stack.pop()
        if not part and mask & (mask - 1):
            part = split(mask)
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
    return BranchDecomposition(edges, leaf_map)


# -- exact minimum-width search -------------------------------------------

def exact_branch_width(elements: list[int], f) -> tuple[int, BranchDecomposition]:
    """Minimum f-width over all branch decompositions of the element list.

    `val[s]` is max(f(s), best width of s) for every index subset s,
    visited in numeric order, so all proper subsets of s come first.  Each
    proper non-empty subset is evaluated once and the full set never.
    """
    k = len(elements)
    if k == 2:
        bd = BranchDecomposition([(0, 1)], {0: elements[0], 1: elements[1]})
        return bd.f_width(f), bd
    masks = [0]  # masks[s]: element mask of the index subset s
    for v in sorted(elements):
        masks += [m | 1 << v for m in masks]
    top = len(masks) - 1
    val = [0] * len(masks)
    choice: dict[int, int] = {}
    for m in range(1, top + 1):
        low = m & -m
        rest = m ^ low
        best = 0
        if rest:
            best = bestpart = None
            sub = 0
            while True:  # every part holding `low`, in numeric order
                part = sub | low
                if part != m:
                    cand = max(val[part], val[m ^ part])
                    if best is None or cand < best:
                        best, bestpart = cand, part
                if sub == rest:
                    break
                sub = (sub - rest) & rest
            choice[masks[m]] = masks[bestpart]
        val[m] = best if m == top else max(f(masks[m]), best)
    return val[top], _binary_tree(masks[top], choice.__getitem__,
                                  max(elements) + 1)


# -- greedy approximation backend ------------------------------------------

def greedy_decomposition(f, elements: list[int]) -> BranchDecomposition:
    """Recursive balanced bisection by deterministic local search on f."""

    def bisect(rest: int) -> int:
        items = list(bits(rest))
        a = mask_of(items[:len(items) // 2])
        improved = True
        while improved:
            improved = False
            best_move = None
            cur = f(a)
            for v in items:
                bit = 1 << v
                na = a ^ bit
                if not (na & rest) or na == rest:
                    continue
                if na.bit_count() < len(items) // 3 or \
                   (rest & ~na).bit_count() < len(items) // 3:
                    continue
                val = f(na)
                if val < cur and (best_move is None or v < best_move[1]):
                    best_move = (val, v)
            if best_move is not None:
                a ^= 1 << best_move[1]
                improved = True
        return a

    return _binary_tree(mask_of(elements), bisect, max(elements) + 1)


def approx_decomposition(f, elements: list[int],
                         backend: str = "exact") -> BranchDecomposition:
    """Decomposition of the element set under f via the chosen backend.

    Backends: `exact` (optimal, size-limited) and `greedy` (no guarantee).
    f is a symmetric cut function.  On three elements x < y < z, `exact`
    builds `exact_branch_width`'s tree without evaluating f: f({y, z}) =
    f({x}), so each of the three splits costs max(f(x), f(y), f(z)) and
    the search keeps the first, the lowest element.
    """
    if backend == "exact":
        if len(elements) > EXACT_SIZE_LIMIT:
            raise SizeLimitExceeded(f"exact backend limited to {EXACT_SIZE_LIMIT} "
                                    f"elements, got {len(elements)}")
        if len(elements) == 3:
            return _binary_tree(mask_of(elements), lambda m: m & -m, max(elements) + 1)
        _, bd = exact_branch_width(sorted(elements), f)
        return bd
    if backend == "greedy":
        return greedy_decomposition(f, sorted(elements))
    raise ValueError(f"unknown backend {backend!r}")
