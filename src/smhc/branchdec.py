"""Branch decompositions and width computation for symmetric cut functions.

A decomposition is a subcubic tree plus a bijection from its leaves onto a
set of elements (vertex ids).  Each tree edge induces a cut of the element
set; the f-width is the maximum f over those cuts.

The exact minimum-width search runs a dynamic program over element subsets
rather than enumerating labeled subcubic trees: every rooted binary merge
order corresponds to a subcubic tree, so minimizing over subset partitions
is equivalent and exponentially cheaper.  A literal (2n-5)!! tree enumerator
is kept for cross-checking at tiny sizes.
"""

from __future__ import annotations

import json

from .graph import bits, mask_of
from .cuts import CutFunction

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
        n_nodes = len(self.nodes)
        if len(self.edges) != n_nodes - 1:
            raise ValueError("decomposition tree is not a tree")
        if n_nodes > 1:
            # connectivity
            seen = {self.nodes[0]}
            stack = [self.nodes[0]]
            while stack:
                u = stack.pop()
                for w in self._adj[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) != n_nodes:
                raise ValueError("decomposition tree is disconnected")
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
        """One (side_a, side_b) element-mask pair per tree edge."""
        out = []
        for u, v in self.edges:
            side = self._leaves_beyond(u, v)
            out.append((side, self.elements & ~side))
        return out

    def _leaves_beyond(self, u: int, v: int) -> int:
        """Element mask of the component of tree - uv containing u."""
        seen = {u, v}
        stack = [u]
        acc = 0
        while stack:
            x = stack.pop()
            if x in self.leaf_map:
                acc |= 1 << self.leaf_map[x]
            for w in self._adj[x]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return acc

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


def normalized_decomposition(edges, leaf_map) -> BranchDecomposition:
    """Splice out degree-2 non-leaf nodes so internal nodes have degree 3."""
    edges = set(tuple(sorted(e)) for e in edges)
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    for u in leaf_map:
        adj.setdefault(u, set())
    changed = True
    while changed:
        changed = False
        for u in list(adj):
            if u in leaf_map:
                continue
            nbrs = adj[u]
            if len(nbrs) == 2:
                a, b = sorted(nbrs)
                adj[a].discard(u)
                adj[b].discard(u)
                adj[a].add(b)
                adj[b].add(a)
                del adj[u]
                changed = True
            elif len(nbrs) in (0, 1) and len(adj) > 1:
                for w in list(nbrs):
                    adj[w].discard(u)
                del adj[u]
                changed = True
    out_edges = set()
    for u, nbrs in adj.items():
        for w in nbrs:
            out_edges.add(tuple(sorted((u, w))))
    return BranchDecomposition(sorted(out_edges), leaf_map)


# -- exact minimum-width search -------------------------------------------

def exact_branch_width(elements: list[int], f) -> tuple[int, BranchDecomposition]:
    """Minimum f-width over all branch decompositions of the element list."""
    full = mask_of(elements)
    k = len(elements)
    if k == 1:
        return 0, BranchDecomposition([], {0: elements[0]})
    if k == 2:
        bd = BranchDecomposition([(0, 1)], {0: elements[0], 1: elements[1]})
        return bd.f_width(f), bd
    best: dict[int, int] = {}
    choice: dict[int, int] = {}
    singles = [1 << v for v in elements]
    for s in singles:
        best[s] = 0
    # masks in increasing popcount order
    by_count: dict[int, list[int]] = {}

    def all_submasks():
        out = []
        idx = list(range(k))
        for sub in range(1, 1 << k):
            m = 0
            for i in idx:
                if (sub >> i) & 1:
                    m |= 1 << elements[i]
            out.append(m)
        return out

    for m in all_submasks():
        by_count.setdefault(m.bit_count(), []).append(m)
    for cnt in range(2, k + 1):
        for m in by_count.get(cnt, ()):
            low = m & -m
            rest = m ^ low
            sub = 0
            bestval = None
            bestsub = None
            while True:
                part = sub | low
                other = m ^ part
                if other:
                    cand = max(f(part), f(other), best[part], best[other])
                    if bestval is None or cand < bestval:
                        bestval = cand
                        bestsub = part
                if sub == rest:
                    break
                sub = (sub - rest) & rest
            best[m] = bestval
            choice[m] = bestsub
    width = best[full]

    counter = [max(elements) + 1]
    edges: list[tuple[int, int]] = []
    leaf_map: dict[int, int] = {}

    def build(mask: int) -> int:
        if mask.bit_count() == 1:
            node = counter[0]
            counter[0] += 1
            leaf_map[node] = mask.bit_length() - 1
            return node
        part = choice[mask]
        left = build(part)
        right = build(mask ^ part)
        node = counter[0]
        counter[0] += 1
        edges.append((node, left))
        edges.append((node, right))
        return node

    top = choice[full]
    left = build(top)
    right = build(full ^ top)
    edges.append((left, right))
    return width, BranchDecomposition(edges, leaf_map)


# -- literal tree enumeration (tiny-size cross-check oracle) ---------------

def enumerate_decompositions(elements: list[int]):
    """Yield every leaf-labeled subcubic tree over the elements, by leaf insertion."""
    k = len(elements)
    if k == 1:
        yield BranchDecomposition([], {0: elements[0]})
        return
    base = [((0, 1),)]
    leaf_nodes = {0: elements[0], 1: elements[1]}
    trees = base
    next_node = 2
    for idx in range(2, k):
        new_trees = []
        leaf = next_node
        internal = next_node + 1
        next_node += 2
        for t in trees:
            for i, (u, v) in enumerate(t):
                rest = t[:i] + t[i + 1:]
                new_trees.append(rest + ((u, internal), (internal, v),
                                         (internal, leaf)))
        trees = new_trees
        leaf_nodes[leaf] = elements[idx]
    leaves = set(leaf_nodes)
    for t in trees:
        lm = {node: leaf_nodes[node] for node in leaf_nodes
              if node in leaves}
        yield BranchDecomposition(list(t), lm)


# -- greedy approximation backend ------------------------------------------

def greedy_decomposition(f, elements: list[int]) -> BranchDecomposition:
    """Recursive balanced bisection by deterministic local search on f."""
    counter = [max(elements) + 1]
    edges: list[tuple[int, int]] = []
    leaf_map: dict[int, int] = {}

    def bisect(items: list[int]) -> tuple[int, int]:
        half = len(items) // 2
        a = mask_of(items[:half])
        rest = mask_of(items)
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
        return a, rest & ~a

    def build(items: list[int]) -> int:
        if len(items) == 1:
            node = counter[0]
            counter[0] += 1
            leaf_map[node] = items[0]
            return node
        a, b = bisect(items)
        left = build([v for v in items if (a >> v) & 1])
        right = build([v for v in items if (b >> v) & 1])
        node = counter[0]
        counter[0] += 1
        edges.append((node, left))
        edges.append((node, right))
        return node

    items = sorted(elements)
    if len(items) == 1:
        return BranchDecomposition([], {0: items[0]})
    a, b = bisect(items)
    left = build([v for v in items if (a >> v) & 1])
    right = build([v for v in items if (b >> v) & 1])
    edges.append((left, right))
    return BranchDecomposition(edges, leaf_map)


def approx_decomposition(f, elements: list[int],
                         backend: str = "exact") -> BranchDecomposition:
    """Decomposition of the element set under f via the chosen backend.

    Backends: `exact` (optimal, size-limited) and `greedy` (no guarantee).
    A slot for a true 3-approximation backend is reserved but not shipped.
    """
    if backend == "exact":
        if len(elements) > EXACT_SIZE_LIMIT:
            raise SizeLimitExceeded(f"exact backend limited to {EXACT_SIZE_LIMIT} "
                                    f"elements, got {len(elements)}")
        _, bd = exact_branch_width(sorted(elements), f)
        return bd
    if backend == "greedy":
        return greedy_decomposition(f, sorted(elements))
    raise ValueError(f"unknown backend {backend!r}")
