"""Cut functions: maximum bipartite matching, Koenig covers, splits, mm/sm.

All vertex sets are bitmasks over the host graph's vertex ids.  The mm and
sm values are memoized per host graph since the decomposition search and
the DP evaluate the same cuts repeatedly.
"""

from __future__ import annotations

from .graph import Graph, Bipartite, bits


def max_matching(b: Bipartite) -> list[tuple[int, int]]:
    """Maximum-cardinality matching via augmenting paths (left -> right)."""
    g = b.graph
    match_right: dict[int, int] = {}
    match_left: dict[int, int] = {}

    def augment(u: int, visited: int) -> tuple[bool, int]:
        for w in bits(g.adj[u] & ~visited):
            visited |= 1 << w
            if w not in match_right:
                match_right[w] = u
                match_left[u] = w
                return True, visited
            ok, visited = augment(match_right[w], visited)
            if ok:
                match_right[w] = u
                match_left[u] = w
                return True, visited
        return False, visited

    for u in bits(b.left):
        if g.adj.get(u, 0):
            augment(u, 0)
    return sorted((min(u, w), max(u, w)) for u, w in match_left.items())


def min_vertex_cover(b: Bipartite) -> int:
    """Koenig construction: cover of size equal to the maximum matching."""
    g = b.graph
    matching = max_matching(b)
    match_of: dict[int, int] = {}
    for u, w in matching:
        match_of[u] = w
        match_of[w] = u
    matched_left = 0
    for u, w in matching:
        lv = u if (b.left >> u) & 1 else w
        matched_left |= 1 << lv
    # alternating BFS from unmatched left vertices
    z = 0
    frontier = []
    for u in bits(b.left):
        if not (matched_left >> u) & 1 and g.adj.get(u, 0):
            z |= 1 << u
            frontier.append(u)
    while frontier:
        nxt = []
        for u in frontier:
            if (b.left >> u) & 1:  # move along non-matching edges
                for w in bits(g.adj[u] & ~z):
                    if match_of.get(u) != w:
                        z |= 1 << w
                        nxt.append(w)
            else:  # move along the matching edge
                mu = match_of.get(u)
                if mu is not None and not (z >> mu) & 1:
                    z |= 1 << mu
                    nxt.append(mu)
        frontier = nxt
    cover = (b.left & ~z) & matched_left | (b.right & z)
    # keep only vertices actually touching edges
    touching = 0
    for u, v in g.edges:
        touching |= (1 << u) | (1 << v)
    return cover & touching


def mm_value(g: Graph, a: int) -> int:
    """Size of a maximum matching in G[a, V \\ a]."""
    return len(max_matching(g.cut_graph(a)))


def is_split(g: Graph, a: int) -> bool:
    """True iff (a, complement) is a non-trivial split of the connected g."""
    if not g.is_connected():
        raise ValueError("splits are defined for connected graphs only")
    g.check_subset(a)
    return split_sides(g, a, g.vmask & ~a)


def split_sides(g: Graph, a: int, b: int) -> bool:
    """Split test for the bipartition (a, b); no connectivity re-check."""
    if a.bit_count() < 2 or b.bit_count() < 2:
        return False
    shared = None
    for v in bits(a):
        nb = g.adj[v] & b
        if nb:
            if shared is None:
                shared = nb
            elif nb != shared:
                return False
    return True


def sm_value(g: Graph, a: int) -> int:
    """1 on splits, mm otherwise (trivial bipartitions fall to mm)."""
    if is_split(g, a):
        return 1
    return mm_value(g, a)


class CutFunction:
    """Named symmetric cut function with per-subset memoization."""

    def __init__(self, name: str, fn, domain: int):
        self.name = name
        self._fn = fn
        self.domain = domain
        self._cache: dict[int, int] = {}

    def __call__(self, a: int) -> int:
        key = min(a, self.domain & ~a)  # symmetry halves the cache
        val = self._cache.get(key)
        if val is None:
            val = self._fn(a)
            self._cache[key] = val
        return val


def mm_cut_function(g: Graph) -> CutFunction:
    return CutFunction("mm", lambda a: mm_value(g, a), g.vmask)


def sm_cut_function(g: Graph) -> CutFunction:
    return CutFunction("sm", lambda a: sm_value(g, a), g.vmask)
