"""Cut functions: maximum bipartite matching, Koenig covers, splits, mm/sm.

All vertex sets are bitmasks over the host graph's vertex ids.  A cut
(a, V \\ a) is read straight off the host's adjacency masks.  One
augmenting-path routine, `_augment`, finds every maximum matching:
`min_vertex_cover` and `mm_value` only choose its sides and read its
result.  `mm_value` and `sm_value` recompute on every call,
and so do the cut functions built on them.
"""

from __future__ import annotations

from .graph import Graph, bits


def _augment(adj: list[int], a: int, b: int) -> tuple[dict[int, int], int]:
    """Maximum matching of G[a, b] by augmenting paths, the one routine of
    this module: the map from the bit of each matched vertex of b to its
    partner in a, and the mask of those vertices.

    Each root of a, lowest first, takes its lowest free neighbour without
    a search if it has one; else a depth-first search for an augmenting
    path runs on an explicit stack of [left vertex, its neighbours in b,
    tried bit] frames, each bit tried once per root, so no path length is
    limited by Python's recursion.
    """
    partner: dict[int, int] = {}
    taken = 0  # the matched vertices of b
    roots = a
    while roots:
        low = roots & -roots
        roots ^= low
        root = low.bit_length() - 1
        nb = adj[root] & b
        free = nb & ~taken
        if free:  # the lowest free neighbour, without a search
            w = free & -free
            taken |= w
            partner[w] = root
            continue
        if not nb:
            continue
        visited = 0
        stack = [[root, nb, 0]]
        while stack:
            frame = stack[-1]
            untried = frame[1] & ~visited
            if not untried:
                stack.pop()
                continue
            w = untried & -untried
            visited |= w
            frame[2] = w
            if taken & w:
                x = partner[w]
                stack.append([x, adj[x] & b, 0])
            else:  # augmenting path: each frame's vertex takes its tried bit
                for u, _, w in stack:
                    partner[w] = u
                taken |= w
                break
    return partner, taken


def min_vertex_cover(g: Graph, a: int, b: int | None = None) -> int:
    """Koenig cover of G[a, b], b = V \\ a unless given, of size equal to
    the maximum matching.

    Z is what alternating paths reach from the unmatched vertices of a;
    the cover is (a \\ Z) ∩ matched ∪ (Z ∩ b).  Z does not depend on which
    maximum matching is found (Dulmage-Mendelsohn), so neither does the
    cover, and a vertex with no edge across is in none.
    """
    b = g.vmask & ~a if b is None else b
    partner, _ = _augment(g.adj, a, b)
    matched = 0
    for u in partner.values():
        matched |= 1 << u
    z = frontier = a & ~matched
    while frontier:
        right = 0
        for u in bits(frontier):  # along non-matching edges
            right |= g.adj[u]
        right &= b & ~z
        frontier = 0
        for w in bits(right):  # along the matching edge; w is matched
            frontier |= 1 << partner[1 << w]
        z |= right | frontier
    return (a & matched & ~z) | (b & z)


def mm_value(g: Graph, a: int) -> int:
    """Size of a maximum matching in G[a, V \\ a], found by `_augment`
    rooted on the smaller side (on a when the sides are equal)."""
    b = g.vmask & ~a
    if a.bit_count() > b.bit_count():
        a, b = b, a
    return _augment(g.adj, a, b)[1].bit_count()


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


def mm_cut_function(g: Graph):
    return lambda a: mm_value(g, a)


def sm_cut_function(g: Graph):
    return lambda a: sm_value(g, a)
