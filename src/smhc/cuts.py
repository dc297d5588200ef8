"""Cut functions: maximum bipartite matching, Koenig covers, splits, mm/sm.

All vertex sets are bitmasks over the host graph's vertex ids.  A cut
(a, V \\ a) is read straight off the host's adjacency masks.  `mm_value`
and `sm_value` recompute on every call, and so do the cut functions built
on them.
"""

from __future__ import annotations

from .graph import Graph, bits


def max_matching(g: Graph, a: int, b: int | None = None) -> dict[int, int]:
    """Maximum matching of G[a, b] by augmenting paths, b = V \\ a unless
    given, as a map from each matched vertex of b to its partner in a."""
    b = g.vmask & ~a if b is None else b
    adj = g.adj
    partner: dict[int, int] = {}
    taken = 0  # the matched vertices of b
    for root in bits(a):
        free = adj[root] & b & ~taken
        if free:  # the lowest free neighbour, without a search
            taken |= free & -free
            partner[(free & -free).bit_length() - 1] = root
            continue
        visited = 0
        stack = [(root, adj[root] & b, -1)]  # left vertex, untried mask, tried vertex
        while stack:
            u, untried, _ = stack[-1]
            untried &= ~visited
            if not untried:
                stack.pop()
                continue
            w = (untried & -untried).bit_length() - 1
            visited |= 1 << w
            stack[-1] = (u, untried, w)
            if (taken >> w) & 1:
                x = partner[w]
                stack.append((x, adj[x] & b, -1))
            else:  # augmenting path: each frame's vertex takes its tried vertex
                for u, _, w in stack:
                    partner[w] = u
                taken |= 1 << w
                break
    return partner


def min_vertex_cover(g: Graph, a: int, b: int | None = None) -> int:
    """Koenig cover of G[a, b], b = V \\ a unless given, of size equal to
    the maximum matching.

    Z is what alternating paths reach from the unmatched vertices of a;
    the cover is (a \\ Z) ∩ matched ∪ (Z ∩ b).  Z does not depend on which
    maximum matching is found (Dulmage-Mendelsohn), so neither does the
    cover, and a vertex with no edge across is in none.
    """
    b = g.vmask & ~a if b is None else b
    partner = max_matching(g, a, b)
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
            frontier |= 1 << partner[w]
        z |= right | frontier
    return (a & matched & ~z) | (b & z)


def mm_value(g: Graph, a: int) -> int:
    """Size of a maximum matching in G[a, V \\ a], rooted on the smaller side."""
    return len(max_matching(g, min(a, g.vmask & ~a, key=int.bit_count)))


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
