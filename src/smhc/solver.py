"""Certificate dynamic programming over a branch decomposition.

A certificate is an edge bitmask forming vertex-disjoint paths inside its
home vertex set (or a Hamiltonian cycle of the whole graph, at the root).
A family maps each certificate to its state (d1, d2, pe): the vertices of
degree >= 1 and >= 2 and the pairing of its path ends (see `repsets`),
set in O(1) where the certificate is made.  Each finished subtree carries
the cut of its home (`cut_of`), derived from its children's, and the
merge, the split test and the trims read only that cut.  A merge lists no
members: one frontier over all pairs forgets each vertex once its edges
are decided (`_frontier`).  Its family is pruned once: by a
twin-signature collapse on split sides, and by the representative-family
machinery of `repsets` over a small cut vertex cover elsewhere.
"""

from __future__ import annotations

from .graph import Graph, bits
from .cuts import is_split, min_vertex_cover, mm_value  # noqa: F401 (is_split, mm_value: benchmark hooks)
from .branchdec import BranchDecomposition
from .repsets import (field_width, grow, is_hamiltonian_cycle, pad_separator,
                      path_state, preserving_extension)

Family = dict[int, tuple[int, int, int]]  # certificate -> state (d1, d2, pe)
Cut = tuple[int, int, bool]  # (boundary, N(home), split) of a home, see `cut_of`


def _edges_at(g: Graph, vs: int) -> int:
    """Mask of the edges with an end in vs."""
    reach = 0
    for v in bits(vs):
        reach |= g.incident[v]
    return reach


def _cut(g: Graph, a: int, near: int, nbr: int) -> Cut:
    """Cut of a read off `near`, a superset of its boundary, and nbr = N(a)."""
    adj = g.adj
    boundary = 0
    split = 1 < a.bit_count() < g.n - 1
    for v in bits(near):
        out = adj[v] & ~a
        if out:
            boundary |= 1 << v
            split = split and out == nbr
    return boundary, nbr, split


def cut_of(g: Graph, a: int) -> Cut:
    """(boundary, N(a), split) of (a, V \\ a), g connected: the boundary holds
    the vertices of a with a neighbour outside a, and the cut is a split
    (`cuts.is_split`) when both sides have two vertices or more and every
    boundary vertex sees all of N(a)."""
    return _cut(g, a, a, g.neighborhood(a))


def _frontier(g: Graph, fa: Family, fb: Family, left: int, undecided: int,
              home: int, cut: Cut) -> Family:
    """Least member per key of home a | b, all pairs in one frontier.

    Each pair starts from its union state.  The cross edges `left` are
    folded in through `grow` grouped by vertex: next comes the vertex of
    `undecided` (the ends of `left`) with the fewest cross edges left, the
    lowest on ties.  A vertex is decided once it has no cross edge left;
    its degree is then final.  A decided vertex outside the boundary with
    degree below two kills the item: no later edge meets it.  On a split
    home a decided boundary vertex is forgotten: it leaves d1 and d2, its
    field is cleared, an undecided partner's field is set to `free`, and
    it only adds to the item's tally of decided path ends and decided
    isolated vertices; `path_state` rebuilds the states of the members
    kept at the end.  Elsewhere items keep their full state.  Per key
    (d1, d2, pairing, tally) the least edge mask is kept.

    Exactness.  Two items with one key accept the same later edges, which
    meet undecided vertices only, and end with one key and liveness.
    Later edges are disjoint from both masks, so adding them keeps the
    order of the two: the frontier keeps the least live member per final
    key.  On a split home the final key holds `trim_split`'s signature, so
    `trim_split` keeps what it keeps of all members.  Elsewhere the final
    key is the state.  Members of one state grow alike in
    `preserving_extension`, and each extension of the later member comes
    after the same extension of the earlier one with the same state, so it
    is dependent on it (`repsets` Lemma 3) and never kept: `trim_vc` keeps
    what it keeps of all live members.  At the root no vertex has an
    outside neighbour, so every survivor has all degrees two and is a
    Hamiltonian cycle (`grow` closes no other cycle): the least is kept.
    """
    boundary, _, split = cut
    w = field_width(g)
    free = (1 << w) - 1  # above every vertex id; `grow` writes there unread
    fields = (1 << free * w) - 1
    adj, incident = g.adj, g.incident
    items = [(sa | sb, d1a | d1b, d2a | d2b, pea | peb, 0)
             for sa, (d1a, d2a, pea) in fa.items() for sb, (d1b, d2b, peb) in fb.items()]
    newly = home & ~undecided
    while True:
        best: dict[tuple[int, int, int, int], int] = {}
        keep = ~newly if split else -1
        for m, d1, d2, pe, tally in items:
            short = newly & ~d2  # decided, of degree below two
            if short:
                if short & ~boundary:
                    continue
                if split:
                    ends = short & d1
                    tally += ends.bit_count() + ((short & ~d1).bit_count() << w)
                    while ends:
                        x = (ends & -ends).bit_length() - 1
                        ends &= ends - 1
                        p = (pe >> x * w) & free
                        pe = pe & ~(free << x * w) | free << p * w
            key = (d1 & keep, d2 & keep, pe & fields, tally)
            if best.get(key, m + 1) > m:
                best[key] = m
        if not undecided:
            return {m: path_state(g, m) if split else key[:3] for key, m in best.items()}
        items = [(m, *key) for key, m in best.items()]
        fewest = left.bit_count() + 1
        for u in bits(undecided):
            k = (incident[u] & left).bit_count()
            if k < fewest:
                v, fewest = u, k
        group = left & incident[v]
        for i in bits(group):
            items += grow(g, w, items, i)
        left ^= group
        newly = 1 << v
        for u in bits(adj[v] & undecided):
            if not incident[u] & left:
                newly |= 1 << u
        undecided ^= newly


def join(g: Graph, a: int, b: int, fa: Family, fb: Family, cut_a: Cut, cut_b: Cut,
         trace: dict | None = None) -> tuple[Cut, Family]:
    """Cut and family of home a | b: each pair of fa and fb with every valid
    set of its cross edges, in one frontier (`_frontier`, which proves that
    the trim keeps what it keeps of all live members), trimmed once unless
    a | b is the whole graph.  The cut and the cross edges are read off the
    cuts of a and b in O(|boundary of a| + |boundary of b|) big-int
    operations.  No split side needs a path limit: `trim_split` keeps no
    member with more paths than the mm of its side, and the paper's limit
    is 4 times that.
    """
    if a & b:
        raise ValueError("certificate homes must be disjoint")
    home = a | b
    (ba, na, _), (bb, nb, _) = cut_a, cut_b
    cut = _cut(g, home, ba | bb, (na | nb) & ~home)
    ends_a, ends_b = ba & nb, bb & na
    left = _edges_at(g, ends_a) & _edges_at(g, ends_b)
    fam = _frontier(g, fa, fb, left, ends_a | ends_b, home, cut)
    return cut, trim(g, home, fam, cut, trace)


# -- trims ------------------------------------------------------------------

def trim_vc(g: Graph, a: int, fam: Family, cut: Cut, trace: dict | None = None) -> Family:
    """Representative subfamily via a preserving extension over a Koenig
    cover of the cut (`cut_of(g, a)`), both read off its boundary and N(a)."""
    boundary, nbr, _ = cut
    c = pad_separator(g, a, min_vertex_cover(g, boundary, nbr))
    estar = _edges_at(g, c & ~a) & _edges_at(g, boundary)
    ext = preserving_extension(g, a, c, fam, estar, trace)
    return {core: fam[core] for _, core in ext}


def trim_split(g: Graph, a: int, fam: Family, cut: Cut) -> Family:
    """One representative per twin signature on a split side, read off its
    cut (`cut_of(g, a)`).

    On a split side every boundary vertex has the same outside
    neighbourhood, of t vertices, so a certificate only matters through
    how many paths and how many isolated vertices offer attachment slots.
    A certificate can never be completed when a non-boundary vertex is
    deficient, when it has an isolated vertex and t < 2, or when it has
    more than t paths: a cycle through it takes two cross edges per path,
    at most two at each outside neighbour.  Since every path holds a
    boundary vertex, a kept certificate has at most min(t, |boundary|)
    paths, the mm of the side.
    """
    boundary, common_outside, split = cut
    if not split:
        raise ValueError("trim_split needs a split side")
    t = common_outside.bit_count()
    chosen: dict[tuple[int, int], int] = {}
    for cert in sorted(fam):
        d1, d2, _ = fam[cert]
        isolated = a & ~d1
        sig = ((d1 & ~d2).bit_count() // 2, isolated.bit_count())
        if a & ~d2 & ~boundary or (isolated and t < 2) or sum(sig) > t:
            continue  # dead: no completion, as above
        if sig in chosen or d1 and not d1 & ~d2:
            continue  # a closed cycle cannot reach the non-empty outside
        chosen[sig] = cert
    return {cert: fam[cert] for cert in chosen.values()}


def trim(g: Graph, a: int, fam: Family, cut: Cut, trace: dict | None = None) -> Family:
    """Dispatch on the cut of a (`cut_of(g, a)`): split sides use the twin
    signature, others the rep-set trim.

    A lone member m of another side skips the rep-set trim.  It is dropped
    when |a| - |m| > |N(a)|: a cycle through m takes 2|a| - 2|m| cross
    edges, at most two at each outside neighbour.  A trim that runs
    appends (a, before, after) to `trace["trims"]` when the caller put a
    list there.
    """
    if a == g.vmask or not fam:
        return fam
    if cut[2]:
        out = trim_split(g, a, fam, cut)
    elif len(fam) > 1:
        out = trim_vc(g, a, fam, cut, trace)
    else:
        (m,) = fam
        out = {} if a.bit_count() - m.bit_count() > cut[1].bit_count() else fam
    if trace is not None and "trims" in trace:
        trace["trims"].append((a, list(fam), list(out)))
    return out


# -- the bottom-up decision procedure ---------------------------------------

def solve_hc(g: Graph, bd: BranchDecomposition, trace: dict | None = None):
    """Decide Hamiltonicity along the decomposition; returns (bool, witness).

    The witness, when present, is an edge list forming the cycle, verified
    to be a simple spanning cycle before being returned.  A `trace` dict
    collects:

    - `node_sizes`: the family size of every decomposition node, in
      post-order, and `max_family`, the largest of them;
    - `max_family_by_k`: the largest family kept by a separator trim, per
      separator size k (`repsets.trim_separator`);
    - `trims`: (a, before, after) for every trim that runs, only if the
      caller puts a list under that key.
    """
    if g.n < 3 or not g.is_connected():
        return False, None
    if bd.elements != g.vmask:
        raise ValueError("decomposition does not cover the graph's vertices")
    if trace is not None:
        trace.setdefault("node_sizes", [])
        trace.setdefault("max_family", 0)

    def note(size: int):
        if trace is not None:
            trace["node_sizes"].append(size)
            trace["max_family"] = max(trace["max_family"], size)

    solved = []  # (home, cut, family) of each finished subtree, left before right
    for node in bd.post_order:
        home = bd.below[node]
        if node in bd.leaf_map:
            cut, fam = cut_of(g, home), {0: (0, 0, 0)}
        else:
            (h2, c2, f2), (h1, c1, f1) = solved.pop(), solved.pop()
            cut, fam = join(g, h1, h2, f1, f2, c1, c2, trace)
        note(len(fam))
        solved.append((home, cut, fam))
    (hx, cx, fx), (hy, cy, fy) = solved  # x's and y's subtrees, joined at the root
    _, final = join(g, hx, hy, fx, fy, cx, cy, trace)
    note(len(final))
    for m in final:
        if is_hamiltonian_cycle(g, m):
            return True, g.edge_set(m)
    return False, None
