"""Certificate dynamic programming over a branch decomposition.

A certificate is an edge bitmask forming vertex-disjoint paths inside its
home vertex set (or a Hamiltonian cycle of the whole graph, at the root).
A family maps each certificate to its state (d1, d2, pe): the vertices of
degree >= 1 and >= 2 and the pairing of its path ends (see `repsets`),
set in O(1) where the certificate is made.  Each finished subtree carries
the cut of its home (`cut_of`), derived from its children's, and the
merge, the twin test and the trims read only that cut.  A merge lists no
members: one frontier over all pairs forgets each vertex once its edges
are decided (`repsets.frontier`, the loop the preserving extension runs
too).  Its family is pruned once: by a twin-signature collapse on twin
cuts, elsewhere by the representative sets of `repsets` over a small cut
vertex cover, one keyed pass on narrow cuts without estar edges (`trim_vc`).
"""

from __future__ import annotations

from .graph import Graph, bits
from .cuts import is_split, min_vertex_cover, mm_value  # noqa: F401 (is_split, mm_value: benchmark hooks)
from .branchdec import BranchDecomposition
from .repsets import (frontier, is_hamiltonian_cycle, pad_separator,
                      preserving_extension)

Family = dict[int, tuple[int, int, int]]  # certificate -> state (d1, d2, pe)
Cut = tuple[int, int, bool]  # (boundary, N(home), twin) of a home, see `cut_of`


def _cut(g: Graph, a: int, near: int, nbr: int) -> Cut:
    """Cut of a read off `near`, a superset of its boundary, and nbr = N(a)."""
    adj = g.adj
    boundary = 0
    twin = a != g.vmask
    for v in bits(near):
        out = adj[v] & ~a
        if out:
            boundary |= 1 << v
            twin = twin and out == nbr
    return boundary, nbr, twin


def cut_of(g: Graph, a: int) -> Cut:
    """(boundary, N(a), twin) of (a, V \\ a), g connected: the boundary holds
    the vertices of a with a neighbour outside a, and the cut is a twin cut
    when a is not all of V and every boundary vertex sees all of N(a).  A
    twin cut is a split (`cuts.is_split`) when both sides have two vertices
    or more; the twin trim and key need no side size."""
    return _cut(g, a, a, g.neighborhood(a))


def join(g: Graph, a: int, b: int, fa: Family, fb: Family, cut_a: Cut, cut_b: Cut,
         trace: dict | None = None) -> tuple[Cut, Family]:
    """Cut and family of home a | b: each pair of fa and fb with every valid
    set of its cross edges, in one `repsets.frontier`, trimmed once unless
    a | b is the whole graph.  The cut and the cross edges are read off the
    cuts of a and b in O(|boundary of a| + |boundary of b|) big-int
    operations.  No twin cut needs a path limit: `trim_split` keeps no
    member with more paths than the mm of its side, and the paper's limit
    is 4 times that.

    The trim keeps what it keeps of every live member.  On a twin cut the
    frontier's final key holds `trim_split`'s signature.  Elsewhere it is
    the state: an extension of a later member of one state has the state
    of the same extension of the earlier one and a larger mask, so
    `preserving_extension` never keeps it (`repsets` Lemma 3).  At the
    root every survivor has all degrees two, so it is a Hamiltonian cycle
    (`grow` closes no other cycle), and the least is kept.
    """
    if a & b:
        raise ValueError("certificate homes must be disjoint")
    home = a | b
    (ba, na, _), (bb, nb, _) = cut_a, cut_b
    cut = _cut(g, home, ba | bb, (na | nb) & ~home)
    left = g.edges_at(ba & nb) & g.edges_at(bb & na)
    items = [(sa | sb, d1a | d1b, d2a | d2b, pea | peb, 0)
             for sa, (d1a, d2a, pea) in fa.items() for sb, (d1b, d2b, peb) in fb.items()]
    fam = {m: (d1, d2, pe) for m, d1, d2, pe, _ in frontier(g, items, left, home, cut[0], cut[2])}
    return cut, trim(g, home, fam, cut, trace)


# -- trims ------------------------------------------------------------------

def trim_vc(g: Graph, a: int, fam: Family, cut: Cut, trace: dict | None = None) -> Family:
    """Representative subfamily via a preserving extension over a Koenig
    cover c of the cut (`cut_of(g, a)`), both read off its boundary and N(a).

    Without estar edges and with at most five boundary vertices it is one
    pass keeping the least live member (a \\ c ⊆ d2) per state.  Exact: an
    uncovered cut edge would be an estar edge, so the boundary lies in c
    and live ends in c ∩ a, of <= max(|boundary|, 3) vertices.  At <= 4 ends
    the basis keeps the least live member per state over c (`repsets`
    Corollary), which fixes the state as every edge lies in a.  Live
    members are within the 2|c| budget and span no cycle."""
    boundary, nbr, _ = cut
    c = pad_separator(g, a, min_vertex_cover(g, boundary, nbr))
    estar = g.edges_at(c & ~a) & g.edges_at(boundary)
    if estar or boundary.bit_count() > 5:
        ext = preserving_extension(g, a, c, fam, estar, trace)
        return {core: fam[core] for _, core in ext}
    inner, best = a & ~c, {}
    for m, state in fam.items():
        if not inner & ~state[1] and best.setdefault(state, m) > m:
            best[state] = m
    if trace is not None:
        by_k, k = trace.setdefault("max_family_by_k", {}), c.bit_count()
        by_k[k] = max(by_k.get(k, 0), len(best))
    return fam if len(best) == len(fam) else {m: fam[m] for m in best.values()}


def trim_split(g: Graph, a: int, fam: Family, cut: Cut) -> Family:
    """One representative per twin signature on a twin cut (`cut_of(g, a)`).

    On a twin cut every boundary vertex has the same outside
    neighbourhood, of t vertices, so a certificate only matters through
    how many paths and how many isolated vertices offer attachment slots.
    A certificate can never be completed when a non-boundary vertex is
    deficient, when it has an isolated vertex and t < 2, or when it has
    more than t paths: a cycle through it takes two cross edges per path,
    at most two at each outside neighbour.  Since every path holds a
    boundary vertex, a kept certificate has at most min(t, |boundary|)
    paths, the mm of the cut.
    """
    boundary, common_outside, twin = cut
    if not twin:
        raise ValueError("trim_split needs a twin cut")
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
    """Dispatch on the cut of a (`cut_of(g, a)`): twin cuts use the twin
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
    - `max_family_by_k`: the largest family kept by the rank basis, per
      separator size k; only the one `repsets.trim_separator` of each
      vertex-cover trim writes it, so k is the size of the padded cover c;
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
