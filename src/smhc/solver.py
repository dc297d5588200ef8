"""Certificate dynamic programming over a branch decomposition.

A certificate is an edge bitmask forming vertex-disjoint paths inside its
home vertex set (or a Hamiltonian cycle of the whole graph, at the root).
A family (`repsets.Family`), one per decomposition node, maps the state
(d1, d2, pe) of each certificate to it: the vertices of degree >= 1 and
>= 2 and the pairing of its path ends (see `repsets`), set where the
certificate is made.  Every step reads and returns that form, from
the leaves' {(0, 0, 0): 0} to the root.  Each finished subtree carries
the cut of its home (`cut_of`), derived from its children's, and the
merge, the twin test and the trims read only that cut.  A join whose
home and sides are twin cuts (a single vertex always is) builds, by
counting (`repsets.join_twins`), the family the twin rule keeps (the
first member per reachable unit count, paths plus isolated vertices, as
members of one unit count complete alike, stated and proved there), and
hands it on untrimmed.  Every other join keys all pairs
once into the dict of one frontier
(`repsets.frontier`), which grows them over the cross edges and keeps
the least live member per state.  That family meets `trim`'s
precondition, which no step re-checks.  `trim` is the one trim and
applies only its own rules: on twin cuts the twin rule (`trim_split`,
the twin join with an empty side), elsewhere the rep-set
trim over the Koenig cover of the cut (`cuts.min_vertex_cover`,
`repsets.preserving_extension`), which keeps the family as it is when
that cover is the boundary, of at most five vertices, of a home of
three or more.
"""

from __future__ import annotations

from .graph import Graph, bits
from .cuts import is_split, min_vertex_cover, mm_value  # noqa: F401 (is_split, mm_value: benchmark hooks)
from .branchdec import BranchDecomposition
from .repsets import (Family, frontier, is_hamiltonian_cycle, join_twins,
                      pad_separator, preserving_extension)

Cut = tuple[int, int, bool]  # (boundary, N(home), twin) of a home, see `cut_of`
LEAF: Family = {(0, 0, 0): 0}  # the family of every leaf: the empty certificate


def _cut(g: Graph, a: int, near: int, nbr: int) -> Cut:
    """Cut of a read off `near`, a superset of its boundary, and nbr = N(a)."""
    adj = g.adj
    boundary = 0
    twin = a != g.vmask
    while near:
        low = near & -near
        out = adj[low.bit_length() - 1] & ~a
        if out:
            boundary |= low
            twin = twin and out == nbr
        near ^= low
    return boundary, nbr, twin


def cut_of(g: Graph, a: int) -> Cut:
    """(boundary, N(a), twin) of (a, V \\ a), g connected: the boundary holds
    the vertices of a with a neighbour outside a, and the cut is a twin cut
    when a is not all of V and every boundary vertex sees all of N(a).  A
    twin cut is a split (`cuts.is_split`) when both sides have two vertices
    or more; the twin trim and key need no side size.  `solve_hc` reads a
    leaf's cut straight off its vertex's adjacency, the same tuple."""
    return _cut(g, a, a, g.neighborhood(a))


def join(g: Graph, a: int, b: int, fa: Family, fb: Family, cut_a: Cut, cut_b: Cut,
         trace: dict | None = None) -> tuple[Cut, Family]:
    """Cut and family of home a | b, trimmed once unless a | b is the
    whole graph or a twin join.  When a | b, a and b are twin cuts,
    `repsets.join_twins` counts the family under the twin rule, and no
    trim runs on it; `trace["trims"]` records it as (a | b, family,
    family), as for any trim.  Every other join, a twin home with a plain
    side among them, runs one `repsets.frontier` that grows each pair of
    fa and fb by every valid set of its cross edges, and `trim_split`
    cuts a twin home's family by the twin rule.  The pairs are keyed
    by state straight into its dict, which it returns as the family: the
    states within fa and within fb are distinct, and so are the pairs', as
    the homes are disjoint.  Against `LEAF` the pairs
    are the other family's members under their own keys, so that dict is a
    copy of it; neither input is changed.  The cut and the cross edges are
    read off the cuts of a and b in O(|boundary of a| + |boundary of b|)
    big-int operations.  No twin cut needs a path limit: `trim_split`
    keeps no member with more paths than the mm of its side, and the
    paper's limit is 4 times that.  Both ways meet `trim`'s precondition
    and lose no completion.  At the root every survivor is a Hamiltonian
    cycle, and the least is kept.
    """
    if a & b:
        raise ValueError("certificate homes must be disjoint")
    home = a | b
    (ba, na, twin_a), (bb, nb, twin_b) = cut_a, cut_b
    cut = _cut(g, home, ba | bb, (na | nb) & ~home)
    if cut[2] and twin_a and twin_b:
        fam = join_twins(g, a, b, fa, fb, cut_a, cut_b)
        _record(trace, home, fam, fam)
        return cut, fam
    if fa == LEAF:  # a leaf's family, if either side has one, is fb
        fa, fb = fb, fa
    fold = dict(fa) if fb == LEAF else {
        (d1a | d1b, d2a | d2b, pea | peb): sa | sb
        for (d1a, d2a, pea), sa in fa.items() for (d1b, d2b, peb), sb in fb.items()}
    fold = frontier(g, fold, g.edges_at(ba & nb) & g.edges_at(bb & na), cut[0])
    return cut, trim(g, home, fold, cut, trace)


def _record(trace: dict | None, a: int, before: Family, after: Family) -> None:
    """Append (a, before, after), the masks of both families, to
    `trace["trims"]` when the caller put a list there."""
    if trace is not None and "trims" in trace:
        trace["trims"].append((a, list(before.values()), list(after.values())))


# -- trims ------------------------------------------------------------------

def trim_split(g: Graph, a: int, fam: Family, cut: Cut) -> Family:
    """The members of a twin cut's family (`cut_of(g, a)`) that may
    complete: `fam` under the twin rule, the first member per unit count
    1..t for t outside neighbours, which is the twin join of a with an
    empty side (`repsets.join_twins`, which states and proves the
    rule).  Under `trim`'s precondition every path end and isolated vertex
    lies on the boundary, as `join_twins` asks of its sides.  Every path
    holds a boundary vertex, so a kept certificate has at most min(t,
    |boundary|) paths, the mm of the cut.  `join` hands the families of
    `join_twins` on without this trim, as they meet the rule as built.
    """
    if not cut[2]:
        raise ValueError("trim_split needs a twin cut")
    return join_twins(g, a, 0, fam, LEAF, cut, (0, 0, True))


def trim(g: Graph, a: int, fam: Family, cut: Cut, trace: dict | None = None) -> Family:
    """The one trim of a family of home a, by its cut (`cut_of(g, a)`).
    Precondition, proved in `repsets.frontier`: every vertex of a
    without an outside neighbour has degree two in every member, `fam`
    holds one member per state, and no member is a cycle.  The families
    of `repsets.join_twins`, which no trim takes, meet it too.  Three
    cases:

    - a twin cut keeps what the twin rule keeps (`trim_split`);
    - a lone member m, or none, is dropped when |a| - |m| > |N(a)|: a
      cycle through m takes 2|a| - 2|m| cross edges, at most two at each
      outside neighbour;
    - every other cut takes the Koenig cover c of G[boundary, N(a)]
      (`cuts.min_vertex_cover`).  When c is the boundary, which holds
      exactly when a maximum matching covers every boundary vertex, c has
      at most five vertices and the home has three or more, `fam` is
      kept itself: the padding of c to three vertices stays in a, so no
      edge is estar.  By the precondition every path end lies on the
      boundary, so a member has at most four ends, and the basis keeps
      each state over c (the Corollary of `repsets`), which fixes the
      state, as every edge lies in a.  No member is a cycle, and none is
      over the budget: each path or isolated vertex holds a boundary
      vertex, so |a| - |m| <= |c|.  That is what `preserving_extension`
      would return, and its `max_family_by_k` is recorded at the size
      of the padded c, max(|c|, 3).
      Otherwise `preserving_extension` runs over the padded c, with the
      estar edges between a and c \\ a.  A home of one or two vertices
      is padded from outside it, which can make estar edges, so it always
      runs the extension.

    Every trim of a home other than V appends (a, before, after), the
    masks of `fam` and of the result, to `trace["trims"]` when the caller
    put a list there, also on an empty `fam`, so a trace shows the home
    at which a family died.
    """
    if a == g.vmask:
        return fam
    boundary, nbr, twin = cut
    if twin:
        out = trim_split(g, a, fam, cut)
    elif len(fam) < 2:  # a lone member, or none
        out = {key: m for key, m in fam.items()
               if a.bit_count() - m.bit_count() <= nbr.bit_count()}
    else:
        c = min_vertex_cover(g, boundary, nbr)
        if c == boundary and c.bit_count() <= 5 and a.bit_count() >= 3:
            out = fam
            if trace is not None:
                k = max(c.bit_count(), 3)
                by_k = trace.setdefault("max_family_by_k", {})
                by_k[k] = max(by_k.get(k, 0), len(fam))
        else:
            c = pad_separator(g, a, c)
            estar = g.edges_at(c & ~a) & g.edges_at(boundary)
            out = preserving_extension(g, a, c, fam, estar, trace)
    _record(trace, a, fam, out)
    return out


# -- the bottom-up decision procedure ---------------------------------------

def solve_hc(g: Graph, bd: BranchDecomposition, trace: dict | None = None):
    """Decide Hamiltonicity along the decomposition; returns (bool, witness).

    The witness, when present, is an edge list forming the cycle, verified
    to be a simple spanning cycle before being returned.  A `trace` dict
    collects:

    - `node_sizes`: the family size of every decomposition node, in
      post-order, and `max_family`, the largest of them;
    - `max_family_by_k`: the largest family kept by a vertex-cover trim,
      per size k of its padded cover c, written once per such trim (by
      `trim` when it keeps the family whole, else by the
      `repsets.trim_separator` of its extension);
    - `trims`: (a, before, after) for every trim, of an empty family too,
      and for every twin join, which no trim takes, with before == after,
      only if the caller puts a list under that key.
    """
    if trace is not None:
        trace.setdefault("node_sizes", [])
        trace.setdefault("max_family", 0)
    if g.n < 3 or not g.is_connected():
        return False, None
    if bd.elements != g.vmask:
        raise ValueError("decomposition does not cover the graph's vertices")

    def note(size: int):
        if trace is not None:
            trace["node_sizes"].append(size)
            trace["max_family"] = max(trace["max_family"], size)

    adj, leaves, below = g.adj, bd.leaf_map, bd.below
    solved = []  # (home, cut, family) of each finished subtree, left before right
    for node in bd.post_order:
        home = below[node]
        if node in leaves:
            # `cut_of(g, home)`: g is connected with n >= 3, so the vertex
            # has a neighbour, its adjacency is all of N(home), and home != V
            cut, fam = (home, adj[leaves[node]], True), dict(LEAF)
        else:
            (h2, c2, f2), (h1, c1, f1) = solved.pop(), solved.pop()
            cut, fam = join(g, h1, h2, f1, f2, c1, c2, trace)
        note(len(fam))
        solved.append((home, cut, fam))
    (hx, cx, fx), (hy, cy, fy) = solved  # x's and y's subtrees, joined at the root
    _, final = join(g, hx, hy, fx, fy, cx, cy, trace)
    note(len(final))
    for m in final.values():
        if is_hamiltonian_cycle(g, m):
            return True, g.edge_set(m)
    return False, None
