"""Certificate dynamic programming over a branch decomposition.

A certificate is an edge bitmask forming vertex-disjoint paths inside its
home vertex set (or a Hamiltonian cycle of the whole graph, at the root).
A family maps each certificate to its state (d1, d2, pe): the vertices of
degree >= 1 and >= 2 and the pairing of its path ends (see `repsets`),
set in O(1) where the certificate is made.  Families are pruned with two
trims: the representative-family machinery of `repsets` on sides with a
small cut vertex cover, and a twin-signature collapse on split sides.  A
merge into a split side lists no members: one frontier over all pairs
forgets each vertex once its edges are decided (`_split_frontier`).
"""

from __future__ import annotations

from .graph import Graph, bits
from .cuts import is_split, min_vertex_cover, mm_value  # noqa: F401 (unused; benchmark/layers.py patches it here)
from .branchdec import BranchDecomposition
from .repsets import (field_width, grow, is_hamiltonian_cycle, pad_separator,
                      path_state, preserving_extension)


def _edges_at(g: Graph, vs: int) -> int:
    """Mask of the edges with an end in vs."""
    reach = 0
    for v in bits(vs):
        reach |= g.incident[v]
    return reach


def _enumerate_pair(g: Graph, sa: int, sb: int,
                    state_a: tuple[int, int, int], state_b: tuple[int, int, int],
                    cross: int, out: dict[int, tuple[int, int, int]]) -> None:
    """Add to `out` every valid sa ∪ sb ∪ E' with E' ⊆ cross, with its
    state (d1, d2, pe).

    The homes are vertex-disjoint, so the state of sa | sb is the union of
    those of sa and sb, field by field.  The cross edges are folded in
    through `grow`, highest index first, so members come in the order of
    a search that skips each edge before taking it, lowest index first.
    """
    w = field_width(g)
    items = [(sa | sb, state_a[0] | state_b[0], state_a[1] | state_b[1],
              state_a[2] | state_b[2], None)]
    for i in reversed(list(bits(cross))):
        items += grow(g, w, items, i)
    for m, d1, d2, pe, _ in items:
        out[m] = (d1, d2, pe)


def _split_frontier(g: Graph, a: int, b: int, fa: dict[int, tuple[int, int, int]],
                    fb: dict[int, tuple[int, int, int]]) -> dict[int, tuple[int, int, int]]:
    """Least member per key of the split home a | b, all pairs in one frontier.

    Each pair starts from its union state.  The cross edges are folded in
    through `grow` grouped by home vertex: next comes the vertex with the
    fewest cross edges left, the lowest on ties.  A vertex is decided once
    its last cross edge has been folded; its degree is then final.  A
    decided vertex with no neighbour outside the home and degree below two
    kills the item.  A decided boundary vertex is forgotten: it leaves d1
    and d2, its field is cleared, an undecided partner's field is set to
    `free`, and it only adds to the item's tally of decided path ends and
    decided isolated vertices.  Per key (undecided d1 and d2, pairing,
    tally) the least edge mask is kept; `path_state` rebuilds the states
    of the members kept at the end.

    This keeps what `trim_split` keeps of the members `_enumerate_pair`
    lists over all pairs.  Two items with one key accept the same later
    edges, which meet undecided vertices only, and end with the same
    tally, which is `trim_split`'s signature, and the same liveness.
    Later edges are disjoint from both masks, so adding them keeps the
    order of the two: the least mask per key gives the least mask per
    signature.
    """
    home = a | b
    w = field_width(g)
    free = (1 << w) - 1  # above every vertex id; `grow` writes there unread
    fields = (1 << free * w) - 1
    boundary = g.neighborhood(g.vmask & ~home) & home
    incident = g.incident
    items = [(sa | sb, d1a | d1b, d2a | d2b, pea | peb, 0)
             for sa, (d1a, d2a, pea) in fa.items() for sb, (d1b, d2b, peb) in fb.items()]
    left = _edges_at(g, a) & _edges_at(g, b)
    undecided = home
    while True:
        newly = 0
        fewest = left.bit_count() + 1
        for u in bits(undecided):
            k = (incident[u] & left).bit_count()
            if not k:
                newly |= 1 << u
            elif k < fewest:
                v, fewest = u, k
        undecided ^= newly
        best: dict[tuple[int, int, int, int], int] = {}
        keep = ~newly
        for m, d1, d2, pe, tally in items:
            short = newly & ~d2  # decided, of degree below two
            if short:
                if short & ~boundary:
                    continue
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
        items = [(m, *key) for key, m in best.items()]
        if not undecided:
            return {m: path_state(g, m) for m, *_ in items}
        group = left & incident[v]
        for i in bits(group):
            items += grow(g, w, items, i)
        left ^= group


INTERMEDIATE_TRIM_CAP = 1024  # pre-trim family size that triggers a trim in join


def join(g: Graph, a: int, b: int, fa: dict[int, tuple[int, int, int]],
         fb: dict[int, tuple[int, int, int]],
         trace: dict | None = None) -> dict[int, tuple[int, int, int]]:
    """Family of home a | b: each pair of fa and fb with every valid set of
    its candidate cross edges, those between deficient vertices, trimmed
    unless a | b is the whole graph.

    On a split home the pairs share one frontier that forgets decided
    vertices and keeps the least member per key (`_split_frontier`, which
    proves that `trim` then keeps what it keeps of all members); `trim`
    runs once on the frontier.  Elsewhere each pair is listed by
    `_enumerate_pair`; the members are trimmed whenever they exceed
    INTERMEDIATE_TRIM_CAP, and once more at the end.  No split side needs
    a path limit: `trim_split` keeps no member with more paths than the
    mm of its side, and the paper's limit is 4 times that.
    """
    if a & b:
        raise ValueError("certificate homes must be disjoint")
    home = a | b
    if is_split(g, home):
        return trim(g, home, _split_frontier(g, a, b, fa, fb), trace)
    whole = home == g.vmask
    reach_b = [_edges_at(g, b & ~d2) for _, d2, _ in fb.values()]
    out: dict[int, tuple[int, int, int]] = {}
    for sa, state_a in fa.items():
        reach_a = _edges_at(g, a & ~state_a[1])
        for (sb, state_b), reach in zip(fb.items(), reach_b):
            _enumerate_pair(g, sa, sb, state_a, state_b, reach_a & reach, out)
            if not whole and len(out) > INTERMEDIATE_TRIM_CAP:
                out = trim(g, home, out, trace)
    return out if whole else trim(g, home, out, trace)


# -- trims ------------------------------------------------------------------

def trim_vc(g: Graph, a: int, fam: dict[int, tuple[int, int, int]],
            trace: dict | None = None) -> dict[int, tuple[int, int, int]]:
    """Representative subfamily via a preserving extension over a Koenig cover."""
    c = pad_separator(g, a, min_vertex_cover(g, a))
    estar = g.edges_between(a, c & ~a)
    ext = preserving_extension(g, a, c, fam, estar, trace)
    return {core: fam[core] for _, core in ext}


def trim_split(g: Graph, a: int,
               fam: dict[int, tuple[int, int, int]]) -> dict[int, tuple[int, int, int]]:
    """One representative per twin signature on a split side.

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
    outside = g.vmask & ~a
    if not is_split(g, a):
        raise ValueError("trim_split needs a split side")
    boundary = g.neighborhood(outside) & a
    common_outside = g.neighborhood(a)
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


def trim(g: Graph, a: int, fam: dict[int, tuple[int, int, int]],
         trace: dict | None = None) -> dict[int, tuple[int, int, int]]:
    """Dispatch: split sides use the twin signature, others the rep-set trim.

    A lone member m of another side skips the rep-set trim.  It is dropped
    when |a| - |m| > |N(a)|: a cycle through m takes 2|a| - 2|m| cross
    edges, at most two at each outside neighbour.  A trim that runs
    appends (a, before, after) to `trace["trims"]` when the caller put a
    list there.
    """
    outside = g.vmask & ~a
    if outside == 0 or not fam:
        return fam
    if is_split(g, a):
        out = trim_split(g, a, fam)
    elif len(fam) > 1:
        out = trim_vc(g, a, fam, trace)
    else:
        (m,) = fam
        starved = a.bit_count() - m.bit_count() > g.neighborhood(a).bit_count()
        out = {} if starved else fam
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

    solved = []  # (home, family) of each finished subtree, left before right
    for node in bd.post_order:
        if node in bd.leaf_map:
            fam = {0: (0, 0, 0)}
        else:
            (h2, f2), (h1, f1) = solved.pop(), solved.pop()
            fam = join(g, h1, h2, f1, f2, trace)
        note(len(fam))
        solved.append((bd.below[node], fam))
    (hx, fx), (hy, fy) = solved  # x's and y's subtrees, joined at the root
    final = join(g, hx, hy, fx, fy, trace)
    note(len(final))
    for m in final:
        if is_hamiltonian_cycle(g, m):
            return True, g.edge_set(m)
    return False, None
