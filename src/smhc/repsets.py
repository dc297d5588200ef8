"""Hamiltonian-cycle representative sets over a separator.

A certificate family is pruned by compressing each member onto a
separator (`torso`), collapsing equal torsos, and keeping a representative
subfamily of the torsos (`representative_hc_sets`): whenever some member
closes a Hamiltonian cycle with a completion, some kept member does too.
`preserving_extension` applies this to a family extended by its cross
edges.  Edge sets are bitmasks over the host's edge list.  A path system
travels with its degree masks (d1, d2), its vertices of degree >= 1 and
>= 2; its path ends and acyclicity are derived from vertex bitmasks and
are defined for maximum degree two.

Representative sets by pairings.  Let K be the complete graph on a
separator of k >= 3 vertices and M a path system of K with signature
(D0, D1, D2), its vertices of degree 0, 1 and 2.  Y completes M when M
and Y are disjoint and M ∪ Y is a Hamiltonian cycle of K.  Such a Y has
signature (D2, D1, D0), so only members of one signature compete.  If D1
is empty, M is empty and alone in its signature.  Otherwise Y is a path
system too (a cycle less M's edges), and the paths of M and of Y pair up
D1 into perfect matchings P(M) and P(Y).

Lemma 1.  Let D1 be non-empty and Y a path system of signature
(D2, D1, D0).  Then Y completes M iff P(M) ∪ P(Y) is one cycle.
Proof.  Every vertex has degree two in the multigraph M + Y, and every
component meets D1, where the paths of M and Y end.  Contracting each
path to the pair of its ends maps the cycles of M + Y one to one onto
those of P(M) ∪ P(Y).  One cycle through k >= 3 vertices repeats no
edge, so then M and Y are disjoint and M ∪ Y is a Hamiltonian cycle.

Lemma 2.  A cut is a set L ⊆ D1 holding the lowest end; there are
2^(|D1|-1).  Let row(P) over GF(2) have a 1 at each cut that splits no
pair of P.  Then <row(P), row(Q)> = 1 iff P ∪ Q is one cycle.
Proof.  A cut splits no pair of P or Q iff each of the c cycles of P ∪ Q
lies on one side.  The one through the lowest end lies in L, so 2^(c-1)
cuts count, an odd number iff c = 1.  This factorises the
matchings-connectivity matrix of Cygan, Kratsch & Nederlof (STOC 2013,
J. ACM 2018), as in the rank-based approach of Bodlaender, Cygan,
Kratsch & Nederlof (Inf. & Comput. 2015).

Theorem.  Keep a member when its row is independent of the rows kept
before it for its signature.  The kept members preserve completability:
if Y completes M and D1 is non-empty, row(M) is a sum of kept rows
row(K_i), so 1 = Σ <row(K_i), row(Y)> and Y completes some K_i.  At most
2^(|D1|-1) members are kept per signature, Σ 2^|D1| = (1 + 2 + 1)^k =
4^k < 6^k in all.  The basis is exact and deterministic.  It replaces
the general graphic-matroid representative families of Fomin,
Lokshtanov, Panolan & Saurabh (J. ACM 2016), which need a large field
and random sampling to truncate.
"""

from __future__ import annotations

from .graph import Graph, bits


# -- path-system state from vertex bitmasks -------------------------------

def degree_masks(g: Graph, emask: int) -> tuple[int, int, int]:
    """Masks of the vertices of degree >= 1, >= 2 and >= 3 in the edge set."""
    ends = g.edge_vertices
    d1 = d2 = d3 = 0
    while emask:
        low = emask & -emask
        e = ends[low.bit_length() - 1]
        d3 |= d2 & e
        d2 |= d1 & e
        d1 |= e
        emask ^= low
    return d1, d2, d3


def is_path_system(g: Graph, emask: int) -> bool:
    d1, d2, d3 = degree_masks(g, emask)
    return not d3 and _is_acyclic(g, emask, d1, d2)


def walk_from(g: Graph, emask: int, v: int) -> list[int]:
    """Vertex sequence of the path of the edge set that ends at v."""
    incident, ends = g.incident, g.edge_vertices
    seq = [v]
    while True:
        e = incident[v] & emask
        if not e:
            return seq
        e &= -e
        emask ^= e
        v = (ends[e.bit_length() - 1] ^ (1 << v)).bit_length() - 1
        seq.append(v)


def _paths(g: Graph, emask: int, ends: int):
    """The paths with ends in the mask, each walked from its lower end."""
    far = 0
    for v in bits(ends):
        if not (far >> v) & 1:
            seq = walk_from(g, emask, v)
            far |= 1 << seq[-1]
            yield seq


def _is_acyclic(g: Graph, emask: int, d1: int, d2: int) -> bool:
    """Whether the paths walked from the ends cover every vertex of d1."""
    return sum(len(seq) for seq in _paths(g, emask, d1 & ~d2)) == d1.bit_count()


def is_hamiltonian_cycle(g: Graph, emask: int) -> bool:
    if emask.bit_count() != g.n or g.n < 3:
        return False
    d1, d2, d3 = degree_masks(g, emask)
    if d2 != g.vmask or d3:
        return False
    # all degree two: one cycle iff the walk from a vertex uses all n edges
    return len(walk_from(g, emask, g.vertices[0])) == g.n + 1


# -- representative sets by pairings ----------------------------------------

def pairing_row(g: Graph, emask: int, d1: int, d2: int) -> int | None:
    """GF(2) row of the pairing of the path ends; None if there is a cycle.

    Bit i stands for the cut that puts the lowest end on the left with the
    other ends at the set bits of i, numbered upward from the second-lowest
    end.  It is set when no path has its ends on both sides.  Without ends
    (the empty path system) the row is 1.
    """
    ends = d1 & ~d2
    row = 1
    covered = 0
    for seq in _paths(g, emask, ends):
        covered += len(seq)
        lo = (ends & ((1 << seq[0]) - 1)).bit_count()
        hi = (ends & ((1 << seq[-1]) - 1)).bit_count()
        if not lo:  # the lowest end is on the left, its partner with it
            row = 1 << (1 << (hi - 1))
        else:  # this pair joins the left side, or stays on the right
            row |= row << ((1 << (lo - 1)) | (1 << (hi - 1)))
    return row if covered == d1.bit_count() else None


def representative_hc_sets(gC: Graph, members: list[int]) -> list[int]:
    """Subfamily preserving Hamiltonian-cycle completability over E(gC).

    gC is the complete graph on a separator of size at least three.  A
    member with a degree-3 vertex or a cycle is dropped; any other is kept
    exactly when its pairing row is independent of the rows kept before it
    for the same (D0, D1, D2) signature.  The module docstring proves that
    this preserves completability within 4^k < 6^k members.
    """
    bases: dict[tuple[int, int], dict[int, int]] = {}  # signature -> top bit -> row
    out = []
    for m in members:
        d1, d2, d3 = degree_masks(gC, m)
        row = None if d3 else pairing_row(gC, m, d1, d2)
        if row is None:
            continue
        basis = bases.setdefault((d1, d2), {})  # (d1, d2) fixes D0, D1 and D2
        while row:
            top = row.bit_length() - 1
            if top not in basis:
                basis[top] = row
                out.append(m)
                break
            row ^= basis[top]
    return out


# -- torso compression ------------------------------------------------------

SPANNING_CYCLE = "spanning-cycle"


def torso(g: Graph, emask: int, d1: int, d2: int, side: int, sep: int):
    """Compress a path system onto the separator; None marks a dead member.

    d1 and d2 are the member's vertices of degree >= 1 and >= 2.  Every
    vertex of side \\ sep must be internal (degree two) and every path
    endpoint must lie in sep, else no completion through the separator can
    exist.  Each segment between consecutive separator visits becomes one
    separator edge; the paths are vertex-disjoint, so no two segments join
    the same pair.  A member containing a cycle is dead unless it is a
    spanning cycle of the whole graph, in which case the SPANNING_CYCLE
    sentinel is returned: such a member completes exactly with the empty
    completion.
    """
    ends = d1 & ~d2
    if side & ~sep & ~d2 or ends & ~sep:
        return None
    edges = set()
    covered = 0
    for seq in _paths(g, emask, ends):
        covered += len(seq)
        last = seq[0]
        for v in seq[1:]:
            if (sep >> v) & 1:
                edges.add((last, v) if last < v else (v, last))
                last = v
    if covered != d1.bit_count():  # a leftover component is a cycle
        return SPANNING_CYCLE if is_hamiltonian_cycle(g, emask) else None
    return frozenset(edges)


def pad_separator(g: Graph, a: int, c: int, minimum: int = 3) -> int:
    """Grow c to the minimum size with lowest-id vertices of a, then others."""
    for pool in (a & ~c, g.vmask & ~a & ~c):
        for v in bits(pool):
            if c.bit_count() >= minimum:
                return c
            c |= 1 << v
    return c


def trim_separator(g: Graph, a: int, sep: int,
                   items: list[tuple[int, int, int, object]],
                   trace: dict | None = None):
    """Keep one representative item per surviving torso class.

    `items` are (edge-mask, d1, d2, payload) tuples whose edges live in
    E(G[a ∪ sep]), with d1 and d2 the degree masks of the edge mask; the
    edge masks are reduced to torsos over sep, dead members dropped,
    duplicates collapsed to the canonically least item, and the torso
    family pruned by `representative_hc_sets`.  With a `trace` dict, the
    largest kept family per separator size k is recorded under
    `max_family_by_k`.
    """
    items = sorted(items, key=lambda it: it[0])
    sep_vertices = list(bits(sep))
    kC = Graph(sep_vertices, [(u, v) for i, u in enumerate(sep_vertices)
                              for v in sep_vertices[i + 1:]])
    by_torso: dict[int, tuple[int, int, int, object]] = {}
    torso_order: list[int] = []
    cycle_item = None  # canonically least spanning-cycle member, if any
    for item in items:
        t = torso(g, item[0], item[1], item[2], a, sep)
        if t is None:
            continue
        if t is SPANNING_CYCLE:
            if cycle_item is None:
                cycle_item = item
            continue
        tmask = kC.edge_mask(t)
        if tmask not in by_torso:
            by_torso[tmask] = item
            torso_order.append(tmask)
    chosen = representative_hc_sets(kC, torso_order)
    if trace is not None:
        by_k = trace.setdefault("max_family_by_k", {})
        by_k[kC.n] = max(by_k.get(kC.n, 0), len(chosen))
    out = [by_torso[t] for t in chosen]
    if cycle_item is not None:
        out.append(cycle_item)
    return out


# -- preserving extensions --------------------------------------------------

EXTENSION_TRIM_CAP = 256  # working family size that triggers a trim over X ∪ c


def preserving_extension(g: Graph, a: int, c: int,
                         fam: dict[int, tuple[int, int]], estar: int,
                         trace: dict | None = None) -> list[tuple[int, int]]:
    """Extension family of `fam` by the separator-incident cross edges.

    `fam` maps each certificate to its degree masks (d1, d2).  Returns
    (extended-mask, core-certificate) pairs.  Certificates whose total
    degree deficiency exceeds the cross-edge budget 2|c| can never
    complete to a Hamiltonian cycle and are dropped.  Per certificate the
    estar edges at its deficient endpoints are folded in one at a time,
    trimming over the separator X ∪ c whenever the working family grows
    past EXTENSION_TRIM_CAP; the union over certificates is trimmed once
    more over c.  `trace` is passed on to `trim_separator`.
    """
    csize = c.bit_count()
    if csize < 3:
        raise ValueError("separator must have size at least three")
    na = a.bit_count()
    first: dict[int, tuple[int, int, int, int]] = {}  # extended mask -> first item
    for cert in sorted(fam):
        p = cert.bit_count()
        deficiency = 2 * na - 2 * p
        if deficiency > 2 * csize:
            continue
        d1, d2 = fam[cert]
        xmask = a & ~d2
        sep = xmask | c
        candidates = [i for i in bits(estar) if g.edge_vertices[i] & xmask]
        working = [(cert, d1, d2, cert)]  # (extended mask, d1, d2, core)
        for i in candidates:
            u, v = g.edges[i]
            e = g.edge_vertices[i]
            added = []
            for ext, e1, e2, core in working:
                if _can_add_edge(g, ext, e1, e2, u, v, allow_spanning_cycle=True):
                    added.append((ext | (1 << i), e1 | e, e2 | (e1 & e), core))
            working.extend(added)
            if len(working) > EXTENSION_TRIM_CAP:
                working = trim_separator(g, a, sep, working, trace)
        for item in working:
            first.setdefault(item[0], item)
    out = trim_separator(g, a, c, list(first.values()), trace)
    return [(ext, core) for ext, _, _, core in out]


def _can_add_edge(g: Graph, emask: int, d1: int, d2: int, u: int, v: int,
                  allow_spanning_cycle: bool = False) -> bool:
    """Edge uv keeps the path system valid: degrees < 2, no cycle closed.

    d1 and d2 are the vertices of degree >= 1 and >= 2 of the edge set.
    With allow_spanning_cycle, closing a path that already covers every
    vertex of g into a Hamiltonian cycle is permitted.
    """
    uv = (1 << u) | (1 << v)
    if uv & d2:
        return False
    if uv & ~d1:
        return True
    # cycle iff u and v are the two ends of one existing path
    seq = walk_from(g, emask, u)
    if seq[-1] != v:
        return True
    return allow_spanning_cycle and len(seq) == g.n
