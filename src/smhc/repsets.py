"""Hamiltonian-cycle representative sets over a separator.

A certificate family (`Family`) has one form everywhere, in `solver` too:
one dict from the state (d1, d2, pe) of each member to an edge mask with
that state, the least one wherever a fold made it.  It is pruned over a
separator by keeping a representative subfamily (`trim_separator`):
whenever some member closes a Hamiltonian cycle with a completion, some
kept member does too.  `preserving_extension` keeps the members of a
family whose extensions by its cross edges a trim over a cut cover c
keeps.  One fold loop, `frontier`, grows families by edge sets for it
and for `solver.join` alike, in that dict, under the precondition it
states; `join_twins` builds the family of a join whose home and sides
are twin cuts by counting, and folds no edge: by a dominance rule that
its docstring proves, one member per unit count (paths plus isolated
vertices), the one with the most paths, which `keep_twin`, the twin
trim's one rule, picks.  By Lemma 3
below keeping one member per state loses nothing, so the rank basis
runs once per trim.  Edge sets are bitmasks over the host's edge list.
A path system travels with its state (d1, d2, pe): its vertices of
degree >= 1 and >= 2, and one int `pe` with a field of `field_width(g)`
bits per vertex, where the field of each path end (a vertex of
d1 & ~d2) holds the other end of its path.  Other fields are zero and
never read: a vertex of degree zero is its own partner.  Producers set
the state in O(1) big-int operations per added edge: `grow` as it makes
each member, `join_twins` from the chains it adds.  `path_state` derives
it by walking the edges once; no producer calls it, and it is the
reference the keys are tested against.

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

Corollary.  With |D1| <= 4 the basis keeps the first member of each
(D0, D1, D2, pairing), so no row need be built: of the at most three
pairings, each has a 1 at the cut {lowest end, its partner}, where every
other has a 0 (rank C(3, 1) = 3, as in Cygan, Kratsch & Nederlof).  The
lowest end's partner names the pairing.

Lemma 3.  Let M be a path system of G[a ∪ S], S a separator, in which
every vertex of a \\ S has degree two and every path end lies in S.
Replacing each segment of a path between consecutive visits of S by one
edge of K_S gives the torso T of M, a path system of K_S with signature
(S \\ d1, S ∩ d1 \\ d2, S ∩ d2) whose paths pair the same ends as M's.
Proof.  Each path of M runs from S to S, so its segments cover it, and T
has a path through the same S-vertices in the same order between the
same ends.  A path visits each vertex once and the paths are disjoint,
so no edge of T repeats and an S-vertex keeps its degree.  Hence the
signature and row of T follow from (d1, d2, pe) without building T.
Equal torsos have equal rows, so a basis fed every such member in order
keeps exactly the members it keeps when fed their distinct torsos: a
repeated torso is dependent on its first occurrence.
"""

from __future__ import annotations

from itertools import islice

from .graph import Graph, bits

Family = dict[tuple[int, int, int], int]  # state (d1, d2, pe) -> an edge mask with it


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
    # acyclic iff the paths walked from the ends cover every vertex of d1
    return not d3 and sum(map(len, _paths(g, emask, d1 & ~d2))) == d1.bit_count()


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


def field_width(g: Graph) -> int:
    """Bits per vertex field of a pairing int: room for every vertex id."""
    return g.vmask.bit_length().bit_length()


def path_state(g: Graph, emask: int) -> tuple[int, int, int]:
    """State (d1, d2, pe) of a path system, its pairing found by walking."""
    d1, d2, _ = degree_masks(g, emask)
    w = field_width(g)
    pe = 0
    for seq in _paths(g, emask, d1 & ~d2):
        pe |= seq[-1] << seq[0] * w | seq[0] << seq[-1] * w
    return d1, d2, pe


def is_hamiltonian_cycle(g: Graph, emask: int) -> bool:
    if emask.bit_count() != g.n or g.n < 3:
        return False
    d1, d2, d3 = degree_masks(g, emask)
    if d2 != g.vmask or d3:
        return False
    # all degree two: one cycle iff the walk from a vertex uses all n edges
    return len(walk_from(g, emask, g.vertices[0])) == g.n + 1


# -- representative sets by pairings ----------------------------------------

def pairing_row(w: int, ends: int, pe: int) -> int:
    """GF(2) row of the pairing of the path ends, read from the fields of pe.

    Bit i stands for the cut that puts the lowest end on the left with the
    other ends at the set bits of i, numbered upward from the second-lowest
    end.  It is set when no path has its ends on both sides.  Without ends
    (the empty path system) the row is 1.
    """
    row = 1
    field = (1 << w) - 1
    for lo, v in enumerate(bits(ends)):
        far = (pe >> v * w) & field
        if far < v:
            continue  # the pair was placed from its lower end
        hi = (ends & ((1 << far) - 1)).bit_count()
        if not lo:  # the lowest end is on the left, its partner with it
            row = 1 << (1 << (hi - 1))
        else:  # this pair joins the left side, or stays on the right
            row |= row << ((1 << (lo - 1)) | (1 << (hi - 1)))
    return row


def representative_hc_sets(g: Graph, members: list[tuple[int, int, int]]) -> list[int]:
    """Indices of a subfamily preserving Hamiltonian-cycle completability.

    Each member is the state (d1, d2, pe) of a path system of the complete
    graph on a separator of size at least three, over g's vertex ids.  A
    member is kept exactly when its pairing row is independent of the rows
    kept before it for the same (D0, D1, D2) signature.  The module
    docstring proves that this preserves completability within 4^k < 6^k
    members.  By the Corollary a member with at most four ends builds no
    row: it is kept when it is the first of its pairing.
    """
    w = field_width(g)
    field = (1 << w) - 1
    bases: dict[tuple[int, int], dict[int, int]] = {}  # signature -> top bit -> row
    pairings: dict[tuple[int, int, int], int] = {}  # (d1, d2, lowest end's partner) -> i
    out = []
    for i, (d1, d2, pe) in enumerate(members):
        ends = d1 & ~d2
        if ends.bit_count() <= 4:
            low = (ends & -ends).bit_length() - 1
            key = (d1, d2, (pe >> low * w) & field if ends else 0)
            if pairings.setdefault(key, i) == i:
                out.append(i)
            continue
        row = pairing_row(w, ends, pe)
        basis = bases.setdefault((d1, d2), {})  # (d1, d2) fixes D0, D1 and D2
        while row:
            top = row.bit_length() - 1
            if top not in basis:
                basis[top] = row
                out.append(i)
                break
            row ^= basis[top]
    return out


# -- separator trims --------------------------------------------------------

def pad_separator(g: Graph, a: int, c: int) -> int:
    """Grow c to 3 vertices with lowest-id vertices of a, then others."""
    for pool in (a & ~c, g.vmask & ~a & ~c):
        for v in bits(pool):
            if c.bit_count() >= 3:
                return c
            c |= 1 << v
    return c


def trim_separator(g: Graph, a: int, sep: int, fam: Family,
                   trace: dict | None = None) -> Family:
    """Keep a representative subfamily of `fam` over the separator.

    `fam` maps the state (d1, d2, pe) of each edge mask to the mask,
    whose edges live in E(G[a ∪ sep]).  Every vertex of a \\ sep must be
    internal (degree two), else no completion through the separator can
    exist and the member is dropped; every path end of a live member then
    lies in sep.  A live member with edges but no ends is a spanning
    cycle, since no producer closes any other cycle; the canonically least
    one is kept, as it completes with the empty completion.  The other
    live members go, in sorted-mask order, to `representative_hc_sets`
    with their states over sep, which by Lemma 3 are the states of their
    torsos.  The kept members are returned under their keys, in that
    order, the cycle last.  With a `trace` dict, the largest kept family
    per separator size k is recorded under `max_family_by_k`.
    """
    live, states = [], []
    cycle = None  # canonically least spanning-cycle member, if any
    for key, m in sorted(fam.items(), key=lambda it: it[1]):
        d1, d2, pe = key
        if a & ~sep & ~d2:
            continue
        if d1 and not d1 & ~d2:
            if cycle is None:
                cycle = key, m
            continue
        live.append((key, m))
        states.append((d1 & sep, d2 & sep, pe))
    out = dict(live[i] for i in representative_hc_sets(g, states))
    if trace is not None:
        by_k = trace.setdefault("max_family_by_k", {})
        k = sep.bit_count()
        by_k[k] = max(by_k.get(k, 0), len(out))
    if cycle is not None:
        out[cycle[0]] = cycle[1]
    return out


# -- preserving extensions --------------------------------------------------

def preserving_extension(g: Graph, a: int, c: int, fam: Family, estar: int,
                         trace: dict | None = None) -> Family:
    """The members of `fam`, under their keys, that are the core (the edges
    within a) of what `trim_separator` over c keeps of every extension of a
    member by a set of its estar edges.

    `fam` maps the state (d1, d2, pe) of each certificate to it, c
    covers the cut of a, and `estar` holds the edges between a and c \\ a.
    Certificates whose degree deficiency exceeds the cross-edge budget
    2|c| cannot complete and are dropped first.  One `frontier` over estar
    grows the rest in place; it forgets no vertex of c (the forget
    step of Cygan et al., Parameterized Algorithms, 2015, ch. 7): c covers
    the cut, so a vertex of a \\ c is decided once its estar edges are in.
    The least member per state (on live members, the state over c) meets
    the only rank basis, one `trim_separator` over c (the reduce step, run
    apart as in Bodlaender, Cygan, Kratsch & Nederlof, Inf. & Comput.
    2015).  Exact: that trim feeds its basis in sorted-mask order, and a
    repeated state is dependent on its first occurrence (Lemma 3).  That
    trim drops dead members, so the result is exact for any `fam`, also one
    that breaks `frontier`'s precondition.  `trace` is passed on.
    """
    csize = c.bit_count()
    if csize < 3:
        raise ValueError("separator must have size at least three")
    fold = {key: m for key, m in fam.items() if a.bit_count() - m.bit_count() <= csize}
    fold = frontier(g, fold, estar, c)
    cores = {m & ~estar for m in trim_separator(g, a, c, fold, trace).values()}
    return {key: m for key, m in fam.items() if m in cores}


def frontier(g: Graph, fam: Family, left: int, boundary: int) -> Family:
    """`fam`, which maps the state (d1, d2, pe) of path systems without an
    edge of `left` to the least mask with it, grown in place by every
    valid set of `left`, the least mask per state, and returned.

    Precondition: the members and `left` lie in a home, and every vertex
    of it outside `boundary` that no edge of `left` meets has degree two
    in every member; the fold reads only `left` and `boundary` and checks
    degrees only where `left` meets.  In `solver.join` the home is a | b: a
    vertex of a's boundary off the home's boundary has a neighbour in b,
    hence a cross edge, and any other such vertex has degree two by
    `solver.trim`'s precondition on fa and fb.  In `preserving_extension`
    the home is a and c covers the cut, so a vertex of a \\ c with an
    outside neighbour meets an estar edge.

    The edges of `left` are folded in through `grow` grouped by vertex:
    next comes the vertex of `undecided` (the ends of `left`) with the
    fewest edges left, the lowest on ties, taken from the undecided
    vertices outside `boundary` while any are left.  A vertex is decided
    once it has no edge left; its degree is then final.  A decided vertex
    outside `boundary` with degree below two kills the member: no later
    edge meets it.  That kill is the only step that removes members, so
    deciding the vertices outside `boundary` first lands their kills
    before the boundary's edges multiply the members.  A member is keyed
    by its state when it is made, by the caller or by `grow`, and no step
    changes a key; the grow of a step's last edge kills at the step's newly
    decided vertices, so each member is visited once per edge.

    Exactness, which holds for any order of the vertices.  Two members with
    one state accept the same later edges, which meet undecided vertices
    only, and end with one state and liveness.  Later edges are disjoint
    from both masks, so adding them keeps the order of the two: the
    frontier keeps the least live member per final state.  Keeping the
    least mask per state as members are made keeps the same: a grown
    member's state follows from its parent's and the edge, and adding an
    edge that neither mask holds keeps their order.  Killing inside a grow
    keeps it too: liveness is read off the state, so a state is either
    stored and kept or never stored.  Hence `solver.trim`'s precondition
    in `solver.join`, where the members and `left` lie in the home: each
    member has degree two at every vertex of the home outside `boundary`
    (by the kills where `left` meets it, else by the precondition), no two
    share a state, and none is a cycle unless the home is V, as `grow`
    closes only Hamiltonian cycles.
    """
    w = field_width(g)
    adj, incident = g.adj, g.incident
    undecided = 0
    for i in bits(left):
        undecided |= g.edge_vertices[i]
    while undecided:
        fewest = left.bit_count() + 1
        rest = undecided & ~boundary or undecided
        while rest:  # every undecided vertex has an edge left, so 1 is least
            low = rest & -rest
            k = (incident[low.bit_length() - 1] & left).bit_count()
            if k < fewest:
                v, fewest = low.bit_length() - 1, k
                if k == 1:
                    break
            rest ^= low
        group = left & incident[v]
        left ^= group
        newly, rest = 1 << v, adj[v] & undecided
        while rest:
            low = rest & -rest
            if not incident[low.bit_length() - 1] & left:
                newly |= low
            rest ^= low
        undecided ^= newly
        last = group.bit_length() - 1
        for i in bits(group ^ 1 << last):
            grow(g, w, fam, i)
        grow(g, w, fam, last, newly & ~boundary)
    return fam


def join_twins(g: Graph, a: int, b: int, fa: Family, fb: Family,
               cut_a: tuple[int, int, bool], cut_b: tuple[int, int, bool]) -> Family:
    """Family of home a | b when it and both sides are twin cuts (a single
    vertex always is), cut_a and cut_b read as `solver.cut_of` does: per
    unit count, the one member that the twin trim (`keep_twin`) keeps of
    those the pairs of fa and fb reach, keyed by its state as its chains
    are added.  No cross edge is folded, and a member with a vertex off its
    side's boundary below degree two is skipped.

    Units.  If a cross edge exists, the cross edges are all of
    boundary(a) x boundary(b): every boundary vertex of a sees all of
    N(a) ∩ b, so boundary(b) = N(a) ∩ b, and likewise from b's side.  By
    `solver.trim`'s precondition a member of a side is, for completion,
    its p paths and i isolated vertices, all on the side's boundary (its
    units); its other vertices have degree two.  Per side choose p1 and p2
    paths that take one or two cross edges (one per end) and i1 and i2
    isolated vertices that take one or two; s = p1 + 2 p2 + i1 + 2 i2
    must be equal on both sides.  The units then form alternating chains,
    with no cycle, iff s = 0 or d = p1 + i1 summed over both sides is at
    least two (`_chains` builds them).  Each cross edge joins two
    components, so the result has U = units - s units, z of them the
    isolated vertices left unused and U - z paths.  A side whose boundary
    leaves the home's (N(a) within home, all or none, as the side is twin)
    must use every unit fully.  A cycle would close only at the root,
    which is no twin cut.

    Dominance.  At a twin cut a member of tally (p + 1, i - 1) completes
    wherever one of tally (p, i) does.  Map the units one to one, the
    extra path standing in for an isolated vertex x, whose two cross edges
    go to outside vertices y != z.  Give those two edges to the path's two
    ends instead: every boundary vertex sees all of N(a), and the
    completion is unchanged off the home.  Contracting each unit to a
    vertex then gives the same cycle.  So per unit count the member with
    the most paths is all a twin cut needs, which is `keep_twin`'s rule.

    The count.  Per s, `twin_use` gives each side's use with the fewest
    unused isolated vertices, z = i - min(i, s), and at that z the most
    degree-one units, 2 min(s, p + i) - s.  That use has the most
    degree-one units of any use with s, so it passes the chain test when
    any does, and it gives the pair the most paths at U.  A pair is tried
    for each s from max(0, units - t) on, t = |N(a | b)|, as U <= t, and
    `keep_twin` keeps per U the pair with the most paths, the least
    ma | mb on ties.  Members of one tally complete alike, since a
    bijection of the twin boundary carries a completion of one to the
    other, so every kept pair is realised once, as chains on the lowest-id
    units, and `solver.trim_split` returns the family.

    The key.  A chain's cross edges meet unit vertices only and make one
    path, so the state of ma | mb, the union of the keys, grows edge by
    edge as in `grow`: both ends join d1, an end already in d1 joins d2,
    and the fields of the vertices met are cleared.  Then the chain's far
    ends (a one-edge path unit's far end, or the isolated vertex itself)
    get each other's id, the pairing `path_state` would walk.
    """
    (ba, na, _), (bb, nb, _), home = cut_a, cut_b, a | b
    cross, full_a, full_b = bool(na & b), not na & ~home, not nb & ~home
    t = ((na | nb) & ~home).bit_count()
    w, index, kept = field_width(g), g.edge_index, {}
    field = (1 << w) - 1
    sides_b = [(key, m, (key[0] & ~key[1]).bit_count() >> 1, (b & ~key[0]).bit_count())
               for key, m in fb.items() if not b & ~bb & ~key[1]]
    for ka, ma in fa.items():
        if a & ~ba & ~ka[1]:
            continue
        pa, ia = (ka[0] & ~ka[1]).bit_count() >> 1, (a & ~ka[0]).bit_count()
        for kb, mb, pb, ib in sides_b:
            units = pa + ia + pb + ib
            top = min(pa + ia, pb + ib) * 2 if cross else 0
            for s in range(max(0, units - t), top + 1):
                ua, ub = twin_use(pa, ia, full_a, s), twin_use(pb, ib, full_b, s)
                if ua and ub and (not s or ua[1] + ua[3] + ub[1] + ub[3] >= 2):
                    z = ia - ua[2] - ua[3] + ib - ub[2] - ub[3]
                    keep_twin(kept, t, units - s - z, z, ma | mb, (ka, ma, kb, mb, ua, ub))
    out = {}
    for *_, (ka, ma, kb, mb, ua, ub) in kept.values():
        m, d1, d2, pe = ma | mb, ka[0] | kb[0], ka[1] | kb[1], ka[2] | kb[2]
        for chain in _chains(*_units(w, a, ka, ua), *_units(w, b, kb, ub)):
            for (_, u), (v, _) in zip(chain, chain[1:]):
                m |= 1 << index[(u, v) if u < v else (v, u)]
                uv = 1 << u | 1 << v
                d2 |= d1 & uv
                d1 |= uv
                pe &= ~(field << u * w | field << v * w)
            (x, _), (_, y) = chain[0], chain[-1]
            pe = pe & ~(field << x * w | field << y * w) | y << x * w | x << y * w
        out[d1, d2, pe] = m
    return out


def keep_twin(kept: dict, t: int, paths: int, isolated: int, rank: int, item) -> None:
    """The twin trim's rule at a home with t outside neighbours: offer
    `item`, of tally (paths, isolated vertices), to `kept`, which maps a
    unit count u = paths + isolated to (paths, rank, item) of the one item
    it keeps there.  An item is dropped when it has an isolated vertex and
    t < 2, or u > t: a cycle through it takes two cross edges per unit, at
    most two at each outside neighbour, and an isolated vertex's two go to
    distinct ones.  Otherwise it replaces the item held at u when it has
    more paths (the dominance rule of `join_twins`), or as many and a
    lower rank."""
    units = paths + isolated
    if units <= t and (t > 1 or not isolated):
        held = kept.get(units)
        if held is None or paths > held[0] or paths == held[0] and rank < held[1]:
            kept[units] = paths, rank, item


def twin_use(p: int, i: int, full: bool, s: int) -> tuple[int, int, int, int] | None:
    """The use (p2, p1, i2, i1) of one side's p paths and i isolated
    vertices that takes s cross edges with the fewest isolated vertices
    left unused and, at that, the most degree-one units p1 + i1, or None
    when no use takes s; see `join_twins`.  A full side takes s = 2(p + i)
    only.  Up to s = p + i every taken unit takes one edge, isolated
    vertices first; past it every unit is taken and s - (p + i) take two,
    isolated vertices first."""
    units = p + i
    if s > 2 * units or full and s != 2 * units:
        return None
    if s <= units:
        i1 = min(i, s)
        return 0, s - i1, 0, i1
    two = s - units
    i2 = min(i, two)
    return two - i2, p - two + i2, i2, i - i2


def _units(w: int, side: int, key: tuple[int, int, int], use: tuple) -> tuple[list, list]:
    """The units a use takes of a member, lowest ids first: those that take
    two cross edges as (entry, exit) vertex pairs, then those that take one
    as (entry, far end), a path taking its edge at its lower end and an
    isolated vertex being both."""
    (d1, d2, pe), (p2, p1, i2, i1) = key, use
    field, ends, paths = (1 << w) - 1, d1 & ~d2, []
    while len(paths) < p2 + p1:
        x = (ends & -ends).bit_length() - 1
        y = (pe >> x * w) & field
        ends &= ~(1 << x | 1 << y)
        paths.append((x, y))
    iso = [(v, v) for v in islice(bits(side & ~d1), i2 + i1)]
    return paths[:p2] + iso[:i2], paths[p2:] + iso[i2:]


def _chains(x2: list, x1: list, y2: list, y1: list) -> list:
    """Alternating chains over two sides' units, x2 and y2 taking two edges
    and x1 and y1 one, with equal edge counts and x1 + y1 >= 2 if any: one
    chain through every unit of two, ended by units of one, then pairs.
    A chain's first unit is turned to (far end, entry), so its cross edges
    join each unit's second vertex to the next one's first, and its far
    ends are its first and last vertex."""
    if len(x2) < len(y2):
        x2, x1, y2, y1 = y2, y1, x2, x1
    chains, k = [], len(y2)
    if x2:  # y1[0], x2[0], y2[0], ..., y2[k - 1], then x2[k] and y1[1], or x1[0]
        body = [u for pair in zip(x2, y2) for u in pair]
        if len(x2) > k:
            chains.append([y1[0][::-1], *body, x2[k], y1[1]])
            chains += ([y1[2 * j][::-1], u, y1[2 * j + 1]]
                       for j, u in enumerate(x2[k + 1:], 1))
            y1 = y1[2 * (len(x2) - k):]
        else:
            chains.append([y1[0][::-1], *body, x1[0]])
            x1, y1 = x1[1:], y1[1:]
    return chains + [[x[::-1], y] for x, y in zip(x1, y1)]


def grow(g: Graph, w: int, fam: Family, i: int, dead: int = 0) -> None:
    """Add to `fam` each of its members grown by edge i, where that is
    valid, and drop the members killed by `dead`.

    `fam` maps keys (d1, d2, pe) to the least edge mask of that key, each
    a path system without edge i.  The members present at the call are
    grown; each grown member is keyed as it is made and stored unless its
    key holds a lesser mask.  A member, parent or grown, is killed when
    some vertex of `dead` is not in its d2: a killed parent is deleted,
    though still grown from the snapshot, and a killed grown member is not
    stored.  Adding uv is invalid when u or v has degree two already, or
    when u and v end one path and closing it would leave out a vertex of
    g; closing a path through every vertex into a Hamiltonian cycle is
    allowed.  Only the fields of the two ends ou and ov of the joined path
    are rewritten, and those of u and v are cleared, so the field of a
    vertex that is no path end reads zero and no other bit of pe changes.
    The shifts and masks of edge i are computed once, outside the member
    loop.
    """
    u, v = g.edges[i]
    bit, uv = 1 << i, g.edge_vertices[i]
    ub, vb, uw, vw = 1 << u, 1 << v, u * w, v * w
    field = (1 << w) - 1
    clear = ~(field << uw | field << vw)
    vmask = g.vmask
    for key, m in list(fam.items()):
        d1, d2, pe = key
        if dead & ~d2:
            del fam[key]
        if uv & d2:
            continue
        c2 = d2 | d1 & uv  # the grown member's d2
        if dead & ~c2:
            continue
        ou = (pe >> uw) & field if d1 & ub else u
        if ou == v:  # closes a cycle: only a Hamiltonian one is kept
            if d1 != vmask or d1 & ~d2 != uv:
                continue
            key = (d1, c2, pe & clear)
        else:
            ov = (pe >> vw) & field if d1 & vb else v
            ouw, ovw = ou * w, ov * w
            key = (d1 | uv, c2, pe & clear & ~(field << ouw | field << ovw)
                   | ov << ouw | ou << ovw)
        m |= bit
        if fam.setdefault(key, m) > m:
            fam[key] = m
