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
states.  `join_twins` is the one home of the twin rule, which its
docstring states and proves: it builds the family of a join whose home
and sides are twin cuts by counting, keeping per unit count the first
pair of members that reaches it and folding no edge, and with an empty
side it is the twin trim (`solver.trim_split`).  By Lemma 3
below keeping one member per state loses nothing, so the rank basis
runs once per trim.  Edge sets are bitmasks over the host's edge list.
A path system travels with its state (d1, d2, pe): its vertices of
degree >= 1 and >= 2, and one int `pe` with a field of `field_width(g)`
bits per vertex, where the field of each path end (a vertex of
d1 & ~d2) holds the other end of its path.  Other fields are zero and
never read: a vertex of degree zero is its own partner.  Producers set
the state in O(1) big-int operations per added edge: `grow` as it makes
each member, `join_twins` from the cross edges it adds.  `path_state` derives
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

Corollary.  With |D1| <= 4 the basis keeps exactly the first member of
each (D0, D1, D2, pairing): of the at most three pairings, each has a 1
at the cut {lowest end, its partner}, where every other has a 0 (rank
C(3, 1) = 3, as in Cygan, Kratsch & Nederlof), so their rows are
independent and a repeated pairing is dependent on its first.  So a
family whose members have at most four ends and distinct states over
the separator loses no member; `solver.trim` relies on that.

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
    members.
    """
    w = field_width(g)
    bases: dict[tuple[int, int], dict[int, int]] = {}  # signature -> top bit -> row
    out = []
    for i, (d1, d2, pe) in enumerate(members):
        row = pairing_row(w, d1 & ~d2, pe)
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
    vertex always is), cut_a and cut_b read as `solver.cut_of` does: of
    the members that the pairs of fa and fb reach, those the twin rule
    keeps, each keyed by its state as its cross edges are added.  The
    twin rule keeps one member per unit count u = paths + isolated
    vertices, and none with u > t = |N(a | b)| or with an isolated vertex
    when t < 2 (the equivalence, below).  No cross edge is folded.
    Precondition: fa and fb meet `solver.trim`'s, as each is an output of
    `trim` or of this join, so every vertex of a side off the side's
    boundary has degree two in each of its members.  The family meets that
    precondition and the twin rule as built (below), so `solver.join`
    hands it on untrimmed.  With an empty side (b = 0, fb = `solver.LEAF`,
    cut_b = (0, 0, True)) no pair takes a cross edge, each member of fa
    reaches only its own u, and the family is fa under the twin rule: the
    twin trim (`solver.trim_split`).

    Units.  If a cross edge exists, the cross edges are all of
    boundary(a) x boundary(b): every boundary vertex of a sees all of
    N(a) ∩ b, so boundary(b) = N(a) ∩ b, and likewise from b's side.  By
    `solver.trim`'s precondition a member of a side is, for completion,
    its p paths and i isolated vertices, all on the side's boundary (its
    u = p + i units); its other vertices have degree two.  Per side choose
    p1 and p2 paths that take one or two cross edges (one per end) and i1
    and i2 isolated vertices that take one or two; s = p1 + 2 p2 + i1 +
    2 i2 must be equal on both sides.  The units then form alternating
    chains, with no cycle, iff s = 0 or d = p1 + i1 summed over both sides
    is at least two.  Each cross edge joins two components, so the result
    has U = units - s units.  A side whose boundary leaves the home's
    (N(a) within home, all or none, as the side is twin) must use every
    unit fully, so every vertex of the home off its boundary has degree
    two.  A cycle would close only at the root, which is no twin cut, and
    the members have distinct unit counts, hence distinct states.

    Equivalence.  At a twin cut with t outside neighbours every unit of a
    member lies on the boundary, whose vertices all see every outside
    neighbour.  With each unit contracted to a vertex, the cycle that a
    completion closes alternates the member's U units with U disjoint
    segments outside the home, each from an outside neighbour y to one z
    (y = z when the segment is one vertex), so U <= t.  Any bijection of
    the units of two members with U units carries the one's completion to
    the other's: keep the segments and join each unit's two ends, an
    isolated vertex twice, to the ends of the segments before and after
    it.  Those two cross edges at an isolated vertex are distinct unless U
    = 1 and y = z, and a path whose two cross edges meet at one vertex y
    closes a cycle with no other outside vertex, so t = 1.  Hence at t >=
    2 the members of one unit count complete alike, and at t < 2 only a
    single path does: one member per unit count is all the twin rule
    needs, and no count of paths.

    The pairs.  Each side takes s cross edges in `_units`' use, its
    isolated vertices first and the most units of one, min(s, 2u - s);
    that use passes the chain test when any use with s does.  The uses
    exist for 0 <= s <= 2 min(ua, ub), that is |ua - ub| <= U <= ua + ub,
    and the units of one fall below two only at s = 2ua = 2ub, that is U
    = 0, so the chain test is U >= 1.  A full side a takes s = 2ua only,
    so U = ub - ua; without a cross edge s = 0, so U = ua + ub; and U <=
    t.  The pairs run in the order of fa, then of fb, each by U falling,
    and per U the join keeps the first pair that reaches it.  At t < 2
    only U = 1 is tried, and with p paths per side the one unit is an
    isolated vertex exactly when min(ua + pb, pa + ub) = 0: a chain through
    units of both sides is a path, and a unit left unused belongs to a
    side whose partner has no unit; it is the side's last, a path unless
    the side has none.  That minimum is 0 only when one side has no unit
    and the other's member no path, and the pair reaches U = 1 only if
    that member has one unit.  A member without a unit has no edge and so
    no vertex, and a member with one unit and no path is one vertex with
    no edge, so the home is one vertex.  Hence the one test, before the
    pairs: a one-vertex home with t < 2 keeps nothing.  The unit counts
    enter the family in the order in which the pairs first reach them;
    the rank basis of a later trim reads families in order.

    Not a merge of the two sides' unit counts.  With cross edges a pair
    reaches an interval of U, not ua + ub alone: two single vertices
    joined by an edge each have u = 1, whose sum is U = 2, while the edge
    itself is a path at U = 1
    (`tests/test_repsets.py::test_twin_join_is_no_convolution_of_tallies`).
    So each pair is tried once per U it reaches, in O(1).

    The build.  By the equivalence every kept pair is realised once, on
    the lowest-id units.  A pair that takes no cross edge is ma | mb under
    the union of the keys.  Otherwise each side lists where its units of
    two and of one take their edges (`_units`).  On the side x with more
    units of two (a on ties) that is x2 then x1; on the other, y, it is
    y1's first, y2, then the rest of y1; the i-th vertex of one list is
    joined to the i-th of the other.  That is one chain from y1's first
    unit through the units of two, alternating sides and ended by a unit
    of one, then chains of three units, one of x2 between two of y1,
    while x2 lasts, then single cross edges between the units of one
    left; the two lists are equally long, as both sides take s edges, and
    y1 has a unit when x2 does, as the chain test holds.  A cross edge's
    bit is the one bit its ends' incidence masks share.  Each cross edge
    meets unit vertices only, so the key grows edge by edge as in `grow`:
    both ends join d1, an end already in d1 joins d2, and the two far ends
    of the joined paths get each other's id in pe, whose other fields of
    the edge's ends are cleared.
    """
    (_, na, _), (_, nb, _), home = cut_a, cut_b, a | b
    cross, full_a, full_b = bool(na & b), not na & ~home, not nb & ~home
    t = ((na | nb) & ~home).bit_count()
    if t < 2 and not home & (home - 1):  # its one unit would be isolated
        return {}
    kept: dict[int, tuple] = {}  # U -> (ta, tb) of the first pair that reaches it
    tallies_b = _tallies(b, fb)
    for ta in _tallies(a, fa):
        ua = ta[0]
        for tb in tallies_b:
            ub = tb[0]
            if not cross:
                lo = hi = ua + ub
            elif full_a:
                lo = hi = ub - ua
            elif full_b:
                lo = hi = ua - ub
            else:
                lo, hi = abs(ua - ub), ua + ub
            for u in range(min(hi, t), max(lo, 1) - 1, -1):
                if u not in kept:
                    kept[u] = ta, tb
    w, incident, out = field_width(g), g.incident, {}
    field = (1 << w) - 1
    for u, ((ua, ka, ma), (ub, kb, mb)) in kept.items():
        m, d1, d2, pe = ma | mb, ka[0] | kb[0], ka[1] | kb[1], ka[2] | kb[2]
        s = ua + ub - u
        if s:
            x2, x1 = _units(w, a, ka, ua, s)
            y2, y1 = _units(w, b, kb, ub, s)
            if len(x2) < len(y2):
                x2, x1, y2, y1 = y2, y1, x2, x1
            for v, z in zip(x2 + x1, y1[:1] + y2 + y1[1:]):
                m |= incident[v] & incident[z]
                vw, zw = v * w, z * w
                ov = (pe >> vw) & field if d1 >> v & 1 else v
                oz = (pe >> zw) & field if d1 >> z & 1 else z
                vz = 1 << v | 1 << z
                d2 |= d1 & vz
                d1 |= vz
                pe = (pe & ~(field << vw | field << zw | field << ov * w | field << oz * w)
                      | oz << ov * w | ov << oz * w)
        out[d1, d2, pe] = m
    return out


def _tallies(side: int, fam: Family) -> list[tuple]:
    """(u, key, mask) of each member of a twin family, in its order: its
    units u, its paths plus its isolated vertices."""
    out = []
    for key, m in fam.items():
        d1, d2, _ = key
        p = (d1 & ~d2).bit_count() >> 1
        out.append((p + (side & ~d1).bit_count(), key, m))
    return out


def _units(w: int, side: int, key: tuple[int, int, int], u: int, s: int) -> tuple[list, list]:
    """The vertices at which a member with u units takes s cross edges, s
    <= 2u, in the use of `join_twins`: its units in one list, isolated
    vertices first, then paths, lowest ids first, of which the first
    `twice` = max(0, s - u) take two edges and the next s - 2 twice one,
    so that s - twice units are used (a full side, s = 2u, takes two at
    each).  Two lists: the vertices of its units of two, each at its entry
    and then its exit (the isolated vertex twice, or a path's lower end
    and its partner), and those of its units of one, each at its entry
    (the vertex, or the lower end).  Only the units used are read."""
    twice = max(0, s - u)
    d1, d2, pe = key
    field, ends, iso = (1 << w) - 1, d1 & ~d2, side & ~d1
    two, one = [], []
    for k in range(s - twice):
        if iso:
            x = y = (iso & -iso).bit_length() - 1
            iso ^= 1 << x
        else:
            x = (ends & -ends).bit_length() - 1
            y = (pe >> x * w) & field
            ends ^= 1 << x | 1 << y
        if k < twice:
            two += (x, y)
        else:
            one.append(x)
    return two, one


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
