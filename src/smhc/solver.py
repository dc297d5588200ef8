"""Certificate dynamic programming over a branch decomposition.

A certificate is an edge bitmask forming vertex-disjoint paths inside its
home vertex set (or a Hamiltonian cycle of the whole graph, at the root).
A family maps each certificate to its state (d1, d2, pe): the vertices of
degree >= 1 and >= 2 and the pairing of its path ends (see `repsets`),
set in O(1) where the certificate is made.  Families are pruned with two
trims: the representative-family machinery of `repsets` on sides with a
small cut vertex cover, and a twin-signature collapse on split sides.
"""

from __future__ import annotations

from .graph import Graph, bits
from .cuts import is_split, min_vertex_cover, mm_value
from .branchdec import BranchDecomposition
from .repsets import (field_width, grow, is_hamiltonian_cycle, pad_separator,
                      partner, preserving_extension)


def _slot_edges(g: Graph, home: int, d1: int, d2: int, pe: int,
                max_paths: int | None) -> int:
    """Edges at the deficient vertices, optionally at the first few paths.

    Paths and isolated vertices count in the order of their lowest vertex.
    """
    slots = home & ~d2
    ends = d1 & ~d2
    isolated = home & ~d1
    paths = ends.bit_count() // 2 + isolated.bit_count()
    if max_paths is not None and paths > max_paths:
        w = field_width(g)
        allowed = far = 0
        for v in bits(ends | isolated):
            if (far >> v) & 1:
                continue
            other = partner(pe, w, d1, v)
            far |= 1 << other
            allowed |= (1 << v) | (1 << other)
            max_paths -= 1
            if not max_paths:
                break
        slots &= allowed
    reach = 0
    for v in bits(slots):
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


INTERMEDIATE_TRIM_CAP = 1024  # pre-trim family size that triggers a trim in join


def join(g: Graph, a: int, b: int, fa: dict[int, tuple[int, int, int]],
         fb: dict[int, tuple[int, int, int]],
         trace: dict | None = None) -> dict[int, tuple[int, int, int]]:
    """Family of home a | b: each pair of fa and fb with every valid set of
    its candidate cross edges, split sides limited to 4k paths, trimmed
    unless a | b is the whole graph.

    The pairs are trimmed whenever they exceed INTERMEDIATE_TRIM_CAP
    members, and once more at the end.
    """
    if a & b:
        raise ValueError("certificate homes must be disjoint")
    home = a | b
    whole = home == g.vmask
    limit = max(4 * max(mm_value(g, a), mm_value(g, b)), 1)
    limit_a = limit if is_split(g, a) else None
    limit_b = limit if is_split(g, b) else None
    reach_b = [_slot_edges(g, b, *state, limit_b) for state in fb.values()]
    out: dict[int, tuple[int, int, int]] = {}
    for sa, state_a in fa.items():
        reach_a = _slot_edges(g, a, *state_a, limit_a)
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
    neighbourhood, so a certificate only matters through how many paths
    and how many isolated vertices offer attachment slots; certificates
    with a deficient non-boundary vertex can never be completed.
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
        if a & ~d2 & ~boundary or (isolated and t < 2):
            continue  # dead: no attachment for an inner or isolated vertex
        sig = ((d1 & ~d2).bit_count() // 2, isolated.bit_count())
        if sig in chosen or d1 and not d1 & ~d2:
            continue  # a closed cycle cannot reach the non-empty outside
        chosen[sig] = cert
    return {cert: fam[cert] for cert in chosen.values()}


def trim(g: Graph, a: int, fam: dict[int, tuple[int, int, int]],
         trace: dict | None = None) -> dict[int, tuple[int, int, int]]:
    """Dispatch: split sides use the twin signature, others the rep-set trim.

    A trim that runs appends (a, before, after) to `trace["trims"]` when
    the caller put a list there.
    """
    outside = g.vmask & ~a
    if outside == 0 or len(fam) <= 1:
        return fam
    if is_split(g, a):
        out = trim_split(g, a, fam)
    else:
        out = trim_vc(g, a, fam, trace)
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
