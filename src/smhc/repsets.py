"""Representative families over the graphic matroid.

A family of p-edge forests is pruned to a spanning subfamily by realizing
each member as the vector of p x p minors of its columns in a field
representation of the graphic matroid (signed incidence matrix with one row
dropped), and keeping a row basis via Gaussian elimination.  On top of that
sit the Hamiltonian-cycle specific reductions: degree-class bucketing,
torso compression onto a separator, and preserving extensions.

All edge sets are bitmasks over the host graph's edge list.  A path
system's state (degree classes, path ends, acyclicity) is derived from
vertex bitmasks, the host's per-edge endpoint and per-vertex incident-edge
masks, and is defined for edge sets of maximum degree two.
"""

from __future__ import annotations

import random

from .graph import Graph, bits

FIELD_PRIME = 2_147_483_647  # fixed prime field, comfortably above 2^16


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


def walk_paths(g: Graph, emask: int) -> list[list[int]]:
    """Vertex sequences of the maximal paths of a path system (length >= 1)."""
    d1, d2, _ = degree_masks(g, emask)
    return list(_paths(g, emask, d1 & ~d2))


def degree_signature(g: Graph, emask: int, universe: int) -> tuple[int, int, int]:
    """(D0, D1, D2) vertex masks over the universe; degree >= 3 is rejected."""
    d1, d2, d3 = degree_masks(g, emask)
    over = d3 & universe
    if over:
        v = (over & -over).bit_length() - 1
        d = (g.incident[v] & emask).bit_count()
        raise ValueError(f"vertex {v} has degree {d} > 2")
    return universe & ~d1, universe & d1 & ~d2, universe & d2


def is_hamiltonian_cycle(g: Graph, emask: int) -> bool:
    if emask.bit_count() != g.n or g.n < 3:
        return False
    d1, d2, d3 = degree_masks(g, emask)
    if d2 != g.vmask or d3:
        return False
    # all degree two: one cycle iff the walk from a vertex uses all n edges
    return len(walk_from(g, emask, g.vertices[0])) == g.n + 1


# -- graphic-matroid representation ----------------------------------------

class MatroidRep:
    """Signed incidence matrix of a graph over GF(FIELD_PRIME), one row dropped.

    Columns are indexed by the host's edge list; a column set is linearly
    independent exactly when the corresponding edge set is a forest.
    """

    def __init__(self, host: Graph):
        self.host = host
        self.rows = host.vertices[:-1]
        row_pos = {v: i for i, v in enumerate(self.rows)}
        self.columns = []
        for (u, v) in host.edges:
            col = [0] * len(self.rows)
            if u in row_pos:
                col[row_pos[u]] = 1
            if v in row_pos:
                col[row_pos[v]] = FIELD_PRIME - 1
            self.columns.append(col)

    def truncated_columns(self, rank: int, seed: int) -> list[list[int]]:
        """Random row compression to the given rank (seeded, Schwartz-Zippel)."""
        rng = random.Random((seed, "matroid-truncation", rank))
        r0 = len(self.rows)
        t = [[rng.randrange(FIELD_PRIME) for _ in range(r0)] for _ in range(rank)]
        out = []
        for col in self.columns:
            out.append([sum(t[i][j] * col[j] for j in range(r0)) % FIELD_PRIME
                        for i in range(rank)])
        return out


def _wedge_vector(columns: list[list[int]], nrows: int) -> dict[int, int]:
    """Minors of all row subsets of size p = len(columns), keyed by row mask."""
    cur = {0: 1}
    for j, col in enumerate(columns):
        nxt: dict[int, int] = {}
        for rmask, val in cur.items():
            for i in range(nrows):
                bit = 1 << i
                if rmask & bit or not col[i]:
                    continue
                pos = (rmask & (bit - 1)).bit_count()
                term = val * col[i]
                if (pos + j) & 1:
                    term = -term
                key = rmask | bit
                nxt[key] = (nxt.get(key, 0) + term) % FIELD_PRIME
        cur = {k: v for k, v in nxt.items() if v}
        if not cur:
            return {}
    return cur


class _Basis:
    """Incremental row basis over GF(FIELD_PRIME) in sparse dict form."""

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}  # pivot key -> reduced row

    def try_insert(self, row: dict[int, int]) -> bool:
        row = dict(row)
        for key in sorted(self.pivots):
            if key in row:
                coeff = row[key]
                pivot_row = self.pivots[key]
                for k2, v2 in pivot_row.items():
                    nv = (row.get(k2, 0) - coeff * v2) % FIELD_PRIME
                    if nv:
                        row[k2] = nv
                    elif k2 in row:
                        del row[k2]
        if not row:
            return False
        key = min(row)
        inv = pow(row[key], FIELD_PRIME - 2, FIELD_PRIME)
        self.pivots[key] = {k: (v * inv) % FIELD_PRIME for k, v in row.items()}
        return True


def representative_forests(host: Graph, members: list[int], p: int, q: int,
                           seed: int = 0) -> list[int]:
    """Spanning subfamily of p-edge forests w.r.t. q-edge forest completions.

    Keeps members in input order; a member is kept iff its minor vector is
    outside the span of the previously kept ones.  For any q-edge set Y, if
    some input member is disjoint from Y with their union a forest, some
    kept member is too.
    """
    if p < 0 or q < 0:
        raise ValueError("p and q must be non-negative")
    for m in members:
        if m.bit_count() != p:
            raise ValueError(f"member has {m.bit_count()} edges, expected {p}")
    rank = host.n - 1
    if p + q > rank:
        return []  # no disjoint union of p+q edges can be a forest
    if p + q < rank:
        columns = MatroidRep(host).truncated_columns(p + q, seed)
        nrows = p + q
    else:
        columns = MatroidRep(host).columns
        nrows = rank
    basis = _Basis()
    out = []
    for m in members:  # a non-forest has dependent columns: no minor survives
        vec = _wedge_vector([columns[i] for i in bits(m)], nrows)
        if vec and basis.try_insert(vec):
            out.append(m)
    return out


def representative_hc_sets(gC: Graph, members: list[int], seed: int = 0,
                           stats: dict | None = None) -> list[int]:
    """Subfamily preserving Hamiltonian-cycle completability over E(gC).

    Members are bucketed by their (D0, D1, D2) degree classes; each bucket
    is pruned by `representative_forests` with q = n - p - 1.  The union is
    at most 6^n members and keeps, for every completion Y, some member that
    still closes a Hamiltonian cycle whenever any input member did.
    """
    k = gC.n
    buckets: dict[tuple[int, int, int], list[int]] = {}
    order: list[tuple[int, int, int]] = []
    dropped = 0
    for m in members:
        if not is_path_system(gC, m):
            dropped += 1
            continue
        sig = degree_signature(gC, m, gC.vmask)
        if sig not in buckets:
            buckets[sig] = []
            order.append(sig)
        buckets[sig].append(m)
    if stats is not None:
        stats["non_path_dropped"] = stats.get("non_path_dropped", 0) + dropped
    out = []
    for sig in order:
        bucket = buckets[sig]
        p = bucket[0].bit_count()
        out.extend(representative_forests(gC, bucket, p, k - p - 1, seed=seed))
    return out


# -- torso compression ------------------------------------------------------

SPANNING_CYCLE = "spanning-cycle"


def torso(g: Graph, emask: int, side: int, sep: int):
    """Compress a path system onto the separator; None marks a dead member.

    Every vertex of side \\ sep must be internal (degree two) and every
    path endpoint must lie in sep, else no completion through the separator
    can exist.  Each segment between consecutive separator visits becomes
    one separator edge; the paths are vertex-disjoint, so no two segments
    join the same pair.  A member containing a cycle is dead unless it is a spanning cycle of the whole
    graph, in which case the SPANNING_CYCLE sentinel is returned: such a
    member completes exactly with the empty completion.
    """
    d1, d2, _ = degree_masks(g, emask)
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


def trim_separator(g: Graph, a: int, sep: int, items: list[tuple[int, object]],
                   seed: int = 0, stats: dict | None = None):
    """Keep one representative item per surviving torso class.

    `items` are (edge-mask, payload) pairs whose edges live in
    E(G[a ∪ sep]); the edge masks are reduced to torsos over sep, dead
    members dropped, duplicates collapsed to the canonically least item,
    and the torso family pruned by `representative_hc_sets`.
    """
    items = sorted(items, key=lambda it: it[0])
    sep_vertices = list(bits(sep))
    kC = Graph(sep_vertices, [(u, v) for i, u in enumerate(sep_vertices)
                              for v in sep_vertices[i + 1:]])
    by_torso: dict[int, tuple[int, object]] = {}
    torso_order: list[int] = []
    cycle_item = None  # canonically least spanning-cycle member, if any
    for emask, payload in items:
        t = torso(g, emask, a, sep)
        if t is None:
            continue
        if t is SPANNING_CYCLE:
            if cycle_item is None:
                cycle_item = (emask, payload)
            continue
        tmask = kC.edge_mask(t)
        if tmask not in by_torso:
            by_torso[tmask] = (emask, payload)
            torso_order.append(tmask)
    chosen = representative_hc_sets(kC, torso_order, seed=seed, stats=stats)
    if stats is not None:
        k = kC.n
        if len(chosen) > 6 ** k:
            stats["bound_violations"] = stats.get("bound_violations", 0) + 1
        by_k = stats.setdefault("max_family_by_k", {})
        by_k[k] = max(by_k.get(k, 0), len(chosen))
    out = [by_torso[t] for t in chosen]
    if cycle_item is not None:
        out.append(cycle_item)
    return out


# -- preserving extensions --------------------------------------------------

def preserving_extension(g: Graph, a: int, c: int, fam: list[int], estar: int,
                         seed: int = 0, per_cert_cap: int = 256,
                         stats: dict | None = None) -> list[tuple[int, int]]:
    """Extension family of `fam` by the separator-incident cross edges.

    Returns (extended-mask, core-certificate) pairs.  Certificates whose
    total degree deficiency exceeds the cross-edge budget 2|c| can never
    complete to a Hamiltonian cycle and are dropped.  Per certificate the
    estar edges at its deficient endpoints are folded in one at a time,
    trimming over the separator X ∪ c whenever the working family grows
    past the cap; the union over certificates is trimmed once more over c.
    """
    csize = c.bit_count()
    if csize < 3:
        raise ValueError("separator must have size at least three")
    na = a.bit_count()
    collected: list[tuple[int, int]] = []
    for cert in sorted(set(fam)):
        p = cert.bit_count()
        deficiency = 2 * na - 2 * p
        if deficiency > 2 * csize:
            continue
        xmask = a & ~degree_masks(g, cert)[1]
        sep = xmask | c
        candidates = [i for i in bits(estar) if g.edge_vertices[i] & xmask]
        working: list[tuple[int, int]] = [(cert, cert)]
        for i in candidates:
            u, v = g.edges[i]
            added = []
            for ext, core in working:
                if _can_add_edge(g, ext, u, v, allow_spanning_cycle=True):
                    added.append((ext | (1 << i), core))
            working.extend(added)
            if len(working) > per_cert_cap:
                working = trim_separator(g, a, sep, working, seed=seed,
                                         stats=stats)
        collected.extend(working)
    first: dict[int, int] = {}  # extended mask -> its first core
    for ext, core in collected:
        first.setdefault(ext, core)
    return trim_separator(g, a, c, list(first.items()), seed=seed, stats=stats)


def _can_add_edge(g: Graph, emask: int, u: int, v: int,
                  allow_spanning_cycle: bool = False) -> bool:
    """Edge uv keeps the path system valid: degrees < 2, no cycle closed.

    With allow_spanning_cycle, closing a path that already covers every
    vertex of g into a Hamiltonian cycle is permitted.
    """
    du = (g.incident[u] & emask).bit_count()
    dv = (g.incident[v] & emask).bit_count()
    if du >= 2 or dv >= 2:
        return False
    if not du or not dv:
        return True
    # cycle iff u and v are the two ends of one existing path
    seq = walk_from(g, emask, u)
    if seq[-1] != v:
        return True
    return allow_spanning_cycle and len(seq) == g.n
