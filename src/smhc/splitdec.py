"""Split decomposition into prime graphs, with tot/act and lifted cut values.

Marker vertices get globally fresh ids above the original id range, so the
original vertices keep their ids inside every prime.  The decomposition is
some valid prime decomposition, not the canonical one; everything downstream
only needs primality of the parts.
"""

from __future__ import annotations

import json

from .graph import Graph, bits
from .cuts import CutFunction, mm_value, sm_value, split_sides

EXHAUSTIVE_SPLIT_LIMIT = 14


def _find_split_exhaustive(g: Graph):
    verts = g.vertices
    n = len(verts)
    anchor = verts[0]
    rest = verts[1:]
    for sub in range(1 << (n - 1)):
        a = 1 << anchor
        for i in range(n - 1):
            if (sub >> i) & 1:
                a |= 1 << rest[i]
        b = g.vmask & ~a
        if split_sides(g, a, b):
            return a, b
    return None


def _find_split_closure(g: Graph):
    """Grow a candidate side from each seed pair; sound but may miss splits."""
    verts = g.vertices
    for i, x in enumerate(verts):
        for y in verts[i + 1:]:
            a = (1 << x) | (1 << y)
            changed = True
            while changed and a != g.vmask:
                changed = False
                b = g.vmask & ~a
                nb_by_vertex = [g.adj[v] & b for v in bits(a) if g.adj[v] & b]
                if not nb_by_vertex:
                    break
                union = 0
                inter = g.vmask
                for nb in nb_by_vertex:
                    union |= nb
                    inter &= nb
                disputed = union & ~inter
                if disputed:
                    a |= disputed
                    changed = True
            b = g.vmask & ~a
            if b.bit_count() >= 2 and split_sides(g, a, b):
                return a, b
    return None


def find_split(g: Graph):
    """Some non-trivial split (a, b) of the connected graph g, or None.

    Exhaustive (certified) for n <= EXHAUSTIVE_SPLIT_LIMIT; beyond that a
    closure heuristic is used, which only ever returns verified splits but
    may fail to find one.
    """
    if not g.is_connected():
        raise ValueError("split decomposition needs a connected graph")
    if g.n < 4:
        return None
    if g.n <= EXHAUSTIVE_SPLIT_LIMIT:
        return _find_split_exhaustive(g)
    return _find_split_closure(g)


class SplitDecomposition:
    """Primes, marker registry, and the decomposition tree of a graph."""

    def __init__(self, graph: Graph, primes: list[Graph], markers: dict[int, tuple[int, int]]):
        self.graph = graph
        self.primes = primes
        self.markers = markers  # marker id -> (prime index, prime index)
        self.tree_edges = sorted(set(markers.values()))
        self.marker_mask = 0
        for m in markers:
            self.marker_mask |= 1 << m
        self._tot_cache: dict[tuple[int, int], int] = {}

    # -- tot / act ---------------------------------------------------------

    def prime_of(self, i: int) -> Graph:
        return self.primes[i]

    def tot(self, i: int, v: int) -> int:
        """Original vertices represented by v as seen from prime i."""
        if not (self.primes[i].vmask >> v) & 1:
            raise ValueError(f"vertex {v} is not in prime {i}")
        if (self.graph.vmask >> v) & 1:
            return 1 << v
        key = (i, v)
        cached = self._tot_cache.get(key)
        if cached is not None:
            return cached
        pi, pj = self.markers[v]
        j = pj if pi == i else pi
        out = 0
        for u in self.primes[j].vertices:
            if u != v:
                out |= self.tot(j, u)
        self._tot_cache[key] = out
        return out

    def tot_set(self, i: int, vset: int) -> int:
        out = 0
        for v in bits(vset):
            out |= self.tot(i, v)
        return out

    def act(self, i: int, v: int) -> int:
        """Vertices of tot(v) with a neighbor outside tot(v) in the graph."""
        t = self.tot(i, v)
        outside = self.graph.vmask & ~t
        return self.graph.neighborhood(outside)

    def weight(self, i: int, v: int) -> int:
        return self.act(i, v).bit_count()

    # -- recomposition (soundness check) -----------------------------------

    def recompose(self) -> Graph:
        parts = list(self.primes)
        markers = {m: list(p) for m, p in self.markers.items()}
        while len(parts) > 1:
            m, (i, j) = next(iter(markers.items()))
            gi, gj = parts[i], parts[j]
            ni = gi.adj[m]
            nj = gj.adj[m]
            vs = [v for v in gi.vertices + gj.vertices if v != m]
            es = [(u, v) for (u, v) in gi.edges + gj.edges if m not in (u, v)]
            es += [(u, v) for u in bits(ni) for v in bits(nj)]
            merged = Graph(vs, es)
            keep = [p for k, p in enumerate(parts) if k not in (i, j)]
            remap = {}
            for k in range(len(parts)):
                if k not in (i, j):
                    remap[k] = len(remap)
            merged_idx = len(keep)
            parts = keep + [merged]
            del markers[m]
            markers = {mk: [remap.get(k, merged_idx) for k in pr]
                       for mk, pr in markers.items()}
        return parts[0]

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "primes": [{"vertices": list(p.vertices),
                        "edges": [list(e) for e in p.edges]}
                       for p in self.primes],
            "markers": {str(m): list(pr) for m, pr in self.markers.items()},
            "tree_edges": [list(e) for e in self.tree_edges],
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def split_decompose(g: Graph) -> SplitDecomposition:
    """Decompose a connected graph (n >= 2) into prime graphs."""
    if g.n < 2:
        raise ValueError("split decomposition needs at least two vertices")
    if not g.is_connected():
        raise ValueError("split decomposition needs a connected graph")
    next_marker = g.vertices[-1] + 1
    primes: list[Graph] = []
    markers: dict[int, list[int]] = {}
    marker_side: dict[int, int] = {}  # marker id -> how many hosts placed

    def place(h: Graph):
        nonlocal next_marker
        split = find_split(h) if h.n >= 4 else None
        if split is None:
            idx = len(primes)
            primes.append(h)
            for v in h.vertices:
                if v in marker_side:
                    markers.setdefault(v, []).append(idx)
            return
        a, b = split
        m = next_marker
        next_marker += 1
        marker_side[m] = 0
        na = h.neighborhood(b)  # boundary of a
        nb = h.neighborhood(a)  # boundary of b
        ga = Graph([v for v in h.vertices if (a >> v) & 1] + [m],
                   [(u, v) for (u, v) in h.edges if (a >> u) & 1 and (a >> v) & 1]
                   + [(m, v) for v in bits(na)])
        gb = Graph([v for v in h.vertices if (b >> v) & 1] + [m],
                   [(u, v) for (u, v) in h.edges if (b >> u) & 1 and (b >> v) & 1]
                   + [(m, v) for v in bits(nb)])
        place(ga)
        place(gb)

    place(g)
    marker_map = {m: (idx[0], idx[1]) for m, idx in markers.items()}
    return SplitDecomposition(g, primes, marker_map)


# -- lifted cut functions --------------------------------------------------

class LiftedContext:
    """A split decomposition together with a chosen prime."""

    def __init__(self, dec: SplitDecomposition, prime_index: int):
        self.dec = dec
        self.prime_index = prime_index
        self.prime = dec.primes[prime_index]
        self.graph = dec.graph

    def tot(self, v: int) -> int:
        return self.dec.tot(self.prime_index, v)

    def tot_set(self, vset: int) -> int:
        return self.dec.tot_set(self.prime_index, vset)

    def act(self, v: int) -> int:
        return self.dec.act(self.prime_index, v)

    def weight(self, v: int) -> int:
        return self.dec.weight(self.prime_index, v)

    def lifted_value(self, x: int, base: str) -> int:
        t = self.tot_set(x)
        if base == "mm":
            return mm_value(self.graph, t)
        if base == "sm":
            return sm_value(self.graph, t)
        raise ValueError(f"unknown base cut function {base!r}")


def lifted_mm_cut_function(ctx: LiftedContext) -> CutFunction:
    return CutFunction("lifted-mm", lambda x: ctx.lifted_value(x, "mm"),
                       ctx.prime.vmask)


def lifted_sm_cut_function(ctx: LiftedContext) -> CutFunction:
    return CutFunction("lifted-sm", lambda x: ctx.lifted_value(x, "sm"),
                       ctx.prime.vmask)


def is_prime(g: Graph) -> bool:
    """Exhaustive no-split scan (sizes up to the exhaustive limit)."""
    if g.n < 4:
        return True
    if g.n > EXHAUSTIVE_SPLIT_LIMIT:
        raise ValueError("primality scan limited to small graphs")
    return _find_split_exhaustive(g) is None
