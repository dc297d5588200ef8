"""Split decomposition into prime graphs, with tot, weights and lifted cut values.

Marker vertices get globally fresh ids above the original id range, so the
original vertices keep their ids inside every prime.  The decomposition is
some valid prime decomposition, not the canonical one; everything downstream
only needs primality of the parts.

Its primes with four or more vertices are the prime nodes of Cunningham's
decomposition in any case; only how each degenerate node (a clique or a
star) breaks into 3-vertex parts is free, and every such resolution has the
same sm-width.  The solver's cost depends on it, so `split_decompose`
splits the graph at the least-mask side holding its lowest vertex and every
later part at the least-mask side holding its newest marker (its highest
id).  That side is the marker and one more vertex whenever the two form a
split side, so a degenerate node unrolls as a chain: K_n becomes a chain of
n - 2 triangles, and every join on a clique or cograph merges the part
built so far with one branch.
"""

from __future__ import annotations

from functools import cached_property

from .graph import Graph, bits, mask_of
from .cuts import mm_value, sm_value


def find_split(g: Graph):
    """The split (a, b) of the connected g whose side a holds the lowest
    vertex v0 and has the least vertex mask, or None if g is prime.
    `_least_split(g.vmask, g.adj, v0)` does the search for any pivot v0:
    nothing below uses that v0 is the lowest vertex.

    A split is a bipartition (A, B) with both sides of size >= 2 whose
    crossing edges join every vertex of A' = N(B) ∩ A to every vertex of
    B' = N(A) ∩ B; connectivity makes both frontiers non-empty.  Let
    (A*, B*) be the split sought.

    Closure lemma.  Let (A, B) be a split with v0 ∈ A and z ∈ B'.  Every
    u ∈ B has N(u) ∩ A equal to ∅ or to A' = N(z) ∩ A.  So for a ⊆ A, every
    u ≠ z outside a with N(u) ∩ a ∉ {∅, N(z) ∩ a} lies in A.  Adding such
    vertices to the seed {v0, y} until none is left gives a set C(y, z)
    inside every split side A ⊇ {v0, y} whose far frontier B' holds z.
    Once closed, every u outside C = C(y, z), z included, has N(u) ∩ C equal
    to ∅ or to S = N(z) ∩ C, so the crossing edges join all of S to all u
    with N(u) ∩ C = S: C is itself a split side when at least two vertices
    stay outside.

    Seed lemma.  Let y1 be a neighbour of v0.  Then A* = C(y1, z) for some
    z, or A* = C(y, y1) for some y ∈ N(v0) or with N(y) ⊇ N(v0).
    Proof.  If y1 ∈ A*, take z ∈ B*'.  Otherwise y1 ∈ B* is adjacent to
    v0 ∈ A*, so y1 ∈ B*' and v0 ∈ A*'.  If N(v0) meets A*, take y there.
    If not, N(v0) = N(v0) ∩ B* = B*'.  A* − {v0} is non-empty and has no
    edge to v0, so by connectivity some y in it has a neighbour in B*; then
    y ∈ A*' and N(y) ⊇ B*' = N(v0).  Either way the closure lies in A*
    with B* outside, so it is a split side holding v0 whose mask is not
    below that of A*: it is A*.

    Hence A* is the least mask over these O(n) closures.  Any neighbour
    serves as y1; the highest is taken.  A closure only grows, so it is
    abandoned once its mask reaches the best one so far or fewer than two
    vertices stay outside.  One wave of it forces exactly the vertices in
    off | (on_any & ~on_all), where off is the union of adj over a − N(z)
    and on_any, on_all are the union and the intersection of adj over
    a ∩ N(z); each added vertex updates them in O(1) big-int operations,
    so the search takes O(n^2) of them.  The closures are those of
    Cunningham, "Decomposition of directed graphs", SIAM J. Alg. Disc.
    Meth. 1982.
    """
    if not g.is_connected():
        raise ValueError("split decomposition needs a connected graph")
    return _least_split(g.vmask, g.adj, g.vertices[0])


def _least_split(full: int, adj: dict[int, int], v0: int):
    """The split of the connected graph with vertex mask `full` and
    adjacency `adj` whose side holds the pivot v0 and has the least mask,
    or None; `find_split` with any pivot and no check."""
    if full.bit_count() < 4:
        return None
    n0 = adj[v0]
    y1 = n0.bit_length() - 1
    far = full & ~(1 << v0 | 1 << y1)
    pairs = [(y1, z) for z in bits(far)]
    pairs += [(y, y1) for y in bits(far) if (n0 >> y) & 1 or adj[y] & n0 == n0]
    best = full  # no split side found yet
    for y, z in pairs:
        side = _closure(full, adj, 1 << v0 | 1 << y, z, best)
        if side is not None:
            best = side
    return None if best == full else (best, full & ~best)


def _closure(full: int, adj: dict[int, int], seed: int, z: int, bound: int) -> int | None:
    """The seed closed under adding each u ≠ z with N(u) ∩ a ∉ {∅, N(z) ∩ a};
    None once its mask reaches the bound or under two vertices stay out."""
    nz, keep = adj[z], full & ~(1 << z)
    a, new = 0, seed
    off = on_any = 0
    on_all = full
    while new:
        a |= new
        if a >= bound or (full & ~a).bit_count() < 2:
            return None
        for x in bits(new):
            if (nz >> x) & 1:
                on_any |= adj[x]
                on_all &= adj[x]
            else:
                off |= adj[x]
        new = (off | (on_any & ~on_all)) & keep & ~a
    return a


class SplitDecomposition:
    """Primes and marker registry of a graph; each marker joins two primes,
    so the markers are the edges of the decomposition tree.

    One walk of that tree from prime 0, parents first, keeps each prime's
    marker to its parent; back up it, children first, each prime's
    originals below it and each marker's ends, the originals below its
    child that see across the marker.  It reads only the primes and the
    markers.  `tot`, `recompose` and `LiftedContext.weights` read it.
    """

    def __init__(self, graph: Graph, primes: list[Graph], markers: dict[int, tuple[int, int]]):
        self.graph = graph
        self.primes = primes
        self.markers = markers  # marker id -> (prime index, prime index)
        inner = mask_of(markers)
        self._up: dict[int, int | None] = {0: None}  # prime -> marker to its parent
        self._order = [0]
        for i in self._order:
            for v in bits(primes[i].vmask & inner):
                for j in markers[v]:
                    if j not in self._up:
                        self._up[j] = v
                        self._order.append(j)
        self._below = [p.vmask & ~inner for p in primes]  # originals below each prime
        self._ends: dict[int, int] = {}  # marker -> originals below its child that see across
        for j in reversed(self._order[1:]):
            m = self._up[j]
            a, b = markers[m]
            self._below[a if b == j else b] |= self._below[j]
            self._ends[m] = sum(self._ends.get(v, 1 << v) for v in bits(primes[j].adj[m]))

    def tot(self, i: int, v: int) -> int:
        """Original vertices represented by v as seen from prime i.

        A marker seen from its parent stands for the originals below its
        child, and seen from its child for all the other originals.
        """
        if not (self.primes[i].vmask >> v) & 1:
            raise ValueError(f"vertex {v} is not in prime {i}")
        if v not in self.markers:
            return 1 << v
        a, b = self.markers[v]
        child = a if self._up[a] == v else b
        below = self._below[child]
        return self._below[0] & ~below if i == child else below

    def recompose(self) -> Graph:
        """The graph the primes stand for (a soundness check): each
        prime's edges off its parent marker join what their ends stand
        for, a marker standing, in its parent, for its ends."""
        edges = []
        for i, p in enumerate(self.primes):
            m = self._up[i]
            at = {v: self._ends.get(v, 1 << v) for v in p.vertices}
            edges += [(u, w) for x, y in p.edges if m not in (x, y)
                      for u in bits(at[x]) for w in bits(at[y])]
        return Graph(bits(self._below[0]), edges)


def split_decompose(g: Graph) -> SplitDecomposition:
    """Decompose a connected graph (n >= 2) into prime graphs, splitting
    each part that holds a marker at its newest one (see the module
    docstring).  A part is its vertex mask and adjacency dict: each side
    of a split keeps its vertices' adjacency within the side, and the new
    marker's bit is added to the vertices that see the other side, in
    O(|side|) big-int operations with no edge scan.  Only the primes are
    built as `Graph`s."""
    if g.n < 2:
        raise ValueError("split decomposition needs at least two vertices")
    if not g.is_connected():
        raise ValueError("split decomposition needs a connected graph")
    last = g.vertices[-1]  # marker ids are fresh ids above it
    next_marker = last + 1
    primes: list[Graph] = []
    markers: dict[int, list[int]] = {}
    stack = [(g.vmask, g.adj)]
    while stack:  # every part made from a split of a connected graph is connected
        full, adj = stack.pop()
        newest = full.bit_length() - 1
        split = _least_split(full, adj, newest if newest > last else (full & -full).bit_length() - 1)
        if split is None:
            for v in bits(full & ~g.vmask):
                markers.setdefault(v, []).append(len(primes))
            primes.append(g if full == g.vmask else Graph(
                bits(full), [(u, v) for u in bits(full) for v in bits(adj[u] & ~((2 << u) - 1))]))
            continue
        m = next_marker
        next_marker += 1
        # push the side of b first, so a's side is placed first
        for side, other in (split[::-1], split):
            part, seen = {}, 0
            for v in bits(side):
                if adj[v] & other:
                    part[v] = adj[v] & side | 1 << m
                    seen |= 1 << v
                else:
                    part[v] = adj[v]
            part[m] = seen
            stack.append((side | 1 << m, part))
    return SplitDecomposition(g, primes, {m: tuple(idx) for m, idx in markers.items()})


# -- lifted cut functions --------------------------------------------------

class LiftedContext:
    """One prime of a split decomposition, its vertices seen through tot."""

    def __init__(self, dec: SplitDecomposition, prime_index: int):
        self.dec = dec
        self.prime_index = prime_index
        self.prime = dec.primes[prime_index]
        self.graph = dec.graph

    def tot(self, v: int) -> int:
        return self.dec.tot(self.prime_index, v)

    def tot_set(self, vset: int) -> int:
        out = 0
        for v in bits(vset):
            out |= self.tot(v)
        return out

    @cached_property
    def weights(self) -> dict[int, int]:
        """The weight of every prime vertex v, computed once per context:
        how many vertices of tot(v) have a neighbor outside tot(v) in the
        graph (the active set of v), read off the walk of the tree of
        primes.  An original vertex weighs 1 when it has a neighbour.  A
        marker seen from its parent weighs its ends, the originals below
        its child that see across it; seen from its child, the vertices
        outside that any one end sees, as the marker's cut is a split."""
        dec, adj, out = self.dec, self.graph.adj, {}
        up = dec._up[self.prime_index]
        for v in self.prime.vertices:
            if v not in dec.markers:
                out[v] = 1 if adj[v] else 0
            elif v == up:
                end = dec._ends[v].bit_length() - 1
                out[v] = (adj[end] & ~dec._below[self.prime_index]).bit_count()
            else:
                out[v] = dec._ends[v].bit_count()
        return out


def lifted_mm_cut_function(ctx: LiftedContext):
    return lambda x: mm_value(ctx.graph, ctx.tot_set(x))


def lifted_sm_cut_function(ctx: LiftedContext):
    return lambda x: sm_value(ctx.graph, ctx.tot_set(x))
