"""Independent brute-force oracles used to validate the solver and trims.

Nothing here shares logic with the decomposition-driven solver: the
Hamiltonicity oracles are a Held-Karp bitmask DP and a plain backtracking
search, the split scan tries every side holding the lowest vertex, and
preservation of a family trim is checked directly against completions of
the outside part.  The path-system predicates that `repsets`
derives from vertex bitmasks have reference versions here built on degree
dicts, neighbour lists and union-find; tests compare the two, and the
reference merge `conc` is built on them alone.
"""

from __future__ import annotations

from .graph import Graph, bits, mask_of
from .cuts import sm_cut_function, split_sides
from .branchdec import SizeLimitExceeded, exact_branch_width

BRUTE_HC_LIMIT = 18
BRUTE_WIDTH_LIMIT = 10


def brute_hc(g: Graph):
    """Held-Karp decision with witness; refuses instances over the limit."""
    if g.n > BRUTE_HC_LIMIT:
        raise SizeLimitExceeded(
            f"brute_hc limited to {BRUTE_HC_LIMIT} vertices, got {g.n}")
    n = g.n
    if n < 3 or not g.is_connected():
        return False, None
    idx = {v: i for i, v in enumerate(g.vertices)}
    adj = [0] * n
    for u, v in g.edges:
        adj[idx[u]] |= 1 << idx[v]
        adj[idx[v]] |= 1 << idx[u]
    full = (1 << n) - 1
    parent: dict[tuple[int, int], int] = {(1, 0): -1}
    layer = {(1, 0)}
    for _ in range(n - 1):
        nxt = set()
        for mask, last in layer:
            for w in bits(adj[last] & ~mask):
                key = (mask | (1 << w), w)
                if key not in parent:
                    parent[key] = last
                    nxt.add(key)
        layer = nxt
    for last in bits(adj[0]):
        if last != 0 and (full, last) in parent:
            seq = []
            key = (full, last)
            while key[1] != -1 and key in parent:
                seq.append(key[1])
                prev = parent[key]
                if prev == -1:
                    break
                key = (key[0] & ~(1 << key[1]), prev)
            seq.reverse()
            verts = [g.vertices[i] for i in seq]
            cycle = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
            return True, [tuple(sorted(e)) for e in cycle]
    return False, None


def backtracking_hc(g: Graph):
    """Second, structurally different Hamiltonicity check (small n only)."""
    n = g.n
    if n < 3 or not g.is_connected():
        return False, None
    start = g.vertices[0]
    path = [start]
    visited = 1 << start

    def rec() -> bool:
        if len(path) == n:
            return g.has_edge(path[-1], start)
        for w in bits(g.adj[path[-1]] & ~visited_ref[0]):
            visited_ref[0] |= 1 << w
            path.append(w)
            if rec():
                return True
            path.pop()
            visited_ref[0] &= ~(1 << w)
        return False

    visited_ref = [visited]
    if rec():
        cycle = [(path[i], path[(i + 1) % n]) for i in range(n)]
        return True, [tuple(sorted(e)) for e in cycle]
    return False, None


def enumerate_hamiltonian_cycles(g: Graph) -> list[int]:
    """Edge masks of all Hamiltonian cycles, each listed once."""
    n = g.n
    if n < 3 or not g.is_connected():
        return []
    start = g.vertices[0]
    out = []
    path = [start]
    visited = [1 << start]

    def rec():
        if len(path) == n:
            if g.has_edge(path[-1], start) and path[1] < path[-1]:
                cycle = [(path[i], path[(i + 1) % n]) for i in range(n)]
                out.append(g.edge_mask(cycle))
            return
        for w in bits(g.adj[path[-1]] & ~visited[0]):
            visited[0] |= 1 << w
            path.append(w)
            rec()
            path.pop()
            visited[0] &= ~(1 << w)

    rec()
    return out


def brute_sm_width(g: Graph) -> int:
    """Exact sm-width via the optimal decomposition search (size-limited).
    The empty and the disconnected graph are refused, before any search,
    with the errors of `pipeline.approx_sm_decomposition`."""
    if not g.n:
        raise ValueError("empty graph: a decomposition needs at least one vertex")
    if not g.is_connected():
        raise ValueError("sm-width decompositions need a connected graph")
    if g.n > BRUTE_WIDTH_LIMIT:
        raise SizeLimitExceeded(
            f"brute_sm_width limited to {BRUTE_WIDTH_LIMIT} vertices, got {g.n}")
    width, _ = exact_branch_width(list(g.vertices), sm_cut_function(g))
    return width


def brute_split(g: Graph, anchor: int | None = None):
    """The split whose side holds the anchor (by default the lowest vertex)
    with the least mask, by scanning every side that holds it in ascending
    mask order (2^(n-1))."""
    verts = g.vertices
    n = len(verts)
    if anchor is None:
        anchor = verts[0]
    rest = [v for v in verts if v != anchor]
    for sub in range(1 << (n - 1)):
        a = 1 << anchor
        for i in range(n - 1):
            if (sub >> i) & 1:
                a |= 1 << rest[i]
        b = g.vmask & ~a
        if split_sides(g, a, b):
            return a, b
    return None


# -- reference path-system helpers -------------------------------------------

def _edge_degrees(g: Graph, emask: int) -> dict[int, int]:
    deg: dict[int, int] = {}
    for i in bits(emask):
        for v in g.edges[i]:
            deg[v] = deg.get(v, 0) + 1
    return deg


def _is_forest(g: Graph, emask: int) -> bool:
    root: dict[int, int] = {}  # union-find

    def find(x):
        while root.get(x, x) != x:
            x = root[x]
        return x

    for i in bits(emask):
        ru, rv = (find(v) for v in g.edges[i])
        if ru == rv:
            return False
        root[ru] = rv
    return True


def _is_path_system(g: Graph, emask: int) -> bool:
    return (all(d <= 2 for d in _edge_degrees(g, emask).values())
            and _is_forest(g, emask))


def _walk_paths(g: Graph, emask: int) -> list[list[int]]:
    """Maximal paths of a path system, each from its lower end."""
    nbrs: dict[int, list[int]] = {}
    for u, v in g.edge_set(emask):
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    seen: set[int] = set()
    paths = []
    for start in sorted(nbrs):
        if start not in seen and len(nbrs[start]) == 1:
            seq = [start]
            while nxt := [w for w in nbrs[seq[-1]] if w not in seq[-2:-1]]:
                seq.append(nxt[0])
            seen.update(seq)
            paths.append(seq)
    return paths


def _degree_signature(g: Graph, emask: int, universe: int):
    deg = {v: d for v, d in _edge_degrees(g, emask).items() if (universe >> v) & 1}
    if any(d > 2 for d in deg.values()):
        raise ValueError("degree > 2")
    return tuple(mask_of(v for v in bits(universe) if deg.get(v, 0) == d)
                 for d in range(3))


def _is_spanning_cycle(g: Graph, emask: int) -> bool:
    deg = _edge_degrees(g, emask)
    if g.n < 3 or len(deg) != g.n or any(d != 2 for d in deg.values()):
        return False
    paths = _walk_paths(g, emask & (emask - 1))  # one edge dropped
    return len(paths) == 1 and len(paths[0]) == g.n


SPANNING_CYCLE = "spanning-cycle"


def _torso(g: Graph, emask: int, side: int, sep: int):
    """Separator pairs joined by path segments (repsets Lemma 3): None for a
    dead member or another cycle, SPANNING_CYCLE for a Hamiltonian cycle."""
    deg = _edge_degrees(g, emask)
    if any(deg.get(v, 0) != 2 for v in bits(side & ~sep)):
        return None
    edges = set()
    for seq in _walk_paths(g, emask):
        if not (sep >> seq[0]) & 1 or not (sep >> seq[-1]) & 1:
            return None
        stops = [v for v in seq if (sep >> v) & 1]
        for x, y in zip(stops, stops[1:]):
            e = (min(x, y), max(x, y))
            if e in edges:
                return None
            edges.add(e)
    if not _is_forest(g, emask):
        return SPANNING_CYCLE if _is_spanning_cycle(g, emask) else None
    return frozenset(edges)


def _can_add_edge(g: Graph, emask: int, u: int, v: int,
                  allow_spanning_cycle: bool = False) -> bool:
    """Reference for `repsets.grow` by one edge on path systems."""
    grown = emask | g.incident[u] & g.incident[v]
    return _is_path_system(g, grown) or (allow_spanning_cycle
                                         and _is_spanning_cycle(g, grown))


# -- preservation of family trims -------------------------------------------

def _path_subsets(g: Graph, universe: int):
    """All edge masks within the universe forming vertex-disjoint paths."""
    edges = list(bits(universe))

    def rec(i: int, mask: int):
        if i == len(edges):
            yield mask
            return
        yield from rec(i + 1, mask)
        u, v = g.edges[edges[i]]
        if _can_add_edge(g, mask, u, v):
            yield from rec(i + 1, mask | (1 << edges[i]))

    yield from rec(0, 0)


def conc(g: Graph, a: int, b: int, sa: int, sb: int) -> list[int]:
    """All certificates sa ∪ sb ∪ E' of home a | b, E' a set of cross edges:
    path systems, or Hamiltonian cycles of g.  Listed in the order of a
    search that skips each cross edge before taking it, lowest index first."""
    if a & b:
        raise ValueError("certificate homes must be disjoint")
    out = [sa | sb]
    for i in reversed(list(bits(g.edges_between(a, b)))):
        u, v = g.edges[i]
        out += [m | 1 << i for m in out if _can_add_edge(g, m, u, v, True)]
    return out


def _completes(g: Graph, a: int, s: int, outside_part: int) -> bool:
    """Can s (home a) and outside_part (home complement) close a cycle?"""
    b = g.vmask & ~a
    deg = _edge_degrees(g, s | outside_part)
    free = [g.edges[i] for i in bits(g.edges_between(a, b))
            if all(deg.get(v, 0) < 2 for v in g.edges[i])]
    if any(sum(v in e for e in free) < 2 - deg.get(v, 0) for v in g.vertices):
        return False  # some vertex cannot reach degree two
    return any(_is_spanning_cycle(g, m) for m in conc(g, a, b, s, outside_part))


def verify_preservation(g: Graph, a: int, big: list[int], small: list[int],
                        method: str, hcs: list[int] | None = None) -> bool:
    """Whether `small` preserves `big` on side `a` w.r.t. outside completions.

    `cycles` groups all Hamiltonian cycles of g by their outside edge part:
    small preserves big iff every outside part completed by some big member
    is completed by some small member.  `enumerate` checks the definition
    literally over every path system of the outside edges.
    """
    big_set = set(big)
    small_set = set(small)
    inside = g.edges_within(a)
    outside = g.edges_within(g.vmask & ~a)
    if method == "cycles":
        if hcs is None:
            hcs = enumerate_hamiltonian_cycles(g)
        # cross edges are chosen by the completion, so group by outside part
        groups: dict[int, set[int]] = {}
        for h in hcs:
            groups.setdefault(h & outside, set()).add(h & inside)
        for parts in groups.values():
            if parts & big_set and not parts & small_set:
                return False
        return True
    if method == "enumerate":
        b = g.vmask & ~a
        for outside_part in _path_subsets(g, g.edges_within(b)):
            if any(_completes(g, a, s, outside_part) for s in big_set):
                if not any(_completes(g, a, s, outside_part) for s in small_set):
                    return False
        return True
    raise ValueError(f"unknown method {method!r}")
