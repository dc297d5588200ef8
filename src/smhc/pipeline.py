"""Approximate sm-width decompositions via the split decomposition.

Per prime: vertices of weight at least 3k are heavy; edges between two
heavy vertices must form a matching (else k is too small) and are
contracted before searching a lifted-mm decomposition of the prime.
Contracted leaves are re-expanded into cherries, the per-prime trees are
glued at marker leaves, and k grows until the recomputed sm-width of the
result fits the 18k budget.
"""

from __future__ import annotations

from .graph import Graph, bits
from .cuts import CutFunction, mm_value, sm_cut_function
from .branchdec import (BranchDecomposition, EXACT_SIZE_LIMIT,
                        approx_decomposition, normalized_decomposition)
from .splitdec import LiftedContext, SplitDecomposition, split_decompose


class KTooSmall(ValueError):
    """The heavy edges do not form a matching at this budget k."""


def heavy_vertices(ctx: LiftedContext, k: int) -> int:
    """Mask of prime vertices whose active-set weight is at least 3k."""
    mask = 0
    for v in ctx.prime.vertices:
        if ctx.weight(v) >= 3 * k:
            mask |= 1 << v
    return mask


def contract_heavy_edges(ctx: LiftedContext, k: int):
    """Contract all heavy-heavy edges; returns (graph, tot_map, merged).

    tot_map sends every contracted-graph vertex to the original vertices it
    represents; merged records the endpoint pair behind each fresh vertex.
    """
    heavy = heavy_vertices(ctx, k)
    heavy_edges = [(u, v) for (u, v) in ctx.prime.edges
                   if (heavy >> u) & 1 and (heavy >> v) & 1]
    touched = 0
    for u, v in heavy_edges:
        if (touched >> u) & 1 or (touched >> v) & 1:
            raise KTooSmall(f"heavy edges are not a matching at k={k}")
        touched |= (1 << u) | (1 << v)
    h = ctx.prime
    tot_map = {v: ctx.tot(v) for v in h.vertices}
    merged: dict[int, tuple[int, int]] = {}
    for u, v in heavy_edges:
        h, new_id = h.contract_edge(u, v)
        tot_map[new_id] = tot_map[u] | tot_map[v]
        merged[new_id] = (u, v)
    return h, tot_map, merged


def prime_decomposition(ctx: LiftedContext, k: int,
                        backend: str = "exact") -> BranchDecomposition:
    """Lifted-mm decomposition of one prime, heavy pairs kept in cherries."""
    contracted, tot_map, merged = contract_heavy_edges(ctx, k)

    def lifted(x: int) -> int:
        t = 0
        for v in bits(x):
            t |= tot_map[v]
        return mm_value(ctx.graph, t)

    f = CutFunction("lifted-mm", lifted, contracted.vmask)
    bd = approx_decomposition(f, list(contracted.vertices), backend=backend)
    if not merged:
        return bd
    edges = list(bd.edges)
    leaf_map = dict(bd.leaf_map)
    next_id = max(bd.nodes) + 1
    for node, v in list(leaf_map.items()):
        if v in merged:
            u, w = merged[v]
            del leaf_map[node]
            edges.append((node, next_id))
            edges.append((node, next_id + 1))
            leaf_map[next_id] = u
            leaf_map[next_id + 1] = w
            next_id += 2
    return normalized_decomposition(edges, leaf_map)


def combine(dec: SplitDecomposition,
            bds: list[BranchDecomposition]) -> BranchDecomposition:
    """Glue per-prime decompositions by joining the two leaves of each marker."""
    if len(bds) != len(dec.primes):
        raise ValueError("need one decomposition per prime")
    if len(bds) == 1:
        return bds[0]
    adj: dict[int, set[int]] = {}
    leaf_map: dict[int, int] = {}
    marker_leaf: dict[tuple[int, int], int] = {}
    offset = 0
    for i, bd in enumerate(bds):
        shift = offset
        offset += max(bd.nodes) + 1
        for u, v in bd.edges:
            adj.setdefault(u + shift, set()).add(v + shift)
            adj.setdefault(v + shift, set()).add(u + shift)
        for node, v in bd.leaf_map.items():
            adj.setdefault(node + shift, set())
            if v in dec.markers:
                marker_leaf[(i, v)] = node + shift
            else:
                leaf_map[node + shift] = v
    for m, (i, j) in dec.markers.items():
        ni = marker_leaf[(i, m)]
        nj = marker_leaf[(j, m)]
        (pi,) = adj[ni]
        (pj,) = adj[nj]
        adj[pi].discard(ni)
        adj[pj].discard(nj)
        del adj[ni]
        del adj[nj]
        adj[pi].add(pj)
        adj[pj].add(pi)
    edges = set()
    for u, nbrs in adj.items():
        for w in nbrs:
            edges.add((u, w) if u < w else (w, u))
    return normalized_decomposition(sorted(edges), leaf_map)


def approx_sm_decomposition(g: Graph) -> BranchDecomposition:
    """Decomposition whose sm-width is within the 18k budget of the search.

    k is raised one step at a time, so with the exact per-prime backend the
    accepted width is at most 18 times the true sm-width.  That backend
    runs when every prime has at most EXACT_SIZE_LIMIT vertices, the
    greedy one otherwise.
    """
    if g.n < 2:
        raise ValueError("need at least two vertices")
    if not g.is_connected():
        raise ValueError("sm-width decompositions need a connected graph")
    dec = split_decompose(g)
    ctxs = [LiftedContext(dec, i) for i in range(len(dec.primes))]
    backend = "exact" if max(p.n for p in dec.primes) <= EXACT_SIZE_LIMIT else "greedy"
    smf = sm_cut_function(g)
    best = None
    k = 1
    while True:
        try:
            bds = [prime_decomposition(ctx, k, backend=backend) for ctx in ctxs]
        except KTooSmall:
            k += 1
            continue
        bd = combine(dec, bds)
        width = bd.f_width(smf)
        if best is None or width < best[0]:
            best = (width, bd)
        if width <= 18 * k or k > 2 * g.n:
            return best[1]
        k += 1
