"""Approximate sm-width decompositions via the split decomposition.

Per prime: vertices of weight at least 3k are heavy; edges between two
heavy vertices must form a matching (else k is too small).  The search
runs over elements: the prime's other vertices, and one fresh id per heavy
edge standing for both its ends.  It finds a lifted-mm decomposition of
the elements; each fresh leaf is re-expanded into a cherry, the per-prime
trees are glued at the markers, and k grows until the recomputed sm-width
of the result fits the 18k budget.
"""

from __future__ import annotations

from .graph import Graph, bits, mask_of
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
    """Contract all heavy-heavy edges; returns (elements, tot_map, merged).

    The elements are the prime's vertices outside heavy edges, ascending,
    then one fresh id per heavy edge, counting up from the highest prime
    vertex + 1 in edge order.  tot_map sends every element to the original
    vertices it represents; merged records the endpoint pair behind each
    fresh id.
    """
    heavy = heavy_vertices(ctx, k)
    heavy_edges = [(u, v) for (u, v) in ctx.prime.edges
                   if (heavy >> u) & 1 and (heavy >> v) & 1]
    touched = 0
    for u, v in heavy_edges:
        if (touched >> u) & 1 or (touched >> v) & 1:
            raise KTooSmall(f"heavy edges are not a matching at k={k}")
        touched |= (1 << u) | (1 << v)
    tot_map = {v: ctx.tot(v) for v in ctx.prime.vertices}
    merged: dict[int, tuple[int, int]] = {}
    for new_id, (u, v) in enumerate(heavy_edges, ctx.prime.vertices[-1] + 1):
        tot_map[new_id] = tot_map[u] | tot_map[v]
        merged[new_id] = (u, v)
    elements = [v for v in ctx.prime.vertices if not (touched >> v) & 1]
    return elements + list(merged), tot_map, merged


def prime_decomposition(ctx: LiftedContext, k: int,
                        backend: str = "exact") -> BranchDecomposition:
    """Lifted-mm decomposition of one prime, heavy pairs kept in cherries."""
    elements, tot_map, merged = contract_heavy_edges(ctx, k)

    def lifted(x: int) -> int:
        t = 0
        for v in bits(x):
            t |= tot_map[v]
        return mm_value(ctx.graph, t)

    f = CutFunction("lifted-mm", lifted, mask_of(elements))
    bd = approx_decomposition(f, elements, backend=backend)
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
    """Glue per-prime decompositions at the markers.

    Node ids are shifted apart, the two leaves of each marker are joined
    by an edge, and normalizing splices both out, so the trees meet at
    the leaves' former parents.
    """
    if len(bds) != len(dec.primes):
        raise ValueError("need one decomposition per prime")
    if len(bds) == 1:
        return bds[0]
    edges: list[tuple[int, int]] = []
    leaf_map: dict[int, int] = {}
    marker_leaves: dict[int, list[int]] = {}
    offset = 0
    for bd in bds:
        edges += [(u + offset, v + offset) for u, v in bd.edges]
        for node, v in bd.leaf_map.items():
            if v in dec.markers:
                marker_leaves.setdefault(v, []).append(node + offset)
            else:
                leaf_map[node + offset] = v
        offset += max(bd.nodes) + 1
    edges += [tuple(pair) for pair in marker_leaves.values()]
    return normalized_decomposition(edges, leaf_map)


def approx_sm_decomposition(g: Graph) -> BranchDecomposition:
    """Decomposition whose sm-width is within the 18k budget of the search.

    k is raised one step at a time, so with the exact per-prime backend the
    accepted width is at most 18 times the true sm-width.  That backend
    runs when every prime has at most EXACT_SIZE_LIMIT vertices, the
    greedy one otherwise; the returned tree's `certified` says which.
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
            best[1].certified = backend == "exact"
            return best[1]
        k += 1
