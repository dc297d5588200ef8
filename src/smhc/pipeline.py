"""Approximate sm-width decompositions via the split decomposition.

Per prime: vertices of weight at least 3k are heavy; edges between two
heavy vertices must form a matching (else k is too small).  The search
runs over elements: the prime's other vertices, and one fresh id per heavy
edge standing for both its ends.  It finds a lifted-mm decomposition of
the elements, exact when there are at most EXACT_SIZE_LIMIT of them, and
otherwise lays them out in the prime's Cuthill–McKee order
(`layout_order`) as a caterpillar, so each prime's own size picks its
tree.  Either is a plain table (edges, leaf_map), in which each fresh
leaf becomes the parent of its pair's two ends; the per-prime tables are
glued at the markers into one validated `BranchDecomposition`, and k
grows until the recomputed sm-width of that tree fits the 18k budget.
Weights do not depend on k, so each prime vertex is weighed once per
call, and a prime's table depends on k only through its heavy pairs
(`heavy_ends`), so each (prime, heavy pairs) gets its table once per
call, and a tree is built and measured once per heavy configuration (the
heavy pairs of all primes): a k that changes none reuses the last tree
and its width.
"""

from __future__ import annotations

from .graph import Graph, bits
from .cuts import mm_value, sm_cut_function
from .branchdec import BranchDecomposition, EXACT_SIZE_LIMIT, approx_decomposition
from .splitdec import LiftedContext, SplitDecomposition, split_decompose


class KTooSmall(ValueError):
    """The heavy edges do not form a matching at this budget k."""


def heavy_vertices(ctx: LiftedContext, k: int) -> int:
    """Mask of prime vertices whose active-set weight is at least 3k."""
    mask = 0
    for v, w in ctx.weights.items():
        if w >= 3 * k:
            mask |= 1 << v
    return mask


def heavy_ends(ctx: LiftedContext, k: int) -> int:
    """Mask of the heavy vertices with a heavy neighbour, the ends of the
    heavy edges: all of the heavy set that a prime's table reads."""
    heavy, adj = heavy_vertices(ctx, k), ctx.prime.adj
    return sum(1 << v for v in bits(heavy) if adj[v] & heavy)


def contract_heavy_edges(ctx: LiftedContext, heavy: int):
    """Contract all edges between heavy vertices (the mask `heavy`);
    returns (elements, merged).

    The elements are the prime's vertices outside heavy edges, ascending,
    then one fresh id per heavy edge, counting up from the highest prime
    vertex + 1 in edge order.  merged records the endpoint pair behind
    each fresh id.
    """
    heavy_edges = [(u, v) for (u, v) in ctx.prime.edges
                   if (heavy >> u) & 1 and (heavy >> v) & 1]
    touched = 0
    for u, v in heavy_edges:
        if (touched >> u) & 1 or (touched >> v) & 1:
            raise KTooSmall("heavy edges are not a matching")
        touched |= (1 << u) | (1 << v)
    merged = dict(enumerate(heavy_edges, ctx.prime.vertices[-1] + 1))
    elements = [v for v in ctx.prime.vertices if not (touched >> v) & 1]
    return elements + list(merged), merged


def element_tots(ctx: LiftedContext, merged: dict[int, tuple[int, int]]) -> dict[int, int]:
    """The original vertices behind each element: tot of each prime
    vertex, and the union of its pair's for each fresh id of `merged`."""
    tot_map = {v: ctx.tot(v) for v in ctx.prime.vertices}
    for new_id, (u, v) in merged.items():
        tot_map[new_id] = tot_map[u] | tot_map[v]
    return tot_map


def layout_order(prime: Graph) -> list[int]:
    """The prime's vertices in Cuthill–McKee order: breadth first from a
    least-degree vertex, each vertex's unvisited neighbours appended by
    rising degree, lowest id on ties.  A prime is connected, so the order
    holds every vertex."""
    adj = prime.adj
    rank = {v: (adj[v].bit_count(), v) for v in prime.vertices}
    order = [min(prime.vertices, key=rank.__getitem__)]
    seen = 1 << order[0]
    for v in order:  # the list grows under the loop, one layer after another
        order += sorted(bits(adj[v] & ~seen), key=rank.__getitem__)
        seen |= adj[v]
    return order


def prime_decomposition(ctx: LiftedContext, heavy: int) -> tuple[list, dict]:
    """Table (edges, leaf_map) of a lifted-mm decomposition of one prime
    with its heavy pairs contracted, each fresh leaf then made in place
    the parent of its pair's two ends.  Above EXACT_SIZE_LIMIT elements
    they go to `approx_decomposition` in `layout_order`, each fresh id at
    its first-visited end's place, and the table is their caterpillar.
    The tot of the elements is taken when the search first evaluates the
    lifted mm, which it does not on three elements or fewer, nor above
    the limit.

    A prime made from a split has at least 3 vertices, and a whole graph
    of 1 to 3 vertices has no heavy vertex, so a contracted pair leaves
    another element: each fresh leaf has a neighbour and ends with degree
    3.  A one-vertex graph is one prime, whose table is its one leaf.
    """
    elements, merged = contract_heavy_edges(ctx, heavy)
    if len(elements) > EXACT_SIZE_LIMIT:
        pair_of = {v: new_id for new_id, pair in merged.items() for v in pair}
        elements = list(dict.fromkeys(pair_of.get(v, v) for v in layout_order(ctx.prime)))
    tot_map: dict[int, int] = {}

    def lifted(x: int) -> int:
        if not tot_map:
            tot_map.update(element_tots(ctx, merged))
        t = 0
        while x:
            low = x & -x
            t |= tot_map[low.bit_length() - 1]
            x ^= low
        return mm_value(ctx.graph, t)

    edges, leaf_map = table = approx_decomposition(lifted, elements)
    next_id = max(map(max, edges), default=0) + 1
    for node, v in list(leaf_map.items()):
        if v in merged:
            del leaf_map[node]
            edges += [(node, next_id), (node, next_id + 1)]
            leaf_map[next_id], leaf_map[next_id + 1] = merged[v]
            next_id += 2
    return table


def combine(dec: SplitDecomposition, tables: list[tuple[list, dict]]) -> BranchDecomposition:
    """Glue per-prime tables at the markers into one validated tree.

    Node ids are shifted apart.  Each marker has one leaf in each of two
    prime trees; both leaves are dropped and their neighbours joined by
    one edge.  Every prime has at least 3 vertices, so no two marker
    leaves are neighbours.  The tables are not changed, as each later k
    glues them again.  Validating the glued tree checks each prime's, as
    gluing keeps every node's degree and joins trees only along the edges
    of the tree of markers.
    """
    if len(tables) != len(dec.primes):
        raise ValueError("need one decomposition per prime")
    edges: list[tuple[int, int]] = []
    leaf_map: dict[int, int] = {}
    marker_ends: dict[int, list[int]] = {}  # marker -> its leaves' neighbours
    offset = 0
    for prime_edges, prime_leaves in tables:
        at_marker = {}
        for node, v in prime_leaves.items():
            if v in dec.markers:
                at_marker[node + offset] = v
            else:
                leaf_map[node + offset] = v
        for u, w in prime_edges:
            u, w = u + offset, w + offset
            if w in at_marker:
                u, w = w, u
            if u in at_marker:
                marker_ends.setdefault(at_marker[u], []).append(w)
            else:
                edges.append((u, w))
        offset += max(map(max, prime_edges), default=0) + 1
    edges += [tuple(ends) for ends in marker_ends.values()]
    return BranchDecomposition(edges, leaf_map)


def approx_sm_decomposition(g: Graph) -> BranchDecomposition:
    """Decomposition whose sm-width is within the 18k budget of the search.

    k is raised one step at a time, so when every prime's tree is exact the
    accepted width is at most 18 times the true sm-width.  Each prime's
    tree is exact on at most EXACT_SIZE_LIMIT elements and a Cuthill–McKee
    caterpillar above (`prime_decomposition`); the returned tree's
    `certified` is True when every prime has at most EXACT_SIZE_LIMIT
    vertices, so that every prime's tree is exact whatever k is.  No cut
    has sm value above n // 2, so the first tree built is accepted
    unmeasured when n // 2 <= 18k; no weight exceeds n, so no vertex is
    heavy once 3k > n, and the loop ends.  A
    one-vertex graph is one prime, so its tree is one leaf, of width 0.
    """
    if not g.n:  # a decomposition has a leaf per vertex
        raise ValueError("empty graph: a decomposition needs at least one vertex")
    if not g.is_connected():
        raise ValueError("sm-width decompositions need a connected graph")
    dec = split_decompose(g)
    ctxs = [LiftedContext(dec, i) for i in range(len(dec.primes))]
    smf = sm_cut_function(g)
    trees: dict[tuple[int, int], tuple[list, dict]] = {}  # tables by (prime, heavy ends)
    built = None  # (heavy ends, tree, width) of the last tree built
    best = None
    k = 1
    while True:
        heavy = [heavy_ends(ctx, k) for ctx in ctxs]
        if built is None or heavy != built[0]:
            try:
                for i, h in enumerate(heavy):
                    if (i, h) not in trees:
                        trees[i, h] = prime_decomposition(ctxs[i], h)
            except KTooSmall:
                k += 1
                continue
            bd = combine(dec, [trees[key] for key in enumerate(heavy)])
            bound = g.n // 2  # no cut's sm value exceeds it
            built = (heavy, bd, bound if best is None and bound <= 18 * k else bd.f_width(smf))
        _, bd, width = built
        if best is None or width < best[0]:
            best = (width, bd)
        if width <= 18 * k:
            best[1].certified = all(p.n <= EXACT_SIZE_LIMIT for p in dec.primes)
            return best[1]
        k += 1
