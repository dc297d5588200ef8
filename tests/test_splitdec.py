import random

import pytest

from smhc.graph import Graph, bits, mask_of, cycle_graph, path_graph, complete_graph
from smhc.cuts import is_split, mm_value
from smhc.splitdec import (find_split, split_decompose, SplitDecomposition,
                           LiftedContext, lifted_mm_cut_function,
                           _least_split)
from smhc.generators import random_connected_graph
from smhc import oracles
from tests.conftest import atlas_connected, bounded_stack


def worked_example():
    """Seven-vertex graph with a nested split and two markers.

    Vertices 0..6 stand for a..g; the split ({a,b,c,g},{d,e,f}) yields
    marker 7, the nested split ({e,f}, rest) yields marker 8.  The three
    primes are a 5-cycle, a triangle, and a path.
    """
    g = Graph(range(7), [(0, 1), (0, 6), (6, 2),       # path b-a-g-c
                         (1, 3), (1, 4), (2, 3), (2, 4),  # b,c ~ d,e
                         (3, 4), (4, 5)])                 # d-e, e-f
    p0 = Graph([0, 1, 2, 6, 7], [(0, 1), (0, 6), (6, 2), (2, 7), (7, 1)])
    p1 = Graph([3, 7, 8], [(7, 3), (7, 8), (3, 8)])
    p2 = Graph([4, 5, 8], [(8, 4), (4, 5)])
    dec = SplitDecomposition(g, [p0, p1, p2], {7: (0, 1), 8: (1, 2)})
    return g, dec


def test_find_split_c4():
    g = cycle_graph(4)
    a, b = find_split(g)
    assert {a, b} == {mask_of([0, 2]), mask_of([1, 3])}


def test_find_split_c5_none():
    assert find_split(cycle_graph(5)) is None


def test_connectivity_checked_once(monkeypatch):
    """`find_split` and `split_decompose` refuse a disconnected graph, and
    `split_decompose` tests connectivity once, not once per part."""
    disconnected = Graph(range(4), [(0, 1), (2, 3)])
    for fn in (find_split, split_decompose):
        with pytest.raises(ValueError):
            fn(disconnected)
    calls = []
    real = Graph.is_connected
    monkeypatch.setattr(Graph, "is_connected", lambda h: calls.append(h) or real(h))
    dec = split_decompose(path_graph(20))
    assert len(dec.primes) > 1 and len(calls) == 1


def test_find_split_p4():
    g = path_graph(4)
    a, b = find_split(g)
    assert is_split(g, a)


def test_is_prime():
    """A graph is prime when `find_split` finds no split."""
    assert find_split(cycle_graph(5)) is None
    assert find_split(cycle_graph(4)) is not None
    assert find_split(path_graph(3)) is None  # <= 3 vertices: trivially prime
    assert find_split(cycle_graph(20)) is None
    assert find_split(path_graph(20)) is not None


def split_composed(n, rng):
    """A connected graph on n vertices built from random pieces by splits.

    A random vertex v of the graph so far is replaced by a random piece
    less one marker vertex m: every neighbour of v is joined to every
    neighbour of m.  Vertex ids are shuffled at the end.
    """
    g = random_connected_graph(min(n, rng.randint(2, 5)), rng)
    while g.n < n:
        h = random_connected_graph(min(n - g.n + 2, rng.randint(3, 6)), rng)
        v = rng.choice(g.vertices)
        off = max(g.vertices) + 1
        m = rng.choice(h.vertices)
        es = [e for e in g.edges if v not in e]
        es += [(off + x, off + y) for x, y in h.edges if m not in (x, y)]
        es += [(u, off + w) for u in bits(g.adj[v]) for w in bits(h.adj[m])]
        vs = [u for u in g.vertices if u != v]
        vs += [off + x for x in h.vertices if x != m]
        g = Graph(vs, es)
    ids = list(range(n))
    rng.shuffle(ids)
    label = dict(zip(g.vertices, ids))
    return Graph(ids, [(label[u], label[v]) for u, v in g.edges])


def test_find_split_matches_brute_split_on_atlas():
    for g in atlas_connected(4, 7):
        assert find_split(g) == oracles.brute_split(g)


@pytest.mark.parametrize("seed", range(5))
def test_find_split_matches_brute_split_random(seed):
    """The least-mask split side holding the lowest vertex, not just any."""
    rng = random.Random(seed)
    for _ in range(12):
        g = random_connected_graph(rng.randint(8, 12), rng,
                                   p=rng.choice([0.2, 0.4, 0.7]))
        assert find_split(g) == oracles.brute_split(g)
        g = split_composed(rng.randint(4, 14), rng)
        assert find_split(g) == oracles.brute_split(g)


@pytest.mark.parametrize("seed", range(4))
def test_least_split_any_pivot_matches_brute(seed):
    """With any pivot, the least-mask split side holding it."""
    rng = random.Random(seed + 100)
    graphs = list(atlas_connected(4, 6)) if seed == 0 else []
    for _ in range(10):
        graphs.append(random_connected_graph(rng.randint(5, 10), rng,
                                             p=rng.choice([0.3, 0.5, 0.8])))
        graphs.append(split_composed(rng.randint(5, 12), rng))
    for g in graphs:
        for v in g.vertices:
            assert _least_split(g.vmask, g.adj, v) == oracles.brute_split(g, v)


def test_split_decompose_resolves_clique_as_chain():
    """After the first split each part is split at its newest marker, so
    K_n becomes a chain: every triangle but the two ends holds two
    markers and one vertex."""
    for n in range(4, 12):
        dec = split_decompose(complete_graph(n))
        assert len(dec.primes) == n - 2
        ends = [p for p in dec.primes if sum(v >= n for v in p.vertices) == 1]
        assert len(ends) == 2 and all(p.n == 3 for p in dec.primes)


def test_find_split_on_fifteen_vertices():
    """One split, {1, 2, 3, 10, 13} against the rest, in 15 vertices.

    Closures grown from vertex pairs without a far vertex z miss it.
    """
    g = Graph(range(15), [(0, 3), (0, 8), (0, 9), (0, 10), (1, 2), (1, 13),
                          (2, 3), (3, 5), (3, 6), (3, 12), (4, 8), (4, 14),
                          (5, 7), (5, 9), (5, 10), (5, 12), (6, 10), (6, 11),
                          (7, 14), (9, 11), (10, 12), (10, 13), (11, 12)])
    side = mask_of([1, 2, 3, 10, 13])
    split = find_split(g)
    assert split == oracles.brute_split(g)
    assert split == (g.vmask & ~side, side)
    assert find_split(g) is not None
    dec = split_decompose(g)
    assert dec.recompose() == g and len(dec.primes) > 1
    for p in dec.primes:
        assert oracles.brute_split(p) is None


@pytest.mark.parametrize("g", [path_graph(60), complete_graph(60)],
                         ids=["path60", "clique60"])
def test_split_decompose_deep_in_bounded_stack(g):
    """Placing the parts needs no stack frame per level of splits.

    Both graphs split 57 levels deep; the decomposition runs under a
    recursion limit 45 levels above the caller's depth.
    """
    with bounded_stack():
        dec = split_decompose(g)
    assert len(dec.primes) == 58 and dec.recompose() == g


def test_tot_deep_in_bounded_stack():
    """Resolving a marker needs no stack frame per prime behind it.

    The 120-vertex path splits into a chain of 118 primes; every tot is
    computed under a recursion limit 45 levels above the caller's depth.
    """
    g = path_graph(120)
    dec = split_decompose(g)
    with bounded_stack():
        tots = {(i, v): dec.tot(i, v)
                for i, p in enumerate(dec.primes) for v in p.vertices}
    for i, p in enumerate(dec.primes):  # a prime's tots partition the path
        parts = [tots[i, v] for v in p.vertices]
        assert sum(t.bit_count() for t in parts) == g.n
        assert LiftedContext(dec, i).tot_set(p.vmask) == g.vmask


def test_split_decompose_c5_single_prime():
    dec = split_decompose(cycle_graph(5))
    assert len(dec.primes) == 1
    assert not dec.markers


def test_split_decompose_k2():
    g = Graph(range(2), [(0, 1)])
    dec = split_decompose(g)
    assert len(dec.primes) == 1 and dec.recompose() == g


def test_worked_example_tot_act():
    g, dec = worked_example()
    assert dec.recompose() == g
    # marker 7 seen from the middle prime represents {a,b,c,g}
    assert dec.tot(1, 7) == mask_of([0, 1, 2, 6])
    # of which b and c see outside it: weight 2
    assert LiftedContext(dec, 1).weights[7] == 2
    # marker 8: weight 3 from the rightmost prime, 1 from the middle one
    assert LiftedContext(dec, 2).weights[8] == 3
    assert LiftedContext(dec, 1).weights[8] == 1
    # tot of an original vertex is itself
    assert dec.tot(0, 0) == 1 << 0
    # the two tot-views of one marker cover the graph
    assert dec.tot(1, 8) | dec.tot(2, 8) == g.vmask


def test_tot_partitions_graph():
    g, dec = worked_example()
    for i, p in enumerate(dec.primes):
        seen = 0
        for v in p.vertices:
            t = dec.tot(i, v)
            assert seen & t == 0
            seen |= t
        assert seen == g.vmask


def tot_by_search(dec, i, v):
    """tot(i, v) by a breadth-first search over the tree of primes: the
    originals of the primes reachable from the marker's far prime without
    crossing the marker."""
    if v not in dec.markers:
        return 1 << v
    a, b = dec.markers[v]
    queue = [b if a == i else a]
    seen, out = set(queue), 0
    for j in queue:
        for u in dec.primes[j].vertices:
            if u not in dec.markers:
                out |= 1 << u
            elif u != v:
                queue += [k for k in dec.markers[u] if k not in seen]
                seen.update(dec.markers[u])
    return out


def test_tot_walk_from_the_middle():
    """The worked example with its primes reordered so that the walk starts
    at the middle triangle, which has a child on each side."""
    g, dec = worked_example()
    p0, p1, p2 = dec.primes
    middle = SplitDecomposition(g, [p1, p0, p2], {7: (1, 0), 8: (0, 2)})
    assert middle.recompose() == g
    for d in (dec, middle):
        for i, p in enumerate(d.primes):
            for v in p.vertices:
                assert d.tot(i, v) == tot_by_search(d, i, v)
    assert middle.tot(0, 7) == dec.tot(1, 7) == mask_of([0, 1, 2, 6])
    assert middle.tot(0, 8) == dec.tot(1, 8) == mask_of([4, 5])


def test_tot_requires_membership():
    _, dec = worked_example()
    with pytest.raises(ValueError):
        dec.tot(0, 5)


@pytest.mark.parametrize("seed", range(25))
def test_decompose_random_sound(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng.randint(2, 9), rng)
    dec = split_decompose(g)
    assert dec.recompose() == g
    for p in dec.primes:
        assert find_split(p) is None
    for m, (i, j) in dec.markers.items():
        assert (dec.primes[i].vmask >> m) & 1
        assert (dec.primes[j].vmask >> m) & 1
    # non-marker vertices appear in exactly one prime
    for v in g.vertices:
        hosts = sum(1 for p in dec.primes if (p.vmask >> v) & 1)
        assert hosts == 1
    for i, p in enumerate(dec.primes):
        for v in p.vertices:
            assert dec.tot(i, v) == tot_by_search(dec, i, v)


def test_lifted_identity_on_whole_graph_prime():
    g = cycle_graph(5)
    dec = split_decompose(g)
    f = lifted_mm_cut_function(LiftedContext(dec, 0))
    for x in range(1, g.vmask):
        assert f(x) == mm_value(g, x)


def reference_weights(ctx):
    """The weights by their definition, walking all of tot(v) for every
    prime vertex v: how many of its vertices see outside it."""
    adj, out = ctx.graph.adj, {}
    for v in ctx.prime.vertices:
        t = ctx.tot(v)
        out[v] = sum(1 for u in bits(t) if adj[u] & ~t)
    return out


def test_weights_match_the_tot_walk():
    """Every prime's weights, read off the walk of the tree of primes,
    equal the tot walk's on the split decompositions of K2..K39, seeded
    random graphs (n = 4..16) and random cographs (n = 4..60), and on the
    worked example's decomposition."""
    from tests.test_solver import random_cograph
    rng = random.Random(4202)
    graphs = [complete_graph(n) for n in range(2, 40)]
    graphs += [random_connected_graph(rng.randint(4, 16), rng, p=rng.choice([0.2, 0.4, 0.7]))
               for _ in range(60)]
    graphs += [random_cograph(rng.randint(4, 60), rng) for _ in range(40)]
    markers = 0
    for dec in [split_decompose(g) for g in graphs] + [worked_example()[1]]:
        markers += len(dec.markers)
        for i in range(len(dec.primes)):
            ctx = LiftedContext(dec, i)
            assert ctx.weights == reference_weights(ctx)
    assert markers


def test_lifted_mm_submodular_sampled():
    g, dec = worked_example()
    ctx = LiftedContext(dec, 0)
    f = lifted_mm_cut_function(ctx)
    dom = ctx.prime.vmask
    rng = random.Random(0)
    for _ in range(200):
        a = rng.randrange(0, dom + 1) & dom
        b = rng.randrange(0, dom + 1) & dom
        assert f(a) + f(b) >= f(a | b) + f(a & b)


def test_act_matches_recomputation():
    g, dec = worked_example()
    for i, p in enumerate(dec.primes):
        ctx = LiftedContext(dec, i)
        for v in p.vertices:
            t = dec.tot(i, v)
            assert ctx.weights[v] == g.neighborhood(g.vmask & ~t).bit_count()
