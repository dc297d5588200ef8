import random
from copy import deepcopy
from functools import cached_property

import pytest

from smhc.graph import (Graph, mask_of, cycle_graph, complete_graph, path_graph,
                        petersen_graph)
from smhc.cuts import mm_value, sm_cut_function
from smhc.splitdec import (LiftedContext, SplitDecomposition, split_decompose,
                           lifted_mm_cut_function, lifted_sm_cut_function)
from smhc import pipeline
from smhc.branchdec import (BranchDecomposition, EXACT_SIZE_LIMIT, exact_branch_width,
                            greedy_decomposition)
from smhc.pipeline import (KTooSmall, heavy_vertices, contract_heavy_edges, element_tots,
                           prime_decomposition, combine, approx_sm_decomposition)
from smhc.generators import random_connected_graph
from smhc.oracles import brute_sm_width
from tests.test_solver import random_cograph
from tests.test_splitdec import worked_example


def test_heavy_vertices_threshold():
    g = cycle_graph(5)
    ctx = LiftedContext(split_decompose(g), 0)
    assert heavy_vertices(ctx, 1) == 0  # all weights are 1 < 3


def test_heavy_vertices_worked_example():
    _, dec = worked_example()
    # rightmost prime: marker 8 has weight 3 >= 3*1, e(4) and f(5) weigh 1
    ctx = LiftedContext(dec, 2)
    assert heavy_vertices(ctx, 1) == 1 << 8
    assert heavy_vertices(ctx, 2) == 0


def test_contract_identity_without_heavy_edges():
    g = cycle_graph(6)
    ctx = LiftedContext(split_decompose(g), 0)
    elements, merged = contract_heavy_edges(ctx, heavy_vertices(ctx, 1))
    assert elements == list(ctx.prime.vertices) and not merged
    assert all(element_tots(ctx, merged)[v] == 1 << v for v in g.vertices)


def _synthetic(primes, markers):
    """Build a decomposition whose original graph is its own recomposition."""
    stub = SplitDecomposition(Graph([0], []), primes, markers)
    return SplitDecomposition(stub.recompose(), primes, markers)


def heavy_pair_example():
    """Central 4-cycle of markers where exactly one edge joins heavy markers.

    Markers 20 and 21 each hide a triangle (active weight 3, heavy at k=1);
    markers 22 and 23 hide single vertices (weight 1).
    """
    primes = [
        Graph([20, 21, 22, 23], [(20, 21), (21, 22), (22, 23), (23, 20)]),
        Graph([0, 1, 2, 20], [(0, 1), (1, 2), (0, 2), (0, 20), (1, 20), (2, 20)]),
        Graph([3, 4, 5, 21], [(3, 4), (4, 5), (3, 5), (3, 21), (4, 21), (5, 21)]),
        Graph([6, 22], [(6, 22)]),
        Graph([7, 23], [(7, 23)]),
    ]
    markers = {20: (0, 1), 21: (0, 2), 22: (0, 3), 23: (0, 4)}
    return _synthetic(primes, markers)


def test_contract_merges_heavy_pair():
    dec = heavy_pair_example()
    ctx = LiftedContext(dec, 0)
    assert heavy_vertices(ctx, 1) == mask_of([20, 21])
    elements, merged = contract_heavy_edges(ctx, heavy_vertices(ctx, 1))
    assert len(elements) == ctx.prime.n - 1
    (new_id, pair), = merged.items()
    assert set(pair) == {20, 21}
    assert element_tots(ctx, merged)[new_id] == ctx.tot(20) | ctx.tot(21)


def test_heavy_pair_element_numbering():
    """Light vertices ascending, then fresh ids above the prime's highest
    vertex; the exact search's tie-breaks and node ids follow this order."""
    ctx = LiftedContext(heavy_pair_example(), 0)
    elements, merged = contract_heavy_edges(ctx, heavy_vertices(ctx, 1))
    assert elements == [22, 23, 24]
    assert merged == {24: (20, 21)}
    table = prime_decomposition(ctx, heavy_vertices(ctx, 1))
    assert BranchDecomposition(*table).to_json() == {
        "nodes": [25, 26, 27, 28, 29, 30],
        "edges": [[25, 28], [26, 28], [27, 28], [27, 29], [27, 30]],
        "leaf_map": {"25": 22, "26": 23, "29": 20, "30": 21}}


def test_ktoosmall_on_heavy_triangle():
    # three mutually adjacent heavy markers: heavy edges are not a matching
    primes = [
        Graph([20, 21, 22], [(20, 21), (21, 22), (20, 22)]),
        Graph([0, 1, 2, 20], [(0, 1), (1, 2), (0, 2), (0, 20), (1, 20), (2, 20)]),
        Graph([3, 4, 5, 21], [(3, 4), (4, 5), (3, 5), (3, 21), (4, 21), (5, 21)]),
        Graph([6, 7, 8, 22], [(6, 7), (7, 8), (6, 8), (6, 22), (7, 22), (8, 22)]),
    ]
    dec = _synthetic(primes, {20: (0, 1), 21: (0, 2), 22: (0, 3)})
    ctx = LiftedContext(dec, 0)
    assert heavy_vertices(ctx, 1) == mask_of([20, 21, 22])
    with pytest.raises(KTooSmall):
        contract_heavy_edges(ctx, heavy_vertices(ctx, 1))
    # a larger budget turns the markers light again
    elements, merged = contract_heavy_edges(ctx, heavy_vertices(ctx, 2))
    assert elements == list(ctx.prime.vertices) and not merged


def test_prime_decomposition_reexpands_cherries():
    dec = heavy_pair_example()
    ctx = LiftedContext(dec, 0)
    _, leaf_map = prime_decomposition(ctx, heavy_vertices(ctx, 1))
    # the contracted pair comes back as two sibling leaves
    assert set(leaf_map.values()) == set(ctx.prime.vertices)


def test_combine_leaf_count():
    g, dec = worked_example()
    ctxs = [LiftedContext(dec, i) for i in range(len(dec.primes))]
    tables = [prime_decomposition(ctx, heavy_vertices(ctx, 1)) for ctx in ctxs]
    bd = combine(dec, tables)
    assert sorted(bd.leaf_map.values()) == sorted(g.vertices)
    assert bd.elements == g.vmask


def _prime_trees(dec):
    """One prime_decomposition per prime, at the least k none refuses."""
    ctxs = [LiftedContext(dec, i) for i in range(len(dec.primes))]
    for k in range(1, dec.graph.n + 2):
        try:
            return ctxs, [prime_decomposition(ctx, heavy_vertices(ctx, k))
                          for ctx in ctxs]
        except KTooSmall:
            continue
    raise AssertionError("no budget k was accepted")


def _glue_cases():
    yield worked_example()[1]
    yield heavy_pair_example()
    yield split_decompose(path_graph(12))
    rng = random.Random(7)
    found = 0
    while found < 6:
        dec = split_decompose(random_connected_graph(rng.randint(6, 11), rng))
        if len(dec.primes) >= 3:
            found += 1
            yield dec


@pytest.mark.parametrize("dec", list(_glue_cases()))
def test_combine_lifts_every_prime_cut(dec):
    """Each cut of the glued tree is the tot lift of a cut of some prime
    tree and each lift occurs; a marker's two leaf edges give one cut.
    The prime tables are left as they were: the pipeline glues its cached
    tables again for each later k."""
    ctxs, tables = _prime_trees(dec)
    before = deepcopy(tables)
    bd = combine(dec, tables)
    assert tables == before
    glued = {frozenset(cut) for cut in bd.cuts()}
    lifted = {frozenset((ctx.tot_set(a), ctx.tot_set(b)))
              for ctx, table in zip(ctxs, tables)
              for a, b in BranchDecomposition(*table).cuts()}
    assert glued == lifted
    assert len(bd.edges) == sum(len(edges) for edges, _ in tables) - len(dec.markers)


def test_combine_single_prime_identity():
    g = cycle_graph(5)
    dec = split_decompose(g)
    ctx = LiftedContext(dec, 0)
    table = prime_decomposition(ctx, heavy_vertices(ctx, 1))
    assert combine(dec, [table]).to_json() == BranchDecomposition(*table).to_json()
    with pytest.raises(ValueError):
        combine(dec, [table, table])


def test_approx_widths_named():
    for g, exact in [(complete_graph(6), 1), (cycle_graph(5), 2),
                     (cycle_graph(4), 1), (petersen_graph(), 3)]:
        bd = approx_sm_decomposition(g)
        assert bd.f_width(sm_cut_function(g)) <= 18 * exact


def paths_13_6():
    """Paths 0..11 and 12..16 joined completely between their ends."""
    return Graph(range(17), [(i, i + 1) for i in range(16) if i != 11]
                 + [(a, b) for a in (0, 11) for b in (12, 16)])


def test_mixed_prime_sizes_choose_per_prime():
    """Paths 0..11 and 12..16 joined completely between their ends split
    into primes of 13 and 6 vertices: the small one gets the exact tree,
    the large one the greedy tree, and the bound is not certified."""
    g = paths_13_6()
    dec = split_decompose(g)
    assert sorted(p.n for p in dec.primes) == [6, 13]
    for i, p in enumerate(dec.primes):
        ctx = LiftedContext(dec, i)
        assert heavy_vertices(ctx, 1) == 0
        f = lifted_mm_cut_function(ctx)
        want = (exact_branch_width(list(p.vertices), f)[1] if p.n <= EXACT_SIZE_LIMIT
                else greedy_decomposition(f, list(p.vertices)))
        assert prime_decomposition(ctx, 0) == want
    bd = approx_sm_decomposition(g)
    assert not bd.certified
    assert bd.f_width(sm_cut_function(g)) <= 3


def test_small_prime_tables_evaluate_no_lifted_mm(monkeypatch):
    """On cliques and cographs, whose primes all have three vertices, every
    prime's table has at most three elements, so `approx_sm_decomposition`
    evaluates no lifted mm and takes no element tot, and its trees are
    those of the search with f: `exact_branch_width`'s on the elements."""
    def refuse(*args):
        raise AssertionError("evaluated without need")

    rng = random.Random(5)
    graphs = [complete_graph(n) for n in (4, 10, 14, 40)]
    graphs += [random_cograph(rng.randint(5, 14), rng) for _ in range(10)]
    for g in graphs:
        dec = split_decompose(g)
        assert all(p.n == 3 for p in dec.primes)
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "mm_value", refuse)
            patch.setattr(pipeline, "element_tots", refuse)
            got = approx_sm_decomposition(g).to_json()
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "approx_decomposition",
                          lambda f, elements: exact_branch_width(sorted(elements), f)[1])
            assert got == approx_sm_decomposition(g).to_json()


def test_each_prime_heavy_set_searched_once(monkeypatch):
    """K12 is accepted only after k has risen; a prime whose heavy set
    stays the same across k keeps its tree, so no (prime, elements)
    search runs twice."""
    searches = []
    prime = [None]
    real_prime = pipeline.prime_decomposition
    real_search = pipeline.approx_decomposition

    def prime_decomposition(ctx, heavy):
        prime[0] = ctx.prime_index
        return real_prime(ctx, heavy)

    def approx_decomposition(f, elements):
        searches.append((prime[0], tuple(elements)))
        return real_search(f, elements)

    monkeypatch.setattr(pipeline, "prime_decomposition", prime_decomposition)
    monkeypatch.setattr(pipeline, "approx_decomposition", approx_decomposition)
    approx_sm_decomposition(complete_graph(12))
    assert searches and len(searches) == len(set(searches))


def _count_trees(monkeypatch):
    """Lists that collect every `BranchDecomposition` built, every tree
    measured and every k whose heavy sets are read."""
    builds, measured, ks = [], [], []
    real_init, real_width = BranchDecomposition.__init__, BranchDecomposition.f_width
    real_heavy = pipeline.heavy_vertices
    monkeypatch.setattr(BranchDecomposition, "__init__",
                        lambda bd, *args: builds.append(bd) or real_init(bd, *args))
    monkeypatch.setattr(BranchDecomposition, "f_width",
                        lambda bd, f: measured.append(bd) or real_width(bd, f))
    monkeypatch.setattr(pipeline, "heavy_vertices",
                        lambda ctx, k: ks.append(k) or real_heavy(ctx, k))
    return builds, measured, ks


def test_one_tree_per_graph_or_measured_k(monkeypatch):
    """`approx_sm_decomposition` builds and measures one tree per distinct
    heavy configuration.  K12, a cograph and the 13 + 6 mixed graph are
    accepted unmeasured (n // 2 <= 18k): one tree.  Two random graphs with
    n = 44 (n // 2 > 18) have their first tree measured and rejected, and
    k raised to 2, where no heavy pair changes: the same tree is accepted,
    built and measured once.  On the p = 0.1 graph the rise does change
    heavy sets, but only heavy vertices without a heavy neighbour turn
    light, and a prime's table reads only its heavy pairs."""
    builds, measured, ks = _count_trees(monkeypatch)
    for g in (complete_graph(12), random_cograph(14, random.Random(5)), paths_13_6()):
        builds.clear()
        assert approx_sm_decomposition(g) is builds[0] and len(builds) == 1
    for seed, p in ((3, 0.3), (9, 0.1)):
        g = random_connected_graph(44, random.Random(seed), p=p)
        builds.clear()
        measured.clear()
        ks.clear()
        bd = approx_sm_decomposition(g)
        assert max(ks) == 2 and builds == measured == [bd]
    dec = split_decompose(g)
    ctxs = [LiftedContext(dec, i) for i in range(len(dec.primes))]
    assert [heavy_vertices(ctx, 1) for ctx in ctxs] != [heavy_vertices(ctx, 2) for ctx in ctxs]


def blow_up(g: Graph, sizes: dict[int, int]) -> Graph:
    """g with each vertex v replaced by sizes.get(v, 1) false twins."""
    copies, n = {}, 0
    for v in g.vertices:
        copies[v] = range(n, n + sizes.get(v, 1))
        n += sizes.get(v, 1)
    return Graph(range(n), [(a, b) for u, v in g.edges for a in copies[u] for b in copies[v]])


def test_changing_heavy_set_builds_a_new_tree(monkeypatch):
    """Two adjacent vertices of a random graph with n = 41, each blown up
    into three false twins (n = 45): the two markers that stand for them
    weigh 3, a heavy pair at k = 1 but light at k = 2.  The k = 1 tree is
    measured and rejected; k = 2 changes the heavy sets, so a second tree
    is built and measured, and it differs from the first."""
    g = blow_up(random_connected_graph(41, random.Random(3), p=0.3), {0: 3, 1: 3})
    dec = split_decompose(g)
    heavy = {k: [heavy_vertices(LiftedContext(dec, i), k) for i in range(len(dec.primes))]
             for k in (1, 2)}
    assert heavy[1] != heavy[2]
    builds, measured, ks = _count_trees(monkeypatch)
    approx_sm_decomposition(g)
    assert max(ks) == 2 and len(builds) == 2 and builds == measured
    assert builds[0].to_json() != builds[1].to_json()


def complete_multipartite(*sizes):
    parts, v = [], 0
    for size in sizes:
        parts.append(range(v, v + size))
        v += size
    return Graph(range(v), [(a, b) for i, p in enumerate(parts) for q in parts[i + 1:]
                            for a in p for b in q])


def test_each_prime_vertex_weighed_once(monkeypatch):
    """Weights do not depend on k: K_{3,3,3} and K_{4,4,4} are accepted
    only after k has risen, and each prime's weights are still computed
    once, for all its vertices together."""
    ks = []
    real_heavy = pipeline.heavy_vertices
    monkeypatch.setattr(pipeline, "heavy_vertices",
                        lambda ctx, k: ks.append(k) or real_heavy(ctx, k))
    real_weights = LiftedContext.weights.func
    for g in (complete_multipartite(3, 3, 3), complete_multipartite(4, 4, 4)):
        calls = []
        weights = cached_property(lambda ctx: calls.append(ctx.prime_index)
                                  or real_weights(ctx))
        weights.__set_name__(LiftedContext, "weights")
        monkeypatch.setattr(LiftedContext, "weights", weights)
        approx_sm_decomposition(g)
        assert calls and len(calls) == len(set(calls))
    assert max(ks) > 1


@pytest.mark.parametrize("n", range(6, 15))
def test_clique_decomposition_is_caterpillar(n):
    """K_n splits into a chain of triangles, so every internal node of its
    tree has a leaf neighbour: each join merges one vertex."""
    bd = approx_sm_decomposition(complete_graph(n))
    for u in bd.nodes:
        if u not in bd.leaf_map:
            assert any(w in bd.leaf_map for w in bd._adj[u])


def test_approx_rejects_bad_inputs():
    """No vertex or a disconnected graph raises; one vertex is one leaf."""
    with pytest.raises(ValueError):
        approx_sm_decomposition(Graph([], []))
    one = approx_sm_decomposition(Graph([5], []))
    assert one.leaf_map == {0: 5} and not one.edges and one.certified
    with pytest.raises(ValueError):
        approx_sm_decomposition(Graph(range(4), [(0, 1), (2, 3)]))


def test_empty_graph_named_by_library():
    """`approx_sm_decomposition` and `oracles.brute_sm_width` refuse the
    empty graph with the one error `smhc width` and `smhc decompose`
    print, which names it."""
    for fn in (approx_sm_decomposition, brute_sm_width):
        with pytest.raises(ValueError) as exc:
            fn(Graph([], []))
        assert str(exc.value) == "empty graph: a decomposition needs at least one vertex"


@pytest.mark.parametrize("seed", range(15))
def test_approx_within_budget_random(seed):
    rng = random.Random(seed + 40)
    g = random_connected_graph(rng.randint(4, 9), rng)
    smw = brute_sm_width(g)
    bd = approx_sm_decomposition(g)
    assert bd.elements == g.vmask
    assert bd.f_width(sm_cut_function(g)) <= 18 * smw


@pytest.mark.parametrize("seed", range(8))
def test_per_prime_lifted_width_bound(seed):
    # exact lifted-sm branchwidth of each prime stays within 3x the sm-width
    rng = random.Random(seed + 60)
    g = random_connected_graph(rng.randint(4, 8), rng)
    smw = brute_sm_width(g)
    dec = split_decompose(g)
    for i, p in enumerate(dec.primes):
        if p.n < 2:
            continue
        ctx = LiftedContext(dec, i)
        f = lifted_sm_cut_function(ctx)
        w, _ = exact_branch_width(list(p.vertices), f)
        assert w <= 3 * max(smw, 1)


@pytest.mark.parametrize("seed", range(8))
def test_heavy_vertex_structure(seed):
    # at a feasible budget each heavy vertex has at most one heavy neighbor
    # or its total side meets the outside in a small matching
    rng = random.Random(seed + 80)
    g = random_connected_graph(rng.randint(5, 9), rng)
    k = brute_sm_width(g) + 1
    dec = split_decompose(g)
    for i in range(len(dec.primes)):
        ctx = LiftedContext(dec, i)
        heavy = heavy_vertices(ctx, k)
        for v in ctx.prime.vertices:
            if not (heavy >> v) & 1:
                continue
            hn = bin(ctx.prime.adj[v] & heavy).count("1")
            assert hn <= 1 or mm_value(g, ctx.tot(v)) < 6 * k
