import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from smhc.graph import Graph, bits, mask_of, cycle_graph, complete_graph
from smhc.cuts import (_augment, min_vertex_cover, mm_value, is_split,
                       sm_value, mm_cut_function, sm_cut_function)
from smhc.generators import random_connected_graph
from smhc.splitdec import LiftedContext, lifted_mm_cut_function
from tests.conftest import atlas_connected, bounded_stack
from tests.test_splitdec import worked_example


def brute_max_matching(edges: list[tuple[int, int]]) -> int:
    """Largest number of pairwise disjoint edges, tried from the most that
    their ends can hold downwards."""
    masks = [1 << u | 1 << v for u, v in edges]
    ends = mask_of(v for e in edges for v in e)
    for r in range(min(len(masks), ends.bit_count() // 2), 0, -1):
        for sub in combinations(masks, r):
            used = 0
            for m in sub:
                if used & m:
                    break
                used |= m
            else:
                return r
    return 0


def matching(g: Graph, a: int, b: int | None = None) -> dict[int, int]:
    """The matching `_augment` finds in G[a, b], b = V \\ a unless given,
    as a map from each matched vertex of b to its partner in a, checked to
    be a matching of G[a, b]: every pair is an edge between a and b, no
    vertex is used twice, and the returned mask holds the matched vertices
    of b."""
    b = g.vmask & ~a if b is None else b
    partner, taken = _augment(g.adj, a, b)
    out = {}
    for w, u in partner.items():
        v = w.bit_length() - 1
        assert w == 1 << v and w & b and (a >> u) & 1 and g.adj[u] & w
        out[v] = u
    assert len(set(out.values())) == len(out)
    assert taken == mask_of(out)
    return out


def brute_min_cover(g: Graph) -> int:
    verts = [v for v in g.vertices if g.adj[v]]
    for r in range(len(verts) + 1):
        for sub in combinations(verts, r):
            cm = mask_of(sub)
            if all((cm >> u) & 1 or (cm >> v) & 1 for u, v in g.edges):
                return r
    return 0


def test_matching_c4_cut():
    g = cycle_graph(4)
    assert len(matching(g, 0b0011)) == 2


def test_matching_star():
    g = Graph(range(4), [(0, 1), (0, 2), (0, 3)])
    assert len(matching(g, 1 << 0)) == 1


def test_cover_c4_cut():
    g = cycle_graph(4)
    cover = min_vertex_cover(g, 0b0011)
    assert cover.bit_count() == 2


def test_cover_edgeless():
    g = Graph(range(4), [(0, 1)])
    assert min_vertex_cover(g, mask_of([0, 1])) == 0


@pytest.mark.parametrize("seed", range(30))
def test_matching_and_cover_vs_brute(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng.randint(4, 8), rng)
    a = rng.randrange(1, g.vmask)
    cut = Graph(g.vertices, [(u, v) for u, v in g.edges
                             if (a >> u) & 1 != (a >> v) & 1])  # crossing edges
    size = len(matching(g, a))
    assert size == brute_max_matching(cut.edges)
    cover = min_vertex_cover(g, a)
    assert cover.bit_count() == size  # Koenig duality
    assert cover.bit_count() == brute_min_cover(cut)
    for u, v in cut.edges:
        assert (cover >> u) & 1 or (cover >> v) & 1
    # the boundary of a against its outside neighbours has the same cover
    boundary, nbr = g.neighborhood(g.vmask & ~a) & a, g.neighborhood(a)
    assert len(matching(g, boundary, nbr)) == size
    assert min_vertex_cover(g, boundary, nbr) == cover


def test_mm_from_both_sides_is_brute_force_and_cover_size():
    """On every cut (a, V \\ a) of the connected graphs with 3..7 vertices
    and of seeded random graphs with 8..12, `mm_value` of either side,
    `_augment` rooted on b, a brute-force matching of the crossing edges
    and the Koenig cover, whose matching is rooted on a, have one size:
    the routine behind `mm_value` and the cover finds a maximum matching
    whichever side it roots on."""
    rng = random.Random(28)
    graphs = atlas_connected(3, 7)
    graphs += [random_connected_graph(n, rng, p=p) for n in range(8, 13) for p in (0.2, 0.3)]
    for g in graphs:
        for a in range(1, g.vmask):
            b = g.vmask ^ a
            if a > b:  # each cut once, as (a, b) and as (b, a) below
                continue
            crossing = [(u, v) for u, v in g.edges if (a >> u) & 1 != (a >> v) & 1]
            size = brute_max_matching(crossing)
            assert mm_value(g, a) == mm_value(g, b) == size
            assert len(matching(g, b)) == size
            assert min_vertex_cover(g, a).bit_count() == size


def test_matching_long_augmenting_path_in_bounded_stack():
    """The augmenting-path search needs no stack frame per path step.

    In the zigzag cut x - r0 - l1 - r1 - ... - lk - rk, each li first
    takes r(i-1); the last root x then augments along all k pairs.  The
    search runs under a recursion limit 45 levels above the caller's depth.
    """
    k = 60
    left = list(range(k + 1))  # l1..lk, then x = k
    right = [k + 1 + i for i in range(k + 1)]  # r0..rk
    edges = [(left[i - 1], right[i - 1]) for i in range(1, k + 1)]
    edges += [(left[i - 1], right[i]) for i in range(1, k + 1)]
    edges.append((left[k], right[0]))
    g = Graph(left + right, edges)
    a = mask_of(left)
    with bounded_stack():
        found = matching(g, a)
        cover = min_vertex_cover(g, a)
    assert found == {right[0]: left[k],
                        **{right[i]: left[i - 1] for i in range(1, k + 1)}}
    assert cover.bit_count() == k + 1
    assert all((cover >> u) & 1 or (cover >> v) & 1 for u, v in g.edges)


def test_is_split_c4():
    g = cycle_graph(4)
    assert is_split(g, mask_of([0, 2]))
    assert not is_split(g, mask_of([0, 1]))


def test_c5_has_no_split():
    g = cycle_graph(5)
    for a in range(1, g.vmask):
        assert not is_split(g, a)


def test_is_split_needs_connected():
    g = Graph(range(4), [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        is_split(g, 0b0011)


def test_sm_values_c4():
    g = cycle_graph(4)
    assert sm_value(g, mask_of([0, 2])) == 1
    assert sm_value(g, mask_of([0, 1])) == 2


def test_sm_clique_cuts():
    g = complete_graph(6)
    for a in range(1, g.vmask):
        if 2 <= a.bit_count() <= 4:
            assert sm_value(g, a) == 1


def test_sm_at_most_mm():
    rng = random.Random(7)
    for _ in range(50):
        g = random_connected_graph(6, rng)
        a = rng.randrange(1, g.vmask)
        assert sm_value(g, a) <= mm_value(g, a)


@settings(max_examples=60)
@given(st.integers(0, 10_000))
def test_symmetry(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng.randint(3, 7), rng)
    a = rng.randrange(1, g.vmask)
    b = g.vmask & ~a
    assert mm_value(g, a) == mm_value(g, b)
    assert sm_value(g, a) == sm_value(g, b)


@settings(max_examples=60)
@given(st.integers(0, 10_000))
def test_mm_submodular(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng.randint(4, 8), rng)
    a = rng.randrange(0, g.vmask + 1) & g.vmask
    b = rng.randrange(0, g.vmask + 1) & g.vmask
    assert (mm_value(g, a) + mm_value(g, b)
            >= mm_value(g, a | b) + mm_value(g, a & b))


def test_cut_functions_symmetric():
    """f(a) == f(V \\ a) == the value function on every subset a: mm and
    sm on the worked example's graph, which has splits, and the lifted mm
    on its 5-cycle prime."""
    g, dec = worked_example()
    ctx = LiftedContext(dec, 0)
    cases = [(mm_cut_function(g), g.vmask, lambda a: mm_value(g, a)),
             (sm_cut_function(g), g.vmask, lambda a: sm_value(g, a)),
             (lifted_mm_cut_function(ctx), ctx.prime.vmask,
              lambda x: mm_value(g, ctx.tot_set(x)))]
    for f, domain, value in cases:
        for a in range(domain + 1):
            if not a & ~domain:
                assert f(a) == f(domain & ~a) == value(a)


def test_sm_cut_function_matches_value():
    g = cycle_graph(6)
    f = sm_cut_function(g)
    for a in range(1, g.vmask):
        assert f(a) == sm_value(g, a)
        break
