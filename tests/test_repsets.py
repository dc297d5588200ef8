import random
from itertools import combinations

import pytest

from smhc.graph import Graph, bits, mask_of, cycle_graph, complete_graph
from smhc.repsets import (FIELD_PRIME, MatroidRep, _wedge_vector, _Basis,
                          is_path_system, walk_paths,
                          degree_signature, representative_forests,
                          representative_hc_sets, torso, SPANNING_CYCLE,
                          pad_separator, trim_separator, preserving_extension,
                          is_hamiltonian_cycle, _can_add_edge)
from smhc.generators import random_connected_graph
from smhc import oracles
from smhc.oracles import _is_forest as is_forest


def columns_independent(host, emask):
    rep = MatroidRep(host)
    cols = [rep.columns[i] for i in bits(emask)]
    vec = _wedge_vector(cols, len(rep.rows))
    return bool(vec)


@pytest.mark.parametrize("seed", range(10))
def test_matroid_rep_soundness(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng.randint(3, 6), rng)
    for emask in range(1 << min(g.m, 10)):
        assert columns_independent(g, emask) == is_forest(g, emask)


def test_walk_paths():
    g = Graph(range(6), [(0, 1), (1, 2), (3, 4)])
    paths = walk_paths(g, 0b111)
    assert sorted(tuple(p) for p in paths) == [(0, 1, 2), (3, 4)]


def test_degree_signature():
    g = Graph(range(4), [(0, 1), (1, 2)])
    d0, d1, d2 = degree_signature(g, 0b11, g.vmask)
    assert d0 == 1 << 3 and d1 == (1 << 0) | (1 << 2) and d2 == 1 << 1
    assert degree_signature(g, 0, g.vmask)[0] == g.vmask
    with pytest.raises(ValueError):
        k = Graph(range(4), [(0, 1), (0, 2), (0, 3)])
        degree_signature(k, 0b111, k.vmask)


def _signature_or_error(fn, g, emask, universe):
    try:
        return fn(g, emask, universe)
    except ValueError:
        return "degree > 2"


@pytest.mark.parametrize("seed", range(20))
def test_mask_helpers_match_reference(seed):
    """Bitmask path-system state against the dict/union-find references."""
    rng = random.Random(seed)
    g = random_connected_graph(rng.randint(4, 9), rng, p=rng.choice([0.3, 0.6]))
    masks = [rng.getrandbits(g.m) & rng.getrandbits(g.m) for _ in range(60)]
    cycles = oracles.enumerate_hamiltonian_cycles(g)[:3]
    masks += cycles + [c & rng.getrandbits(g.m) for c in cycles]
    masks += [(1 << g.m) - 1, 0]
    for m in masks:
        assert is_path_system(g, m) == oracles._is_path_system(g, m)
        assert is_hamiltonian_cycle(g, m) == oracles._is_spanning_cycle(g, m)
        universe = rng.getrandbits(g.n) | rng.choice([0, g.vmask])
        assert (_signature_or_error(degree_signature, g, m, universe)
                == _signature_or_error(oracles._degree_signature, g, m, universe))
        if any(d > 2 for d in oracles._edge_degrees(g, m).values()):
            continue  # the path-system state is defined for degree <= 2
        assert walk_paths(g, m) == oracles._walk_paths(g, m)
        for _ in range(4):
            side = rng.getrandbits(g.n) | rng.choice([0, g.vmask])
            sep = rng.getrandbits(g.n) & rng.choice([side, g.vmask])
            assert torso(g, m, side, sep) == oracles._torso(g, m, side, sep)
        if not is_path_system(g, m):
            continue  # adding an edge is defined on path systems
        for u, v in g.edge_set(((1 << g.m) - 1) & ~m):
            for allow in (False, True):
                assert (_can_add_edge(g, m, u, v, allow)
                        == oracles._can_add_edge(g, m, u, v, allow))


def preservation_holds(host, members, kept, p, q):
    """Literal check of the representative-forests contract."""
    for y in combinations(range(host.m), q):
        ymask = 0
        for i in y:
            ymask |= 1 << i
        def fits(x):
            return x & ymask == 0 and is_forest(host, x | ymask)
        if any(fits(x) for x in members if is_forest(host, x)):
            if not any(fits(x) for x in kept):
                return False
    return True


@pytest.mark.parametrize("seed", range(12))
def test_representative_forests_preserving(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng.randint(4, 6), rng)
    p = rng.randint(1, max(1, g.n - 2))
    q = g.n - 1 - p
    members = sorted({m for m in (rng.randrange(1 << g.m) for _ in range(40))
                      if m.bit_count() == p})
    members = [m for m in members if is_forest(g, m)]
    kept = representative_forests(g, members, p, q)
    assert set(kept) <= set(members)
    assert preservation_holds(g, members, kept, p, q)
    # idempotent on its own output
    assert representative_forests(g, kept, p, q) == kept


def test_representative_forests_size_bound():
    from math import comb
    g = complete_graph(5)
    for p in (1, 2, 3):
        members = [m for m in range(1 << g.m)
                   if m.bit_count() == p and is_forest(g, m)]
        kept = representative_forests(g, members, p, g.n - 1 - p)
        assert len(kept) <= comb(g.n - 1, p) <= 2 ** g.n


def test_representative_forests_spanning_trees():
    g = cycle_graph(4)
    trees = [m for m in range(1 << g.m)
             if m.bit_count() == 3 and is_forest(g, m)]
    kept = representative_forests(g, trees, 3, 0)
    assert len(kept) == 1


def test_representative_forests_rejects_wrong_size():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        representative_forests(g, [0b11], 1, 1)


def hc_completability_preserved(kC, members, kept):
    """Every completion closing a Hamiltonian cycle keeps a partner."""
    for ymask in range(1 << kC.m):
        def closes(x):
            if x & ymask:
                return False
            both = x | ymask
            deg = oracles._edge_degrees(kC, both)
            return (both.bit_count() == kC.n and len(deg) == kC.n
                    and all(d == 2 for d in deg.values())
                    and _single_cycle(kC, both))
        if any(closes(x) for x in members) and not any(closes(x) for x in kept):
            return False
    return True


def _single_cycle(kC, emask):
    nbrs = {}
    for i in bits(emask):
        u, v = kC.edges[i]
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    start = next(iter(nbrs))
    prev, cur, count = None, start, 0
    while True:
        count += 1
        nxt = [w for w in nbrs[cur] if w != prev]
        if not nxt:
            return False
        prev, cur = cur, nxt[0]
        if cur == start:
            return count == kC.n


@pytest.mark.parametrize("k", [3, 4])
def test_representative_hc_sets_exhaustive(k):
    kC = complete_graph(k)
    rng = random.Random(k)
    members = sorted({rng.randrange(1 << kC.m) for _ in range(50)})
    members = [m for m in members if is_path_system(kC, m)]
    kept = representative_hc_sets(kC, members)
    assert set(kept) <= set(members)
    assert len(kept) <= 6 ** k
    assert hc_completability_preserved(kC, members, kept)


def test_representative_hc_sets_singleton():
    kC = complete_graph(3)
    assert representative_hc_sets(kC, [0b001]) == [0b001]


def test_torso_basics():
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    sep = mask_of([0, 2, 3])
    side = g.vmask
    # path 0-1-2 compresses to separator edge (0,2)
    t = torso(g, g.edge_mask([(0, 1), (1, 2)]), side, sep)
    assert t == frozenset({(0, 2)})
    # empty member, everything in the separator
    assert torso(g, 0, sep, sep) == frozenset()
    # endpoint outside the separator is dead
    assert torso(g, g.edge_mask([(0, 1)]), side, sep) is None


def test_torso_dead_cases():
    g = cycle_graph(4)
    sep = mask_of([0, 1])
    # vertex 2 outside sep has degree 1: dead
    assert torso(g, g.edge_mask([(1, 2)]), g.vmask, sep) is None
    # full cycle: spanning cycle sentinel
    assert torso(g, (1 << g.m) - 1, g.vmask, sep) is SPANNING_CYCLE
    # duplicated segment between the same separator pair
    h = Graph(range(4), [(0, 2), (2, 1), (0, 3), (3, 1)])
    s2 = mask_of([0, 1])
    assert torso(h, (1 << h.m) - 1, h.vmask, s2) is SPANNING_CYCLE
    assert torso(h, h.edge_mask([(0, 2), (2, 1), (0, 3)]), h.vmask, s2) is None


def test_pad_separator():
    g = cycle_graph(6)
    a = mask_of([0, 1, 2, 3])
    c = pad_separator(g, a, 1 << 3)
    assert c.bit_count() == 3
    assert c & a == c  # padded from the side first, lowest ids


def test_trim_separator_bound_and_subset():
    g = cycle_graph(6)
    a = mask_of([0, 1, 2, 3])
    sep = pad_separator(g, a, mask_of([0, 3]))
    inner = g.edges_within(a)
    items = [(m, m) for m in range(1 << g.m) if m & ~inner == 0
             and is_path_system(g, m)]
    out = trim_separator(g, a, sep, items)
    assert len(out) <= 6 ** sep.bit_count()
    assert {e for e, _ in out} <= {m for m, _ in items}


def test_preserving_extension_small_separator_rejected():
    g = cycle_graph(5)
    with pytest.raises(ValueError):
        preserving_extension(g, mask_of([0, 1]), mask_of([2]), [0], 0)


def test_preserving_extension_no_estar():
    g = cycle_graph(6)
    a = mask_of([0, 1, 2])
    c = mask_of([0, 2, 3])
    fam = [g.edge_mask([(0, 1), (1, 2)])]
    out = preserving_extension(g, a, c, fam, 0)
    assert out == [(fam[0], fam[0])]


def test_basis_rank():
    b = _Basis()
    assert b.try_insert({0: 1, 1: 2})
    assert b.try_insert({1: 5})
    assert not b.try_insert({0: 2, 1: 4})  # linear combination
