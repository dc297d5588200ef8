import random

import pytest

from smhc.graph import Graph, bits, mask_of, cycle_graph, complete_graph
from smhc.repsets import (is_path_system, degree_masks, pairing_row,
                          representative_hc_sets, torso, SPANNING_CYCLE,
                          pad_separator, trim_separator, preserving_extension,
                          is_hamiltonian_cycle, _can_add_edge, _paths)
from smhc.generators import random_connected_graph
from smhc import oracles
from tests.conftest import family


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
        deg = oracles._edge_degrees(g, m)
        d1, d2, d3 = degree_masks(g, m)
        assert (d1, d2, d3) == tuple(mask_of(v for v in deg if deg[v] >= k)
                                     for k in (1, 2, 3))
        if d3:
            continue  # the path-system state is defined for degree <= 2
        assert list(_paths(g, m, d1 & ~d2)) == oracles._walk_paths(g, m)
        for _ in range(4):
            side = rng.getrandbits(g.n) | rng.choice([0, g.vmask])
            sep = rng.getrandbits(g.n) & rng.choice([side, g.vmask])
            assert torso(g, m, d1, d2, side, sep) == oracles._torso(g, m, side, sep)
        if not is_path_system(g, m):
            continue  # adding an edge is defined on path systems
        for u, v in g.edge_set(((1 << g.m) - 1) & ~m):
            for allow in (False, True):
                assert (_can_add_edge(g, m, d1, d2, u, v, allow)
                        == oracles._can_add_edge(g, m, u, v, allow))


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


def _perfect_matchings(vertices):
    if not vertices:
        yield []
        return
    first, rest = vertices[0], vertices[1:]
    for i, partner in enumerate(rest):
        for m in _perfect_matchings(rest[:i] + rest[i + 1:]):
            yield [(first, partner)] + m


def _one_cycle(p, q, t):
    """Whether the union of two perfect matchings of range(t) is one cycle."""
    mate_p = {u: v for e in p for u, v in (e, e[::-1])}
    mate_q = {u: v for e in q for u, v in (e, e[::-1])}
    seen, v = 0, 0
    while True:
        v = mate_q[mate_p[v]]
        seen += 2
        if v == 0:
            return seen == t


@pytest.mark.parametrize("t", [2, 4, 6])
def test_pairing_row_parity(t):
    """<row(P), row(Q)> over GF(2) is 1 iff P ∪ Q is one cycle."""
    kt = complete_graph(t)
    matchings = list(_perfect_matchings(list(range(t))))
    rows = []
    for p in matchings:
        emask = kt.edge_mask(p)
        row = pairing_row(kt, emask, *degree_masks(kt, emask)[:2])
        assert 0 < row < 1 << 2 ** (t - 1)
        rows.append(row)
    for p, row_p in zip(matchings, rows):
        for q, row_q in zip(matchings, rows):
            assert (row_p & row_q).bit_count() % 2 == _one_cycle(p, q, t)


def test_pairing_row_follows_paths():
    """The row depends on the pairing only; cycles have no row."""
    g = complete_graph(6)
    long = g.edge_mask([(0, 4), (4, 2), (1, 5), (5, 3)])  # pairs 0-2, 1-3
    short = complete_graph(4).edge_mask([(0, 2), (1, 3)])
    assert (pairing_row(g, long, *degree_masks(g, long)[:2])
            == pairing_row(complete_graph(4), short,
                           *degree_masks(complete_graph(4), short)[:2]))
    assert pairing_row(g, 0, 0, 0) == 1
    triangle = g.edge_mask([(0, 1), (1, 2), (0, 2)])
    assert pairing_row(g, triangle, *degree_masks(g, triangle)[:2]) is None


@pytest.mark.parametrize("k", [3, 4, 5])
def test_representative_hc_sets_exhaustive(k):
    """Every path system of K_k: preservation and 2^(|D1|-1) per signature."""
    kC = complete_graph(k)
    masks = list(range(1 << kC.m))
    members = [m for m in masks if is_path_system(kC, m)]
    assert set(representative_hc_sets(kC, masks)) <= set(members)
    kept = representative_hc_sets(kC, members)
    assert set(kept) <= set(members)
    assert len(kept) <= 4 ** k < 6 ** k
    per_signature = {}
    for m in kept:
        sig = oracles._degree_signature(kC, m, kC.vmask)
        per_signature[sig] = per_signature.get(sig, 0) + 1
    for (_, d1, _), count in per_signature.items():
        assert count <= 2 ** max(d1.bit_count() - 1, 0)
    assert hc_completability_preserved(kC, members, kept)


def test_representative_hc_sets_singleton():
    kC = complete_graph(3)
    assert representative_hc_sets(kC, [0b001]) == [0b001]


def torso_of(g, m, side, sep):
    """`torso` with the degree masks folded from the edge mask."""
    return torso(g, m, *degree_masks(g, m)[:2], side, sep)


def test_torso_basics():
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    sep = mask_of([0, 2, 3])
    side = g.vmask
    # path 0-1-2 compresses to separator edge (0,2)
    t = torso_of(g, g.edge_mask([(0, 1), (1, 2)]), side, sep)
    assert t == frozenset({(0, 2)})
    # empty member, everything in the separator
    assert torso_of(g, 0, sep, sep) == frozenset()
    # endpoint outside the separator is dead
    assert torso_of(g, g.edge_mask([(0, 1)]), side, sep) is None


def test_torso_dead_cases():
    g = cycle_graph(4)
    sep = mask_of([0, 1])
    # vertex 2 outside sep has degree 1: dead
    assert torso_of(g, g.edge_mask([(1, 2)]), g.vmask, sep) is None
    # full cycle: spanning cycle sentinel
    assert torso_of(g, (1 << g.m) - 1, g.vmask, sep) is SPANNING_CYCLE
    # duplicated segment between the same separator pair
    h = Graph(range(4), [(0, 2), (2, 1), (0, 3), (3, 1)])
    s2 = mask_of([0, 1])
    assert torso_of(h, (1 << h.m) - 1, h.vmask, s2) is SPANNING_CYCLE
    assert torso_of(h, h.edge_mask([(0, 2), (2, 1), (0, 3)]), h.vmask, s2) is None


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
    items = [(m, *degree_masks(g, m)[:2], m) for m in range(1 << g.m)
             if m & ~inner == 0 and is_path_system(g, m)]
    out = trim_separator(g, a, sep, items)
    assert len(out) <= 6 ** sep.bit_count()
    assert {it[0] for it in out} <= {it[0] for it in items}


def test_preserving_extension_small_separator_rejected():
    g = cycle_graph(5)
    with pytest.raises(ValueError):
        preserving_extension(g, mask_of([0, 1]), mask_of([2]), {0: (0, 0)}, 0)


def test_preserving_extension_no_estar():
    g = cycle_graph(6)
    a = mask_of([0, 1, 2])
    c = mask_of([0, 2, 3])
    m = g.edge_mask([(0, 1), (1, 2)])
    out = preserving_extension(g, a, c, family(g, [m]), 0)
    assert out == [(m, m)]
