import random
import re

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from smhc.graph import (Graph, bits, mask_of, complete_graph, cycle_graph, path_graph,
                        petersen_graph, parse_edge_list, format_edge_list)
from smhc.cuts import is_split
from smhc.generators import random_connected_graph
from tests.conftest import atlas_connected, bounded_stack


def small_graphs():
    return st.integers(3, 8).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda e: e[0] != e[1]),
            max_size=2 * n,
        ).map(lambda es: Graph(range(n), es)))


def test_bits_roundtrip():
    assert list(bits(0b101101)) == [0, 2, 3, 5]
    assert mask_of([0, 2, 3, 5]) == 0b101101


def test_dedupe_and_ordering():
    g = Graph(range(3), [(2, 1), (1, 2), (0, 1)])
    assert g.edges == ((0, 1), (1, 2))


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        Graph(range(3), [(1, 1)])


def test_edge_outside_vertex_set_rejected():
    with pytest.raises(ValueError):
        Graph(range(3), [(0, 5)])


def test_neighborhood():
    g = cycle_graph(4)
    assert g.neighborhood(1 << 1) == (1 << 0) | (1 << 2)
    assert g.neighborhood(g.vmask) == 0


def test_unknown_vertex_ids_rejected():
    """A vertex set with ids outside the graph is refused where a set is
    checked: by `neighborhood` and by the split test."""
    g = cycle_graph(4)
    with pytest.raises(ValueError, match=re.escape("unknown vertex ids [5, 9]")):
        g.neighborhood(1 << 0 | 1 << 5 | 1 << 9)
    with pytest.raises(ValueError, match=re.escape("unknown vertex ids [6]")):
        is_split(g, 1 << 0 | 1 << 6)


def test_random_connected_graph_needs_a_vertex():
    with pytest.raises(ValueError, match="need at least one vertex"):
        random_connected_graph(0, random.Random(0))


def test_petersen_degrees():
    g = petersen_graph()
    assert g.n == 10 and g.m == 15
    assert all(g.degree(v) == 3 for v in g.vertices)
    assert g.neighborhood(1 << 0) == mask_of([1, 4, 5])


def test_parse_format_roundtrip():
    g = petersen_graph()
    assert parse_edge_list(format_edge_list(g)) == g


def test_parse_comments_and_blanks():
    g = parse_edge_list("# comment\n3 2\n\n0 1\n1 2  # trailing\n")
    assert g.edges == ((0, 1), (1, 2))


PARSE_ERRORS = {  # input text -> the message `parse_edge_list` raises
    "": "empty edge-list input",
    "nonsense": "first line must be 'n m'",
    "3 5\n0 1\n": "expected 5 edge lines, got 1",
    "2 1\n0 3\n": "edge (0,3) out of range for n=2",
    "-3 0\n": "vertex count -3 is negative",
    "3 1\n0 1 2\n": "bad edge line: '0 1 2'",
}


@pytest.mark.parametrize("text", list(PARSE_ERRORS))
def test_parse_errors(text):
    with pytest.raises(ValueError, match=re.escape(PARSE_ERRORS[text])):
        parse_edge_list(text)


@given(small_graphs())
def test_roundtrip_random(g):
    assert parse_edge_list(format_edge_list(g)) == g


@given(small_graphs(), st.integers(0, 255))
def test_cut_edges_partition_random(g, a):
    a &= g.vmask
    inner = g.edges_within(a)
    outer = g.edges_within(g.vmask & ~a)
    crossing = g.edges_between(a, g.vmask & ~a)
    assert inner | outer | crossing == (1 << g.m) - 1
    assert inner & crossing == 0 and outer & crossing == 0 and inner & outer == 0


def test_edge_masks_match_literal_scan():
    """`edges_at`, `edges_within` and `edges_between` against a scan over
    g.edges, on seeded random graphs with non-contiguous vertex ids."""
    rng = random.Random(5)
    for _ in range(200):
        vs = rng.sample(range(12), rng.randint(1, 9))
        es = [(u, v) for u in vs for v in vs if u < v and rng.random() < 0.4]
        g = Graph(vs, es)
        a, b = rng.getrandbits(12) & g.vmask, rng.getrandbits(12) & g.vmask
        b &= ~a

        def scan(keep):
            return sum(1 << i for i, (u, v) in enumerate(g.edges)
                       if keep((a >> u) & 1, (a >> v) & 1, (b >> u) & 1, (b >> v) & 1))

        assert g.edges_at(a) == scan(lambda au, av, bu, bv: au or av)
        assert g.edges_within(a) == scan(lambda au, av, bu, bv: au and av)
        assert g.edges_between(a, b) == scan(
            lambda au, av, bu, bv: (au and bv) or (bu and av))
        for i, (u, v) in enumerate(g.edges):
            assert g.edge_mask([(u, v)]) == g.edge_mask([(v, u)]) == 1 << i
        assert g.edge_mask(g.edges) == (1 << g.m) - 1


def test_edge_mask_refuses_non_edges():
    """`edge_mask` reads each edge's bit off the incidence masks and raises
    on a pair that is no edge: a non-adjacent pair, a vertex with itself
    (which shares all its incident edges) and an unknown id."""
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    for pair in ((0, 2), (1, 1), (0, 7)):
        with pytest.raises(ValueError, match="is no edge"):
            g.edge_mask([(0, 1), pair])


@given(small_graphs(), st.integers(0, 255))
def test_neighborhood_disjoint(g, s):
    s &= g.vmask
    assert g.neighborhood(s) & s == 0


def two_cliques_and_a_bridge(k: int) -> Graph:
    return Graph(range(2 * k), [(u, v) for u in range(2 * k) for v in range(u + 1, 2 * k)
                                if u // k == v // k] + [(k - 1, k)])


def test_is_biconnected_on_named_graphs():
    """Cut vertices at the ends of paths, star centres, shared vertices
    and bridge ends; none in cycles, cliques and the Petersen graph."""
    assert not Graph([], []).is_biconnected() and not Graph([3], []).is_biconnected()
    assert Graph([2, 7], [(2, 7)]).is_biconnected()  # K2, as in networkx
    for n in range(3, 9):
        assert not path_graph(n).is_biconnected()
        assert not Graph(range(n), [(0, v) for v in range(1, n)]).is_biconnected()  # star
        assert cycle_graph(n).is_biconnected() and complete_graph(n).is_biconnected()
        shared = [(i, (i + 1) % n) for i in range(n)] + [(0, n), (n, n + 1), (n + 1, 0)]
        assert not Graph(range(n + 2), shared).is_biconnected()  # two cycles, one vertex
        assert not two_cliques_and_a_bridge(n).is_biconnected()
        assert not Graph(range(2 * n), list(cycle_graph(n).edges)
                         + [(u + n, v + n) for u, v in cycle_graph(n).edges]).is_biconnected()
    assert petersen_graph().is_biconnected()


def test_is_biconnected_matches_networkx():
    """Every connected graph of 3..7 vertices up to isomorphism, and seeded
    random graphs of 3..14 vertices with non-contiguous ids, many of them
    disconnected, against networkx.is_biconnected."""
    rng = random.Random(25)
    graphs = atlas_connected(3, 7)
    for n in range(3, 15):
        for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7):
            for _ in range(10):
                vs = rng.sample(range(2 * n), n)
                graphs.append(Graph(vs, [(u, v) for u in vs for v in vs
                                         if u < v and rng.random() < p]))
    both = 0
    for g in graphs:
        ref = nx.Graph()
        ref.add_nodes_from(g.vertices)
        ref.add_edges_from(g.edges)
        assert g.is_biconnected() == nx.is_biconnected(ref), (g.vertices, g.edges)
        both += g.is_biconnected()
    assert 0 < both < len(graphs)


def test_is_biconnected_needs_no_recursion():
    with bounded_stack():
        assert not path_graph(5000).is_biconnected()
        assert cycle_graph(5000).is_biconnected()
