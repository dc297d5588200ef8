"""A Hamiltonicity reference for cographs of any size, by path covers.

`brute_hc` stops at 18 vertices, so past that only a HAMILTONIAN verdict
could be checked, by its witness.  On cographs this reference checks both
verdicts, and it shares no logic with the solver:

- the cotree comes from the components of G and of its complement
  (Corneil, Lerchs & Stewart Burlingham, Discrete Appl. Math. 1981): a
  disconnected graph is the union of its components, a graph whose
  complement is disconnected is the join of the co-components, and a
  graph with neither is no cograph;
- the path cover number follows the cotree bottom up (Lin, Olariu &
  Pruesse, Comput. Math. Appl. 1995): a union adds, and a join of G1 and
  G2 gives max(1, π1 − n2, π2 − n1);
- a Hamiltonian cycle of G1 ⊗ G2 alternates s paths of G1 with s paths
  of G2, and G1 has a cover by s paths iff π1 ≤ s ≤ n1.  So with n ≥ 3
  the graph is Hamiltonian iff its root is a join with π1 ≤ n2 and
  π2 ≤ n1.
"""

import random
from itertools import combinations

import pytest

from smhc.graph import Graph
from smhc.oracles import brute_hc
from smhc.pipeline import approx_sm_decomposition
from smhc.solver import solve_hc
from tests.conftest import atlas_connected
from tests.test_solver import random_cograph


def components(vs: frozenset, nbrs) -> list[frozenset]:
    """The components of the graph on vs whose neighbours of v are nbrs(v)."""
    left, out = set(vs), []
    while left:
        comp, todo = set(), [left.pop()]
        while todo:
            v = todo.pop()
            comp.add(v)
            new = nbrs(v) & left
            left -= new
            todo += new
        out.append(frozenset(comp))
    return out


def cotree(vs: frozenset, adj: dict[int, set[int]]):
    """The cotree of the graph induced on vs: a vertex, or ("union" or
    "join", children); ValueError if it is no cograph."""
    if len(vs) == 1:
        return next(iter(vs))
    kind, parts = "union", components(vs, lambda v: adj[v] & vs)
    if len(parts) == 1:
        kind, parts = "join", components(vs, lambda v: vs - adj[v] - {v})
        if len(parts) == 1:
            raise ValueError("not a cograph: it and its complement are connected")
    return kind, [cotree(p, adj) for p in parts]


def path_cover(node) -> tuple[int, int]:
    """(vertices, path cover number) of the graph under a cotree node."""
    if isinstance(node, int):
        return 1, 1
    kind, children = node
    n, pi = path_cover(children[0])
    for child in children[1:]:
        n2, pi2 = path_cover(child)
        pi = pi + pi2 if kind == "union" else max(1, pi - n2, pi2 - n)
        n += n2
    return n, pi


def cograph_hc(g: Graph) -> bool:
    """Whether the cograph g is Hamiltonian; ValueError if g is no cograph."""
    adj: dict[int, set[int]] = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    root = cotree(frozenset(g.vertices), adj)
    if g.n < 3 or root[0] != "join":
        return False
    _, (first, *rest) = root
    (n1, pi1), (n2, pi2) = path_cover(first), path_cover(("join", rest))
    return pi1 <= n2 and pi2 <= n1


def has_induced_p4(g: Graph) -> bool:
    """Whether four vertices of g induce a path: three edges with degrees
    1, 1, 2, 2 (the other graph with three edges and no isolated vertex
    among four is a star, with degrees 1, 1, 1, 3)."""
    edges = set(g.edges)
    for quad in combinations(g.vertices, 4):
        inside = [e for e in combinations(quad, 2) if e in edges]
        degrees = sorted(sum(v in e for e in inside) for v in quad)
        if degrees == [1, 1, 2, 2]:
            return True
    return False


def test_reference_matches_brute_on_atlas():
    """Every connected graph with 3..7 vertices: the reference refuses
    exactly the graphs with an induced P4, and answers `brute_hc`'s verdict
    on the rest."""
    verdicts = []
    for g in atlas_connected(3, 7):
        if has_induced_p4(g):
            with pytest.raises(ValueError, match="not a cograph"):
                cograph_hc(g)
        else:
            verdicts.append(cograph_hc(g))
            assert verdicts[-1] == brute_hc(g)[0]
    assert True in verdicts and False in verdicts


def test_reference_matches_brute_on_random_cographs():
    rng = random.Random(10)
    verdicts = []
    for _ in range(60):
        g = random_cograph(rng.randint(3, 14), rng)
        verdicts.append(cograph_hc(g))
        assert verdicts[-1] == brute_hc(g)[0]
    assert True in verdicts and False in verdicts


def test_solver_matches_reference_past_brute_sizes():
    """Seeded cographs with n = 17..26, mostly past the 18 vertices of
    `brute_hc`, and with n = 27..60: `solve_hc`'s verdict, both ways, is
    the reference's in each size range."""
    rng = random.Random(26)
    for low, high, draws in ((17, 26, 30), (27, 60, 30)):
        verdicts = []
        for _ in range(draws):
            g = random_cograph(rng.randint(low, high), rng)
            verdicts.append(cograph_hc(g))
            assert solve_hc(g, approx_sm_decomposition(g))[0] == verdicts[-1]
        assert True in verdicts and False in verdicts, (low, high)
