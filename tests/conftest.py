import random
import sys
from contextlib import contextmanager

import networkx as nx
import pytest

from smhc.graph import Graph
from smhc.generators import random_connected_graph
from smhc.repsets import path_state


def atlas_connected(min_n: int = 3, max_n: int = 6):
    """All connected graphs up to isomorphism within the size range."""
    out = []
    for G in nx.graph_atlas_g():
        n = G.number_of_nodes()
        if n < min_n or n > max_n:
            continue
        if not nx.is_connected(G):
            continue
        out.append(Graph(range(n), list(G.edges())))
    return out


def family(g, masks):
    """Certificate family (`repsets.Family`): each path system's state
    mapped to the least mask with that state, in order of first
    occurrence."""
    fam = {}
    for m in masks:
        key = path_state(g, m)
        if fam.setdefault(key, m) > m:
            fam[key] = m
    return fam


def live(fam, a, boundary):
    """The members of a family with degree two at every vertex of a outside
    the boundary, under their keys and in their order: the families that
    `solver.trim` takes."""
    return {key: m for key, m in fam.items() if not a & ~boundary & ~key[1]}


def partner(pe, w, d1, v):
    """The other end of v's path, read from the field of v in the pairing
    int pe of `w` bits per vertex; v itself when v has degree zero."""
    return (pe >> v * w) & ((1 << w) - 1) if (d1 >> v) & 1 else v


def recursion_depth() -> int:
    """The interpreter's recursion depth at the caller, as
    `sys.setrecursionlimit` counts it.  CPython 3.11 counts C calls too,
    so under pytest this exceeds the number of Python frames on the stack.
    That call refuses a limit at or below the depth it runs at, so the
    least limit it takes, found by bisection, is the caller's depth plus 3
    (this frame, the call itself, and one).  The limit is left as it was."""
    limit = sys.getrecursionlimit()
    lo, hi = 1, limit  # hi is always taken
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            sys.setrecursionlimit(mid)
            hi = mid
        except RecursionError:
            lo = mid + 1
    sys.setrecursionlimit(limit)
    return lo - 3


@contextmanager
def bounded_stack(extra: int = 45):
    """Run the `with` body under a recursion limit `extra` levels above the
    recursion depth of the `with` statement, so the body nests at most
    `extra` Python calls."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(recursion_depth() - 2 + extra)  # less this frame and __enter__'s
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def random_corpus(sizes, per_size, seed):
    rng = random.Random(seed)
    out = []
    for n in sizes:
        for _ in range(per_size):
            out.append(random_connected_graph(n, rng))
    return out


@pytest.fixture(scope="session")
def small_atlas():
    return atlas_connected(3, 6)
