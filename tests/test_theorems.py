"""Verdicts checked by theorem, and one verdict whatever the tree.

Past `brute_hc`'s sizes four facts decide Hamiltonicity with no oracle:

- GP(n, 2), the generalized Petersen graph, is Hamiltonian iff n is not
  5 mod 6 (Alspach, J. Combin. Theory Ser. B 1983);
- an r x c grid with r, c >= 2 is Hamiltonian iff rc is even;
- if G is Hamiltonian, so is its lexicographic product G[H] with any H:
  go round G's cycle |H| times, lap i visiting copy i of each module;
- if G is bipartite with classes of unequal size, G[E_s] (E_s: s
  vertices, no edge) is bipartite with unequal classes, so it is not.

The builders here are kept outside the package, as the cograph reference
is; `scripts/cliffs.py` reads them for its `theorem` rows.  The tests
solve each graph on several trees, random subcubic shapes among them, and
verify every witness.
"""

import random

from smhc.branchdec import BranchDecomposition
from smhc.generators import caterpillar_decomposition, grid_graph, random_connected_graph
from smhc.graph import Graph, bits, complete_graph
from smhc.oracles import brute_hc
from smhc.pipeline import approx_sm_decomposition
from smhc.repsets import is_hamiltonian_cycle
from smhc.solver import solve_hc


def generalized_petersen(n: int, k: int) -> Graph:
    """GP(n, k): an outer n-cycle 0..n-1, spokes i -- n + i, and an inner
    star polygon n + i -- n + (i + k) mod n."""
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n + i) for i in range(n)]
    edges += [(n + i, n + (i + k) % n) for i in range(n)]
    return Graph(range(2 * n), edges)


def empty_graph(s: int) -> Graph:
    """E_s: s vertices and no edge."""
    return Graph(range(s), [])


def lex_product(g: Graph, h: Graph) -> Graph:
    """G[H] on G's ids 0..n-1 and H's 0..s-1: vertex (x, y) is x * s + y;
    (x, y) -- (x', y') when xx' is an edge of G, or x = x' and yy' one of H."""
    s = h.n
    edges = [(x * s + y, x2 * s + y2) for x, x2 in g.edges for y in range(s) for y2 in range(s)]
    edges += [(x * s + y, x * s + y2) for x in range(g.n) for y, y2 in h.edges]
    return Graph(range(g.n * s), edges)


def gp2_hamiltonian(n: int) -> bool:
    """Alspach: GP(n, 2) is Hamiltonian iff n is not 5 mod 6."""
    return n % 6 != 5


def grid_hamiltonian(rows: int, cols: int) -> bool:
    """A rows x cols grid, rows, cols >= 2, is Hamiltonian iff it has an
    even number of vertices."""
    return rows * cols % 2 == 0


def unequal_bipartition(g: Graph) -> bool:
    """Whether connected g is bipartite with classes of unequal size."""
    side, todo = {g.vertices[0]: 0}, [g.vertices[0]]
    while todo:
        v = todo.pop()
        for w in bits(g.adj[v]):
            if w not in side:
                side[w] = 1 - side[v]
                todo.append(w)
            elif side[w] == side[v]:
                return False
    return 2 * sum(side.values()) != g.n


def product_verdict(g_hamiltonian: bool, g: Graph, h: Graph) -> bool | None:
    """G[H]'s verdict by the two product theorems, given G's, or None when
    neither applies."""
    if g_hamiltonian:
        return True
    if not h.edges and unequal_bipartition(g):
        return False
    return None


def random_tree(elements: list[int], rng: random.Random) -> BranchDecomposition:
    """A random subcubic tree over the elements: shuffle the leaves, then
    merge random pairs of parts under a new node until two are left, and
    join those two by the root edge."""
    leaves = {1000 + i: v for i, v in enumerate(elements)}
    parts, edges, fresh = list(leaves), [], 1000 + len(elements)
    rng.shuffle(parts)
    while len(parts) > 2:
        x = parts.pop(rng.randrange(len(parts)))
        y = parts.pop(rng.randrange(len(parts)))
        edges += [(fresh, x), (fresh, y)]
        parts.append(fresh)
        fresh += 1
    if len(parts) == 2:
        edges.append(tuple(parts))
    return BranchDecomposition(edges, leaves)


def trees(g: Graph, rng: random.Random) -> list[BranchDecomposition]:
    """The pipeline's tree, caterpillars in vertex order and in reversed
    order, and one random shape."""
    order = list(g.vertices)
    return [approx_sm_decomposition(g), caterpillar_decomposition(order),
            caterpillar_decomposition(order[::-1]), random_tree(order, rng)]


def solved(g: Graph, bd: BranchDecomposition) -> bool:
    """The solver's verdict along bd, its witness verified."""
    verdict, witness = solve_hc(g, bd)
    assert verdict == (witness is not None)
    assert witness is None or is_hamiltonian_cycle(g, g.edge_mask(witness))
    return verdict


def test_random_trees_match_brute():
    """On 300 seeded `random_connected_graph` draws with n = 4..11, the
    verdict along a random subcubic tree is `brute_hc`'s."""
    rng = random.Random(4601)
    seen = {True: 0, False: 0}
    for _ in range(300):
        g = random_connected_graph(rng.randint(4, 11), rng, p=rng.choice([0.2, 0.35, 0.5, 0.7]))
        verdict = solved(g, random_tree(list(g.vertices), rng))
        assert verdict == brute_hc(g)[0]
        seen[verdict] += 1
    assert all(seen.values()), seen


def test_one_verdict_whatever_the_tree():
    """GP(n, 2) for n = 5..12 and 3 x c grids for c = 2..9 take the
    theorem's verdict on all four trees of `trees`."""
    rng = random.Random(4602)
    cases = [(generalized_petersen(n, 2), gp2_hamiltonian(n)) for n in range(5, 13)]
    cases += [(grid_graph(3, c), grid_hamiltonian(3, c)) for c in range(2, 10)]
    assert {want for _, want in cases} == {True, False}
    for g, want in cases:
        assert [solved(g, bd) for bd in trees(g, rng)] == [want] * 4


def test_dense_products_match_brute():
    """G[H] for 60 seeded connected G with 3..6 vertices and H in K2, K3,
    E2, n <= 12, along the pipeline's tree and a random one: both verdicts
    are `brute_hc`'s, and the two product theorems agree where they
    apply.  These are the inputs where twin joins meet plain folds."""
    rng = random.Random(4603)
    factors = [complete_graph(2), complete_graph(3), empty_graph(2)]
    seen = {"yes": 0, "no": 0, "theorem": 0}
    for _ in range(60):
        h = rng.choice(factors)
        g = random_connected_graph(rng.randint(3, 12 // h.n), rng, p=rng.choice([0.3, 0.5]))
        gh = lex_product(g, h)
        want = brute_hc(gh)[0]
        for bd in (approx_sm_decomposition(gh), random_tree(list(gh.vertices), rng)):
            assert solved(gh, bd) == want
        theorem = product_verdict(brute_hc(g)[0], g, h)
        assert theorem in (None, want)
        seen["yes" if want else "no"] += 1
        seen["theorem"] += theorem is not None
    assert all(seen.values()), seen


def test_product_theorems_past_brute_sizes():
    """Products the solver answers quickly, with verdicts by theorem only:
    C7[K3] and grid(2, 5)[K2], Hamiltonian, and grid(3, 3)[E2],
    grid(3, 5)[E2] and the path P7[E3], each bipartite with unequal
    classes, are not."""
    cases = [(Graph(range(7), [(i, (i + 1) % 7) for i in range(7)]), True, complete_graph(3)),
             (grid_graph(2, 5), True, complete_graph(2)),
             (grid_graph(3, 3), False, empty_graph(2)),
             (grid_graph(3, 5), False, empty_graph(2)),
             (Graph(range(7), [(i, i + 1) for i in range(6)]), False, empty_graph(3))]
    for g, g_hamiltonian, h in cases:
        gh = lex_product(g, h)
        assert gh.n > 16
        want = product_verdict(g_hamiltonian, g, h)
        assert want is not None
        assert solved(gh, approx_sm_decomposition(gh)) == want


def test_one_verdict_on_biconnected_random_graphs():
    """Seeded biconnected `random_connected_graph` draws at p = 0.1, one
    per n = 19..30, past `brute_hc`'s sizes and with no cut vertex, so the
    CLI's cut-vertex answer does not decide them: all four trees of
    `trees` give one verdict, every witness verified; both verdicts
    occur."""
    rng = random.Random(4604)
    seen = {True: 0, False: 0}
    for n in range(19, 31):
        g = random_connected_graph(n, rng, p=0.1)
        while not g.is_biconnected():
            g = random_connected_graph(n, rng, p=0.1)
        verdicts = {solved(g, bd) for bd in trees(g, rng)}
        assert len(verdicts) == 1, (n, g.edges)
        seen[verdicts.pop()] += 1
    assert all(seen.values()), seen
