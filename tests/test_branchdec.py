import json
import random

import pytest

from smhc.graph import Graph, mask_of, cycle_graph, path_graph, complete_graph
from smhc.cuts import mm_cut_function, mm_value, sm_cut_function
from smhc.branchdec import (BranchDecomposition, EXACT_SIZE_LIMIT,
                            exact_branch_width, approx_decomposition, _binary_tree)
from smhc.generators import random_connected_graph, caterpillar_decomposition
from smhc.pipeline import approx_sm_decomposition, layout_order
from tests.conftest import bounded_stack


def test_two_leaf_tree():
    bd = BranchDecomposition([(0, 1)], {0: 4, 1: 7})
    assert bd.cuts() == [(1 << 4, 1 << 7)]


def test_one_element_caterpillar():
    """A caterpillar of one element is a single leaf, with no edge and
    no cut."""
    bd = caterpillar_decomposition([7])
    assert (bd.edges, bd.leaf_map, bd.elements, bd.cuts()) == ([], {0: 7}, 1 << 7, [])


def test_cut_count_subcubic():
    for k in (2, 3, 4, 5, 6):
        bd = caterpillar_decomposition(list(range(k)))
        assert len(bd.cuts()) == (1 if k == 2 else 2 * k - 3)


def test_walk_post_order():
    """Rooted at a subdivision of edges[0] = (4, 8): 4's subtree, then 8's,
    children in adjacency order."""
    bd = caterpillar_decomposition([0, 1, 2, 3])
    assert bd.edges == [(4, 8), (5, 8), (6, 9), (7, 9), (8, 9)]
    assert bd.post_order == [4, 5, 6, 7, 9, 8]
    assert bd.parent == {4: None, 8: None, 5: 8, 9: 8, 6: 9, 7: 9}
    assert bd.below == {4: 0b1, 5: 0b10, 6: 0b100, 7: 0b1000, 9: 0b1100, 8: 0b1110}


def reference_cuts(bd):
    """Per tree edge uv, the elements of the component of tree - uv holding u."""
    out = []
    for u, v in bd.edges:
        seen, queue = {u}, [u]
        for x in queue:
            for y in bd.nodes:
                if y not in seen and ((x, y) in bd.edges or (y, x) in bd.edges) \
                        and {x, y} != {u, v}:
                    seen.add(y)
                    queue.append(y)
        side = mask_of(bd.leaf_map[x] for x in seen if x in bd.leaf_map)
        out.append((side, bd.elements & ~side))
    return out


def test_cuts_partition_elements():
    """Every cut of each tree partitions the elements, on six small draws
    and on two above EXACT_SIZE_LIMIT, where `approx_decomposition`'s table
    over the Cuthill–McKee order is the caterpillar."""
    rng = random.Random(0)
    graphs = [random_connected_graph(rng.randint(3, 9), rng) for _ in range(6)]
    graphs += [random_connected_graph(n, rng, p=0.3) for n in (EXACT_SIZE_LIMIT + 1, 20)]
    for g in graphs:
        f = mm_cut_function(g)
        vs = list(g.vertices)
        table = approx_decomposition(f, layout_order(g))
        for bd in (caterpillar_decomposition(vs), BranchDecomposition(*table),
                   approx_sm_decomposition(g)):
            assert bd.cuts() == reference_cuts(bd)
            for a, b in bd.cuts():
                assert a | b == bd.elements and a & b == 0


BAD_TREES = [  # (edges, leaf_map, the message `validate` raises)
    # n - 1 edges: a path from edges[0] and a triangle apart from it
    ([(0, 1), (10, 11), (10, 12), (11, 12)], {0: 0, 1: 1}, "decomposition tree is disconnected"),
    ([(0, 1)], {0: 0, 1: 0}, "leaf_map is not injective"),
    ([(0, 1), (1, 2)], {0: 0, 1: 1, 2: 2}, "leaf node 1 has degree 2"),
]


def test_validate_rejects_bad_trees():
    with pytest.raises(ValueError):
        BranchDecomposition([(0, 1), (2, 3)], {0: 0, 1: 1, 3: 2})  # forest
    with pytest.raises(ValueError):
        BranchDecomposition([(0, 1), (1, 2), (1, 3), (1, 4)],
                            {0: 0, 2: 1, 3: 2, 4: 3})  # degree 4
    k4 = [(u, v) for u in range(10, 14) for v in range(u + 1, 14)]
    with pytest.raises(ValueError):  # n - 1 edges and valid degrees, but cyclic
        BranchDecomposition(k4, {0: 0, 1: 1, 2: 2})
    for edges, leaf_map, message in BAD_TREES:
        with pytest.raises(ValueError, match=message):
            BranchDecomposition(edges, leaf_map)


def test_f_width_k6_sm():
    g = complete_graph(6)
    bd = caterpillar_decomposition(list(g.vertices))
    assert bd.f_width(sm_cut_function(g)) == 1


def test_exact_widths():
    for g, cut_function, width in [(cycle_graph(4), sm_cut_function, 1),
                                   (cycle_graph(5), mm_cut_function, 2),
                                   (path_graph(4), mm_cut_function, 1),
                                   (complete_graph(5), sm_cut_function, 1)]:
        assert exact_branch_width(list(g.vertices), cut_function(g))[0] == width


def split_set(bd: BranchDecomposition) -> set:
    """The tree's cuts as unordered pairs of sides, which fix the tree up
    to the names of its nodes."""
    return {frozenset(cut) for cut in bd.cuts()}


def test_approx_caterpillar_above_size_limit():
    """Past EXACT_SIZE_LIMIT elements the tree is the caterpillar over the
    elements in list order, whose cuts are the list's prefixes, and f is
    never called."""
    def f(a):
        raise AssertionError("f evaluated")

    for k in (EXACT_SIZE_LIMIT + 1, 30):
        order = random.Random(k).sample(range(2 * k), k)
        got = BranchDecomposition(*approx_decomposition(f, order))
        assert split_set(got) == split_set(caterpillar_decomposition(order))


def test_exact_evaluates_each_cut_once():
    """C7 has 2^6 - 1 cuts: f sees each once, by one of its two sides, and
    never the empty or the full set."""
    g = cycle_graph(7)
    calls = []

    def f(a):
        calls.append(a)
        return mm_value(g, a)

    exact_branch_width(list(g.vertices), f)
    assert len(calls) == len({min(a, g.vmask ^ a) for a in calls}) == 2 ** 6 - 1
    assert g.vmask not in calls and 0 not in calls


def test_exact_refuses_no_elements():
    with pytest.raises(ValueError, match="at least one element"):
        exact_branch_width([], lambda a: 0)


def test_exact_needs_no_recursion():
    """A 12-element search runs 9 levels above the test's recursion depth;
    it needs 7 under pytest on CPython 3.11.  A recursive search nests a
    frame for each element it splits off, 11 deep here, on top of those."""
    g = random_connected_graph(12, random.Random(1), p=0.3)
    f = mm_cut_function(g)
    want = exact_branch_width(list(g.vertices), f)
    with bounded_stack(9):  # the search below evaluates mm afresh in here
        got = exact_branch_width(list(g.vertices), f)
    assert got == want


def reference_branch_width(elements: list[int], f) -> tuple[int, tuple[list, dict]]:
    """Bottom-up program over every index subset s in numeric order, so all
    proper subsets of s come first: `val[s]` is max(f(s), the least width
    of a split of s), the first minimal split in numeric order winning.
    Returns the width and the table (edges, leaf_map) of its tree."""
    k = len(elements)
    if k == 2:
        table = [(0, 1)], {0: elements[0], 1: elements[1]}
        return BranchDecomposition(*table).f_width(f), table
    masks = [0]  # masks[s]: element mask of the index subset s
    for v in sorted(elements):
        masks += [m | 1 << v for m in masks]
    top = len(masks) - 1
    val = [0] * len(masks)
    choice: dict[int, int] = {}
    for m in range(1, top + 1):
        low = m & -m
        rest = m ^ low
        best = 0
        if rest:
            best = bestpart = None
            sub = 0
            while True:  # every part holding `low`, in numeric order
                part = sub | low
                if part != m:
                    cand = max(val[part], val[m ^ part])
                    if best is None or cand < best:
                        best, bestpart = cand, part
                if sub == rest:
                    break
                sub = (sub - rest) & rest
            choice[masks[m]] = masks[bestpart]
        val[m] = best if m == top else max(f(masks[m]), best)
    return val[top], _binary_tree(masks[top], choice.__getitem__)


def random_cut_function(rng, elements):
    """A symmetric f with integer values 0..hi, hi drawn from 0..4, so that
    ties and zeros are common."""
    full, hi = mask_of(elements), rng.randint(0, 4)
    table = {}
    for a in range(1 << len(elements)):  # index subsets, read as element masks
        side = mask_of(v for i, v in enumerate(elements) if a >> i & 1)
        key = min(side, full ^ side)
        if key not in table:
            table[key] = rng.randint(0, hi)
    return lambda a: table[min(a, full ^ a)]


def test_exact_matches_reference_on_random_cut_functions():
    rng = random.Random(18)
    for k in range(1, 11):
        for _ in range(30):
            elements = rng.sample(range(16), k)
            f = random_cut_function(rng, elements)
            want = reference_branch_width(elements, f)
            assert exact_branch_width(elements, f) == want


def test_exact_matches_reference_on_graph_cut_functions():
    rng = random.Random(19)
    for n in range(3, 12):
        for _ in range(2):
            g = random_connected_graph(n, rng)
            for cut_function in (mm_cut_function, sm_cut_function):
                f = cut_function(g)
                want = reference_branch_width(list(g.vertices), f)
                assert exact_branch_width(list(g.vertices), f) == want


def test_capped_search_matches_reference():
    """Seeded graphs with n = 8..11 at densities 0.2, 0.4 and 0.7: on their
    mm and sm cut functions many sub-searches end at their parent's best
    (the cap), and width and tree are the reference's.  A capped subset is
    rarely read again under a higher best (in about one search of 1,500),
    so the seeds are chosen to hold such searches: 109 (n = 10, p = 0.2,
    mm) and 171 (n = 10, p = 0.4, mm) each re-solve a capped subset.  There
    a search that keeps the first answer of a capped subset, or raises its
    bound past the cap, returns another tree."""
    for seed in (109, 171):
        for n in range(8, 12):
            for p in (0.2, 0.4, 0.7):
                g = random_connected_graph(n, random.Random(seed), p=p)
                for cut_function in (mm_cut_function, sm_cut_function):
                    f = cut_function(g)
                    want = reference_branch_width(list(g.vertices), f)
                    assert exact_branch_width(list(g.vertices), f) == want


def test_exact_decomposition_achieves_width():
    g = cycle_graph(6)
    f = mm_cut_function(g)
    w, table = exact_branch_width(list(g.vertices), f)
    bd = BranchDecomposition(*table)
    assert bd.f_width(f) == w
    assert bd.elements == g.vmask


def enumerate_decompositions(elements: list[int]):
    """Yield every leaf-labeled subcubic tree over the elements, by leaf insertion."""
    k = len(elements)
    if k == 1:
        yield BranchDecomposition([], {0: elements[0]})
        return
    trees = [((0, 1),)]
    leaf_map = {0: elements[0], 1: elements[1]}
    for idx in range(2, k):  # subdivide each edge by a new internal node
        leaf, internal = 2 * idx - 2, 2 * idx - 1
        trees = [t[:i] + t[i + 1:] + ((u, internal), (internal, v), (internal, leaf))
                 for t in trees for i, (u, v) in enumerate(t)]
        leaf_map[leaf] = elements[idx]
    for t in trees:
        yield BranchDecomposition(list(t), leaf_map)


@pytest.mark.parametrize("seed", range(8))
def test_subset_dp_matches_literal_enumeration(seed):
    rng = random.Random(seed)
    g = random_connected_graph(5, rng)
    f = mm_cut_function(g)
    w, _ = exact_branch_width(list(g.vertices), f)
    best = min(bd.f_width(f) for bd in enumerate_decompositions(list(g.vertices)))
    assert w == best


def test_caterpillar_never_beats_exact():
    rng = random.Random(11)
    for _ in range(10):
        g = random_connected_graph(7, rng)
        f = mm_cut_function(g)
        w, _ = exact_branch_width(list(g.vertices), f)
        assert caterpillar_decomposition(layout_order(g)).f_width(f) >= w


def test_approx_backends():
    """Up to EXACT_SIZE_LIMIT elements the tree is `exact_branch_width`'s,
    whatever the order the elements come in."""
    for n in (4, 5, EXACT_SIZE_LIMIT):
        g = random_connected_graph(n, random.Random(n), p=0.3)
        f = mm_cut_function(g)
        width, want = exact_branch_width(list(g.vertices), f)
        got = approx_decomposition(f, list(g.vertices)[::-1])
        assert got == want and BranchDecomposition(*got).f_width(f) == width


def test_json_roundtrip():
    bd = caterpillar_decomposition([3, 5, 8, 9])
    again = BranchDecomposition.from_json(bd.to_json())
    assert again.edges == bd.edges and again.leaf_map == bd.leaf_map


def test_three_elements_tree_without_f():
    """`approx_decomposition` builds `exact_branch_width`'s tree, node ids
    included, on one, two and three elements under random symmetric cut
    functions, and never evaluates f."""
    rng = random.Random(3)
    for k in [1, 2] * 10 + [3] * 50:
        elements = rng.sample(range(20), k)
        full = mask_of(elements)
        table = {}

        def f(a):
            key = min(a, full & ~a)
            if key not in table:
                table[key] = rng.randint(0, 4) if key else 0
            return table[key]

        _, expected = exact_branch_width(sorted(elements), f)

        def refuse(a):
            raise AssertionError("f evaluated")

        assert approx_decomposition(refuse, elements) == expected


@pytest.mark.parametrize("split", [lambda m: 0, lambda m: m,
                                   lambda m: 1 << 8 if m >> 8 & 1 else (m & -m) | 1 << 8])
def test_binary_tree_refuses_improper_split(split):
    """A split that is empty or the whole mask raises instead of pushing the
    same mask again; one that reaches outside the mask raises instead of
    building a tree with foreign leaves."""
    with pytest.raises(ValueError, match="not a proper part"):
        _binary_tree(mask_of([0, 1, 2]), split)


def reference_walk(edges, leaf_map):
    """The constructor and `validate` as they were before the tree was built
    and checked in one walk: the fields the solver and `cuts` read."""
    edges = sorted(tuple(sorted(e)) for e in edges)
    leaf_map = dict(leaf_map)
    nodes = set(leaf_map)
    for u, v in edges:
        nodes.add(u)
        nodes.add(v)
    nodes = sorted(nodes)
    adj = {u: [] for u in nodes}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    elements = mask_of(leaf_map.values())
    n_nodes = len(nodes)
    if len(edges) != n_nodes - 1:
        raise ValueError("decomposition tree is not a tree")
    if edges:
        x, y = edges[0]
        stack = [(x, y), (y, x)]
    else:
        stack = [(nodes[0], None)]
    parent = {}
    while stack:
        node, up = stack.pop()
        if node in parent:
            raise ValueError("decomposition tree has a cycle")
        parent[node] = up
        stack.extend((w, node) for w in adj[node] if w != up)
    if len(parent) != n_nodes:
        raise ValueError("decomposition tree is disconnected")
    if edges:
        parent[x] = parent[y] = None
    post_order = list(parent)[::-1]
    below = dict.fromkeys(parent, 0)
    for node in post_order:
        if node in leaf_map:
            below[node] |= 1 << leaf_map[node]
        if parent[node] is not None:
            below[parent[node]] |= below[node]
    vals = list(leaf_map.values())
    if len(set(vals)) != len(vals):
        raise ValueError("leaf_map is not injective")
    for u in nodes:
        deg = len(adj[u])
        if u in leaf_map:
            if deg > 1:
                raise ValueError(f"leaf node {u} has degree {deg}")
        elif n_nodes > 2 and deg != 3:
            raise ValueError(f"internal node {u} has degree {deg}")
    return {"edges": edges, "nodes": nodes, "elements": elements,
            "post_order": post_order, "parent": list(parent.items()),
            "below": list(below.items())}


def reference_from_json(data):
    """`BranchDecomposition.from_json` as it was, onto `reference_walk`."""
    if (not isinstance(data, dict) or not isinstance(data.get("edges"), list)
            or not isinstance(data.get("leaf_map"), dict)):
        raise ValueError("decomposition needs 'edges' (list) and 'leaf_map' (object)")
    try:
        edges = [tuple(e) for e in data["edges"]]
        leaf_map = {int(k): v for k, v in data["leaf_map"].items()}
        if any(isinstance(x, bool) for x in [*data["leaf_map"], *leaf_map.values(),
                                             *(x for e in edges for x in e)]):
            raise ValueError("malformed decomposition: a node id or leaf vertex is a boolean")
        return reference_walk(edges, leaf_map)
    except TypeError as exc:
        raise ValueError(f"malformed decomposition: {exc}") from exc


def walk_of(build, *args):
    """The fields `reference_walk` returns, in their order (dict order
    included), read off `build(*args)`; or the type and message of what
    it raises."""
    try:
        bd = build(*args)
    except Exception as exc:  # noqa: BLE001 (the exception is the answer)
        return type(exc), str(exc)
    if isinstance(bd, dict):
        return bd
    return {"edges": bd.edges, "nodes": bd.nodes, "elements": bd.elements,
            "post_order": bd.post_order, "parent": list(bd.parent.items()),
            "below": list(bd.below.items())}


def scrambled(bd, rng):
    """bd's edges in a random order, each end first at random."""
    edges = [e if rng.random() < 0.5 else e[::-1] for e in bd.edges]
    rng.shuffle(edges)
    return edges


def test_walk_matches_reference_on_valid_trees():
    """Pipeline trees of seeded random graphs with n <= 30, caterpillars
    and random subcubic shapes, their edges scrambled: the one-walk
    constructor gives the edges, nodes, elements, post-order, parents and
    element masks of `reference_walk`, the dicts in the same order."""
    from tests.test_theorems import random_tree

    rng = random.Random(5001)
    trees = []
    for _ in range(40):
        n = rng.randint(1, 30)
        g = random_connected_graph(n, rng, p=rng.choice([0.15, 0.3, 0.6]))
        trees.append(approx_sm_decomposition(g))
    for k in list(range(1, 8)) + [20, 41]:
        trees.append(caterpillar_decomposition(rng.sample(range(3 * k), k)))
        trees.append(random_tree(rng.sample(range(3 * k), k), rng))
    for bd in trees:
        edges = scrambled(bd, rng)
        want = walk_of(reference_walk, edges, bd.leaf_map)
        assert isinstance(want, dict)
        assert walk_of(BranchDecomposition, edges, bd.leaf_map) == want
        assert walk_of(BranchDecomposition.from_json, bd.to_json()) == want


def malformed_tables(rng):
    """Seeded small trees with one to three faults each: an edge dropped,
    added, doubled, made a self-loop or moved to another end; a leaf
    dropped, or an inner node made a leaf; a leaf vertex repeated,
    negative, a float, a string, None or a list; an edge with one or three
    ends; a node id that is one of those; every edge written with string
    ids (so only sorting the node ids, strings and the leaves' ints, fails)."""
    junk = ["a", None, [1], 1.5, -1]
    for _ in range(400):
        k = rng.randint(1, 6)
        if rng.random() < 0.5:
            bd = caterpillar_decomposition(rng.sample(range(10), k))
        else:
            from tests.test_theorems import random_tree
            bd = random_tree(rng.sample(range(10), k), rng)
        edges = [list(e) for e in scrambled(bd, rng)]
        leaf_map = dict(bd.leaf_map)
        for _ in range(rng.randint(1, 3)):
            nodes = bd.nodes
            fault = rng.randrange(11)
            if fault == 0 and edges:
                edges.pop(rng.randrange(len(edges)))
            elif fault == 1:
                edges.append([rng.choice(nodes), rng.choice(nodes + [50])])
            elif fault == 2 and edges:
                edges.append(list(rng.choice(edges)))
            elif fault == 3:
                x = rng.choice(nodes)
                edges.append([x, x])
            elif fault == 4 and len(leaf_map) > 1:
                a, b = rng.sample(sorted(leaf_map), 2)
                leaf_map[a] = leaf_map[b]
            elif fault == 5:
                leaf_map[rng.choice(sorted(leaf_map))] = rng.choice(junk)
            elif fault == 6 and edges:
                e = rng.choice(edges)
                if rng.random() < 0.5:
                    e.pop()
                else:
                    e.append(rng.choice(nodes))
            elif fault == 7 and edges:
                e = rng.choice(edges)
                e[rng.randrange(len(e))] = rng.choice(junk)
            elif fault == 8 and edges:
                e = rng.choice(edges)
                e[rng.randrange(len(e))] = rng.choice(nodes)
            elif fault == 9:
                node = rng.choice(nodes)
                if node in leaf_map and len(leaf_map) > 1:
                    del leaf_map[node]
                else:
                    leaf_map[node] = 10 + node
            elif fault == 10:
                edges = [[str(x) for x in e] for e in edges]
        yield edges, leaf_map


def test_walk_raises_as_reference_on_malformed_trees():
    """Every malformed tree the tests use (`BAD_TREES` and the trees of
    `test_validate_rejects_bad_trees`), every malformed JSON of
    `tests/test_cli.py::test_hc_malformed_decomposition_exits_two`, and
    400 seeded trees with one to three faults (`malformed_tables`): the
    constructor and `from_json` raise the reference's exception type and
    message, or agree with it where the fault leaves a valid tree."""
    from tests import test_cli

    k4 = [(u, v) for u in range(10, 14) for v in range(u + 1, 14)]
    tables = [(edges, leaf_map) for edges, leaf_map, _ in BAD_TREES]
    tables += [([(0, 1), (2, 3)], {0: 0, 1: 1, 3: 2}),
               ([(0, 1), (1, 2), (1, 3), (1, 4)], {0: 0, 2: 1, 3: 2, 4: 3}),
               (k4, {0: 0, 1: 1, 2: 2})]
    raised = 0
    for edges, leaf_map in tables + list(malformed_tables(random.Random(5002))):
        want = walk_of(reference_walk, edges, leaf_map)
        raised += not isinstance(want, dict)
        assert walk_of(BranchDecomposition, edges, leaf_map) == want, (edges, leaf_map)
        data = {"edges": edges, "leaf_map": {str(k): v for k, v in leaf_map.items()}}
        assert walk_of(BranchDecomposition.from_json, data) == walk_of(reference_from_json, data)
    assert raised > 300
    (cli_cases,) = [mark.args[1] for mark in
                    test_cli.test_hc_malformed_decomposition_exits_two.pytestmark
                    if mark.name == "parametrize"]
    assert len(cli_cases) > 10
    for text in cli_cases:
        data = json.loads(text)
        want = walk_of(reference_from_json, data)
        assert walk_of(BranchDecomposition.from_json, data) == want, text
