import random

import pytest

from smhc.graph import Graph, bits, mask_of, cycle_graph, path_graph, complete_graph, petersen_graph
from smhc.cuts import is_split, min_vertex_cover
from smhc import repsets, solver
from smhc.repsets import (degree_masks, field_width, is_path_system,
                          pad_separator, path_state, walk_from)
from smhc.solver import (cut_of, join, trim, trim_vc, trim_split, solve_hc,
                         is_hamiltonian_cycle)
from smhc.pipeline import approx_sm_decomposition
from smhc.generators import (random_connected_graph, caterpillar_decomposition,
                             grid_graph)
from smhc import oracles
from tests.conftest import bounded_stack, family, live, partner
from tests.test_repsets import reference_frontier


def certificate_valid(g, emask, home):
    if emask & ~g.edges_within(home):
        return False
    if is_path_system(g, emask):
        return True
    return home == g.vmask and is_hamiltonian_cycle(g, emask)


def brute_conc(g, a, b, sa, sb):
    """Literal subset enumeration over the cross edges."""
    home = a | b
    cross = g.edges_between(a, b)
    cross_bits = list(bits(cross))
    out = []
    for sub in range(1 << len(cross_bits)):
        e = 0
        for i, idx in enumerate(cross_bits):
            if (sub >> i) & 1:
                e |= 1 << idx
        cand = sa | sb | e
        if certificate_valid(g, cand, home):
            out.append(cand)
    return sorted(out)


def test_is_hamiltonian_cycle():
    g = cycle_graph(5)
    assert is_hamiltonian_cycle(g, (1 << g.m) - 1)
    assert not is_hamiltonian_cycle(g, (1 << g.m) - 2)
    h = Graph(range(6), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert not is_hamiltonian_cycle(h, (1 << h.m) - 1)  # two triangles


def test_conc_trivial_cases():
    g = Graph(range(2), [(0, 1)])
    out = oracles.conc(g, 1 << 0, 1 << 1, 0, 0)
    assert sorted(out) == [0, 1]  # empty and the single cross edge
    h = Graph(range(4), [(0, 1), (2, 3)])
    assert oracles.conc(h, mask_of([0, 1]), mask_of([2, 3]),
                h.edge_mask([(0, 1)]), h.edge_mask([(2, 3)])) == \
        [h.edge_mask([(0, 1), (2, 3)])]


def test_conc_rejects_overlap():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        oracles.conc(g, 0b0011, 0b0110, 0, 0)


@pytest.mark.parametrize("seed", range(20))
def test_conc_matches_brute(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng.randint(4, 7), rng)
    a = rng.randrange(1, g.vmask) & g.vmask
    b = g.vmask & ~a
    if not a or not b:
        return
    def sample_cert(side):
        inner = g.edges_within(side)
        for _ in range(50):
            m = rng.randrange(1 << g.m) & inner
            if is_path_system(g, m):
                return m
        return 0
    sa, sb = sample_cert(a), sample_cert(b)
    out = oracles.conc(g, a, b, sa, sb)
    assert sorted(out) == brute_conc(g, a, b, sa, sb)
    # the order of a search that skips each cross edge before taking it
    cross = list(bits(g.edges_between(a, b)))
    assert out == sorted(out, key=lambda m: [(m >> i) & 1 for i in cross])


@pytest.mark.parametrize("seed", range(10))
def test_join_subset_of_conc(seed):
    rng = random.Random(seed + 100)
    g = random_connected_graph(6, rng)
    a = rng.randrange(1, g.vmask)
    b = g.vmask & ~a
    if not b:
        return
    sa = 0
    sb = 0
    cut, fam = join(g, a, b, family(g, [sa]), family(g, [sb]), cut_of(g, a), cut_of(g, b))
    assert cut == cut_of(g, a | b)
    assert set(fam.values()) <= set(oracles.conc(g, a, b, sa, sb))


def recorded_joins(g, monkeypatch):
    """(a, b, fa, fb, cut, out) of every join of the solve along
    `approx_sm_decomposition`, the root's last."""
    joins = []
    real_join = solver.join

    def recording(g_, a, b, fa, fb, *args):
        cut, out = real_join(g_, a, b, fa, fb, *args)
        joins.append((a, b, fa, fb, cut, out))
        return cut, out

    with monkeypatch.context() as patch:
        patch.setattr(solver, "join", recording)
        solve_hc(g, approx_sm_decomposition(g))
    return joins


def seeded_graphs(seed, densities, count):
    """K5..K9 and `count` seeded random connected graphs with n = 5..9."""
    rng = random.Random(seed)
    graphs = [complete_graph(n) for n in range(5, 10)]
    return graphs + [random_connected_graph(rng.randint(5, 9), rng, p=rng.choice(densities))
                     for _ in range(count)]


def is_twin_cut(g, a):
    """Whether a is not all of V and every vertex of a with a neighbour
    outside a has the same neighbours outside a, by neighbour lists."""
    outside = {frozenset(u for u in bits(g.adj[v]) if not (a >> u) & 1) for v in bits(a)}
    return a != g.vmask and len(outside - {frozenset()}) == 1


def reference_trim_split(g, a, fam, cut):
    """The twin trim of any family: the least member per twin signature
    (paths, isolated vertices) among those with no vertex of a without an
    outside neighbour below degree two, no closed cycle, no isolated vertex
    when t = |N(a)| < 2, and at most t paths and isolated vertices."""
    boundary, outside, _ = cut
    t = outside.bit_count()
    chosen = {}
    for key, cert in sorted(fam.items(), key=lambda item: item[1]):
        d1, d2, *_ = key
        isolated = a & ~d1
        sig = ((d1 & ~d2).bit_count() // 2, isolated.bit_count())
        if a & ~d2 & ~boundary or (isolated and t < 2) or sum(sig) > t:
            continue
        if d1 and not d1 & ~d2:
            continue
        chosen.setdefault(sig, (key, cert))
    return dict(chosen.values())


def test_split_frontier_keeps_trim_split_of_conc(monkeypatch):
    """At every non-root twin cut of seeded graphs with n <= 9, `join`
    keeps exactly what the reference twin trim keeps of the members
    `oracles.conc` lists over all pairs; that family preserves those
    members.  The cut's flag is the literal twin-cut test."""
    checked = crossed = 0
    for g in seeded_graphs(1411, (0.5, 0.7, 0.9), 16):
        hcs = oracles.enumerate_hamiltonian_cycles(g)
        for a, b, fa, fb, cut, out in recorded_joins(g, monkeypatch):
            home = a | b
            assert cut == cut_of(g, home)
            assert cut[2] == is_twin_cut(g, home)
            if not cut[2]:
                continue
            members = [m for sa in fa.values() for sb in fb.values()
                       for m in oracles.conc(g, a, b, sa, sb)]
            assert out == reference_trim_split(g, home, family(g, members), cut)
            assert oracles.verify_preservation(g, home, members, list(out.values()),
                                               method="cycles", hcs=hcs)
            checked += 1
            crossed += len(members) > len(fa) * len(fb)
    assert checked >= 40 and crossed >= 20


def test_frontier_keeps_trim_of_live_conc(monkeypatch):
    """At every join of seeded graphs with n <= 9 whose home is no twin
    cut, the root's included, `join` keeps exactly what `trim` keeps of
    the least live member per state that `oracles.conc` lists over all
    pairs, live meaning that every vertex without an outside neighbour has
    degree two (`trim`'s precondition).  At the root that is the least
    Hamiltonian cycle, and the verdict is `brute_hc`'s.  Every cut equals
    the one read off the home."""
    checked = crossed = 0
    for g in seeded_graphs(1412, (0.3, 0.5, 0.7), 60):
        joins = recorded_joins(g, monkeypatch)
        for a, b, fa, fb, cut, out in joins:
            home = a | b
            assert cut == cut_of(g, home)
            assert cut[2] == is_twin_cut(g, home)
            if cut[2]:
                continue
            inner = home & ~cut[0]
            members = [m for sa in fa.values() for sb in fb.values()
                       for m in oracles.conc(g, a, b, sa, sb)]
            live = [m for m in members if not inner & ~degree_masks(g, m)[1]]
            if home == g.vmask:  # no trim: the least Hamiltonian cycle is kept
                assert list(out.values()) == sorted(live)[:1]
            else:
                assert out == trim(g, home, family(g, live), cut)
            checked += 1
            crossed += len(members) > len(fa) * len(fb)
        a, b, *_, out = joins[-1]
        assert a | b == g.vmask
        assert bool(out) == oracles.brute_hc(g)[0]
        assert all(is_hamiltonian_cycle(g, m) for m in out.values())
    assert checked >= 150 and crossed >= 80


def test_join_hands_trim_its_precondition(monkeypatch):
    """Every family `join` hands to `trim` meets `trim`'s precondition,
    read off each member's edge mask: every vertex of the home without an
    outside neighbour has degree two, no two members share a key (the
    state, or on a twin cut the number of path ends and of isolated
    vertices), and no member is a cycle unless the home is V.  Every
    family `join` hands to `trim`, and every family `trim` returns, maps
    the key path_state(g, m) to each of its members m.  Seeded
    graphs with n <= 9 are solved along `approx_sm_decomposition` and along
    a caterpillar in a random vertex order; the calls cover twin cuts,
    estar cuts, cuts without estar edges and trims that drop members."""
    calls = []
    real_trim = solver.trim

    def recording(g_, a, fam, cut, *args):
        before = dict(fam)
        out = real_trim(g_, a, fam, cut, *args)
        calls.append((g_, a, before, dict(out), cut))
        return out

    monkeypatch.setattr(solver, "trim", recording)
    rng = random.Random(1413)
    for g in seeded_graphs(1413, (0.3, 0.5, 0.7), 40):
        order = list(g.vertices)
        rng.shuffle(order)
        for bd in (approx_sm_decomposition(g), caterpillar_decomposition(order)):
            solve_hc(g, bd)
    seen = dict.fromkeys(["twin", "estar", "no estar", "two or more members", "dropped"], 0)
    for g, a, fam, out, (boundary, nbr, twin) in calls:
        for key, m in [*fam.items(), *out.items()]:
            assert key == path_state(g, m)
        seen["dropped"] += len(out) < len(fam)
        keys = set()
        for m in fam.values():
            d1, d2, _ = degree_masks(g, m)
            assert not a & ~boundary & ~d2
            assert a == g.vmask or is_path_system(g, m)
            keys.add(((d1 & ~d2).bit_count(), (a & ~d1).bit_count()) if twin
                     else path_state(g, m))
        assert len(keys) == len(fam)
        seen["two or more members"] += len(fam) > 1
        if twin:
            seen["twin"] += 1
        elif a != g.vmask:
            c = pad_separator(g, a, min_vertex_cover(g, boundary, nbr))
            seen["estar" if g.edges_at(c & ~a) & g.edges_at(boundary) else "no estar"] += 1
    assert all(seen.values()), seen


def random_cograph(n, rng):
    """A connected cograph on 0..n-1 from a random cotree: the root joins
    two parts cut at a random point, and below it each part with two
    vertices or more is cut so too, its parts joined or not with equal
    odds."""
    edges, todo = [], [(list(range(n)), True)]
    while todo:
        vs, joined = todo.pop()
        if len(vs) > 1:
            cut = rng.randint(1, len(vs) - 1)
            if joined:
                edges += [(u, v) for u in vs[:cut] for v in vs[cut:]]
            todo += [(vs[:cut], rng.random() < 0.5), (vs[cut:], rng.random() < 0.5)]
    return Graph(range(n), edges)


def test_folds_meet_the_frontier_precondition(monkeypatch):
    """Every `repsets.frontier` and `repsets.join_vertex` call of
    `solve_hc` meets the precondition `frontier` states, read off each
    member's edge mask on entry: every vertex of `home` outside `boundary`
    that no edge of `left` meets has degree two.  Seeded random graphs (n
    = 5..10) and random cographs (n = 5..12) are solved along
    `approx_sm_decomposition` and along a caterpillar in a random vertex
    order.  The calls cover the join's plain and forgetting folds, the
    extension's estar folds and single-vertex joins, each with such a
    vertex in some call."""
    seen = {kind: 0 for kind in ("plain", "forget", "extension", "vertex")}
    seen.update({f"{kind} checked": 0 for kind in seen})

    def check(kind, g, fam, left, home, boundary):
        decided = home & ~boundary & ~degree_masks(g, left)[0]
        for m in fam.values():
            assert not decided & ~degree_masks(g, m)[1]
        seen[kind] += 1
        seen[f"{kind} checked"] += bool(decided and fam)

    real_join_fold, real_extension_fold = solver.frontier, repsets.frontier
    real_vertex_fold = solver.join_vertex

    def join_fold(g, fam, left, home, boundary, forget):
        check("forget" if forget else "plain", g, fam, left, home, boundary)
        return real_join_fold(g, fam, left, home, boundary, forget)

    def extension_fold(g, fam, left, home, boundary, forget):
        check("extension", g, fam, left, home, boundary)
        return real_extension_fold(g, fam, left, home, boundary, forget)

    def vertex_fold(g, fam, v, left, home, boundary):
        check("vertex", g, fam, left, home, boundary)
        return real_vertex_fold(g, fam, v, left, home, boundary)

    monkeypatch.setattr(solver, "frontier", join_fold)
    monkeypatch.setattr(repsets, "frontier", extension_fold)
    monkeypatch.setattr(solver, "join_vertex", vertex_fold)
    rng = random.Random(3101)
    graphs = [random_connected_graph(rng.randint(5, 10), rng, p=rng.choice([0.3, 0.5, 0.7]))
              for _ in range(40)]
    graphs += [random_cograph(rng.randint(5, 12), rng) for _ in range(40)]
    for g in graphs:
        order = list(g.vertices)
        rng.shuffle(order)
        for bd in (approx_sm_decomposition(g), caterpillar_decomposition(order)):
            assert solve_hc(g, bd)[0] == oracles.brute_hc(g)[0]
    assert all(seen.values()), seen


def test_join_vertex_matches_frontier(monkeypatch):
    """At every join of a single vertex v, with the leaf's family, to a
    twin home that `solve_hc` reaches on seeded random cographs (n =
    5..14) and dense random graphs (n = 5..10), `repsets.join_vertex`
    then `trim` equals `repsets.frontier` (forgetting) then `trim`, as
    dicts.  The joins take v on either side, and the members have zero,
    one and two forced closing vertices (of degree one, adjacent to v and
    outside the boundary), a forced vertex whose partner is the lowest
    other end adjacent to v, and v outside the boundary."""
    calls, sides = [], [0, 0]  # folds; joins that fold v second, first
    real_join, real_fold = solver.join, solver.join_vertex

    def recording_join(g, a, b, fa, fb, cut_a, cut_b, *rest):
        done = len(calls)
        out = real_join(g, a, b, fa, fb, cut_a, cut_b, *rest)
        if len(calls) > done:  # v was folded: the other order folds alike
            assert real_join(g, b, a, fb, fa, cut_b, cut_a, *rest) == out
            for (_, _, v, *_), first in zip(calls[done:], (a, b)):
                sides[1 << v == first] += 1
        return out

    def recording_fold(g, fam, v, left, home, boundary):
        calls.append((g, dict(fam), v, left, home, boundary))
        return real_fold(g, fam, v, left, home, boundary)

    monkeypatch.setattr(solver, "join", recording_join)
    monkeypatch.setattr(solver, "join_vertex", recording_fold)
    rng = random.Random(3001)
    graphs = [random_cograph(rng.randint(5, 14), rng) for _ in range(60)]
    graphs += [random_connected_graph(rng.randint(5, 10), rng, p=rng.choice([0.6, 0.75, 0.9]))
               for _ in range(40)]
    for g in graphs:
        solve_hc(g, approx_sm_decomposition(g))
    seen = dict.fromkeys(["forced 0", "forced 1", "forced 2", "forced partner lowest",
                          "v outside"], 0)
    seen["v second"], seen["v first"] = sides
    for g, fam, v, left, home, boundary in calls:
        cut = cut_of(g, home)
        got = trim(g, home, repsets.join_vertex(g, fam, v, left, home, boundary), cut)
        assert got == trim(g, home, repsets.frontier(g, fam, left, home, boundary, True), cut)
        seen["v outside"] += not boundary >> v & 1
        w, near = field_width(g), g.adj[v] & home
        for d1, d2, pe in fam:
            if near & ~boundary & ~d1:
                continue  # a closing vertex of degree zero: dead
            ends = near & d1 & ~d2
            forced = ends & ~boundary
            if forced.bit_count() <= 2:
                seen[f"forced {forced.bit_count()}"] += 1
            rest = ends & ~forced
            if forced.bit_count() == 1 and rest:
                f, low = forced.bit_length() - 1, (rest & -rest).bit_length() - 1
                seen["forced partner lowest"] += partner(pe, w, d1, f) == low
    assert all(seen.values()), seen


def test_every_family_is_keyed_by_state(monkeypatch):
    """Every family that `join` and `preserving_extension` return maps the
    state path_state(g, m) of each member m to it, whatever fold made it.
    Seeded random graphs (n = 5..10) and the cographs of
    `test_join_vertex_matches_frontier` are solved along
    `approx_sm_decomposition`; the calls cover plain and forgetting
    frontiers, single-vertex twin joins and extensions with estar edges."""
    seen = dict.fromkeys(["plain", "forget", "vertex", "estar"], 0)
    real_join, real_extension = solver.join, solver.preserving_extension
    real_fold, real_vertex_fold = solver.frontier, solver.join_vertex

    def keyed(g, fam):
        for key, m in fam.items():
            assert key == path_state(g, m)

    def checking_join(g, *args):
        cut, out = real_join(g, *args)
        keyed(g, out)
        return cut, out

    def checking_extension(g, a, c, fam, estar, *rest):
        out = real_extension(g, a, c, fam, estar, *rest)
        keyed(g, out)
        seen["estar"] += bool(estar)
        return out

    def counting_fold(g, fam, left, home, boundary, forget):
        seen["forget" if forget else "plain"] += 1
        return real_fold(g, fam, left, home, boundary, forget)

    def counting_vertex_fold(*args):
        seen["vertex"] += 1
        return real_vertex_fold(*args)

    monkeypatch.setattr(solver, "join", checking_join)
    monkeypatch.setattr(solver, "preserving_extension", checking_extension)
    monkeypatch.setattr(solver, "frontier", counting_fold)
    monkeypatch.setattr(solver, "join_vertex", counting_vertex_fold)
    rng = random.Random(3001)
    graphs = [random_cograph(rng.randint(5, 14), rng) for _ in range(60)]
    rng = random.Random(3102)
    graphs += [random_connected_graph(rng.randint(5, 10), rng, p=rng.choice([0.3, 0.5, 0.7]))
               for _ in range(40)]
    for g in graphs:
        solve_hc(g, approx_sm_decomposition(g))
    assert all(seen.values()), seen


def test_forgetting_fold_at_the_field_width(monkeypatch):
    """On random cographs with n = 7 and n = 15, the highest vertex id is
    one below `free`, the largest value a field of `field_width(g)` bits
    holds, so the fields reach right up to the `free` field.  Every inner
    twin join there (a forgetting `frontier` of `join`) equals, as a dict,
    the list fold `reference_frontier`, which keeps its tally apart from
    the state; each size has such joins with the highest vertex in the
    home."""
    calls = []
    real_fold = solver.frontier

    def recording(g, fam, left, home, boundary, forget):
        if forget:
            calls.append((g, dict(fam), left, home, boundary))
        return real_fold(g, fam, left, home, boundary, forget)

    monkeypatch.setattr(solver, "frontier", recording)
    rng = random.Random(3201)
    top = dict.fromkeys([7, 15], 0)
    for n, draws in ((7, 30), (15, 4)):
        for _ in range(draws):
            g = random_cograph(n, rng)
            assert (1 << field_width(g)) - 2 == n - 1
            solve_hc(g, approx_sm_decomposition(g))
    for g, fam, left, home, boundary in calls:
        items = [(m, *key) for key, m in fam.items()]
        want = reference_frontier(g, items, left, home, boundary, True)
        assert repsets.frontier(g, dict(fam), left, home, boundary, True) == \
            {tuple(key): m for m, *key in want}
        top[g.n] += home >> (g.n - 1) & 1
    assert all(top.values()), top


def test_clique_solves_without_a_forgetting_frontier(monkeypatch):
    """Every twin join of K5 along `approx_sm_decomposition` adds a single
    vertex to a clique home, so `repsets.join_vertex` folds it and no join
    runs a forgetting `repsets.frontier`: with one that raises, the solve
    still finds a Hamiltonian cycle.  The root join is no twin cut, and
    its frontier does not forget."""
    real = repsets.frontier

    def no_forgetting(g, fam, left, home, boundary, forget):
        if forget:
            raise AssertionError("a forgetting frontier ran")
        return real(g, fam, left, home, boundary, forget)

    monkeypatch.setattr(repsets, "frontier", no_forgetting)
    monkeypatch.setattr(solver, "frontier", no_forgetting)
    g = complete_graph(5)
    verdict, witness = solve_hc(g, approx_sm_decomposition(g))
    assert verdict and is_hamiltonian_cycle(g, g.edge_mask(witness))


def test_join_leaves_its_inputs_unchanged(monkeypatch):
    """`join` changes neither fa nor fb: each equals, items in order, a
    copy taken before the call, whether a side is a leaf's family
    (`solver.LEAF`, whose pairs are a copy of the other side) or not.
    Seeded graphs with n <= 9 are solved along `approx_sm_decomposition`
    and along a caterpillar in a random vertex order, whose joins take a
    leaf on one side or both, and the fold grows the copy of a leaf's
    partner by its cross edges."""
    seen = dict.fromkeys(["leaf and leaf", "leaf and family", "no leaf", "grown"], 0)
    real_join = solver.join

    def checking(g_, a, b, fa, fb, *args):
        before = list(fa.items()), list(fb.items())
        cut, out = real_join(g_, a, b, fa, fb, *args)
        assert (list(fa.items()), list(fb.items())) == before
        leaves = (fa == solver.LEAF) + (fb == solver.LEAF)
        seen[["no leaf", "leaf and family", "leaf and leaf"][leaves]] += 1
        seen["grown"] += leaves == 1 and len(fa) + len(fb) > 2 and bool(out)
        return cut, out

    monkeypatch.setattr(solver, "join", checking)
    rng = random.Random(1414)
    for g in seeded_graphs(1414, (0.3, 0.5, 0.7), 20):
        order = list(g.vertices)
        rng.shuffle(order)
        for bd in (approx_sm_decomposition(g), caterpillar_decomposition(order)):
            assert solve_hc(g, bd)[0] == oracles.brute_hc(g)[0]
    assert all(seen.values()), seen


@pytest.mark.parametrize("seed", range(12))
def test_carried_degree_masks_equal_fold(seed, monkeypatch):
    """Every state (d1, d2, pe) set in O(1) matches its edge mask: the
    degree masks equal the fold of the mask, each path end's field holds
    the far end of the walk from it, and every other field is zero.

    Covers the family `join`'s frontier hands to `trim`, for pairs cut
    from a Hamiltonian cycle at the whole graph, so spanning-cycle closures
    occur, and at a home one vertex short of it, and the items the
    frontier of `preserving_extension` hands to `trim_separator`, some of
    them grown by cross edges out of their home.
    """
    rng = random.Random(seed + 900)
    g = random_connected_graph(rng.randint(4, 9), rng, p=0.6)
    w = field_width(g)
    ends_checked = 0

    def check(m, d1, d2, pe):
        nonlocal ends_checked
        assert (d1, d2) == degree_masks(g, m)[:2]
        for v in bits(d1 & ~d2):
            assert partner(pe, w, d1, v) == walk_from(g, m, v)[-1]
            ends_checked += 1
        assert pe == path_state(g, m)[2]

    hamiltonian, witness = oracles.brute_hc(g)
    cycle = g.edge_mask(witness) if hamiltonian else 0

    def sample(side):
        """Path systems within the side: the cycle's part, then thinned ones."""
        inner = g.edges_within(side)
        thinned = [cycle & inner & rng.getrandbits(g.m) for _ in range(3)]
        randoms = [m for m in (inner & rng.getrandbits(g.m) for _ in range(6))
                   if is_path_system(g, m)]
        return [cycle & inner] + thinned + randoms[:2]

    items, fams = [], []
    real_trim_separator, real_trim = repsets.trim_separator, solver.trim

    def recording(g_, a_, sep, fam, trace=None):
        items.extend((a_, m, *key) for key, m in fam.items())
        return real_trim_separator(g_, a_, sep, fam, trace)

    def recording_trim(g_, a_, fam, *args):
        fams.append(dict(fam))
        return real_trim(g_, a_, fam, *args)

    monkeypatch.setattr(repsets, "trim_separator", recording)
    monkeypatch.setattr(solver, "trim", recording_trim)
    closures = 0
    for _ in range(4):
        a = rng.randrange(1, g.vmask)
        b = g.vmask & ~a
        short = b & ~(1 << (b.bit_length() - 1))
        fa, fb = sample(a), sample(b)
        for sa, sb in [(fa[0], fb[0])] + list(zip(fa[1:], fb[1:])):
            join(g, a, b, family(g, [sa]), family(g, [sb]), cut_of(g, a), cut_of(g, b))
            if short:
                join(g, a, short, family(g, [sa]), family(g, [sb & g.edges_within(short)]),
                     cut_of(g, a), cut_of(g, short))
        c = pad_separator(g, a, min_vertex_cover(g, a))
        repsets.preserving_extension(g, a, c, family(g, fa),
                                     g.edges_between(a, c & ~a))
    for fam in fams:
        for (d1, d2, pe), m in fam.items():
            check(m, d1, d2, pe)
            closures += is_hamiltonian_cycle(g, m)
    assert closures or not hamiltonian
    assert any(ext & ~g.edges_within(a_) for a_, ext, *_ in items) or not hamiltonian
    for _, ext, d1, d2, pe in items:
        check(ext, d1, d2, pe)
    assert ends_checked


def test_trim_vc_bound():
    g = cycle_graph(8)
    a = mask_of([0, 1, 2, 3])
    inner = g.edges_within(a)
    fam = [m for m in range(1 << g.m) if m & ~inner == 0
           and is_path_system(g, m)]
    out = list(trim_vc(g, a, family(g, fam), cut_of(g, a)).values())
    assert set(out) <= set(fam)
    assert len(out) <= 6 ** 3  # padded cover has size 3
    assert oracles.verify_preservation(g, a, fam, out, method="cycles")


def sampled_family(g, a, rng):
    """Path systems of G[a] in a random order: all of them when G[a] has
    at most 12 edges, else the empty one, 80 grown edge by edge in random
    orders, each stopped at a random length, and 300 drawn as one to four
    paths between boundary vertices with the other vertices of a put on
    them at random."""
    inner = g.edges_within(a)
    edges = list(bits(inner))
    if len(edges) <= 12:
        masks, m = [], inner
        while True:  # every submask of inner, down to 0
            if is_path_system(g, m):
                masks.append(m)
            if not m:
                break
            m = (m - 1) & inner
    else:
        masks = {0}
        for _ in range(80):
            rng.shuffle(edges)
            m = 0
            for i in edges[:rng.randint(1, len(edges))]:
                if is_path_system(g, m | 1 << i):
                    m |= 1 << i
            masks.add(m)
        outside = g.vmask & ~a
        ends = [v for v in bits(a) if g.adj[v] & outside]
        inside = [v for v in bits(a) if not g.adj[v] & outside]
        for _ in range(300):  # boundary paths through every other vertex, if they exist
            rng.shuffle(ends)
            cuts = sorted(rng.sample(range(1, len(ends)), min(rng.randint(0, 3), len(ends) - 1)))
            paths = [ends[i:j] for i, j in zip([0] + cuts, cuts + [len(ends)])]
            for v in inside:
                path = rng.choice(paths)
                path.insert(rng.randint(1, max(1, len(path) - 1)), v)
            steps = [(u, v) for path in paths for u, v in zip(path, path[1:])]
            if all((g.adj[u] >> v) & 1 for u, v in steps):
                masks.add(g.edge_mask(steps))
        masks = list(masks)
    rng.shuffle(masks)
    return masks


def perfect_matchings(vs):
    if not vs:
        yield []
        return
    for i in range(1, len(vs)):
        for rest in perfect_matchings(vs[1:i] + vs[i + 1:]):
            yield [(vs[0], vs[i])] + rest


def wide_cut():
    """K7 with six of its vertices matched one to one to six outside
    vertices on a path: a cut of six boundary vertices whose Koenig cover
    is the boundary, so the cut has no estar edge.  Also returns the 45
    members of three paths that pair up the boundary, vertex 6 on one of
    them: 15 pairings of one signature, whose rows span only 10 dimensions."""
    g = Graph(range(13), [(u, v) for u in range(7) for v in range(u + 1, 7)]
              + [(7 + i, 8 + i) for i in range(5)] + [(i, 7 + i) for i in range(6)])
    paired = []
    for pairs in perfect_matchings(list(range(6))):
        for u, v in pairs:
            others = [pair for pair in pairs if pair != (u, v)]
            paired.append(g.edge_mask(others + [(u, 6), (6, v)]))
    return g, (1 << 7) - 1, paired


def test_one_pass_trim_equals_extension_route(monkeypatch):
    """`trim_vc` keeps exactly what `preserving_extension` and its
    `trim_separator` over the padded cover keep, with the same
    `max_family_by_k`, on seeded random families keyed as `join` keys
    them: the least member per state, of which the live ones (`live`)
    are kept.  A cut without estar edges and with at
    most five boundary vertices returns its family itself and calls no
    extension; every other cut calls it.  A home of three vertices or
    more whose boundary a greedy pass matches into N(a) ("matched") runs
    no cover search, and its Koenig cover is its boundary; homes of one
    and two vertices always search, and some are padded from outside the
    home.  The cases cover padded covers, dropped members, estar cuts and
    six-vertex boundaries whose basis keeps fewer members than states."""
    calls, covers = [], []
    real_extension, real_cover = solver.preserving_extension, solver.min_vertex_cover
    monkeypatch.setattr(solver, "preserving_extension",
                        lambda *args: calls.append(args) or real_extension(*args))
    monkeypatch.setattr(solver, "min_vertex_cover",
                        lambda *args: covers.append(args) or real_cover(*args))
    rng = random.Random(2015)
    instances = []
    for _ in range(120):
        g = random_connected_graph(rng.randint(5, 10), rng, p=rng.choice([0.3, 0.5, 0.7]))
        a = rng.randrange(1, g.vmask)
        if not cut_of(g, a)[2]:
            instances.append((g, a, []))
    instances.append(wide_cut())
    small = random.Random(2016)  # homes of one and two vertices, twin cuts among them
    instances += [(g, mask_of(small.sample(g.vertices, size)), [])
                  for g, _, _ in instances[:-1] for size in (1, 2)]
    seen = dict.fromkeys(["one pass", "padded", "dropped", "estar", "wide basis drops",
                          "matched", "small home padded outside"], 0)
    for g, a, extra in instances:
        cut = cut_of(g, a)
        boundary, nbr, _ = cut
        fam = live(family(g, sampled_family(g, a, rng) + extra), a, boundary)
        c = pad_separator(g, a, real_cover(g, boundary, nbr))
        estar = g.edges_at(c & ~a) & g.edges_at(boundary)
        want_trace, got_trace = {}, {}
        want = repsets.preserving_extension(g, a, c, fam, estar, want_trace)
        calls.clear()
        covers.clear()
        got = trim_vc(g, a, fam, cut, got_trace)
        assert got == want and got_trace == want_trace
        if not covers:
            assert a.bit_count() >= 3 and boundary.bit_count() <= 5
            assert real_cover(g, boundary, nbr) == boundary and c & ~a == 0
            seen["matched"] += 1
        assert covers or a.bit_count() >= 3
        seen["small home padded outside"] += a.bit_count() < 3 and bool(c & ~a)
        if estar or boundary.bit_count() > 5:
            assert len(calls) == 1
            seen["estar"] += bool(estar)
            seen["dropped"] += len(got) < len(fam)
            seen["wide basis drops"] += not estar and len(got) < len(fam)
            continue
        assert not calls and got is fam
        assert boundary & ~c == 0 and (a & c).bit_count() <= max(boundary.bit_count(), 3)
        seen["one pass"] += 1
        seen["padded"] += c != boundary
    assert all(seen.values()), seen


def test_trim_split_signature_collapse():
    # side {0,1} of a 4-cycle-with-twins: 0 and 1 are twins toward outside
    g = Graph(range(4), [(0, 2), (0, 3), (1, 2), (1, 3)])
    a = mask_of([0, 1])
    assert is_split(g, a)
    out = trim_split(g, a, {(0, 0, 0): 0}, cut_of(g, a))
    assert out == {(0, 0, 0): 0}
    with pytest.raises(ValueError):
        trim_split(g, mask_of([0, 2]), {(0, 0, 0): 0}, cut_of(g, mask_of([0, 2])))


def test_trim_split_preserves():
    g = complete_graph(6)
    a = mask_of([0, 1, 2])
    inner = g.edges_within(a)
    fam = [m for m in range(1 << g.m) if m & ~inner == 0
           and is_path_system(g, m)]
    out = list(trim_split(g, a, family(g, fam), cut_of(g, a)).values())
    assert set(out) <= set(fam)
    assert len(out) <= (g.n + 1) ** 3
    assert oracles.verify_preservation(g, a, fam, out, method="cycles")


def test_trim_dispatch():
    g = complete_graph(6)
    a = mask_of([0, 1, 2])
    lone = {(0, 0, 0): 0}
    assert trim(g, a, lone, cut_of(g, a)) == lone  # a live lone member stays
    fam = [0, g.edge_mask([(0, 1)])]
    assert set(trim(g, a, family(g, fam), cut_of(g, a)).values()) <= set(fam)


def test_solve_named_graphs():
    for g, want in [(cycle_graph(6), True), (path_graph(4), False),
                    (complete_graph(5), True), (petersen_graph(), False)]:
        bd = approx_sm_decomposition(g)
        got, witness = solve_hc(g, bd)
        assert got == want
        if want:
            assert is_hamiltonian_cycle(g, g.edge_mask(witness))
        else:
            assert witness is None


def test_solve_small_and_disconnected():
    g2 = Graph(range(2), [(0, 1)])
    assert solve_hc(g2, caterpillar_decomposition([0, 1]))[0] is False
    gd = Graph(range(6), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert solve_hc(gd, caterpillar_decomposition(list(range(6))))[0] is False


def test_solve_rejects_wrong_decomposition():
    g = cycle_graph(5)
    with pytest.raises(ValueError):
        solve_hc(g, caterpillar_decomposition([0, 1, 2]))


@pytest.mark.parametrize("seed", range(25))
def test_solve_matches_oracle_and_no_trim(seed):
    rng = random.Random(seed + 500)
    g = random_connected_graph(rng.randint(4, 7), rng)
    bd = approx_sm_decomposition(g)
    want, _ = oracles.brute_hc(g)
    got, w = solve_hc(g, bd)
    assert got == want
    if w is not None:
        assert is_hamiltonian_cycle(g, g.edge_mask(w))


def test_solve_works_with_any_decomposition():
    g = cycle_graph(7)
    bd = caterpillar_decomposition([3, 0, 5, 1, 6, 2, 4])
    got, w = solve_hc(g, bd)
    assert got and is_hamiltonian_cycle(g, g.edge_mask(w))


def test_trace_collection():
    """One trace dict carries node sizes, the per-k bound and, on request,
    every trim's (a, before, after)."""
    rng = random.Random(31)
    graphs = [cycle_graph(6), complete_graph(6), petersen_graph()]
    graphs += [random_connected_graph(8, rng) for _ in range(4)]
    trims = separator_ks = 0
    for g in graphs:
        bd = approx_sm_decomposition(g)
        plain = {}
        solve_hc(g, bd, trace=plain)
        assert "trims" not in plain
        assert len(plain["node_sizes"]) >= g.n
        assert plain["max_family"] == max(plain["node_sizes"]) >= 1
        for k, size in plain.get("max_family_by_k", {}).items():
            assert size <= 4 ** k
        separator_ks += len(plain.get("max_family_by_k", {}))
        trace = {"trims": []}
        assert solve_hc(g, bd, trace=trace) == solve_hc(g, bd)
        assert trace["node_sizes"] == plain["node_sizes"]
        hcs = oracles.enumerate_hamiltonian_cycles(g)
        for a, before, after in trace["trims"]:
            assert set(after) <= set(before)
            assert oracles.verify_preservation(g, a, before, after,
                                               method="cycles", hcs=hcs)
        trims += len(trace["trims"])
    assert trims and separator_ks


def test_solve_deep_caterpillar_in_bounded_stack():
    """The post-order needs no stack frame per decomposition level.

    A 2 x 60 grid's caterpillar has a spine of 118 nodes; the solve runs
    under a recursion limit 45 levels above the caller's depth.
    """
    g = grid_graph(2, 60)
    bd = caterpillar_decomposition(list(g.vertices))
    with bounded_stack():
        got, witness = solve_hc(g, bd)
    assert got and is_hamiltonian_cycle(g, g.edge_mask(witness))


def test_merge_many_cross_edges_in_bounded_stack():
    """The merge needs no stack frame per candidate cross edge.

    A hub joined to 60 path vertices gives 60 cross edges; every vertex
    keeps a neighbour outside the home and the home is no split side, so
    the frontier keeps each of its members: the empty set, each spoke and
    each pair of spokes, folded under a recursion limit 45 levels above
    the caller's depth.
    """
    k = 60
    g = Graph(range(k + 3), [(0, v) for v in range(1, k + 1)]
              + [(v, k + 1) for v in range(1, k + 1)] + [(0, k + 2), (k + 1, k + 2)])
    trace = {"trims": []}
    with bounded_stack():
        b = mask_of(range(1, k + 1))
        join(g, 1, b, {(0, 0, 0): 0}, {(0, 0, 0): 0}, cut_of(g, 1), cut_of(g, b), trace)
    (_, out, _), = trace["trims"]
    assert len(out) == len(set(out)) == 1 + k + k * (k - 1) // 2
    assert all(m.bit_count() <= 2 for m in out)
