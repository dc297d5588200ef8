import importlib
import random
from pathlib import Path

import pytest

from smhc.graph import Graph, bits, mask_of, cycle_graph, path_graph, complete_graph, petersen_graph
from smhc.cuts import is_split, min_vertex_cover
from smhc import repsets, solver
from smhc.repsets import (degree_masks, field_width, is_path_system,
                          pad_separator, path_state, walk_from)
from smhc.solver import (cut_of, join, trim, trim_split, solve_hc,
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


def reference_trim_split(g, a, fam, cut, least=False):
    """The twin trim of any family: among the members with no vertex of a
    without an outside neighbour below degree two, no closed cycle, no
    isolated vertex when t = |N(a)| < 2, and at most t paths and isolated
    vertices, the first member in the family's order (with `least`, the
    least member) per unit count paths + isolated vertices."""
    boundary, outside, _ = cut
    t = outside.bit_count()
    chosen = {}
    for key, cert in sorted(fam.items(), key=lambda item: item[1]) if least else fam.items():
        d1, d2, *_ = key
        isolated = a & ~d1
        if a & ~d2 & ~boundary or (isolated and t < 2) or units(a, key) > t:
            continue
        if d1 and not d1 & ~d2:
            continue
        chosen.setdefault(units(a, key), (key, cert))
    return dict(chosen.values())


def units(a, key):
    """The unit count of a member's state: its paths plus the isolated
    vertices of a."""
    d1, d2, _ = key
    return (d1 & ~d2).bit_count() // 2 + (a & ~d1).bit_count()


def test_join_refuses_overlapping_homes():
    g = cycle_graph(5)
    a, b = mask_of([0, 1]), mask_of([1, 2])
    with pytest.raises(ValueError, match="certificate homes must be disjoint"):
        join(g, a, b, solver.LEAF, solver.LEAF, cut_of(g, a), cut_of(g, b))


def test_split_frontier_keeps_trim_split_of_conc(monkeypatch):
    """At every non-root twin cut of seeded graphs with n <= 9, `join`
    keeps one member per unit count that the least-member reference twin
    trim keeps of the members `oracles.conc` lists over all pairs, each
    such a member under its state; that family preserves those members.
    When a side is no twin cut, the plain fold runs and `join` keeps
    exactly what the reference keeps of the fold's family, the first
    member per unit count in its order.  The cut's flag is the literal
    twin-cut test."""
    seen = dict.fromkeys(["checked", "crossed", "plain side"], 0)
    folds, real_split = {}, solver.trim_split

    def split(g, a, fam, cut):
        folds[a] = fam
        return real_split(g, a, fam, cut)

    monkeypatch.setattr(solver, "trim_split", split)
    for g in seeded_graphs(1411, (0.5, 0.7, 0.9), 16):
        hcs = oracles.enumerate_hamiltonian_cycles(g)
        folds.clear()
        for a, b, fa, fb, cut, out in recorded_joins(g, monkeypatch):
            home = a | b
            assert cut == cut_of(g, home)
            assert cut[2] == is_twin_cut(g, home)
            if not cut[2]:
                continue
            members = [m for sa in fa.values() for sb in fb.values()
                       for m in oracles.conc(g, a, b, sa, sb)]
            want = reference_trim_split(g, home, family(g, members), cut, least=True)
            assert {units(home, key) for key in out} == {units(home, key) for key in want}
            assert set(out.values()) <= set(members)
            assert all(key == path_state(g, m) for key, m in out.items())
            if not (cut_of(g, a)[2] and cut_of(g, b)[2]):
                assert out == reference_trim_split(g, home, folds[home], cut)
                seen["plain side"] += 1
            assert oracles.verify_preservation(g, home, members, list(out.values()),
                                               method="cycles", hcs=hcs)
            seen["checked"] += 1
            seen["crossed"] += len(members) > len(fa) * len(fb)
    assert seen["checked"] >= 40 and seen["crossed"] >= 20 and seen["plain side"], seen


def test_twin_cut_members_of_one_unit_count_complete_alike(monkeypatch):
    """The equivalence that `repsets.join_twins` proves: at every twin cut
    that `solve_hc` meets along `approx_sm_decomposition` on K5..K8,
    seeded random cographs and products G[H] with n <= 9, the members
    `oracles.conc` lists over all pairs that meet `trim`'s precondition
    (degree two at every home vertex off the boundary), grouped by unit
    count, preserve each other both ways: each member of a group preserves
    the whole group.  At t = |N(home)| < 2 no member with an isolated
    vertex completes, and the groups hold the others.  The cuts cover
    groups of members with different path counts of which some complete,
    and t < 2 with isolated vertices."""
    from tests.test_theorems import empty_graph, lex_product
    rng = random.Random(4801)
    graphs = [complete_graph(n) for n in range(5, 9)]
    graphs += [random_cograph(rng.randint(5, 9), rng) for _ in range(16)]
    for h in (complete_graph(2), empty_graph(2), complete_graph(3)):
        for _ in range(4):
            g = random_connected_graph(rng.randint(3, 9 // h.n), rng, p=0.5)
            graphs.append(lex_product(g, h))
    seen = dict.fromkeys(["cuts", "mixed paths", "t < 2 isolated"], 0)
    for g in graphs:
        hcs = oracles.enumerate_hamiltonian_cycles(g)
        for a, b, fa, fb, (boundary, nbr, twin), _ in recorded_joins(g, monkeypatch):
            if not twin:
                continue
            home, lone = a | b, nbr.bit_count() < 2
            groups = {}
            for sa in fa.values():
                for sb in fb.values():
                    for m in oracles.conc(g, a, b, sa, sb):
                        d1, d2, _ = degree_masks(g, m)
                        if home & ~boundary & ~d2:
                            continue
                        if lone and home & ~d1:
                            assert oracles.verify_preservation(g, home, [m], [],
                                                               method="cycles", hcs=hcs)
                            seen["t < 2 isolated"] += 1
                        else:
                            groups.setdefault(units(home, (d1, d2, 0)), []).append(m)
            for group in groups.values():
                for m in group:
                    assert oracles.verify_preservation(g, home, group, [m],
                                                       method="cycles", hcs=hcs)
                paths = {(degree_masks(g, m)[0] & ~degree_masks(g, m)[1]).bit_count()
                         for m in group}
                completes = not oracles.verify_preservation(g, home, group, [],
                                                            method="cycles", hcs=hcs)
                seen["mixed paths"] += len(paths) > 1 and completes
            seen["cuts"] += 1
    assert all(seen.values()), seen


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
    outside neighbour has degree two, no two members share a state, and no
    member is a cycle unless the home is V.  On a twin cut no two members
    `trim` returns share a unit count (paths plus isolated vertices).  Every
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
        for m in fam.values():
            assert not a & ~boundary & ~degree_masks(g, m)[1]
            assert a == g.vmask or is_path_system(g, m)
        assert len({path_state(g, m) for m in fam.values()}) == len(fam)
        assert not twin or len({units(a, key) for key in out}) == len(out)
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


def homed_frontiers(monkeypatch, join_fold, extension_fold):
    """Patch the `frontier` of `solver.join` with join_fold and that of
    `preserving_extension` with extension_fold, each called as (g, fam,
    left, home, boundary): `frontier` takes no home, so it is read off
    wrappers of `solver.join` (a | b) and `solver.preserving_extension`
    (a), the innermost call running."""
    homes, real_join, real_extension = [], solver.join, solver.preserving_extension

    def at_home(real, home_of):
        def call(g, a, b, *rest):
            homes.append(home_of(a, b))
            try:
                return real(g, a, b, *rest)
            finally:
                homes.pop()
        return call

    monkeypatch.setattr(solver, "join", at_home(real_join, lambda a, b: a | b))
    monkeypatch.setattr(solver, "preserving_extension", at_home(real_extension, lambda a, c: a))
    monkeypatch.setattr(solver, "frontier", lambda g, fam, left, boundary:
                        join_fold(g, fam, left, homes[-1], boundary))
    monkeypatch.setattr(repsets, "frontier", lambda g, fam, left, boundary:
                        extension_fold(g, fam, left, homes[-1], boundary))


def test_folds_meet_the_frontier_precondition(monkeypatch):
    """Every `repsets.frontier` and `repsets.join_twins` call of `solve_hc`
    meets the precondition `frontier` states, read off each member's edge
    mask on entry: every vertex of `home` outside `boundary` that no edge
    of `left` meets has degree two.  For `join_twins` that is every vertex
    of a side off the side's boundary, as the twin join folds no edge.
    Seeded random graphs (n = 5..10) and random cographs (n = 5..12) are
    solved along `approx_sm_decomposition` and along a caterpillar in a
    random vertex order.  The calls cover the join's plain folds, the
    extension's estar folds and twin joins, each with such a vertex in
    some call."""
    seen = {kind: 0 for kind in ("plain", "extension", "twin")}
    seen.update({f"{kind} checked": 0 for kind in seen})

    def check(kind, g, fam, left, home, boundary):
        decided = home & ~boundary & ~degree_masks(g, left)[0]
        for m in fam.values():
            assert not decided & ~degree_masks(g, m)[1]
        seen[kind] += 1
        seen[f"{kind} checked"] += bool(decided and fam)

    real_join_fold, real_extension_fold = solver.frontier, repsets.frontier
    real_twins = solver.join_twins

    def join_fold(g, fam, left, home, boundary):
        check("plain", g, fam, left, home, boundary)
        return real_join_fold(g, fam, left, boundary)

    def extension_fold(g, fam, left, home, boundary):
        check("extension", g, fam, left, home, boundary)
        return real_extension_fold(g, fam, left, boundary)

    def twin_join(g, a, b, fa, fb, cut_a, cut_b):
        check("twin", g, fa, 0, a, cut_a[0])
        check("twin", g, fb, 0, b, cut_b[0])
        return real_twins(g, a, b, fa, fb, cut_a, cut_b)

    homed_frontiers(monkeypatch, join_fold, extension_fold)
    monkeypatch.setattr(solver, "join_twins", twin_join)
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


def twin_joins(graphs, monkeypatch):
    """(g, a, b, fa, fb, cut_a, cut_b, out) of every `repsets.join_twins`
    call of `solve_hc` along `approx_sm_decomposition`."""
    calls, real = [], solver.join_twins

    def recording(g, a, b, fa, fb, cut_a, cut_b):
        out = real(g, a, b, fa, fb, cut_a, cut_b)
        calls.append((g, a, b, dict(fa), dict(fb), cut_a, cut_b, dict(out)))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(solver, "join_twins", recording)
        for g in graphs:
            solve_hc(g, approx_sm_decomposition(g))
    return calls


def forgetting_fold(g, a, b, fa, fb):
    """The forgetting list fold `reference_frontier` over the pairs of fa
    and fb and their cross edges, keyed by state."""
    items = [(sa | sb, d1a | d1b, d2a | d2b, pea | peb)
             for (d1a, d2a, pea), sa in fa.items() for (d1b, d2b, peb), sb in fb.items()]
    home = a | b
    want = reference_frontier(g, items, g.edges_between(a, b), home, cut_of(g, home)[0], True)
    return {tuple(key): m for m, *key in want}


def test_twin_join_matches_forgetting_fold(monkeypatch):
    """At every join whose home and sides are twin cuts that `solve_hc`
    reaches on seeded random cographs (n = 5..16, n = 7 and 15 among them,
    where vertex ids fill the field width) and dense random graphs (n =
    5..10), `repsets.join_twins` reaches the unit counts (paths plus
    isolated vertices) that `trim` keeps of the forgetting list fold, and
    `trim` keeps them all.  Each member is some ma | mb plus cross edges: a
    path system with degree two at each home vertex off the home's
    boundary, keyed by its state, alone in its unit count.  For n <= 9 the
    trimmed family preserves
    every member `oracles.conc` lists over the pairs.  The joins cover
    members without and with cross edges, a side whose boundary leaves the
    home's, joins without cross edges and homes at the field width."""
    rng = random.Random(3001)
    graphs = [random_cograph(n, rng) for n in (7, 15) for _ in range(3)]
    graphs += [random_cograph(rng.randint(5, 16), rng) for _ in range(50)]
    graphs += [random_connected_graph(rng.randint(5, 10), rng, p=rng.choice([0.6, 0.75, 0.9]))
               for _ in range(40)]
    seen = dict.fromkeys(["s = 0", "s > 0", "side leaves", "no cross edge", "preserved",
                          "field width"], 0)
    hcs = {}
    for g, a, b, fa, fb, cut_a, cut_b, out in twin_joins(graphs, monkeypatch):
        home, cross = a | b, g.edges_between(a, b)
        cut = cut_of(g, home)
        want = {units(home, key) for key in trim(g, home, forgetting_fold(g, a, b, fa, fb), cut)}
        assert {units(home, key) for key in out} == want
        got = trim(g, home, out, cut)
        assert {units(home, key) for key in got} == want
        assert len({units(home, key) for key in out}) == len(out)
        pairs = {sa | sb for sa in fa.values() for sb in fb.values()}
        for key, m in out.items():
            assert m & ~cross in pairs and is_path_system(g, m)
            assert key == path_state(g, m) and not home & ~cut[0] & ~key[1]
            seen["s > 0" if m & cross else "s = 0"] += 1
        seen["side leaves"] += not cut_a[1] & ~home or not cut_b[1] & ~home
        seen["no cross edge"] += not cross
        seen["field width"] += g.n in (7, 15) and home >> (g.n - 1) & 1
        if g.n <= 9:
            if id(g) not in hcs:
                hcs[id(g)] = oracles.enumerate_hamiltonian_cycles(g)
            members = [m for sa in fa.values() for sb in fb.values()
                       for m in oracles.conc(g, a, b, sa, sb)]
            assert oracles.verify_preservation(g, home, members, list(got.values()),
                                               method="cycles", hcs=hcs[id(g)])
            seen["preserved"] += 1
    assert all(seen.values()), seen


def test_every_family_is_keyed_by_state(monkeypatch):
    """Every family that `join` and `preserving_extension` return maps the
    state path_state(g, m) of each member m to it, whatever made it.
    Seeded random graphs (n = 5..10) and random cographs (n = 5..14) are
    solved along `approx_sm_decomposition`; the calls cover plain folds,
    twin joins and extensions with estar edges."""
    seen = dict.fromkeys(["plain", "twin", "estar"], 0)
    real_join, real_extension = solver.join, solver.preserving_extension
    real_fold, real_twins = solver.frontier, solver.join_twins

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

    def counting_fold(*args):
        seen["plain"] += 1
        return real_fold(*args)

    def counting_twins(*args):
        seen["twin"] += 1
        return real_twins(*args)

    monkeypatch.setattr(solver, "join", checking_join)
    monkeypatch.setattr(solver, "preserving_extension", checking_extension)
    monkeypatch.setattr(solver, "frontier", counting_fold)
    monkeypatch.setattr(solver, "join_twins", counting_twins)
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
    holds, so the fields of the forgetting list fold `reference_frontier`
    reach right up to its `free` field.  At every twin join there
    `repsets.join_twins` reaches the unit counts that `trim` keeps of that
    fold, each member keyed by its state; each size has such joins with
    the highest vertex in the home.  The verdicts are `brute_hc`'s."""
    rng = random.Random(3201)
    graphs = [random_cograph(n, rng) for n, draws in ((7, 30), (15, 4)) for _ in range(draws)]
    for g in graphs:
        assert (1 << field_width(g)) - 2 == g.n - 1
        assert solve_hc(g, approx_sm_decomposition(g))[0] == oracles.brute_hc(g)[0]
    top = dict.fromkeys([7, 15], 0)
    for g, a, b, fa, fb, _, _, out in twin_joins(graphs, monkeypatch):
        home = a | b
        want = trim(g, home, forgetting_fold(g, a, b, fa, fb), cut_of(g, home))
        assert {units(home, key) for key in out} == {units(home, key) for key in want}
        assert all(key == path_state(g, m) for key, m in out.items())
        top[g.n] += home >> (g.n - 1) & 1
    assert all(top.values()), top


def test_twin_join_builds_only_what_trim_split_keeps(monkeypatch):
    """On every twin join of seeded random cographs (n = 5..12) and of
    K5..K20 (K15 and K16 at the field width), `trim_split` returns the
    family `repsets.join_twins` built unchanged, and each member is keyed
    by path_state(g, m).  The verdicts are `brute_hc`'s on the cographs
    and Hamiltonian on the cliques."""
    rng = random.Random(3301)
    cographs = [random_cograph(rng.randint(5, 12), rng) for _ in range(40)]
    cliques = [complete_graph(n) for n in range(5, 21)]
    for g in cographs:
        assert solve_hc(g, approx_sm_decomposition(g))[0] == oracles.brute_hc(g)[0]
    for g in cliques:
        assert solve_hc(g, approx_sm_decomposition(g))[0]
    joins = twin_joins(cographs + cliques, monkeypatch)
    for g, a, b, _, _, _, _, out in joins:
        home = a | b
        assert trim_split(g, home, out, cut_of(g, home)) == out
        assert all(key == path_state(g, m) for key, m in out.items())
    assert {g.n for g, *_ in joins} >= set(range(5, 21))


def test_twin_joins_are_not_trimmed_again(monkeypatch):
    """`trim_split` never runs on a family that `repsets.join_twins`
    built as a join (b != 0; the trim itself is the join with an empty
    side), and `trace["trims"]` still records every twin join, in order,
    as (home, members, members) with before == after.  K5..K20 and seeded
    random cographs (n = 5..20) are solved along
    `approx_sm_decomposition`, and cographs (n = 5..10) along caterpillars
    in shuffled vertex orders, whose twin homes with a plain side still
    take `trim_split`."""
    built, real_twins, real_split = [], solver.join_twins, solver.trim_split
    seen = dict.fromkeys(["twin joins", "twin trims"], 0)

    def twins(g, a, b, *args):
        out = real_twins(g, a, b, *args)
        if b:  # a join; b = 0 is `trim_split`'s own call
            built.append((a | b, out))
        return out

    def split(g, a, fam, cut):
        assert all(fam is not out for _, out in built)
        seen["twin trims"] += 1
        return real_split(g, a, fam, cut)

    monkeypatch.setattr(solver, "join_twins", twins)
    monkeypatch.setattr(solver, "trim_split", split)
    rng = random.Random(4201)
    runs = [(complete_graph(n), None) for n in range(5, 21)]
    runs += [(random_cograph(rng.randint(5, 20), rng), None) for _ in range(20)]
    for _ in range(20):
        g = random_cograph(rng.randint(5, 10), rng)
        order = list(g.vertices)
        rng.shuffle(order)
        runs.append((g, caterpillar_decomposition(order)))
    for g, bd in runs:
        built.clear()
        trace = {"trims": []}
        solve_hc(g, bd or approx_sm_decomposition(g), trace)
        homes = {home for home, _ in built}
        recorded = [(a, before, after) for a, before, after in trace["trims"] if a in homes]
        assert recorded == [(home, list(out.values()), list(out.values()))
                            for home, out in built]
        seen["twin joins"] += len(built)
    assert all(seen.values()), seen


def test_twin_trims_keep_one_member_per_unit_count():
    """Every twin trim that `solve_hc` records in `trace["trims"]` on
    K5..K40 and on seeded random cographs (n = 5..40) keeps at most t
    members, t = |N(a)|: one per unit count 1..t.  Cographs with n = 5..10
    are also solved along a caterpillar in a random vertex order, whose
    twin homes may have a plain side, so that trims of more than t
    members occur.
    The verdicts are Hamiltonian on the cliques and the path-cover
    reference's on the cographs."""
    from tests.test_cograph_reference import cograph_hc
    rng = random.Random(3401)
    runs = [(complete_graph(n), None) for n in range(5, 41, 5)]
    runs += [(random_cograph(rng.randint(5, 40), rng), None) for _ in range(16)]
    for _ in range(16):
        g = random_cograph(rng.randint(5, 10), rng)
        order = list(g.vertices)
        rng.shuffle(order)
        runs.append((g, caterpillar_decomposition(order)))
    twin = wide = 0
    for g, bd in runs:
        trace = {"trims": []}
        assert solve_hc(g, bd or approx_sm_decomposition(g), trace)[0] == cograph_hc(g)
        for a, before, after in trace["trims"]:
            _, nbr, is_twin = cut_of(g, a)
            if is_twin:
                assert len(after) <= nbr.bit_count()
                twin += 1
                wide += len(before) > nbr.bit_count()
    assert twin >= 300 and wide, (twin, wide)


def test_clique_solves_without_a_forgetting_frontier(monkeypatch):
    """Every join of K5 along `approx_sm_decomposition` but the root's has
    a twin home and twin sides, so `repsets.join_twins` serves it and no
    such join runs `repsets.frontier`: with one that raises at a twin home,
    the solve still finds a Hamiltonian cycle.  The root join is no twin
    cut, and its frontier runs."""
    real, homes = repsets.frontier, []

    def plain_only(g, fam, left, home, boundary):
        if cut_of(g, home)[2]:
            raise AssertionError("a fold ran at a twin home")
        homes.append(home)
        return real(g, fam, left, boundary)

    homed_frontiers(monkeypatch, plain_only, plain_only)
    g = complete_graph(5)
    verdict, witness = solve_hc(g, approx_sm_decomposition(g))
    assert verdict and is_hamiltonian_cycle(g, g.edge_mask(witness))
    assert homes == [g.vmask]


def survey_cographs(labels, monkeypatch):
    """The cographs named "n<n>-<j>" of the survey that draws
    `workloads.random_cograph(n, rng)` (benchmark/workloads.py) from one
    rng = Random(5), 8 draws per n = 16, 18, ..., 26 in turn."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmark"))
    workloads = importlib.import_module("workloads")
    rng = random.Random(5)
    draws = {f"n{n}-{j}": Graph(range(n), workloads.random_cograph(n, rng))
             for n in range(16, 27, 2) for j in range(8)}
    return [draws[label] for label in labels]


def test_survey_cographs_past_the_cliff_solve(monkeypatch):
    """Three draws of the cograph survey on which the folding twin join ran
    out of time or memory (n22-1, n24-4 and n26-2, the last a
    `MemoryError` under a 2 GB cap) solve with a Hamiltonian-cycle witness,
    and no join whose home and sides are twin cuts runs `frontier`."""
    folds, real_join, real_fold = [], solver.join, solver.frontier

    def checking_join(g, a, b, fa, fb, cut_a, cut_b, *rest):
        done = len(folds)
        out = real_join(g, a, b, fa, fb, cut_a, cut_b, *rest)
        assert len(folds) == done or not (cut_a[2] and cut_b[2] and out[0][2])
        return out

    monkeypatch.setattr(solver, "join", checking_join)
    monkeypatch.setattr(solver, "frontier", lambda *args: folds.append(args) or real_fold(*args))
    for g in survey_cographs(["n22-1", "n24-4", "n26-2"], monkeypatch):
        verdict, witness = solve_hc(g, approx_sm_decomposition(g))
        assert verdict and is_hamiltonian_cycle(g, g.edge_mask(witness))
    assert folds


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


def test_trim_bound():
    g = cycle_graph(8)
    a = mask_of([0, 1, 2, 3])
    inner = g.edges_within(a)
    fam = [m for m in range(1 << g.m) if m & ~inner == 0
           and is_path_system(g, m)]
    out = list(trim(g, a, family(g, fam), cut_of(g, a)).values())
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
    """`trim` keeps exactly what `preserving_extension` and its
    `trim_separator` over the padded cover keep, with the same
    `max_family_by_k`, on seeded random families keyed as `join` keys
    them, on non-twin cuts with at least two members: the least member
    per state, of which the live ones (`live`) are kept.  Every such trim
    runs one cover search.  A home of three vertices or more whose Koenig
    cover is its boundary of at most five vertices ("kept whole") calls
    no extension and returns its family itself; every other cut calls the
    extension once.  Homes of two vertices always run the extension, and
    some are padded from outside the home.  The cases cover padded
    covers, dropped members, estar cuts, searched cuts of at most five
    boundary vertices without estar edges and six-vertex boundaries whose
    basis keeps fewer members than states."""
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
    seen = dict.fromkeys(["padded", "dropped", "estar", "searched without estar",
                          "wide basis drops", "kept whole", "small home padded outside"], 0)
    for g, a, extra in instances:
        cut = cut_of(g, a)
        boundary, nbr, twin = cut
        fam = live(family(g, sampled_family(g, a, rng) + extra), a, boundary)
        if twin or len(fam) < 2:
            continue
        c = pad_separator(g, a, real_cover(g, boundary, nbr))
        estar = g.edges_at(c & ~a) & g.edges_at(boundary)
        want_trace, got_trace = {}, {}
        want = repsets.preserving_extension(g, a, c, fam, estar, want_trace)
        calls.clear()
        covers.clear()
        got = trim(g, a, fam, cut, got_trace)
        assert got == want and got_trace == want_trace
        seen["padded"] += c != boundary
        seen["small home padded outside"] += a.bit_count() < 3 and bool(c & ~a)
        assert len(covers) == 1
        if not calls:
            assert a.bit_count() >= 3 and boundary.bit_count() <= 5
            assert real_cover(g, boundary, nbr) == boundary and c & ~a == 0 and not estar
            assert got is fam
            seen["kept whole"] += 1
            continue
        assert len(calls) == 1
        assert not (a.bit_count() >= 3 and boundary.bit_count() <= 5
                    and real_cover(g, boundary, nbr) == boundary)
        seen["estar"] += bool(estar)
        seen["searched without estar"] += not estar and boundary.bit_count() <= 5
        seen["dropped"] += len(got) < len(fam)
        seen["wide basis drops"] += not estar and len(got) < len(fam)
    assert all(seen.values()), seen


def test_trim_shortcut_reads_the_cover(monkeypatch):
    """A non-twin cut whose boundary a maximum matching covers, though
    taking each boundary vertex's lowest free outside neighbour does not:
    x = 0 sees p = 3 and q = 4, y = 1 sees only p, z = 2 sees r = 5, so x
    would take p and leave y none, while x-q, y-p, z-r covers all three.
    The Koenig cover is the boundary, so `trim` returns the family itself
    and runs no extension, which would keep it whole, with the same
    `max_family_by_k`."""
    g = Graph(range(6), [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (1, 3), (2, 5),
                         (3, 4), (3, 5), (4, 5)])
    a = mask_of([0, 1, 2])
    cut = boundary, nbr, twin = cut_of(g, a)
    assert not twin and boundary == a and g.adj[1] & nbr == 1 << 3
    assert min_vertex_cover(g, boundary, nbr) == boundary
    inner = g.edges_within(a)
    fam = family(g, [m for m in range(1 << g.m) if not m & ~inner and is_path_system(g, m)])
    assert len(fam) == 7
    want_trace, got_trace = {}, {}
    want = repsets.preserving_extension(g, a, pad_separator(g, a, boundary), fam, 0, want_trace)
    calls = []
    monkeypatch.setattr(solver, "preserving_extension", lambda *args: calls.append(args))
    got = trim(g, a, fam, cut, got_trace)
    assert got is fam and not calls
    assert got == want and got_trace == want_trace


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


def test_trace_records_where_a_family_dies():
    """On the star K_{1,3} the twin join of leaves 0 and 1 reaches no unit
    count that the twin trim keeps: two isolated vertices that see one outside
    vertex.  Every family from there up is empty, and each of those trims
    is recorded, so the trace shows the home at which the family died."""
    g = Graph(range(4), [(0, 3), (1, 3), (2, 3)])
    trace = {"trims": []}
    assert solve_hc(g, caterpillar_decomposition([2, 3, 1, 0]), trace=trace) == (False, None)
    assert trace["trims"] == [(mask_of([0, 1]), [], []), (mask_of([0, 1, 3]), [], [])]


def test_twin_rule_keeps_no_isolated_vertex_below_two_neighbours():
    """An isolated vertex of a twin cut takes its two cross edges to
    distinct outside vertices, so at t = |N(a)| < 2 the twin rule keeps
    no member with one, and a single path still completes.  On the path
    0 - 1 - 2 the end vertex 0 (t = 1) keeps nothing, the middle vertex 1
    (t = 2) keeps its empty member, and the home {0, 1} (t = 1) keeps the
    edge 01.  `solve_hc` trims no home of one vertex, and a member that
    completes nothing never breaks preservation, so this is where a twin
    rule that admits such a vertex shows."""
    g = path_graph(3)
    end, middle, edge = mask_of([0]), mask_of([1]), g.edge_mask([(0, 1)])
    assert trim(g, end, dict(solver.LEAF), cut_of(g, end)) == {}
    assert trim(g, middle, dict(solver.LEAF), cut_of(g, middle)) == solver.LEAF
    home = end | middle
    assert trim(g, home, family(g, [edge]), cut_of(g, home)) == family(g, [edge])


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
