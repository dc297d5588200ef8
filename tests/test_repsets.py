import itertools
import random
from itertools import combinations

import pytest

from smhc.graph import Graph, bits, mask_of, cycle_graph, complete_graph
from smhc.repsets import (is_path_system, degree_masks, pairing_row,
                          representative_hc_sets, path_state, field_width,
                          pad_separator, trim_separator, preserving_extension,
                          is_hamiltonian_cycle, frontier, grow, _paths)
from smhc.cuts import min_vertex_cover
from smhc.solver import cut_of, solve_hc
from smhc.generators import caterpillar_decomposition, grid_graph, random_connected_graph
from smhc.pipeline import approx_sm_decomposition
from smhc import oracles, repsets, solver
from tests.conftest import family, partner


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
        if not is_path_system(g, m):
            continue  # the pairing and adding an edge are defined on path systems
        w = field_width(g)
        state = path_state(g, m)
        for seq in oracles._walk_paths(g, m):
            assert partner(state[2], w, d1, seq[0]) == seq[-1]
            assert partner(state[2], w, d1, seq[-1]) == seq[0]
        above = (1 << w) * w  # the first bit above the field of id (1 << w) - 1
        marked = (d1, d2, state[2] | 7 << above)
        for u, v in g.edge_set(((1 << g.m) - 1) & ~m):
            i = (g.incident[u] & g.incident[v]).bit_length() - 1
            fam = {marked: m}
            grow(g, w, fam, i)
            assert len(fam) == 1 + oracles._can_add_edge(g, m, u, v, True)
            assert fam[marked] == m
            if len(fam) > 1:
                (gd1, gd2, gpe), ext = list(fam.items())[1]
                assert (ext, gpe >> above) == (m | 1 << i, 7)
                if is_path_system(g, ext):
                    want = path_state(g, ext)
                    assert ends_pairing(g, (gd1, gd2, gpe)) == ends_pairing(g, want)


def ends_pairing(g, state):
    """Degree masks and each path end's partner; other fields are never read."""
    d1, d2, pe = state
    w = field_width(g)
    return d1, d2, {v: partner(pe, w, d1, v) for v in bits(d1 & ~d2)}


def hc_completability_preserved(kC, members, kept):
    """Every completion closing a Hamiltonian cycle keeps a partner.

    Y completes X when the two are disjoint and X ∪ Y is a Hamiltonian
    cycle H of kC, so the pairs are the subsets X of each H, with
    Y = H \\ X; the cycles are found by testing every n-edge mask."""
    cycles = [h for h in range(1 << kC.m) if h.bit_count() == kC.n
              and set(oracles._edge_degrees(kC, h).values()) == {2}
              and _single_cycle(kC, h)]
    members, kept = set(members), set(kept)
    needed = {h ^ x for h in cycles for x in submasks(h) if x in members}
    covered = {h ^ x for h in cycles for x in submasks(h) if x in kept}
    return needed <= covered


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
    for i, mate in enumerate(rest):
        for m in _perfect_matchings(rest[:i] + rest[i + 1:]):
            yield [(first, mate)] + m


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
        d1, d2, pe = path_state(kt, kt.edge_mask(p))
        row = pairing_row(field_width(kt), d1 & ~d2, pe)
        assert 0 < row < 1 << 2 ** (t - 1)
        rows.append(row)
    for p, row_p in zip(matchings, rows):
        for q, row_q in zip(matchings, rows):
            assert (row_p & row_q).bit_count() % 2 == _one_cycle(p, q, t)


def row_of(g, emask):
    """`pairing_row` of a path system, its pairing found by walking."""
    d1, d2, pe = path_state(g, emask)
    return pairing_row(field_width(g), d1 & ~d2, pe)


def test_pairing_row_follows_paths():
    """The row depends on the pairing only."""
    g = complete_graph(6)
    long = g.edge_mask([(0, 4), (4, 2), (1, 5), (5, 3)])  # pairs 0-2, 1-3
    short = complete_graph(4).edge_mask([(0, 2), (1, 3)])
    assert row_of(g, long) == row_of(complete_graph(4), short)
    assert pairing_row(field_width(g), 0, 0) == 1


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_representative_hc_sets_exhaustive(k):
    """Every path system of K_k: preservation and 2^(|D1|-1) per signature."""
    kC = complete_graph(k)
    members = [m for m in range(1 << kC.m) if is_path_system(kC, m)]
    chosen = representative_hc_sets(kC, [path_state(kC, m) for m in members])
    assert chosen == sorted(set(chosen))
    kept = [members[i] for i in chosen]
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
    assert representative_hc_sets(kC, [path_state(kC, 0b001)]) == [0]


def reference_hc_sets(g, members):
    """The basis of the module docstring's Theorem, literally: every
    member builds its row with `pairing_row`."""
    w = field_width(g)
    bases, out = {}, []
    for i, (d1, d2, pe) in enumerate(members):
        row = pairing_row(w, d1 & ~d2, pe)
        basis = bases.setdefault((d1, d2), [])
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
            out.append(i)
    return out


def with_junk(g, state, rng):
    """The state with random values in the fields of vertices that end no
    path, which are never read."""
    d1, d2, pe = state
    w = field_width(g)
    for v in bits(g.vmask & ~(d1 & ~d2)):
        pe |= rng.randrange(1 << w) << v * w
    return d1, d2, pe


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_representative_hc_sets_matches_reference_basis(k):
    """Index for index the reference basis's choice, on every path system
    of K_k in seeded shuffled orders with repeated members, some with junk
    in the fields of non-ends."""
    kC = complete_graph(k)
    states = [path_state(kC, m) for m in range(1 << kC.m) if is_path_system(kC, m)]
    rng = random.Random(1700 + k)
    for _ in range(4):
        members = states + rng.sample(states, len(states) // 2)
        rng.shuffle(members)
        members = [with_junk(kC, s, rng) if rng.random() < 0.5 else s for s in members]
        chosen = representative_hc_sets(kC, members)
        assert chosen == reference_hc_sets(kC, members)
        assert len(chosen) < len(members)


def test_four_end_pairings_independent():
    """The Corollary, on which `solver.trim`'s matched case rests: for
    every four ends among eight vertices the rows of the three pairings
    are independent over GF(2), and two ends have a non-zero row."""
    g = complete_graph(8)
    w = field_width(g)
    for t in (2, 4):
        for ends in combinations(range(8), t):
            basis = []
            for p in _perfect_matchings(list(ends)):
                pe = sum(v << u * w | u << v * w for u, v in p)
                row = pairing_row(w, mask_of(ends), pe)
                for b in basis:
                    row = min(row, row ^ b)
                assert row
                basis.append(row)
                basis.sort(reverse=True)
            assert len(basis) == (3 if t == 4 else 1)


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
    fam = family(g, [m for m in range(1 << g.m) if m & ~inner == 0 and is_path_system(g, m)])
    out = trim_separator(g, a, sep, fam)
    assert len(out) <= 6 ** sep.bit_count()
    assert out.items() <= fam.items()


def torso_route(g, a, sep, masks, trace):
    """The trim by torsos: compress every mask onto sep, drop the dead ones,
    keep the least mask per torso and the least spanning cycle, and pick
    torsos by their rows over the complete graph on sep."""
    kC = Graph(bits(sep), combinations(bits(sep), 2))
    by_torso, cycle_item = {}, None
    for m in sorted(masks):
        t = oracles._torso(g, m, a, sep)
        if t is oracles.SPANNING_CYCLE:
            if cycle_item is None:
                cycle_item = m
        elif t is not None:
            by_torso.setdefault(kC.edge_mask(t), m)
    torsos = list(by_torso)
    chosen = representative_hc_sets(kC, [path_state(kC, t) for t in torsos])
    by_k = trace.setdefault("max_family_by_k", {})
    by_k[kC.n] = max(by_k.get(kC.n, 0), len(chosen))
    out = [by_torso[torsos[i]] for i in chosen]
    return out + ([cycle_item] if cycle_item is not None else [])


@pytest.mark.parametrize("seed", range(10))
def test_trim_separator_matches_torso_route(seed):
    """Lemma 3: keying the masks by state and reading each member's row
    from its pairing keeps exactly the masks that building, deduplicating
    and pairing the torsos of all of them keeps, in the same order, each
    under its state."""
    rng = random.Random(seed + 1300)
    seen = {"dead": 0, "end outside": 0, "padded": 0, "cycle": 0, "kept": 0,
            "repeat": 0}
    for n in range(5, 10):
        g = random_connected_graph(n, rng, p=0.6)
        hcs = oracles.enumerate_hamiltonian_cycles(g)[:30]
        cycle = hcs[0] if hcs else 0
        for _ in range(3):
            a = rng.getrandbits(n) & g.vmask or g.vmask
            sep = pad_separator(g, a, rng.getrandbits(n) & rng.getrandbits(n) & g.vmask)
            if rng.random() < 0.5:
                sep |= g.vmask & ~a  # every vertex in a ∪ sep
            inner = g.edges_within(a | sep)
            masks = [cycle & inner & rng.getrandbits(g.m) for _ in range(40)]
            masks += [m for m in (inner & rng.getrandbits(g.m) & rng.getrandbits(g.m)
                                  for _ in range(40)) if is_path_system(g, m)]
            masks += [cycle] if cycle & ~inner == 0 else []
            # cycles less edges within sep: live when a ∪ sep is everything,
            # and cycles that order sep alike share a torso
            masks += [h & inner & ~(g.edges_within(sep) & rng.getrandbits(g.m))
                      for h in hcs]
            masks = set(masks)
            got_trace, want_trace = {}, {}
            got = trim_separator(g, a, sep, family(g, masks), got_trace)
            want = torso_route(g, a, sep, masks, want_trace)
            assert list(got.values()) == want
            assert all(key == path_state(g, m) for key, m in got.items())
            assert got_trace == want_trace
            torsos = [oracles._torso(g, m, a, sep) for m in masks]
            live = [t for t in torsos if t is not None]
            seen["dead"] += len(torsos) - len(live)
            seen["end outside"] += sum(bool(d1 & ~d2 & ~sep)
                                       for d1, d2, _ in (degree_masks(g, m) for m in masks))
            seen["padded"] += bool(sep & ~a)
            seen["cycle"] += oracles.SPANNING_CYCLE in live
            seen["kept"] += len(got)
            seen["repeat"] += len(live) - len(set(live))
    assert all(seen.values()), seen


def test_preserving_extension_small_separator_rejected():
    g = cycle_graph(5)
    with pytest.raises(ValueError):
        preserving_extension(g, mask_of([0, 1]), mask_of([2]), {(0, 0, 0): 0}, 0)


def test_preserving_extension_no_estar():
    g = cycle_graph(6)
    a = mask_of([0, 1, 2])
    c = mask_of([0, 2, 3])
    m = g.edge_mask([(0, 1), (1, 2)])
    fam = family(g, [m])
    assert preserving_extension(g, a, c, fam, 0) == fam


@pytest.mark.parametrize("seed", range(4))
def test_extension_without_estar_skips_frontier(seed, monkeypatch):
    """With no estar edges the `frontier` of `preserving_extension` folds
    no edge and returns its family unchanged, so the extension returns the
    subfamily that `trim_separator` over c keeps of the certificates within
    the cross-edge budget (|a| - |cert| <= |c|), with the same
    `max_family_by_k`."""
    folds = []
    real_frontier = repsets.frontier

    def recorded(g, fam, left, boundary):
        before = dict(fam)
        out = real_frontier(g, fam, left, boundary)
        folds.append(left == 0 and out == before)
        return out

    monkeypatch.setattr(repsets, "frontier", recorded)
    rng = random.Random(seed + 1800)
    seen = {"instances": 0, "kept": 0, "over budget": 0, "dropped": 0}
    while seen["instances"] < 10 or not all(seen.values()) and seen["instances"] < 100:
        g = random_connected_graph(rng.randint(5, 9), rng, p=rng.choice([0.4, 0.6]))
        a = rng.randrange(1, g.vmask)
        c = pad_separator(g, a, min_vertex_cover(g, a))
        if g.edges_between(a, c & ~a):
            continue
        inner = g.edges_within(a)
        fam = {h & inner for h in oracles.enumerate_hamiltonian_cycles(g)[:10]} | {0}
        fam |= {m for m in (inner & rng.getrandbits(g.m) for _ in range(20))
                if is_path_system(g, m)}
        within = [cert for cert in sorted(fam) if a.bit_count() - cert.bit_count() <= c.bit_count()]
        got_trace, want_trace = {}, {}
        got = preserving_extension(g, a, c, family(g, fam), 0, got_trace)
        want = trim_separator(g, a, c, family(g, within), want_trace)
        assert got == want
        assert got_trace == want_trace
        seen["instances"] += 1
        seen["kept"] += len(got)
        seen["over budget"] += len(fam) > len(within)
        seen["dropped"] += len(within) > len(got)
    assert folds and all(folds)
    assert all(seen.values()), seen


PINNED = [
    # a ∩ c = {0} has estar edges to 4 and 5
    ([(0, 3), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4)],
     [0, 1, 2, 3], [0, 4, 5], [0, 1, 4, 5, 32, 33, 36], 90,
     [(116, 36), (118, 36), (121, 33), (123, 33)]),
    # half the certificates lack more than 2|c| degrees on a
    ([(0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 5), (2, 3), (2, 7),
      (3, 4), (4, 6), (4, 7), (6, 7)],
     [2, 3, 4, 5, 6], [0, 1, 7], [0, 128, 512, 640, 1024, 1152, 1536, 1664], 6527,
     [(1996, 1664), (5844, 1664), (3564, 1152)]),
]


def recorded_trims(monkeypatch):
    """(sep, fam) of every `trim_separator` call, as a list filled in."""
    calls = []
    real_trim_separator = repsets.trim_separator

    def recording(g_, a_, sep, fam, trace=None):
        calls.append((sep, dict(fam)))
        return real_trim_separator(g_, a_, sep, fam, trace)

    monkeypatch.setattr(repsets, "trim_separator", recording)
    return calls


def test_extension_forgets_every_vertex_before_one_trim(monkeypatch):
    """Each call trims once, over c, after its frontier has forgotten
    every vertex of todo, the vertices of a \\ c with an estar edge: every
    member handed to the trim has degree two at each vertex of todo, no
    two share a state, and each is a certificate grown by estar edges.  The
    families are arbitrary, so a member may still be short at a vertex of
    a \\ c without an estar edge; the trim drops it.
    Instances with and without estar edges at a ∩ c both occur."""
    calls = recorded_trims(monkeypatch)
    rng = random.Random(17)
    instances = handed = 0
    optional = set()
    while instances < 10 or len(optional) < 2:
        g = random_connected_graph(rng.randint(6, 9), rng, p=0.6)
        a = rng.randrange(1, g.vmask)
        c = pad_separator(g, a, min_vertex_cover(g, a))
        estar = g.edges_between(a, c & ~a)
        todo = 0
        for i in bits(estar):
            todo |= g.edge_vertices[i] & a & ~c
        if todo.bit_count() < 2:
            continue
        inner = g.edges_within(a)
        fam = {h & inner for h in oracles.enumerate_hamiltonian_cycles(g)[:10]}
        fam |= {m for m in (inner & rng.getrandbits(g.m) for _ in range(20))
                if is_path_system(g, m)}
        calls.clear()
        preserving_extension(g, a, c, family(g, fam), estar)
        (sep, handed_fam), = calls
        assert sep == c
        for key, m in handed_fam.items():
            assert key == path_state(g, m)
            assert not todo & ~key[1]
            assert m & inner in fam and not m & ~inner & ~estar
        handed += len(handed_fam)
        optional.add(bool(estar & ~g.edges_between(todo, c)))
        instances += 1
    assert handed


def test_extension_trims_over_c_once(monkeypatch):
    """Whether or not estar edges at a ∩ c are folded after the last
    vertex of todo, the one trim runs over c.  The instances are those of
    `test_extension_kept_pairs_pinned`: a ∩ c = {0} with estar edges, and
    todo = {2, ..., 6} with none at a ∩ c."""
    calls = recorded_trims(monkeypatch)
    for edges, a, c, fam, estar, _ in PINNED:
        g = Graph(range(max(map(max, edges)) + 1), edges)
        calls.clear()
        preserving_extension(g, mask_of(a), mask_of(c), family(g, fam), estar)
        assert [sep for sep, _ in calls] == [mask_of(c)]


def submasks(mask):
    """Every subset of the mask, itself first."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


@pytest.mark.parametrize("seed", range(8))
def test_extension_keeps_trim_of_every_live_extension(seed):
    """`preserving_extension` returns exactly the certificates that are the
    cores (the edges within a) of what `trim_separator` over c keeps of
    every extension a literal enumeration lists: each certificate within
    the cross-edge budget (|a| - |cert| <= |c|) grown by each subset of
    estar that leaves a path system or closes a Hamiltonian cycle.  Both
    write the same `max_family_by_k`."""
    rng = random.Random(seed + 1600)
    seen = {"instances": 0, "kept": 0, "extended": 0, "dropped": 0}
    for n in range(5, 10):
        g = random_connected_graph(n, rng, p=rng.choice([0.4, 0.6]))
        hcs = oracles.enumerate_hamiltonian_cycles(g)[:10]
        for _ in range(3):
            a = rng.randrange(1, g.vmask)
            c = pad_separator(g, a, min_vertex_cover(g, a))
            estar = g.edges_between(a, c & ~a)
            if estar.bit_count() > 10:
                continue
            inner = g.edges_within(a)
            fam = {h & inner for h in hcs} | {0}
            fam |= {m for m in (inner & rng.getrandbits(g.m) for _ in range(20))
                    if is_path_system(g, m)}
            extensions = [m for cert in sorted(fam)
                          if a.bit_count() - cert.bit_count() <= c.bit_count()
                          for m in (cert | sub for sub in submasks(estar))
                          if is_path_system(g, m) or is_hamiltonian_cycle(g, m)]
            got_trace, want_trace = {}, {}
            got = preserving_extension(g, a, c, family(g, fam), estar, got_trace)
            want = trim_separator(g, a, c, family(g, extensions), want_trace)
            cores = {m & ~estar for m in want.values()}
            assert got == {key: m for key, m in family(g, fam).items() if m in cores}
            assert got_trace == want_trace
            seen["instances"] += 1
            seen["kept"] += len(got)
            seen["extended"] += sum(bool(m & estar) for m in want.values())
            seen["dropped"] += len(extensions) > len(got)
    assert all(seen.values()), seen


@pytest.mark.parametrize("edges, a, c, fam, estar, want", PINNED)
def test_extension_kept_pairs_pinned(edges, a, c, fam, estar, want, monkeypatch):
    """The (extended-mask, core) pairs kept on two fixed instances: the
    trim over c keeps the extended masks, in order, and the extension
    returns the certificates that are the cores.

    The literals are the output of the per-certificate extension that the
    shared, forgetting family replaced, so they pin that both keep the same
    pairs; skipping the estar edges at a ∩ c fails the first instance."""
    kept, real_trim_separator = [], repsets.trim_separator

    def recording(*args):
        out = real_trim_separator(*args)
        kept.append(list(out.values()))
        return out

    monkeypatch.setattr(repsets, "trim_separator", recording)
    g = Graph(range(max(map(max, edges)) + 1), edges)
    a, c = mask_of(a), mask_of(c)
    assert g.edges_between(a, c & ~a) == estar
    got = preserving_extension(g, a, c, family(g, fam), estar)
    assert kept == [[m for m, _ in want]]
    cores = {core for _, core in want}
    assert got == {key: m for key, m in family(g, fam).items() if m in cores}


# -- the keyed fold against the list fold it replaced -------------------------

def reference_grow(g, w, items, i):
    """The list growth step: each (edge-mask, d1, d2, pe, payload) item
    that edge i extends to a path system, grown by it, in item order."""
    u, v = g.edges[i]
    bit, uv = 1 << i, g.edge_vertices[i]
    field = (1 << w) - 1
    clear = field << u * w | field << v * w
    out = []
    for m, d1, d2, pe, payload in items:
        if uv & d2:
            continue
        ou = (pe >> u * w) & field if (d1 >> u) & 1 else u
        if ou == v:
            if d1 == g.vmask and d1 & ~d2 == uv:
                out.append((m | bit, d1, d2 | uv, pe & ~clear, payload))
            continue
        ov = (pe >> v * w) & field if (d1 >> v) & 1 else v
        pe &= ~(field << ou * w | field << ov * w | clear)
        out.append((m | bit, d1 | uv, d2 | (d1 & uv),
                    pe | ov << ou * w | ou << ov * w, payload))
    return out


def fewest_edges(g, pool, left):
    """The vertex of `pool` with the fewest edges of `left`, the lowest on
    ties."""
    return min(bits(pool), key=lambda u: (g.incident[u] & left).bit_count())


def kill_first(g, undecided, left, boundary, forget):
    """`frontier`'s next vertex: without `forget` from the undecided
    vertices outside `boundary` while any are left, then by fewest edges."""
    pool = undecided if forget else undecided & ~boundary or undecided
    return fewest_edges(g, pool, left)


def fewest_first(g, undecided, left, boundary, forget):
    """The next vertex by fewest edges alone, whatever `boundary` is."""
    return fewest_edges(g, undecided, left)


def highest_first(g, undecided, left, boundary, forget):
    """The undecided vertex of highest id."""
    return undecided.bit_length() - 1


def reference_frontier(g, items, left, home, boundary, forget, pick=kill_first):
    """The list fold over (edge-mask, d1, d2, pe) items: each gets a
    tally of its own, 0, and after every decided vertex each (edge-mask,
    d1, d2, pe, tally) item is keyed afresh into a new dict, dead ones
    skipped and the boundary forgotten into the tally, and the dict is
    copied back into a list; the growth steps append to that list.  The
    items returned are (edge-mask, d1, d2, pe) again.  Without `forget`
    the vertices of `home` that no edge of `left` meets kill nothing, as
    in `frontier`, whose callers leave them at degree two.  `pick` chooses
    the next vertex to decide."""
    w = field_width(g)
    free = (1 << w) - 1
    fields = (1 << free * w) - 1
    items = [(*item, 0) for item in items]
    undecided = 0
    for i in bits(left):
        undecided |= g.edge_vertices[i]
    newly = home & ~undecided if forget else 0
    while True:
        best = {}
        keep = ~newly
        for m, d1, d2, pe, tally in items:
            short = newly & ~d2
            if short:
                if short & ~boundary:
                    continue
                if forget:
                    ends = short & d1
                    tally += ends.bit_count() + ((short & ~d1).bit_count() << w)
                    for x in bits(ends):
                        p = (pe >> x * w) & free
                        pe = pe & ~(free << x * w) | free << p * w
            key = (d1 & keep, d2 & keep, pe & fields, tally) if forget else (d1, d2, pe, tally)
            if best.setdefault(key, m) > m:
                best[key] = m
        items = [(m, *key) for key, m in best.items()]
        if not undecided:
            return [(m, *path_state(g, m)) if forget else (m, d1, d2, pe)
                    for m, d1, d2, pe, _ in items]
        v = pick(g, undecided, left, boundary, forget)
        group = left & g.incident[v]
        for i in bits(group):
            items += reference_grow(g, w, items, i)
        left ^= group
        newly = 1 << v
        for u in bits(g.adj[v] & undecided):
            if not g.incident[u] & left:
                newly |= 1 << u
        undecided ^= newly


def assert_same_fold(g, fold, left, boundary):
    """`frontier` keeps the masks, keys and order of the list fold, whose
    plain mode reads no home; returns the fold's result."""
    items = [(m, *key) for key, m in fold.items()]
    got = frontier(g, dict(fold), left, boundary)
    assert [(m, *key) for key, m in got.items()] == \
        reference_frontier(g, items, left, 0, boundary, False)
    return got


def by_tally(g, fam, left, home, boundary):
    """The plain fold's result reduced to what the forgetting list fold
    keeps, when no member can span g: the least member per twin key among
    those with degree two at each decided vertex (of `home` or met by
    `left`) outside `boundary`.  The twin key is the state off the decided
    vertices, each end's partner read as None when decided, and the tally
    of decided path ends and isolated vertices.  Keyed by `path_state`."""
    w, decided = field_width(g), home | degree_masks(g, left)[0]
    least = {}
    for (d1, d2, pe), m in sorted(fam.items(), key=lambda item: item[1]):
        short = decided & ~d2
        if short & ~boundary:
            continue
        pairs = tuple((x, None if decided >> p & 1 else p)
                      for x in bits(d1 & ~d2 & ~decided) for p in [partner(pe, w, d1, x)])
        key = (d1 & ~decided, d2 & ~decided, pairs,
               (short & d1).bit_count(), (short & ~d1).bit_count())
        least.setdefault(key, m)
    return {path_state(g, m): m for m in least.values()}


def sampled_paths(g, side, rng, hcs):
    """Path systems of G[side]: the parts of some Hamiltonian cycles there,
    thinned ones and random ones."""
    inner = g.edges_within(side)
    masks = [h & inner for h in hcs] + [h & inner & rng.getrandbits(g.m) for h in hcs]
    masks += [m for m in (inner & rng.getrandbits(g.m) & rng.getrandbits(g.m)
                          for _ in range(30)) if is_path_system(g, m)]
    return masks + [0]


def seeded_folds(seed):
    """Seeded folds (g, kind, fold, left, home, boundary) of three kinds:
    join-style (the pairs of two keyed families over disjoint homes a and
    b, `left` the edges between them), extension-style (home a, boundary a
    padded vertex cover c, `left` the estar edges) and folds over no
    edges."""
    rng = random.Random(seed + 2300)
    for n in range(5, 10):
        g = random_connected_graph(n, rng, p=rng.choice([0.4, 0.6]))
        hcs = oracles.enumerate_hamiltonian_cycles(g)[:6]
        for _ in range(4):
            a = rng.randrange(1, g.vmask)
            b = g.vmask & ~a if rng.random() < 0.4 else rng.getrandbits(n) & g.vmask & ~a
            c = pad_separator(g, a, min_vertex_cover(g, a))
            yield (g, "no edges", family(g, sampled_paths(g, a, rng, hcs)), 0, a,
                   cut_of(g, a)[0])
            yield (g, "extension", family(g, sampled_paths(g, a, rng, hcs)),
                   g.edges_between(a, c & ~a), a, c)
            if b:
                fa = family(g, sampled_paths(g, a, rng, hcs))
                fb = family(g, sampled_paths(g, b, rng, hcs))
                pairs = {(d1a | d1b, d2a | d2b, pea | peb): sa | sb
                         for (d1a, d2a, pea), sa in fa.items()
                         for (d1b, d2b, peb), sb in fb.items()}
                yield (g, "join", pairs, g.edges_between(a, b), a | b,
                       cut_of(g, a | b)[0])


@pytest.mark.parametrize("twin", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_keyed_fold_matches_list_fold(seed, twin):
    """The keyed `frontier` keeps, per key, the mask and state the list
    fold keeps, in its order, on the seeded folds.  Join-style folds at the
    whole graph close Hamiltonian cycles, and some members are removed by a
    kill only: a fold whose boundary holds its home kills nothing, and the
    members it keeps with degree two at each end of `left` outside the
    boundary are exactly the fold's.  With `twin`, on the folds whose home
    and `left` leave some vertex out, that fold reduced by `by_tally` is
    the forgetting list fold as a dict, and some folds keep fewer members
    than the fold, as decided vertices merge keys: one member per tally is
    all a twin join needs of a plain fold."""
    seen = {"join": 0, "extension": 0, "no edges": 0}
    seen.update({"merged": 0} if twin else {"killed": 0, "cycle": 0})
    for g, kind, fold, left, home, boundary in seeded_folds(seed):
        got = assert_same_fold(g, fold, left, boundary)
        if twin:
            if home | degree_masks(g, left)[0] == g.vmask:
                continue
            items = [(m, *key) for key, m in fold.items()]
            want = reference_frontier(g, items, left, home, boundary, True)
            reduced = by_tally(g, got, left, home, boundary)
            assert reduced == {tuple(key): m for m, *key in want}
            seen["merged"] += len(reduced) < len(got)
            seen[kind] += 1
            continue
        seen[kind] += 1
        seen["cycle"] += any(d1 == g.vmask and not d1 & ~d2 for d1, d2, *_ in got)
        everything = frontier(g, dict(fold), left, home | boundary)
        met = degree_masks(g, left)[0]
        assert got == {key: m for key, m in everything.items() if not met & ~boundary & ~key[1]}
        seen["killed"] += len(everything) - len(got)
    assert all(seen.values()), seen


@pytest.mark.parametrize("twin", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_fold_content_does_not_depend_on_order(seed, twin):
    """On the seeded folds, `frontier` keeps as a dict what the list fold
    keeps when it decides its vertices by fewest edges alone and when it
    decides the highest id first: only the order of the members depends
    on the order of the vertices, and each rule keeps the members of some
    folds in another order than `kill_first`.  With `twin`, on the folds
    whose home and `left` leave some vertex out, the forgetting list fold
    under each rule equals `by_tally` of `frontier` as a dict."""
    reordered = {fewest_first: 0, highest_first: 0}
    for g, _, fold, left, home, boundary in seeded_folds(seed):
        if twin and home | degree_masks(g, left)[0] == g.vmask:
            continue
        items = [(m, *key) for key, m in fold.items()]
        got = frontier(g, dict(fold), left, boundary)
        if twin:
            got = by_tally(g, got, left, home, boundary)
        base = reference_frontier(g, items, left, home, boundary, twin)
        for pick in reordered:
            want = reference_frontier(g, items, left, home, boundary, twin, pick)
            assert got == {tuple(key): m for m, *key in want}
            reordered[pick] += want != base
    assert twin or all(reordered.values()), reordered


def test_plain_fold_decides_outside_boundary_first(monkeypatch):
    """Home {0, 1, 2} with boundary {0} folds edges 0-2 and 1-2: vertices 0
    and 1 tie at one edge left.  The fold grows the edge of vertex 1,
    outside the boundary, first, though vertex 0 has the lower id, and
    keeps the members of the list fold."""
    g = Graph(range(4), [(0, 2), (1, 2), (0, 3)])
    e02, e12 = (g.edge_mask([e]).bit_length() - 1 for e in ((0, 2), (1, 2)))
    grown, real_grow = [], repsets.grow

    def recording(g, w, fam, i, dead=0):
        grown.append(i)
        real_grow(g, w, fam, i, dead)

    monkeypatch.setattr(repsets, "grow", recording)
    assert_same_fold(g, family(g, [0]), 1 << e02 | 1 << e12, 0b001)
    assert grown[0] == e12


def test_solver_folds_match_list_fold(monkeypatch):
    """Every fold of `solve_hc` on K5..K9, seeded random graphs (n = 5..10)
    and a 3 x 4 grid along its caterpillar keeps the masks, keys and order
    of the list fold, the folds of `join` and of `preserving_extension`
    alike, and the verdicts are `brute_hc`'s.  Twin joins, which fold no
    edge, estar folds and folds that keep a cycle at the root all occur."""
    seen = {"twin": 0, "join": 0, "extension": 0, "cycle": 0}

    def checking(kind):
        def fold(g, fam, left, boundary):
            got = assert_same_fold(g, fam, left, boundary)
            seen[kind] += 1
            seen["cycle"] += any(d1 == g.vmask and not d1 & ~d2 for d1, d2, _ in got)
            return got
        return fold

    real_twins = solver.join_twins

    def counting(*args):
        seen["twin"] += 1
        return real_twins(*args)

    rng = random.Random(2301)
    graphs = [(complete_graph(n), None) for n in range(5, 10)]
    graphs += [(random_connected_graph(rng.randint(5, 10), rng, p=rng.choice([0.3, 0.5, 0.7])),
                None) for _ in range(30)]
    grid = grid_graph(3, 4)
    graphs.append((grid, caterpillar_decomposition(list(grid.vertices))))
    monkeypatch.setattr(repsets, "frontier", checking("extension"))
    monkeypatch.setattr(solver, "frontier", checking("join"))
    monkeypatch.setattr(solver, "join_twins", counting)
    for g, bd in graphs:
        verdict, _ = solve_hc(g, bd or approx_sm_decomposition(g))
        assert verdict == oracles.brute_hc(g)[0]
    assert all(seen.values()), seen


def reference_twin_uses(p, i, full):
    """(s, z) -> the use (p2, p1, i2, i1) of one side's p paths and i
    isolated vertices with the most degree-one units p1 + i1, over every
    use: p2 and p1 paths take two and one cross edges, i2 and i1 isolated
    vertices likewise, s = p1 + 2 p2 + i1 + 2 i2 edges in all and z
    isolated vertices unused; a full side uses every unit twice."""
    uses = {}
    for p2 in (p,) if full else range(p + 1):
        for p1 in (0,) if full else range(p - p2 + 1):
            for i2 in (i,) if full else range(i + 1):
                for i1 in (0,) if full else range(i - i2 + 1):
                    key = p1 + 2 * p2 + i1 + 2 * i2, i - i1 - i2
                    if key not in uses or p1 + i1 > uses[key][1] + uses[key][3]:
                        uses[key] = p2, p1, i2, i1
    return uses


@pytest.mark.parametrize("full", [False, True])
def test_twin_use_closed_form(full):
    """For every p, i <= 6 and every s that `join_twins` can ask of a side
    (s <= 2(p + i), a full side only s = 2(p + i)), `_units` lists the
    units of two and of one of a use that takes s cross edges, the paths
    of lowest ends before the lowest isolated vertices in each list, with
    the least z of any use with s, and at that z its most degree-one
    units, which are the most of any use with s."""
    w = 5
    for p in range(7):
        for i in range(7):
            uses = reference_twin_uses(p, i, full)
            paths = [(2 * k, 2 * k + 1) for k in range(p)]  # one edge each
            iso = list(range(2 * p, 2 * p + i))
            d1 = sum(1 << x | 1 << y for x, y in paths)
            pe = sum(y << x * w | x << y * w for x, y in paths)
            side = d1 | sum(1 << v for v in iso)
            for s in [2 * (p + i)] if full else range(2 * (p + i) + 1):
                two, one = repsets._units(w, side, (d1, 0, pe), p, i, s)
                p2 = sum(1 for v in two[::2] if d1 >> v & 1)
                i2, p1 = len(two) // 2 - p2, sum(1 for v in one if d1 >> v & 1)
                i1 = len(one) - p1
                assert two == [v for x, y in paths[:p2] for v in (x, y)] + [
                    v for v in iso[:i2] for _ in (0, 1)]
                assert one == [x for x, _ in paths[p2:p2 + p1]] + iso[i2:i2 + i1]
                assert p2 + p1 <= p and i2 + i1 <= i
                assert p1 + 2 * p2 + i1 + 2 * i2 == s
                assert not full or (p2, i2) == (p, i)
                at_s = {z: use for (s_, z), use in uses.items() if s_ == s}
                z = min(at_s)
                assert i - i1 - i2 == z
                assert p1 + i1 == at_s[z][1] + at_s[z][3]
                assert p1 + i1 == max(use[1] + use[3] for use in at_s.values())


def reference_join_twins(g, a, b, fa, fb, cut_a, cut_b, least_union=False):
    """The twin join as a loop over (member pair, s), s the cross edges
    taken, pairs in fa order, then fb order, s rising: per s each side's
    use is `_reference_twin_use`'s, the chain test is d >= 2 degree-one
    units, and `_reference_keep_twin` keeps per unit count the most paths
    and, on ties, the first pair, or with `least_union` the least ma | mb
    (the rule before the stated order).  Each kept pair is realised as
    chains (`_reference_chains`) over its lowest-id units
    (`_reference_units`)."""
    (_, na, _), (_, nb, _), home = cut_a, cut_b, a | b
    cross, full_a, full_b = bool(na & b), not na & ~home, not nb & ~home
    t = ((na | nb) & ~home).bit_count()
    w, incident, kept, order = field_width(g), g.incident, {}, itertools.count()
    field = (1 << w) - 1
    sides_b = [(key, m, (key[0] & ~key[1]).bit_count() >> 1, (b & ~key[0]).bit_count())
               for key, m in fb.items()]
    for ka, ma in fa.items():
        pa, ia = (ka[0] & ~ka[1]).bit_count() >> 1, (a & ~ka[0]).bit_count()
        for kb, mb, pb, ib in sides_b:
            units = pa + ia + pb + ib
            top = min(pa + ia, pb + ib) * 2 if cross else 0
            for s in range(max(0, units - t), top + 1):
                ua = _reference_twin_use(pa, ia, full_a, s)
                ub = _reference_twin_use(pb, ib, full_b, s)
                if ua and ub and (not s or ua[1] + ua[3] + ub[1] + ub[3] >= 2):
                    z = ia - ua[2] - ua[3] + ib - ub[2] - ub[3]
                    rank = ma | mb if least_union else next(order)
                    _reference_keep_twin(kept, t, units - s - z, z, rank,
                                         (ka, ma, kb, mb, ua, ub))
    out = {}
    for *_, (ka, ma, kb, mb, ua, ub) in kept.values():
        m, d1, d2, pe = ma | mb, ka[0] | kb[0], ka[1] | kb[1], ka[2] | kb[2]
        for chain in _reference_chains(*_reference_units(w, a, ka, ua),
                                       *_reference_units(w, b, kb, ub)):
            for (_, u), (v, _) in zip(chain, chain[1:]):
                m |= incident[u] & incident[v]
                uv = 1 << u | 1 << v
                d2 |= d1 & uv
                d1 |= uv
                pe &= ~(field << u * w | field << v * w)
            (x, _), (_, y) = chain[0], chain[-1]
            pe = pe & ~(field << x * w | field << y * w) | y << x * w | x << y * w
        out[d1, d2, pe] = m
    return out


def _reference_keep_twin(kept, t, paths, isolated, rank, item):
    """Offer `item`, of tally (paths, isolated vertices), to `kept`, which
    maps a unit count to (paths, rank, item) of the one item kept there:
    none with more units than t or, if t < 2, with an isolated vertex;
    else the most paths, then the least rank."""
    units = paths + isolated
    if units <= t and (t > 1 or not isolated):
        held = kept.get(units)
        if held is None or paths > held[0] or paths == held[0] and rank < held[1]:
            kept[units] = paths, rank, item


def _reference_twin_use(p, i, full, s):
    """The use (p2, p1, i2, i1) of one side's p paths and i isolated
    vertices that takes s cross edges with the fewest isolated vertices
    left unused and, at that, the most degree-one units, or None when no
    use takes s; a full side takes s = 2(p + i) only."""
    units = p + i
    if s > 2 * units or full and s != 2 * units:
        return None
    if s <= units:
        i1 = min(i, s)
        return 0, s - i1, 0, i1
    two = s - units
    i2 = min(i, two)
    return two - i2, p - two + i2, i2, i - i2


def _reference_units(w, side, key, use):
    """The units a use takes of a member, lowest ids first: those that take
    two cross edges as (entry, exit) vertex pairs, then those that take one
    as (entry, far end), a path taking its edge at its lower end and an
    isolated vertex being both."""
    (d1, d2, pe), (p2, p1, i2, i1) = key, use
    field, ends, paths = (1 << w) - 1, d1 & ~d2, []
    while len(paths) < p2 + p1:
        x = (ends & -ends).bit_length() - 1
        y = (pe >> x * w) & field
        ends &= ~(1 << x | 1 << y)
        paths.append((x, y))
    iso = [(v, v) for v in list(bits(side & ~d1))[:i2 + i1]]
    return paths[:p2] + iso[:i2], paths[p2:] + iso[i2:]


def _reference_chains(x2, x1, y2, y1):
    """Alternating chains over two sides' units, x2 and y2 taking two edges
    and x1 and y1 one, with equal edge counts and x1 + y1 >= 2 if any: one
    chain through every unit of two, ended by units of one, then pairs.
    A chain's first unit is turned to (far end, entry), so its cross edges
    join each unit's second vertex to the next one's first, and its far
    ends are its first and last vertex."""
    if len(x2) < len(y2):
        x2, x1, y2, y1 = y2, y1, x2, x1
    chains, k = [], len(y2)
    if x2:  # y1[0], x2[0], y2[0], ..., y2[k - 1], then x2[k] and y1[1], or x1[0]
        body = [u for pair in zip(x2, y2) for u in pair]
        if len(x2) > k:
            chains.append([y1[0][::-1], *body, x2[k], y1[1]])
            chains += ([y1[2 * j][::-1], u, y1[2 * j + 1]]
                       for j, u in enumerate(x2[k + 1:], 1))
            y1 = y1[2 * (len(x2) - k):]
        else:
            chains.append([y1[0][::-1], *body, x1[0]])
            x1, y1 = x1[1:], y1[1:]
    return chains + [[x[::-1], y] for x, y in zip(x1, y1)]


def unit_profile(side, fam):
    """(units, paths) of each member of a twin family, by units."""
    out = []
    for d1, d2, _ in fam:
        p = (d1 & ~d2).bit_count() >> 1
        out.append((p + (side & ~d1).bit_count(), p))
    return sorted(out)


def test_join_twins_matches_the_pair_loop(monkeypatch):
    """Every `join_twins` call of `solve_hc` on K5..K40, on seeded random
    cographs with n = 5..60 along `approx_sm_decomposition`, and on
    cographs with n = 5..10 along caterpillars in shuffled vertex orders
    (twin homes whose sides may come from a plain fold) returns the
    reference pair loop's family: the same states, masks and order, the
    twin trims (`trim_split`, the join with an empty side) among them.
    Its (unit count, paths) tallies are those of the loop that breaks ties
    by the least ma | mb instead of the first pair.  On every non-empty
    family met, the unit counts form an interval on which paths is concave
    with steps +1, 0 or -1; the join does not rely on that.  The joins
    cover pairs with and without cross edges and full sides."""
    from tests.test_solver import random_cograph
    rng = random.Random(4101)
    runs = [(complete_graph(n), None) for n in range(5, 41)]
    runs += [(random_cograph(rng.randint(5, 60), rng), None) for _ in range(40)]
    for _ in range(30):
        g = random_cograph(rng.randint(5, 10), rng)
        order = list(g.vertices)
        rng.shuffle(order)
        runs.append((g, caterpillar_decomposition(order)))
    seen = dict.fromkeys(["joins", "trims", "crossed", "uncrossed", "full side",
                          "caterpillar", "tie moved"], 0)
    real = solver.join_twins

    def checking(g, a, b, fa, fb, cut_a, cut_b):
        out = real(g, a, b, fa, fb, cut_a, cut_b)
        assert list(out.items()) == list(reference_join_twins(g, a, b, fa, fb, cut_a,
                                                              cut_b).items())
        least = reference_join_twins(g, a, b, fa, fb, cut_a, cut_b, least_union=True)
        assert unit_profile(a | b, out) == unit_profile(a | b, least)
        seen["tie moved"] += out != least
        for side, fam in ((a, fa), (b, fb), (a | b, out)) if b else ((a, out),):
            if not fam:
                continue
            units, paths = zip(*unit_profile(side, fam))
            assert list(units) == list(range(units[0], units[-1] + 1))
            steps = [q - p for p, q in zip(paths, paths[1:])]
            assert set(steps) <= {-1, 0, 1} and steps == sorted(steps, reverse=True)
        if not b:
            seen["trims"] += 1
            return out
        (_, na, _), (_, nb, _) = cut_a, cut_b
        seen["joins"] += 1
        seen["crossed" if na & b else "uncrossed"] += 1
        seen["full side"] += not na & ~(a | b) or not nb & ~(a | b)
        seen["caterpillar"] += bd is not None
        return out

    monkeypatch.setattr(solver, "join_twins", checking)
    for g, bd in runs:
        solve_hc(g, bd or approx_sm_decomposition(g))
    assert all(seen.values()), seen


def test_twin_join_is_no_convolution_of_tallies():
    """The twin join's kept (unit count, paths) is not the max-plus
    convolution of the two sides': in K4, the single vertices 0 and 1
    each have paths 0 at one unit, whose convolution holds two units with
    no path only, while the join also keeps the edge 01, one path at one
    unit."""
    g = complete_graph(4)
    a, b = 1 << 0, 1 << 1
    out = repsets.join_twins(g, a, b, {(0, 0, 0): 0}, {(0, 0, 0): 0}, cut_of(g, a), cut_of(g, b))
    convolution = {(ua + ub, pa + pb) for ua, pa in unit_profile(a, {(0, 0, 0): 0})
                   for ub, pb in unit_profile(b, {(0, 0, 0): 0})}
    assert convolution == {(2, 0)}
    assert unit_profile(a | b, out) == [(1, 1), (2, 0)]
    assert out[path_state(g, g.edge_mask([(0, 1)]))] == g.edge_mask([(0, 1)])
