import random

import pytest

from smhc.graph import Graph, mask_of, cycle_graph, path_graph, complete_graph, petersen_graph
from smhc.branchdec import SizeLimitExceeded
from smhc.solver import cut_of, is_hamiltonian_cycle, trim
from smhc.generators import random_connected_graph
from smhc.oracles import (brute_hc, backtracking_hc, enumerate_hamiltonian_cycles,
                          brute_sm_width, verify_preservation, _degree_signature,
                          BRUTE_HC_LIMIT, BRUTE_WIDTH_LIMIT)
from tests.conftest import family


def test_named_graphs():
    assert brute_hc(complete_graph(4))[0]
    assert brute_hc(cycle_graph(9))[0]
    assert not brute_hc(path_graph(5))[0]
    assert not brute_hc(Graph(range(5), [(0, 1), (0, 2), (0, 3), (0, 4),
                                         (1, 2), (3, 4)]))[0]  # K23-like
    assert not brute_hc(petersen_graph())[0]


def test_witness_is_valid():
    g = complete_graph(6)
    ok, witness = brute_hc(g)
    assert ok
    assert is_hamiltonian_cycle(g, g.edge_mask(witness))


def test_tiny_graphs():
    assert not brute_hc(Graph([0], []))[0]
    assert not brute_hc(Graph(range(2), [(0, 1)]))[0]
    assert brute_hc(cycle_graph(3))[0]


@pytest.mark.parametrize("seed", range(40))
def test_two_oracles_agree(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng.randint(3, 8), rng)
    assert brute_hc(g)[0] == backtracking_hc(g)[0]


def test_refusals():
    big = cycle_graph(BRUTE_HC_LIMIT + 1)
    with pytest.raises(SizeLimitExceeded):
        brute_hc(big)
    wide = cycle_graph(BRUTE_WIDTH_LIMIT + 1)
    with pytest.raises(SizeLimitExceeded):
        brute_sm_width(wide)


def test_enumerate_counts():
    # K5 has 4!/2 = 12 distinct Hamiltonian cycles
    assert len(list(enumerate_hamiltonian_cycles(complete_graph(5)))) == 12
    assert len(list(enumerate_hamiltonian_cycles(cycle_graph(6)))) == 1
    assert not list(enumerate_hamiltonian_cycles(path_graph(4)))


def test_enumerated_cycles_are_valid():
    g = complete_graph(5)
    for h in enumerate_hamiltonian_cycles(g):
        assert is_hamiltonian_cycle(g, h)


def test_brute_sm_width_values():
    assert brute_sm_width(complete_graph(5)) == 1
    assert brute_sm_width(complete_graph(7)) == 1
    assert brute_sm_width(cycle_graph(4)) == 1
    assert brute_sm_width(cycle_graph(5)) == 2
    assert brute_sm_width(petersen_graph()) == 3


def test_verify_preservation_trivial():
    g = cycle_graph(5)
    a = mask_of([0, 1, 2])
    fam = [g.edge_mask([(0, 1), (1, 2)])]
    assert verify_preservation(g, a, fam, fam, method="cycles")
    assert verify_preservation(g, a, fam, fam, method="enumerate")
    # dropping the only completable member is caught
    assert not verify_preservation(g, a, fam, [], method="cycles")
    assert not verify_preservation(g, a, fam, [], method="enumerate")
    with pytest.raises(ValueError, match="unknown method 'walk'"):
        verify_preservation(g, a, fam, fam, method="walk")


def test_degree_signature_refuses_degree_three():
    """The (degree 0, 1, 2) signature is defined for path systems only."""
    g = complete_graph(4)
    assert _degree_signature(g, g.edge_mask([(0, 1)]), g.vmask) == (0b1100, 0b0011, 0)
    with pytest.raises(ValueError, match="degree > 2"):
        _degree_signature(g, g.edge_mask([(0, 1), (0, 2), (0, 3)]), g.vmask)


@pytest.mark.parametrize("seed", range(12))
def test_verify_methods_agree_on_trims(seed):
    rng = random.Random(seed + 700)
    g = random_connected_graph(rng.randint(5, 7), rng)
    a = rng.randrange(1, g.vmask)
    if not (g.vmask & ~a):
        return
    from smhc.repsets import is_path_system
    inner = g.edges_within(a)
    fam = [m for m in range(1 << g.m) if m & ~inner == 0
           and is_path_system(g, m)]
    small = list(trim(g, a, family(g, fam), cut_of(g, a)).values())
    c = verify_preservation(g, a, fam, small, method="cycles")
    e = verify_preservation(g, a, fam, small, method="enumerate")
    assert c == e
    assert c
