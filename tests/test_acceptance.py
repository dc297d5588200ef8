"""End-to-end acceptance gate.

Each test prints one CRITERION line (visible with `pytest -s` or on
failure) and asserts a zero-violation tolerance.  The heavy correctness
sweep is shared between the solver-agreement, trim-preservation, and
split-soundness criteria through a session fixture.
"""

import random

import pytest

from smhc.graph import Graph, bits
from smhc.cuts import mm_value, min_vertex_cover, sm_cut_function
from smhc.splitdec import (LiftedContext, split_decompose, find_split,
                           lifted_mm_cut_function, lifted_sm_cut_function)
from smhc.branchdec import exact_branch_width
from smhc.pipeline import approx_sm_decomposition, heavy_vertices
from smhc.repsets import is_path_system, pad_separator, preserving_extension
from smhc.solver import solve_hc
from smhc.generators import random_connected_graph
from smhc import oracles
from smhc.cli import main as cli_main

from tests.conftest import atlas_connected, family

SWEEP_PER_SIZE = 500
SWEEP_SIZES = (4, 5, 6, 7, 8)


def _report(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"CRITERION {num}: {verdict} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="session")
def sweep():
    """Solve every corpus graph once, collecting evidence for criteria 1/3/7."""
    rng = random.Random(20260825)
    corpus = list(atlas_connected(3, 6))
    for n in SWEEP_SIZES:
        for _ in range(SWEEP_PER_SIZE):
            corpus.append(random_connected_graph(n, rng))

    disagreements = 0
    trim_checks = 0
    trim_failures = 0
    recompose_failures = 0
    prime_split_failures = 0
    max_family_by_k: dict = {}  # shared by every solve's trace

    for g in corpus:
        dec = split_decompose(g)
        if dec.recompose() != g:
            recompose_failures += 1
        for p in dec.primes:
            if p.n >= 4 and find_split(p) is not None:
                prime_split_failures += 1

        bd = approx_sm_decomposition(g)
        trace = {"max_family_by_k": max_family_by_k}
        if g.n <= 8:
            trace["trims"] = []
        got, _ = solve_hc(g, bd, trace=trace)
        want, _ = oracles.brute_hc(g)
        if got != want:
            disagreements += 1
        checks = []
        if "trims" in trace:
            hcs = oracles.enumerate_hamiltonian_cycles(g)
            checks = [oracles.verify_preservation(g, a, before, after,
                                                  method="cycles", hcs=hcs)
                      for a, before, after in trace["trims"]]
        trim_checks += len(checks)
        trim_failures += sum(1 for c in checks if not c)

    return {
        "graphs": len(corpus),
        "disagreements": disagreements,
        "trim_checks": trim_checks,
        "trim_failures": trim_failures,
        "recompose_failures": recompose_failures,
        "prime_split_failures": prime_split_failures,
        "max_family_by_k": max_family_by_k,
    }


def test_criterion_1_correctness_sweep(sweep):
    _report(1, sweep["disagreements"] == 0,
            f"solver matched the exact oracle on all {sweep['graphs']} graphs "
            f"({sweep['disagreements']} disagreements)")


def test_criterion_2_approximation_factor():
    rng = random.Random(2)
    violations = 0
    total = 0
    worst = 0.0
    while total < 300:
        g = random_connected_graph(rng.randint(4, 9), rng)
        exact = oracles.brute_sm_width(g)
        width = approx_sm_decomposition(g).f_width(sm_cut_function(g))
        total += 1
        worst = max(worst, width / exact)
        if width > 18 * exact:
            violations += 1
    _report(2, violations == 0,
            f"approx width within 18x exact on {total} graphs "
            f"(worst ratio {worst:.2f}, {violations} violations)")


def test_criterion_3_family_bound_and_preservation(sweep):
    max_by_k = sweep["max_family_by_k"]
    by_k = {k: v for k, v in max_by_k.items() if k <= 5}
    ok = (all(v <= 6 ** k for k, v in max_by_k.items())
          and sweep["trim_failures"] == 0 and sweep["trim_checks"] > 0)
    _report(3, ok,
            f"families within 6^k for k<=5 (max by k: {dict(sorted(by_k.items()))}), "
            f"{sweep['trim_checks']} trims preservation-verified "
            f"({sweep['trim_failures']} failures)")


def test_criterion_4_preserving_extension():
    rng = random.Random(4)
    instances = 0
    violations = 0
    while instances < 100:
        g = random_connected_graph(rng.randint(5, 8), rng)
        a = rng.randrange(1, g.vmask)
        outside = g.vmask & ~a
        if a.bit_count() < 3 or not outside:
            continue
        cover = min_vertex_cover(g, a)
        c = pad_separator(g, a, cover)
        if not 3 <= c.bit_count() <= 4:
            continue
        inner = g.edges_within(a)
        fam = sorted({rng.randrange(1 << g.m) & inner for _ in range(30)})
        fam = [m for m in fam if is_path_system(g, m)]
        if not fam:
            continue
        estar = g.edges_between(a, c & ~a)
        ext = preserving_extension(g, a, c, family(g, fam), estar)
        stripped = sorted(ext.values())
        if not oracles.verify_preservation(g, a, fam, stripped,
                                           method="enumerate"):
            violations += 1
        instances += 1
    _report(4, violations == 0,
            f"stripped extensions preserved completability on {instances} "
            f"instances ({violations} violations)")


def test_criterion_5_submodularity():
    rng = random.Random(5)
    pairs_mm = 0
    pairs_lifted = 0
    violations = 0
    for _ in range(50):
        g = random_connected_graph(rng.randint(5, 9), rng)
        for _ in range(100):
            a = rng.randrange(0, g.vmask + 1) & g.vmask
            b = rng.randrange(0, g.vmask + 1) & g.vmask
            if (mm_value(g, a) + mm_value(g, b)
                    < mm_value(g, a | b) + mm_value(g, a & b)):
                violations += 1
            pairs_mm += 1
        dec = split_decompose(g)
        ctxs = [LiftedContext(dec, i) for i in range(len(dec.primes))]
        for _ in range(100):
            ctx = ctxs[rng.randrange(len(ctxs))]
            f = lifted_mm_cut_function(ctx)
            dom = ctx.prime.vmask
            a = rng.randrange(0, dom + 1) & dom
            b = rng.randrange(0, dom + 1) & dom
            if f(a) + f(b) < f(a | b) + f(a & b):
                violations += 1
            pairs_lifted += 1
    _report(5, violations == 0 and pairs_mm >= 5000 and pairs_lifted >= 5000,
            f"submodularity held on {pairs_mm} mm pairs and {pairs_lifted} "
            f"lifted-mm pairs ({violations} violations)")


def test_criterion_6_structural_lemmas():
    rng = random.Random(6)
    graphs = 0
    width_violations = 0
    heavy_violations = 0
    while graphs < 60:
        g = random_connected_graph(rng.randint(4, 9), rng)
        smw = oracles.brute_sm_width(g)
        dec = split_decompose(g)
        for i, p in enumerate(dec.primes):
            ctx = LiftedContext(dec, i)
            if p.n >= 2:
                f = lifted_sm_cut_function(ctx)
                w, _ = exact_branch_width(list(p.vertices), f)
                if w > 3 * max(smw, 1):
                    width_violations += 1
            k = smw + 1
            heavy = heavy_vertices(ctx, k)
            for v in bits(heavy):
                neighbors = (ctx.prime.adj[v] & heavy).bit_count()
                if neighbors > 1 and mm_value(g, ctx.tot(v)) >= 6 * k:
                    heavy_violations += 1
        graphs += 1
    _report(6, width_violations == 0 and heavy_violations == 0,
            f"per-prime lifted widths within 3x sm-width and heavy-vertex "
            f"structure held on {graphs} graphs "
            f"({width_violations}+{heavy_violations} violations)")


def test_criterion_7_split_soundness(sweep):
    ok = (sweep["recompose_failures"] == 0
          and sweep["prime_split_failures"] == 0)
    _report(7, ok,
            f"recomposition exact and primes split-free over all "
            f"{sweep['graphs']} corpus graphs "
            f"({sweep['recompose_failures']}+{sweep['prime_split_failures']} "
            f"failures)")


def test_criterion_8_scaling_envelope(capsys):
    # the extra n=26 column checks that family sizes have saturated: growth
    # seen between n=10 and n=18 is small-grid truncation, not n-dependence
    targets = (10, 14, 18, 26)
    peak = {}
    for k in (2, 3, 4, 5):
        assert cli_main(["--seed", "8", "bench", "--family", "grid",
                         "--k", str(k), "--n", ",".join(map(str, targets))]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,seed,smw_exact,smw_approx,max_family,millis"
        for idx, row in enumerate(lines[1:]):
            peak[(k, targets[idx])] = int(row.split(",")[4])
    ns = (10, 14, 18)
    by_k = {k: max(peak[(k, n)] for n in ns) for k in (2, 3, 4, 5)}
    monotone = all(by_k[k] <= by_k[k + 1] for k in (2, 3, 4))
    bounded = all(v <= 6 ** k for k, v in by_k.items())
    # flat in n: bounded spread at small n and no growth past saturation
    flat = all(max(peak[(k, n)] for n in ns) <= 3 * min(peak[(k, n)] for n in ns)
               and peak[(k, 26)] <= by_k[k]
               for k in (2, 3, 4, 5))
    with capsys.disabled():
        _report(8, monotone and bounded and flat,
                f"post-trim family peaks by k {by_k} are monotone in k, "
                f"within 6^k, and flat across n in {ns} (saturated by n=26)")
