#!/usr/bin/env python3
"""Run the cliff corpus: inputs on which the solver's cost jumps.

The inputs lie outside the benchmark's workloads: K14, K16, K18, K20,
K60, K100, K150, K300 and K600; the clique-split cograph `cograph-n12-1` relabeled by
`Random(2).shuffle`; the p = 0.3 stream (`random_connected_graph(n,
Random(1), p=0.3)` drawn for n = 10, 11, ... in turn) at n = 13, 19, 21,
22 and 23; K_{6,6} with a decomposition whose root edge separates the two
sides; `cograph-n14-6`, the 7th n = 14 draw of a
`workloads.random_cograph` survey that draws 8 cographs per n = 12, 13,
... from one `Random(99)`; the 11 draws of the survey that draws 8
`workloads.random_cograph` per n = 16, 18, ..., 26 from one `Random(5)`
on which the folding twin join ran out of time or memory
(`cograph-survey-n22-1` and so on, named by n and draw); the 12
cographs that one `Random(11)` draws as `workloads.random_cograph`, 4
per n = 60, 80, 120 (`cograph-r11-n60-0` and so on), all Hamiltonian;
and the first n = 60 draw of a survey that draws 4 per n = 40, 60, 80,
120 from one `Random(11)` (`cograph-r11-survey-n60-0`), which is not;
`workloads.random_cograph(n, Random(7))` at n = 300, 600 and 900,
each from a fresh `Random(7)` (`cograph-r7-n300` and so on); and inputs
whose verdict a theorem gives (`tests/test_theorems.py`, which also holds
their builders): the generalized Petersen graphs GP(23, 2), GP(24, 2)
and GP(29, 2), the grids `grid_graph(5, 21)`, `(4, 25)` and `(4, 50)`,
and the lexicographic products grid(3, 4)[K3], grid(4, 6)[K3],
grid(3, 6)[E2], grid(4, 6)[E2], grid(3, 5)[E2], grid(5, 5)[E2] and
GP(12, 2)[K2] (E2: two vertices, no edge).
Each input runs in its own subprocess, with this checkout's `src` first
on the path, a 2 GB address-space cap (RLIMIT_AS) set in the child and a
60 s wall limit.  The child parses the row's edge-list text with
`parse_edge_list`, decomposes with `approx_sm_decomposition`
(K_{6,6} takes its given tree) and runs `solve_hc`.

Per input the output records the outcome (`ok`, `timeout` or `memory`),
the time `parse_edge_list` takes on the row's edge-list text (`parse_s`),
the verdict and whether it was checked (against K_n, `brute_hc` for
n <= 16, the path-cover reference `tests/test_cograph_reference.cograph_hc`
for the survey and `Random(11)` cographs, whatever the verdict, the
row's `expect`ed verdict for the theorem rows, or a verified witness;
every witness is verified), decomposition and solve time, the tree's
sm-width (`sm_width`, measured after the decomposition's timed window
and before the solve's), the peak node
family (`max_family`), `max_family_by_k` and the child's peak RSS.  Rows whose solve runs a twin
join (`repsets.join_twins`) also record `twin_joins` and, summed over
them, `pair_s_tries`, the (member pair, s) tries of the pair loop
`tests/test_repsets.py::reference_join_twins`, and `pair_u_tries`, the
(member pair, U) tries of `join_twins`, both counted from each call's
inputs (`twin_tries`) outside the solve's timed window.  The twin trim
(`solver.trim_split`) is a `join_twins` call with an empty side, b = 0;
it counts as no join.

Usage: python3 scripts/cliffs.py [--out BENCH_cliffs.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
import types
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MEMORY_CAP = 2 << 30  # bytes of address space per child
WALL_LIMIT_S = 60


def side_root_tree(left: list[int], right: list[int]) -> dict:
    """Decomposition JSON whose root edge (0, 1) separates left from right.

    Each side hangs off its root node as a caterpillar; leaf ids are the
    elements plus 1000, spine ids count up from 2.
    """
    edges, leaves, fresh = [(0, 1)], {}, 2
    for hub, side in ((0, left), (1, right)):
        for v in side[:-2]:
            edges += [(hub, 1000 + v), (hub, fresh)]
            hub, fresh = fresh, fresh + 1
        edges += [(hub, 1000 + v) for v in side[-2:]]
        leaves.update({1000 + v: v for v in side})
    return {"edges": [list(e) for e in edges],
            "leaf_map": {str(k): v for k, v in leaves.items()}}


def corpus() -> list[dict]:
    """The cliff inputs, each with its edges, optional tree and reference."""
    sys.path.insert(0, str(ROOT))  # `check` imports the cograph reference from `tests`
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "benchmark"))
    import smhc.generators
    import workloads
    from smhc.graph import complete_graph

    out = [{"label": f"K{n}", "n": n, "edges": list(combinations(range(n), 2)),
            "reference": "complete"} for n in (14, 16, 18, 20, 60, 100, 150, 300, 600)]
    smhc_ns = types.SimpleNamespace(generators=smhc.generators)
    cograph = next(inp for cls in workloads.clique_split(smhc_ns) for inp in cls
                   if inp.label == "cograph-n12-1")
    perm = list(range(cograph.n))
    random.Random(2).shuffle(perm)
    out.append({"label": "cograph-n12-1-relabeled", "n": cograph.n,
                "edges": sorted(tuple(sorted((perm[u], perm[v])))
                                for u, v in cograph.edges),
                "reference": "brute"})
    rng = random.Random(1)
    for n in range(10, 24):
        g = smhc.generators.random_connected_graph(n, rng, p=0.3)
        if n in (13, 19, 21, 22, 23):
            out.append({"label": f"p0.3-stream-n{n}", "n": n, "edges": list(g.edges),
                        "reference": "brute" if n <= workloads.BRUTE_LIMIT else "witness"})
    out.append({"label": "K6,6-side-root", "n": 12,
                "edges": [(u, v) for u in range(6) for v in range(6, 12)],
                "reference": "brute",
                "decomposition": side_root_tree(list(range(6)), list(range(6, 12)))})
    rng = random.Random(99)
    draws = [workloads.random_cograph(n, rng) for n in (12, 13, 14) for _ in range(8)]
    out.append({"label": "cograph-n14-6", "n": 14, "edges": draws[22],
                "reference": "brute"})
    rng = random.Random(5)
    survey = {f"n{n}-{j}": workloads.random_cograph(n, rng) for n in range(16, 27, 2)
              for j in range(8)}
    for name in ("n22-1", "n22-2", "n22-4", "n22-7", "n24-4", "n24-6",
                 "n26-0", "n26-1", "n26-2", "n26-3", "n26-5"):
        n = int(name[1:3])
        out.append({"label": f"cograph-survey-{name}", "n": n, "edges": survey[name],
                    "reference": "cograph"})
    rng = random.Random(11)
    out += [{"label": f"cograph-r11-n{n}-{j}", "n": n,
             "edges": workloads.random_cograph(n, rng), "reference": "cograph"}
            for n in (60, 80, 120) for j in range(4)]
    rng = random.Random(11)
    survey = [workloads.random_cograph(n, rng) for n in (40, 60, 80, 120) for _ in range(4)]
    out.append({"label": "cograph-r11-survey-n60-0", "n": 60, "edges": survey[4],
                "reference": "cograph"})
    out += [{"label": f"cograph-r7-n{n}", "n": n,
             "edges": workloads.random_cograph(n, random.Random(7)), "reference": "cograph"}
            for n in (300, 600, 900)]
    from tests import test_theorems as thm

    grid = smhc.generators.grid_graph
    facts = [(f"GP({n},2)", thm.generalized_petersen(n, 2), thm.gp2_hamiltonian(n))
             for n in (23, 24, 29)]
    facts += [(f"grid({r},{c})", grid(r, c), thm.grid_hamiltonian(r, c))
              for r, c in ((5, 21), (4, 25), (4, 50))]
    k2, k3, e2 = complete_graph(2), complete_graph(3), thm.empty_graph(2)
    products = [(f"grid({r},{c})", grid(r, c), thm.grid_hamiltonian(r, c), h, h_name)
                for (r, c), h, h_name in (((3, 4), k3, "K3"), ((4, 6), k3, "K3"),
                                          ((3, 6), e2, "E2"), ((4, 6), e2, "E2"),
                                          ((3, 5), e2, "E2"), ((5, 5), e2, "E2"))]
    products.append(("GP(12,2)", thm.generalized_petersen(12, 2), thm.gp2_hamiltonian(12),
                     k2, "K2"))
    facts += [(f"{name}[{h_name}]", thm.lex_product(g, h), thm.product_verdict(g_yes, g, h))
              for name, g, g_yes, h, h_name in products]
    assert all(expect is not None for *_, expect in facts)
    out += [{"label": label, "n": g.n, "edges": list(g.edges), "reference": "theorem",
             "expect": expect} for label, g, expect in facts]
    return out


def twin_tries(a: int, b: int, fa: dict, fb: dict, cut_a: tuple, cut_b: tuple) -> tuple[int, int]:
    """(pair, s) tries of the pair loop and (pair, U) tries of
    `repsets.join_twins` on one twin join.  Per pair of members with u =
    p + i units each, t outside neighbours of a | b and `units` = ua + ub:
    the loop tries s = max(0, units - t) .. 2 min(ua, ub) with a cross
    edge, else s = 0 (from units - t on); the join tries U = max(|ua -
    ub|, 1) .. min(ua + ub, t) with a cross edge and no full side, the one
    U = ub - ua (a full) or ua - ub (b full), or U = ua + ub without a
    cross edge, each only if 1 <= U <= t, and none on a one-vertex home
    at t < 2."""
    (_, na, _), (_, nb, _), home = cut_a, cut_b, a | b
    cross, full_a, full_b = bool(na & b), not na & ~home, not nb & ~home
    t = ((na | nb) & ~home).bit_count()
    lone = t < 2 and not home & (home - 1)  # `join_twins` keeps nothing

    def tallies(side, fam):
        return [(d1 & ~d2).bit_count() // 2 + (side & ~d1).bit_count() for d1, d2, _ in fam]

    loop = join = 0
    for ua in tallies(a, fa):
        for ub in tallies(b, fb):
            top = 2 * min(ua, ub) if cross else 0
            loop += max(0, top - max(0, ua + ub - t) + 1)
            if lone:
                continue
            if not cross:
                lo = hi = ua + ub
            elif full_a:
                lo = hi = ub - ua
            elif full_b:
                lo = hi = ua - ub
            else:
                lo, hi = abs(ua - ub), ua + ub
            join += max(0, min(hi, t) - max(lo, 1) + 1)
    return loop, join


def own_peak_rss_kb() -> int:
    """Peak RSS of this process since its exec, in kB: Linux's VmHWM where
    there is one, as ru_maxrss there also counts the pages of the parent
    the child was forked from."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def child() -> int:
    """Solve the input on stdin under the address-space cap; print JSON."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    from smhc import solver
    from smhc.branchdec import BranchDecomposition
    from smhc.cuts import sm_cut_function
    from smhc.graph import parse_edge_list
    from smhc.pipeline import approx_sm_decomposition

    tries = {"twin_joins": 0, "pair_s_tries": 0, "pair_u_tries": 0, "counting_s": 0.0}
    real_twins = solver.join_twins

    def counted_twins(g, a, b, fa, fb, cut_a, cut_b):
        if not b:  # `solver.trim_split`, the twin join with an empty side
            return real_twins(g, a, b, fa, fb, cut_a, cut_b)
        start = time.perf_counter()
        loop, join = twin_tries(a, b, fa, fb, cut_a, cut_b)
        tries["twin_joins"] += 1
        tries["pair_s_tries"] += loop
        tries["pair_u_tries"] += join
        tries["counting_s"] += time.perf_counter() - start
        return real_twins(g, a, b, fa, fb, cut_a, cut_b)

    solver.join_twins = counted_twins

    inp = json.load(sys.stdin)
    result: dict = {"outcome": "ok"}
    try:
        text = "".join([f"{inp['n']} {len(inp['edges'])}\n",
                        *(f"{u} {v}\n" for u, v in inp["edges"])])
        start = time.perf_counter()
        g = parse_edge_list(text)
        result["parse_s"] = round(time.perf_counter() - start, 4)
        start = time.perf_counter()
        if inp.get("decomposition"):
            bd = BranchDecomposition.from_json(inp["decomposition"])
        else:
            bd = approx_sm_decomposition(g)
        result["decompose_s"] = round(time.perf_counter() - start, 4)
        result["sm_width"] = bd.f_width(sm_cut_function(g))
        trace: dict = {}
        start = time.perf_counter()
        verdict, witness = solver.solve_hc(g, bd, trace=trace)
        solve_s = time.perf_counter() - start - tries.pop("counting_s")
        result.update(solve_s=round(solve_s, 4),
                      verdict=verdict, witness=witness,
                      max_family=trace["max_family"],
                      max_family_by_k=dict(sorted(trace.get("max_family_by_k", {}).items())))
        if tries["twin_joins"]:
            result.update(tries)
    except MemoryError:
        result["outcome"] = "memory"
    result["peak_rss_mb"] = round(own_peak_rss_kb() / 1024, 1)
    json.dump(result, sys.stdout)
    return 0


def run_input(inp: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen([sys.executable, __file__, "--child"], env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        stdout, stderr = proc.communicate(json.dumps(inp), timeout=WALL_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"outcome": "timeout"}
    if proc.returncode != 0:
        return {"outcome": "memory" if "MemoryError" in stderr else f"exit {proc.returncode}"}
    return json.loads(stdout)


def check(inp: dict, result: dict) -> bool | None:
    """Whether the verdict is right: True, False, or None when unchecked."""
    import workloads
    from smhc.graph import Graph
    from smhc.oracles import brute_hc
    from tests.test_cograph_reference import cograph_hc

    if result["outcome"] != "ok":
        return None
    edges = {tuple(e) for e in inp["edges"]}
    witness = result["witness"]
    if witness is not None and not workloads.is_spanning_cycle(
            inp["n"], edges, [tuple(e) for e in witness]):
        return False
    if inp["reference"] == "complete":
        return result["verdict"] == (inp["n"] >= 3)
    if inp["reference"] == "brute":
        return result["verdict"] == brute_hc(Graph(range(inp["n"]), edges))[0]
    if inp["reference"] == "cograph":
        return result["verdict"] == cograph_hc(Graph(range(inp["n"]), edges))
    if inp["reference"] == "theorem":
        return result["verdict"] == inp["expect"]
    return True if witness is not None else None  # a NO has no certificate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_cliffs.json")
    parser.add_argument("--child", action="store_true",
                        help="internal: solve the input on stdin")
    args = parser.parse_args(argv)
    if args.child:
        return child()
    inputs = corpus()
    # Every child runs before `check` imports the references: where a
    # child's peak RSS falls back to ru_maxrss, it starts from the parent's,
    # which the test modules would raise.
    results = [run_input(inp) for inp in inputs]
    rows = []
    for inp, result in zip(inputs, results):
        result["checked"] = check(inp, result)
        result.pop("witness", None)
        rows.append({"label": inp["label"], "n": inp["n"], "m": len(inp["edges"]),
                     **result})
        print(json.dumps(rows[-1]), flush=True)
    report = {"machine": f"{platform.machine()}, {os.cpu_count()} cores, "
                         f"Python {platform.python_version()}",
              "memory_cap_mb": MEMORY_CAP >> 20, "wall_limit_s": WALL_LIMIT_S,
              "inputs": rows}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if any(row["checked"] is False for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
