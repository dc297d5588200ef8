#!/usr/bin/env python3
"""Check that two source trees give the same answers on the benchmark corpora.

Builds the three corpora of `benchmark/workloads.py` (sweep-small,
grid-long and clique-split) once, with this checkout's generators, and
runs `solve_hc` on every input in one subprocess per tree, with that
tree's `src` first on the path.  Each connected input with n >= 3 is
solved with its stored decomposition if it has one, else with
`approx_sm_decomposition`, also where `smhc hc` answers before
decomposing (a cut vertex), so that the DP is compared on all of them.
Each input of a solved group is also run through `smhc.cli.main(["hc",
file])`, with `--decomposition` where it stores one, for its exit code
and standard output.  Five fixed groups load what the three corpora
barely reach.  `extension-heavy` is solved: seeded random graphs with
n = 8, 9, 10 at four densities, whose vertex-cover trims run the
preserving extension on wide families.  `stream` is solved too: the
p = 0.3 stream of `scripts/cliffs.py` (`random_connected_graph(n,
Random(1), p=0.3)` drawn for n = 10..20 in turn), whose n = 19 input
grows many members onto keys that the fold already holds.  `twin-large`
is solved too: K15..K24 and 24 seeded random cographs with n = 13..16
(`workloads.random_cograph`, `Random(2016)`, 6 per n), twin inputs
larger than clique-split's, whose cuts are all twin cuts.
`caterpillar` is solved too: seeded random graphs with n = 6..12 at four
densities (`Random(2017)`), each with a caterpillar decomposition in a
shuffled vertex order as its stored decomposition, trees the pipeline
never builds.
`greedy-heavy` is only decomposed: seeded random graphs with n = 3..14
at four densities, C13..C16, random cographs with n = 9..12, and graphs
that mix a prime above `EXACT_SIZE_LIMIT` vertices with one of 4..12
(two paths, or a random 13-vertex graph and a random 6-vertex one,
joined completely between two vertices of each; mixed-13-6-2 ends with
only 3-vertex primes beside its large one); its primes above the limit
get the Cuthill–McKee caterpillar (the group is named after the greedy
search that built their trees before it), its cographs contract heavy
pairs, and its mixed graphs choose the tree per prime.  Its last inputs have n // 2 > 18,
so the pipeline measures their trees' sm-width: C40, K40 (34 of whose
3-vertex primes contract a heavy pair into a 2-element search) and
seeded random graphs with n = 38, 41, 44, 48 at densities 0.1, 0.15
and 0.3 (`Random(3)`, drawn in that order), of which n41-p0.15,
n41-p0.3, n44-p0.3 and all three with n = 48 raise k after a measured
tree.  Prints, per workload, how many
inputs have identical verdicts, witnesses, `smhc hc` exit codes and
output, per-node family sizes (`trace["node_sizes"]`), largest kept
families per separator size (`trace["max_family_by_k"]`), the members
before and after each trim on inputs with n <= 10, so on every input of
`extension-heavy` (`trace["trims"]`, each list sorted),
decompositions (`bd.to_json()`) and their walks (`bd.post_order`, and
`bd.parent` and `bd.below` as (node, value) lists in their dicts' order),
and, on every connected input with
n >= 2, every prime of `split_decompose(g)` (its vertices and
edges, in order: edge order sets the fresh ids of `contract_heavy_edges`),
every `dec.tot(i, v)`, every prime's `LiftedContext.weights` and whether
`dec.recompose()` equals the input, so that a comparison also checks the
walk of the tree of primes;
it lists every difference
(with both sm-widths where the decompositions differ), and exits 1 on
any.  A node_sizes difference says at how many nodes the family grew; a
witness difference says whether the new witness is a Hamiltonian cycle
of the input, by `workloads.is_spanning_cycle`.  Each workload's summary
line also counts the inputs that differ only in witness, trims or `smhc
hc` output, the fields a change of tie order may move.

Usage: python3 scripts/same_answers.py --parent PATH [--tree PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import types
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_cli(g, decomposition: dict | None, work: Path) -> list:
    """Exit code and standard output of `smhc hc` on g, from the `smhc` on
    the path."""
    from smhc.cli import main
    from smhc.graph import format_edge_list

    argv = ["hc", str(work / "g.txt")]
    (work / "g.txt").write_text(format_edge_list(g))
    if decomposition is not None:
        (work / "d.json").write_text(json.dumps(decomposition))
        argv += ["--decomposition", str(work / "d.json")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return [code, out.getvalue()]


def solve_all(inputs: list[dict], work: Path) -> list[dict]:
    """Verdict, witness, `smhc hc` exit code and output (solved inputs),
    node sizes, largest kept families, the members before and after each
    trim (n <= 10), decomposition and its walk, and the primes (vertices and edges, in
    order), tots, weights and recompose result of the split decomposition
    of each input, from the `smhc` on the path."""
    from smhc.branchdec import BranchDecomposition
    from smhc.cuts import sm_cut_function
    from smhc.graph import Graph
    from smhc.pipeline import approx_sm_decomposition
    from smhc.solver import solve_hc
    from smhc.splitdec import LiftedContext, split_decompose

    out = []
    for inp in inputs:
        g = Graph(range(inp["n"]), [tuple(e) for e in inp["edges"]])
        trace: dict = {"node_sizes": [], "max_family_by_k": {}}
        if g.n <= 10:
            trace["trims"] = []
        bd = primes = tots = weights = recomposed = None
        verdict, witness = False, None
        if g.n >= 2 and g.is_connected():
            dec = split_decompose(g)
            primes = [[list(p.vertices), [list(e) for e in p.edges]] for p in dec.primes]
            tots = [[dec.tot(i, v) for v in p.vertices] for i, p in enumerate(dec.primes)]
            weights = [sorted(LiftedContext(dec, i).weights.items())
                       for i in range(len(dec.primes))]
            recomposed = dec.recompose() == g
        if g.n >= 3 and g.is_connected():
            if inp["decomposition"] is not None:
                bd = BranchDecomposition.from_json(inp["decomposition"])
            else:
                bd = approx_sm_decomposition(g)
            if inp["solve"]:
                verdict, witness = solve_hc(g, bd, trace=trace)
        out.append({"verdict": verdict,
                    "witness": [list(e) for e in witness] if witness else None,
                    "cli": run_cli(g, inp["decomposition"], work) if inp["solve"] else None,
                    "node_sizes": trace["node_sizes"],
                    "max_family_by_k": {str(k): v for k, v in
                                        sorted(trace["max_family_by_k"].items())},
                    "trims": [[a, sorted(before), sorted(after)]
                              for a, before, after in trace.get("trims", [])],
                    "decomposition": bd.to_json() if bd else None,
                    "walk": [bd.post_order, list(bd.parent.items()),
                             list(bd.below.items())] if bd else None,
                    "primes": primes,
                    "tots": tots,
                    "weights": weights,
                    "recompose": recomposed,
                    "sm_width": bd.f_width(sm_cut_function(g)) if bd else None})
    return out


def corpora() -> dict[str, list[dict]]:
    """The inputs of every workload, in a fixed order (seed 0), and the
    five fixed groups."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "benchmark"))
    import smhc.generators
    import workloads
    from smhc.graph import cycle_graph

    smhc_ns = types.SimpleNamespace(generators=smhc.generators)
    out = {name: [{"label": inp.label, "n": inp.n, "edges": inp.edges,
                   "decomposition": inp.decomposition, "solve": True}
                  for inp in workloads.order(name, 0, smhc_ns)]
           for name in workloads.CORPORA}
    rng = random.Random(2015)
    out["extension-heavy"] = [
        {"label": f"random-n{n}-p{p}-{i}", "n": n,
         "edges": [list(e) for e in smhc.generators.random_connected_graph(n, rng, p).edges],
         "decomposition": None, "solve": True}
        for n in (8, 9, 10) for p in (0.25, 0.4, 0.55, 0.7) for i in range(12)]
    rng = random.Random(1)
    out["stream"] = [
        {"label": f"p0.3-stream-n{n}", "n": n,
         "edges": [list(e) for e in smhc.generators.random_connected_graph(n, rng, 0.3).edges],
         "decomposition": None, "solve": True}
        for n in range(10, 21)]
    rng = random.Random(2016)
    out["twin-large"] = [
        {"label": f"K{n}", "n": n, "edges": [list(e) for e in combinations(range(n), 2)],
         "decomposition": None, "solve": True} for n in range(15, 25)]
    out["twin-large"] += [
        {"label": f"cograph-n{n}-{i}", "n": n,
         "edges": [list(e) for e in workloads.random_cograph(n, rng)],
         "decomposition": None, "solve": True}
        for n in range(13, 17) for i in range(6)]
    rng = random.Random(2017)
    out["caterpillar"] = []
    for n in range(6, 13):
        for p in (0.3, 0.45, 0.6, 0.75):
            for i in range(3):
                g = smhc.generators.random_connected_graph(n, rng, p)
                order = list(g.vertices)
                rng.shuffle(order)
                out["caterpillar"].append(
                    {"label": f"random-n{n}-p{p}-{i}", "n": n,
                     "edges": [list(e) for e in g.edges],
                     "decomposition": smhc.generators.caterpillar_decomposition(order).to_json(),
                     "solve": True})
    rng = random.Random(2014)
    graphs = [(f"random-n{n}-p{p}-{i}", n,
               smhc.generators.random_connected_graph(n, rng, p).edges)
              for n in range(3, 15) for p in (0.25, 0.4, 0.55, 0.7) for i in range(8)]
    graphs += [(f"C{n}", n, cycle_graph(n).edges) for n in range(13, 17)]
    graphs += [(f"cograph-n{n}-{i}", n, workloads.random_cograph(n, rng))
               for n in range(9, 13) for i in range(8)]
    for a, b in ((12, 5), (13, 8), (14, 11), (16, 6)):  # primes of a + 1 and b + 1
        edges = [(i, i + 1) for i in range(a + b - 1) if i != a - 1]
        graphs.append((f"paths-{a}-{b}", a + b,
                       edges + [(u, v) for u in (0, a - 1) for v in (a, a + b - 1)]))
    for i in range(4):
        big = smhc.generators.random_connected_graph(13, rng, 0.3).edges
        small = smhc.generators.random_connected_graph(6, rng, 0.5).edges
        graphs.append((f"mixed-13-6-{i}", 19, list(big) + [(u + 13, v + 13) for u, v in small]
                       + [(u, v) for u in (0, 1) for v in (13, 14)]))
    graphs += [("C40", 40, cycle_graph(40).edges), ("K40", 40, list(combinations(range(40), 2)))]
    rng = random.Random(3)
    graphs += [(f"random-n{n}-p{p}", n, smhc.generators.random_connected_graph(n, rng, p).edges)
               for n in (38, 41, 44, 48) for p in (0.1, 0.15, 0.3)]
    out["greedy-heavy"] = [{"label": label, "n": n, "edges": [list(e) for e in edges],
                            "decomposition": None, "solve": False}
                           for label, n, edges in graphs]
    return out


def run_tree(tree: Path, payload: dict[str, list[dict]]) -> dict[str, list[dict]]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, __file__, "--solve"], env=env,
                          input=json.dumps(payload), stdout=subprocess.PIPE,
                          text=True, check=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="the tree to compare against")
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="the tree under test (default: this checkout)")
    parser.add_argument("--solve", action="store_true",
                        help="internal: solve the inputs on stdin")
    args = parser.parse_args(argv)
    if args.solve:
        payload = json.load(sys.stdin)
        with tempfile.TemporaryDirectory() as work:
            result = {w: solve_all(inputs, Path(work)) for w, inputs in payload.items()}
        json.dump(result, sys.stdout)
        return 0
    if args.parent is None:
        parser.error("--parent is required")
    payload = corpora()
    import workloads  # on the path from `corpora`

    before = run_tree(args.parent.resolve(), payload)
    after = run_tree(args.tree.resolve(), payload)
    differences = 0
    for workload, inputs in payload.items():
        same = minor = 0
        for inp, old, new in zip(inputs, before[workload], after[workload]):
            if old == new:
                same += 1
                continue
            differences += 1
            fields = [k for k in ("verdict", "witness", "node_sizes", "max_family_by_k",
                                  "trims", "decomposition", "walk", "primes", "tots",
                                  "weights", "recompose")
                      if old[k] != new[k]]
            if old["cli"] != new["cli"]:  # the exit code, or else only the output
                fields.insert(2, "exit code" if old["cli"][0] != new["cli"][0] else "hc output")
            minor += set(fields) <= {"witness", "trims", "hc output"}
            line = f"  {inp['label']}: {', '.join(fields)} differ"
            if "node_sizes" in fields:
                line += (f" (family sum {sum(old['node_sizes'])} -> "
                         f"{sum(new['node_sizes'])}")
                if len(old["node_sizes"]) == len(new["node_sizes"]):
                    larger = sum(y > x for x, y in zip(old["node_sizes"], new["node_sizes"]))
                    line += f", larger at {larger} nodes"
                line += ")"
            if "decomposition" in fields:
                line += f" (sm-width {old['sm_width']} -> {new['sm_width']})"
            if "witness" in fields:
                line += ("; new witness is a Hamiltonian cycle"
                         if new["witness"] is not None and workloads.is_spanning_cycle(
                             inp["n"], {tuple(sorted(e)) for e in inp["edges"]},
                             [tuple(e) for e in new["witness"]])
                         else "; NEW WITNESS IS NO HAMILTONIAN CYCLE")
            print(line)
        compared = ("verdicts, witnesses, smhc hc exit codes and output, node_sizes, "
                    "max_family_by_k, trims (before and after), " if inputs[0]["solve"]
                    else "") + ("decompositions, walks, primes, tots, weights and "
                                "recompose results")
        print(f"{workload}: {same}/{len(inputs)} inputs with identical {compared}; "
              f"{minor} differ only in witness, trims or hc output")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
