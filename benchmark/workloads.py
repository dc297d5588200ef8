"""The benchmark's workloads: the graphs sent to `smhc hc` and their references.

Every workload is a fixed corpus of graphs in size classes (see `CORPORA`).
`order(workload, seed)` shuffles each class with the benchmark's `--seed`
and sends the classes round-robin, so any prefix of a pass is balanced
across them.  The seed does not relabel vertices: the solver's time depends
strongly on the vertex numbering (one 12-vertex cograph took from 0.2 s to
15 s over three relabelings), so relabeling would make the spread between
seeds measure the numbering rather than the program.

A verdict is checked against a reference the solver does not compute:
`smhc.oracles.brute_hc` (Held-Karp) for graphs of at most 16 vertices, the
grid theorem (a k x c grid with k, c >= 2 is Hamiltonian iff k*c is even),
and K_n (Hamiltonian for n >= 3).  A printed witness is checked with
`is_spanning_cycle` below, not with the solver's own check.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

BRUTE_LIMIT = 16


@dataclass
class Input:
    """One graph as written to disk, with how its reference is obtained."""

    label: str
    n: int
    edges: list[tuple[int, int]]
    reference: str  # "brute", "grid" or "complete"
    shape: tuple[int, int] | None = None  # grid rows and columns
    decomposition: dict | None = None  # JSON passed via --decomposition

    def write(self, directory: Path, index: int) -> list[str]:
        """Write the edge list (and decomposition); return the `smhc` argv."""
        graph_path = directory / f"{index:04d}.txt"
        lines = [f"{self.n} {len(self.edges)}"]
        lines += [f"{u} {v}" for u, v in self.edges]
        graph_path.write_text("\n".join(lines) + "\n")
        argv = ["hc", str(graph_path)]
        if self.decomposition is not None:
            dec_path = directory / f"{index:04d}.json"
            dec_path.write_text(json.dumps(self.decomposition))
            argv += ["--decomposition", str(dec_path)]
        return argv


def sweep_small(smhc) -> list[list[Input]]:
    """The first 100 graphs per size n = 4..8 of the acceptance sweep corpus."""
    rng = random.Random(20260825)
    classes = []
    for n in (4, 5, 6, 7, 8):
        drawn = [smhc.generators.random_connected_graph(n, rng) for _ in range(500)]
        classes.append([Input(f"sweep-n{n}-{i:03d}", n, list(g.edges), "brute")
                        for i, g in enumerate(drawn[:100])])
    return classes


GRID_ROWS = (2, 3, 4, 5)
GRID_SIZES = (40, 80)


def grid_long(smhc) -> list[list[Input]]:
    """k-row grids, k = 2..5, n close to 40 and 80, with caterpillar decompositions.

    Vertex ids are column-major, so the caterpillar's prefix cuts are the
    column cuts, of matching size k.
    """
    classes = []
    for target in GRID_SIZES:
        cls = []
        for k in GRID_ROWS:
            cols = round(target / k)
            g = smhc.generators.grid_graph(k, cols)
            bd = smhc.generators.caterpillar_decomposition(list(g.vertices))
            cls.append(Input(f"grid-{k}x{cols}", g.n, list(g.edges), "grid",
                             shape=(k, cols), decomposition=bd.to_json()))
        classes.append(cls)
    return classes


CLIQUE_SIZES = (10, 11, 12, 13, 14)
COGRAPH_SIZES = (9, 10, 11, 12)
COGRAPHS_PER_SIZE = 2


def random_cograph(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of a connected cograph on 0..n-1 from a random cotree.

    The root is a join, so the graph is connected; below it each cotree
    node is a join or a disjoint union with equal odds.
    """
    edges: list[tuple[int, int]] = []

    def build(vs: list[int], join: bool) -> None:
        if len(vs) == 1:
            return
        cut = rng.randint(1, len(vs) - 1)
        left, right = vs[:cut], vs[cut:]
        if join:
            edges.extend((u, v) for u in left for v in right)
        build(left, rng.random() < 0.5)
        build(right, rng.random() < 0.5)

    build(list(range(n)), True)
    return sorted(edges)


def clique_split(smhc) -> list[list[Input]]:
    """K10..K14 and seeded random connected cographs with n = 9..12."""
    rng = random.Random(1411)
    cliques = [Input(f"K{n}", n, list(combinations(range(n), 2)), "complete")
               for n in CLIQUE_SIZES]
    cographs = [Input(f"cograph-n{n}-{i}", n, random_cograph(n, rng), "brute")
                for n in COGRAPH_SIZES for i in range(COGRAPHS_PER_SIZE)]
    return [cliques, cographs]


CORPORA = {
    "sweep-small": sweep_small,
    "grid-long": grid_long,
    "clique-split": clique_split,
}


def order(workload: str, seed: int, smhc) -> list[Input]:
    """The workload's corpus in the send order of `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    classes = CORPORA[workload](smhc)
    for cls in classes:
        rng.shuffle(cls)
    out = []
    for i in range(max(len(c) for c in classes)):
        out += [c[i] for c in classes if i < len(c)]
    return out


# -- references ---------------------------------------------------------------

def reference_verdict(inp: Input, smhc) -> bool:
    """Whether the input graph is Hamiltonian, by a method outside the solver."""
    if inp.reference == "complete":
        return inp.n >= 3
    if inp.reference == "grid":
        rows, cols = inp.shape
        return rows >= 2 and cols >= 2 and rows * cols % 2 == 0
    if inp.n > BRUTE_LIMIT:
        raise ValueError(f"{inp.label}: no reference above {BRUTE_LIMIT} vertices")
    g = smhc.graph.Graph(range(inp.n), inp.edges)
    return smhc.oracles.brute_hc(g)[0]


def is_spanning_cycle(n: int, edges: set[tuple[int, int]],
                      cycle: list[tuple[int, int]]) -> bool:
    """Whether `cycle` is n distinct graph edges forming one cycle through all n vertices."""
    if n < 3 or len(cycle) != n:
        return False
    nbrs: dict[int, list[int]] = {v: [] for v in range(n)}
    used = set()
    for u, v in cycle:
        e = (min(u, v), max(u, v))
        if e not in edges or e in used:
            return False
        used.add(e)
        nbrs[u].append(v)
        nbrs[v].append(u)
    if any(len(vs) != 2 for vs in nbrs.values()):
        return False
    prev, cur, steps = None, 0, 0
    while True:
        a, b = nbrs[cur]
        prev, cur = cur, (b if a == prev else a)
        steps += 1
        if cur == 0:
            return steps == n


def check_output(inp: Input, edge_set: set, expected: bool, code, text: str) -> str | None:
    """None when the call's exit code and output are right, else the reason."""
    lines = text.splitlines()
    if code == 1:
        if lines != ["NOT HAMILTONIAN"]:
            return "malformed NOT HAMILTONIAN output"
        return "wrong verdict" if expected else None
    if code != 0:
        return f"exit code {code}"
    if len(lines) != 2 or lines[0] != "HAMILTONIAN":
        return "malformed HAMILTONIAN output"
    if not expected:
        return "wrong verdict"
    try:
        cycle = [tuple(int(x) for x in tok.split("-")) for tok in lines[1].split()]
    except ValueError:
        return "unparsable witness"
    if any(len(e) != 2 for e in cycle) or not is_spanning_cycle(inp.n, edge_set, cycle):
        return "unverified witness"
    return None
