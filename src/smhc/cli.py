"""Command-line front end: decompose, width, hc, verify, bench."""

from __future__ import annotations

import argparse
import json
import sys
import time
import random

from .graph import Graph, parse_edge_list
from .cuts import sm_cut_function
from .branchdec import BranchDecomposition, SizeLimitExceeded
from .splitdec import split_decompose
from .pipeline import approx_sm_decomposition
from .solver import solve_hc
from . import oracles
from .generators import (caterpillar_decomposition, grid_graph,
                         random_connected_graph)

EXIT_OK = 0
EXIT_NO = 1
EXIT_PARSE = 2
EXIT_REFUSED = 3


def _load_graph(path: str) -> Graph:
    with open(path) as fh:
        return parse_edge_list(fh.read())


def _load_decomposition(path: str, g: Graph) -> BranchDecomposition:
    """The decomposition in the JSON file, bare or as `smhc decompose`
    prints it; raises ValueError unless its leaves are g's vertices."""
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "decomposition" in data:
        data = data["decomposition"]
    leaves = data.get("leaf_map") if isinstance(data, dict) else None  # before any vertex mask
    if isinstance(leaves, dict) and {v for v in leaves.values() if type(v) is int} - {*g.vertices}:
        raise ValueError("decomposition has a leaf that is not a vertex of the graph")
    bd = BranchDecomposition.from_json(data)
    if bd.elements != g.vmask:
        raise ValueError("decomposition does not cover the graph's vertices")
    return bd


def _decomposition_report(g: Graph, bd: BranchDecomposition) -> dict:
    smf = sm_cut_function(g)
    cert = []
    width = 0
    for a, _ in bd.cuts():
        val = smf(a)
        width = max(width, val)
        cert.append({"cut": sorted(v for v in g.vertices if (a >> v) & 1),
                     "sm": val})
    return {"width": width, "width_certificate": cert,
            "decomposition": bd.to_json()}


def cmd_decompose(args) -> int:
    g = _load_graph(args.file)
    bd = approx_sm_decomposition(g)
    print(json.dumps(_decomposition_report(g, bd), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_width(args) -> int:
    """Print the sm-width; --approx adds whether the 18x bound is certified,
    which it is when every prime has at most EXACT_SIZE_LIMIT vertices, so
    that each prime's decomposition search was exact."""
    g = _load_graph(args.file)
    if args.exact:
        print(f"sm-width {oracles.brute_sm_width(g)}")
        return EXIT_OK
    bd = approx_sm_decomposition(g)
    print(f"sm-width {bd.f_width(sm_cut_function(g))}")
    print(f"certified: {'yes' if bd.certified else 'no'}")
    return EXIT_OK


def cmd_hc(args) -> int:
    """Print HAMILTONIAN and a witness cycle (exit 0) or NOT HAMILTONIAN
    (exit 1).  A --decomposition file is read and checked first, so that
    malformed input exits 2 whatever the graph.  A graph with fewer than 3
    vertices, a disconnected graph and a graph with a cut vertex are
    answered NOT HAMILTONIAN before any decomposition is built: each is a
    certificate, as every Hamiltonian graph is 2-connected.  Every other
    graph is solved along the given decomposition, else along the one
    `approx_sm_decomposition` builds."""
    g = _load_graph(args.file)
    bd = _load_decomposition(args.decomposition, g) if args.decomposition else None
    if g.n < 3 or not g.is_biconnected():
        print("NOT HAMILTONIAN")
        return EXIT_NO
    ok, witness = solve_hc(g, bd or approx_sm_decomposition(g))
    if ok:
        print("HAMILTONIAN")
        print(" ".join(f"{u}-{v}" for u, v in witness))
        return EXIT_OK
    print("NOT HAMILTONIAN")
    return EXIT_NO


def cmd_verify(args) -> int:
    g = _load_graph(args.file)
    if g.n < 2 or not g.is_connected():
        why = "fewer than 2 vertices" if g.n < 2 else "a disconnected graph"
        print(f"skipped: no check applies to {why}")
        return EXIT_OK
    failures = []

    if split_decompose(g).recompose() == g:
        print("ok: split decomposition recomposes to the input")
    else:
        failures.append("recomposition mismatch")
    if g.n > 14:
        print("refused: input too large for the brute-force sweep")
        return _verdict(failures, EXIT_REFUSED)
    bd = approx_sm_decomposition(g)
    width = bd.f_width(sm_cut_function(g))
    if g.n <= oracles.BRUTE_WIDTH_LIMIT:
        exact = oracles.brute_sm_width(g)
        if width <= 18 * exact:
            print(f"ok: approx width {width} within 18x exact {exact}")
        else:
            failures.append(f"width {width} exceeds 18x exact {exact}")
    trace: dict = {"trims": []} if g.n <= 8 else {}
    got, witness = solve_hc(g, bd, trace=trace)
    want, _ = oracles.brute_hc(g)
    if got == want:
        print(f"ok: solver agrees with the oracle (hamiltonian={got})")
    else:
        failures.append(f"solver says {got}, oracle says {want}")
    if "trims" in trace:
        hcs = oracles.enumerate_hamiltonian_cycles(g)
        checks = [oracles.verify_preservation(g, a, before, after,
                                              method="cycles", hcs=hcs)
                  for a, before, after in trace["trims"]]
        if all(checks):
            print(f"ok: all {len(checks)} trims preserve completability")
        else:
            failures.append("a trim lost a completable certificate")
    return _verdict(failures, EXIT_OK)


def _verdict(failures: list[str], clean: int) -> int:
    for msg in failures:
        print(f"FAIL: {msg}")
    return EXIT_NO if failures else clean


def _bench_row(task) -> str:
    family, n, k, seed = task
    if family == "grid":
        g = grid_graph(k, max(2, round(n / k)))
    else:
        g = random_connected_graph(n, random.Random(f"bench-{n}-{seed}"))
    approx = approx_sm_decomposition(g)
    bd = caterpillar_decomposition(list(g.vertices)) if family == "grid" else approx
    try:
        smw_exact = oracles.brute_sm_width(g)
    except SizeLimitExceeded:
        smw_exact = -1
    smw_approx = approx.f_width(sm_cut_function(g))
    trace: dict = {}
    start = time.perf_counter()
    solve_hc(g, bd, trace=trace)
    millis = int((time.perf_counter() - start) * 1000)
    return f"{g.n},{seed},{smw_exact},{smw_approx},{trace['max_family']},{millis}"


def cmd_bench(args) -> int:
    ns = [int(x) for x in args.n.split(",")]
    ks = [int(x) for x in args.k.split(",")] if args.k else [0]
    if min(ns) < 1:
        raise ValueError(f"the {args.family} family needs --n, sizes of at least 1")
    if args.family == "grid" and min(ks) < 1:
        raise ValueError("the grid family needs --k, cut sizes of at least 1")
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    if args.family == "random":
        ks = [0]  # only the grid family reads k
    tasks = []
    for n in ns:
        for k in ks:
            for s in range(args.samples):
                tasks.append((args.family, n, k, args.seed + s))
    print("n,seed,smw_exact,smw_approx,max_family,millis")
    for task in tasks:
        print(_bench_row(task))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a pre-subcommand value from being reset to the default
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed of the random graphs drawn by bench")
    parser = argparse.ArgumentParser(
        prog="smhc",
        description="Hamiltonian cycles via split-matching-width decompositions")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the random graphs drawn by bench")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    p = sub.add_parser("decompose", help="emit an sm decomposition as JSON")
    p.add_argument("file")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("width", help="print the sm-width of the input")
    p.add_argument("file")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--approx", action="store_true")
    p.set_defaults(fn=cmd_width)

    p = sub.add_parser("hc", help="decide Hamiltonicity (exit 0 yes, 1 no)")
    p.add_argument("file")
    p.add_argument("--decomposition", help="JSON decomposition to use")
    p.set_defaults(fn=cmd_hc)

    p = sub.add_parser("verify", help="run the brute-force oracle sweep")
    p.add_argument("file")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="CSV benchmark sweep")
    p.add_argument("--n", required=True, help="comma-separated sizes")
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--k", help="comma-separated cut sizes (grid family)")
    p.add_argument("--family", choices=["random", "grid"], default="random")
    p.set_defaults(fn=cmd_bench)

    return parser


_parser: argparse.ArgumentParser | None = None  # built on the first call


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.fn(args)
    except SizeLimitExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (MemoryError, RecursionError) as exc:  # resources ran out: no verdict
        print(f"refused: input too large to finish ({type(exc).__name__})",
              file=sys.stderr)
        return EXIT_REFUSED
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
