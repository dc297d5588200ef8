import importlib.util
import json
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import smhc
from smhc import cli, oracles, solver
from smhc.generators import caterpillar_decomposition, random_connected_graph
from smhc.graph import (Graph, cycle_graph, complete_graph, path_graph, petersen_graph,
                        format_edge_list, parse_edge_list)
from smhc.cli import main, EXIT_OK, EXIT_NO, EXIT_PARSE, EXIT_REFUSED
from tests.conftest import atlas_connected


def write_graph(tmp_path, g, name="g.txt"):
    p = tmp_path / name
    p.write_text(format_edge_list(g))
    return str(p)


def test_hc_yes(tmp_path, capsys):
    f = write_graph(tmp_path, cycle_graph(6))
    assert main(["hc", f]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "HAMILTONIAN"
    assert "-" in out.splitlines()[1]  # witness edges


def test_hc_no(tmp_path, capsys):
    f = write_graph(tmp_path, petersen_graph())
    assert main(["hc", f]) == EXIT_NO
    assert capsys.readouterr().out.strip() == "NOT HAMILTONIAN"


def test_hc_with_supplied_decomposition(tmp_path, capsys):
    g = cycle_graph(5)
    f = write_graph(tmp_path, g)
    d = tmp_path / "bd.json"
    d.write_text(json.dumps(caterpillar_decomposition(list(g.vertices)).to_json()))
    assert main(["hc", f, "--decomposition", str(d)]) == EXIT_OK
    assert "HAMILTONIAN" in capsys.readouterr().out


@pytest.mark.parametrize("g", [cycle_graph(6), complete_graph(5), petersen_graph()])
def test_hc_reads_decompose_output(tmp_path, capsys, g):
    """`smhc decompose g.txt > d.json`, then `smhc hc g.txt --decomposition
    d.json`, exits and prints as plain `smhc hc g.txt` does."""
    f = write_graph(tmp_path, g)
    assert main(["decompose", f]) == EXIT_OK
    d = tmp_path / "d.json"
    d.write_text(capsys.readouterr().out)
    plain = main(["hc", f]), capsys.readouterr().out
    assert (main(["hc", f, "--decomposition", str(d)]), capsys.readouterr().out) == plain


BOWTIE = Graph(range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])  # cut vertex 2


@pytest.mark.parametrize("bad", ["{}", "[]", "5", '{"edges": 5, "leaf_map": {}}',
                                 '{"edges": [[0, 1]], "leaf_map": []}',
                                 '{"edges": [1], "leaf_map": {"1": 0}}',
                                 json.dumps({"edges": [[u, v] for u in range(10, 14)
                                                       for v in range(u + 1, 14)],
                                             "leaf_map": {"0": 0, "1": 1, "2": 2}}),
                                 json.dumps(caterpillar_decomposition([0, 1, 2]).to_json()),
                                 json.dumps({**caterpillar_decomposition(range(5)).to_json(),
                                             "leaf_map": {"5": False, "6": True, "7": 2,
                                                          "8": 3, "9": 4}}),
                                 json.dumps({"edges": [], "leaf_map": {"0": 10 ** 20}}),
                                 json.dumps(caterpillar_decomposition([0, 1, 2, 3, 5]).to_json())])
def test_hc_malformed_decomposition_exits_two(tmp_path, capsys, bad):
    """A malformed decomposition, or one whose leaves are not the graph's
    vertices, exits 2 whatever the graph: also where the graph alone is
    answered before decomposing (disconnected, or with a cut vertex).  A
    leaf vertex written as a boolean is malformed, though Python reads
    false and true as 0 and 1.  A leaf far past the graph's vertices
    (10^20, whose shift Python refuses) exits 2 too, as does one just past
    the last vertex of C5 and of the bowtie."""
    d = tmp_path / "bd.json"
    d.write_text(bad)
    for g in (cycle_graph(5), Graph(range(4), [(0, 1), (2, 3)]), BOWTIE):
        f = write_graph(tmp_path, g)
        assert main(["hc", f, "--decomposition", str(d)]) == EXIT_PARSE, g.edges
        out, err = capsys.readouterr()
        assert not out and err.startswith("error:")


@pytest.mark.parametrize("g", [BOWTIE, path_graph(1200)])
def test_hc_cut_vertex_answered_before_decomposing(tmp_path, capsys, monkeypatch, g):
    def never(*args, **kwargs):
        raise AssertionError("a graph with a cut vertex reached the pipeline")

    monkeypatch.setattr("smhc.cli.approx_sm_decomposition", never)
    monkeypatch.setattr("smhc.cli.solve_hc", never)
    assert main(["hc", write_graph(tmp_path, g)]) == EXIT_NO
    assert capsys.readouterr().out == "NOT HAMILTONIAN\n"


def test_hc_two_connected_non_hamiltonian_is_solved(tmp_path, capsys, monkeypatch):
    """The Petersen graph is 2-connected, so its NO comes from the pipeline
    and the solver, each called once."""
    calls = []

    def counted(fn):
        def call(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return call

    for name in ("approx_sm_decomposition", "solve_hc"):
        monkeypatch.setattr(cli, name, counted(getattr(cli, name)))
    assert main(["hc", write_graph(tmp_path, petersen_graph())]) == EXIT_NO
    assert capsys.readouterr().out == "NOT HAMILTONIAN\n"
    assert calls == ["approx_sm_decomposition", "solve_hc"]


def test_graphs_with_a_cut_vertex_are_not_hamiltonian():
    """The early verdict's premise, on every connected graph of 3..7
    vertices up to isomorphism, against the Held-Karp oracle."""
    cut = [g for g in atlas_connected(3, 7) if not g.is_biconnected()]
    assert len(cut) > 400
    assert not any(oracles.brute_hc(g)[0] for g in cut)


@pytest.mark.parametrize("exc", [MemoryError, RecursionError])
def test_hc_exhausted_resources_refused(tmp_path, capsys, monkeypatch, exc):
    """Running out of memory or stack is no NOT HAMILTONIAN verdict."""
    def exhausted(g, bd, trace=None):
        raise exc()

    monkeypatch.setattr("smhc.cli.solve_hc", exhausted)
    assert main(["hc", write_graph(tmp_path, cycle_graph(5))]) == EXIT_REFUSED
    out, err = capsys.readouterr()
    assert not out and err.startswith("refused:") and "Traceback" not in err


def test_width_exact_c5(tmp_path, capsys):
    f = write_graph(tmp_path, cycle_graph(5), "c5.txt")
    assert main(["width", f, "--exact"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "sm-width 2"


def test_width_approx(tmp_path, capsys):
    f = write_graph(tmp_path, complete_graph(6))
    assert main(["width", f, "--approx"]) == EXIT_OK
    out = capsys.readouterr().out.strip()
    assert out.startswith("sm-width ")
    assert int(out.split()[1]) >= 1


def test_width_approx_says_whether_certified(tmp_path, capsys):
    """The 18x bound is certified only when every prime has at most 12
    vertices, so that every prime's search was exact."""
    for g, certified in [(complete_graph(6), "yes"), (cycle_graph(12), "yes"),
                         (cycle_graph(13), "no")]:  # a cycle is one prime
        assert main(["width", write_graph(tmp_path, g), "--approx"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("sm-width ")
        assert lines[1:] == [f"certified: {certified}"]
    assert main(["width", write_graph(tmp_path, cycle_graph(5)), "--exact"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["sm-width 2"]


def test_width_approx_decomposes_once(tmp_path, capsys, monkeypatch):
    """The certified line comes from the pipeline's own run, not a second
    split decomposition."""
    from smhc.splitdec import split_decompose

    calls = []

    def counted(g):
        calls.append(g.n)
        return split_decompose(g)

    for name in ("smhc.cli.split_decompose", "smhc.pipeline.split_decompose"):
        monkeypatch.setattr(name, counted)
    assert main(["width", write_graph(tmp_path, cycle_graph(13)), "--approx"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1] == "certified: no"
    assert calls == [13]


def test_empty_graph_gets_one_error(tmp_path, capsys):
    """`width --exact`, `width --approx` and `decompose` exit 2 on the
    empty graph with one error line, which names the empty graph."""
    p = tmp_path / "empty.txt"
    p.write_text("0 0\n")
    for argv in (["width", str(p), "--exact"], ["width", str(p), "--approx"],
                 ["decompose", str(p)]):
        assert main(argv) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert not out
        assert err == "error: empty graph: a decomposition needs at least one vertex\n"


def test_one_vertex_width_and_decomposition_agree(tmp_path, capsys):
    """On one vertex, `width --exact`, `width --approx` and `decompose`
    all exit 0 with sm-width 0: the decomposition is one leaf, certified,
    with no cut."""
    p = tmp_path / "one.txt"
    p.write_text("1 0\n")
    assert main(["width", str(p), "--exact"]) == EXIT_OK
    assert capsys.readouterr().out == "sm-width 0\n"
    assert main(["width", str(p), "--approx"]) == EXIT_OK
    assert capsys.readouterr().out == "sm-width 0\ncertified: yes\n"
    assert main(["decompose", str(p)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["width"] == 0 and report["width_certificate"] == []
    assert report["decomposition"] == {"nodes": [0], "edges": [], "leaf_map": {"0": 0}}


def test_benchmark_layer_hooks_find_their_targets(tmp_path, capsys):
    """The per-layer hooks of `benchmark/layers.py`, installed on `smhc`
    around one `smhc hc` call, leave its verdict and witness as they are,
    miss no target beyond the two they already miss, and see every layer
    on the solver's path called, the trims' included; `uninstall`
    restores every hooked name."""
    spec = importlib.util.spec_from_file_location(
        "layers", Path(__file__).resolve().parent.parent / "benchmark" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    f = write_graph(tmp_path, random_connected_graph(8, random.Random(0), 0.5))
    plain = main(["hc", f]), capsys.readouterr().out
    real_trim = solver.trim
    tracer = layers.Tracer()
    patches, missing = layers.install(tracer, smhc)
    try:
        traced = main(["hc", f]), capsys.readouterr().out
    finally:
        layers.uninstall(patches)
    assert traced == plain and plain[0] == EXIT_OK
    assert set(missing) <= {"smhc.cuts.CutFunction", "smhc.repsets.representative_forests"}
    assert solver.trim is real_trim
    for span in ("graph.parse", "splitdec.decompose", "pipeline", "branchdec.search",
                 "cuts.mm", "cuts.cover", "solver", "solver.trim_split",
                 "repsets.extension", "repsets.torso_trim", "repsets.hc_sets"):
        assert tracer.calls[span], span
    assert tracer.counts["solver.trim_in"] and tracer.counts["repsets.hc_sets_in"]


def test_width_exact_refuses_large(tmp_path, capsys):
    f = write_graph(tmp_path, cycle_graph(13))
    assert main(["width", f, "--exact"]) == EXIT_REFUSED


def test_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("this is not a graph\n")
    assert main(["hc", str(p)]) == EXIT_PARSE
    p.write_text("-3 0\n")  # a negative vertex count is no empty graph
    assert main(["hc", str(p)]) == EXIT_PARSE
    assert main(["hc", str(tmp_path / "missing.txt")]) == EXIT_PARSE


def test_unknown_flag_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["width", "x.txt", "--bogus"])
    assert exc.value.code == 2


def test_decompose_json(tmp_path, capsys):
    f = write_graph(tmp_path, cycle_graph(6))
    assert main(["decompose", f]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert {"width", "width_certificate", "decomposition"} <= set(data)
    assert all("cut" in c and "sm" in c for c in data["width_certificate"])


def test_verify_output(tmp_path, capsys):
    f = write_graph(tmp_path, cycle_graph(6))
    assert main(["verify", f]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ok: solver agrees with the oracle (hamiltonian=True)" in out
    assert "trims preserve completability" in out or "ok:" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("text, why", [("0 0\n", "fewer than 2 vertices"),
                                       ("1 0\n", "fewer than 2 vertices"),
                                       ("4 2\n0 1\n2 3\n", "a disconnected graph")])
def test_verify_says_when_it_skips(tmp_path, capsys, text, why):
    p = tmp_path / "g.txt"
    p.write_text(text)
    assert main(["verify", str(p)]) == EXIT_OK
    assert capsys.readouterr().out == f"skipped: no check applies to {why}\n"


def test_verify_refuses_large(tmp_path, capsys):
    f = write_graph(tmp_path, cycle_graph(16))
    assert main(["verify", f]) == EXIT_REFUSED
    out = capsys.readouterr().out
    assert "refused" in out and "FAIL" not in out


@pytest.mark.parametrize("n, checked", [(8, "ok: solver agrees"), (15, "refused:")])
def test_verify_reports_recomposition_failure(tmp_path, capsys, monkeypatch, n, checked):
    """A split decomposition that does not recompose to the input fails
    `verify` with exit 1, on inputs the sweep checks and on those it
    refuses alike."""
    class Broken:
        def recompose(self):
            return cycle_graph(3)

    monkeypatch.setattr(cli, "split_decompose", lambda g: Broken())
    f = write_graph(tmp_path, cycle_graph(n))
    assert main(["verify", f]) == EXIT_NO
    out = capsys.readouterr().out
    assert checked in out
    assert "FAIL: recomposition mismatch" in out.splitlines()


def test_bench_csv_shape(tmp_path, capsys):
    assert main(["--seed", "3", "bench", "--n", "6,7", "--samples", "2"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,seed,smw_exact,smw_approx,max_family,millis"
    assert len(lines) == 1 + 2 * 2
    for row in lines[1:]:
        n, seed, exact, approx, fam, millis = row.split(",")
        assert int(n) in (6, 7) and int(seed) in (3, 4)
        assert int(exact) >= 1 and int(approx) >= int(exact)
        assert int(fam) >= 1 and int(millis) >= 0


def test_parser_reuse_leaks_no_flag(capsys):
    """The parser is built once per process; each call starts from the defaults."""
    seeds = []
    for argv in (["--seed", "3", "bench", "--n", "6"], ["bench", "--n", "6"]):
        assert main(argv) == EXIT_OK
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        seeds.append([row.split(",")[1] for row in rows])
    assert seeds == [["3"], ["0"]]


def test_bench_grid_family(tmp_path, capsys):
    assert main(["bench", "--family", "grid", "--n", "8", "--k", "2"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "8"


@pytest.mark.parametrize("ks", [None, "0", "-2", "2,0"])
def test_bench_grid_family_needs_positive_k(ks, capsys):
    """A grid family without --k, or with a cut size below 1, exits 2 with
    an error naming --k, before any row: not 1, the NOT HAMILTONIAN code."""
    argv = ["bench", "--family", "grid", "--n", "10"] + (["--k", ks] if ks else [])
    assert main(argv) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--k" in captured.err


def test_bench_graphs_below_three_vertices(capsys):
    """Graphs with n < 3 get a row with max_family 0, like solve_hc's trace
    of any graph it answers before the DP."""
    assert main(["bench", "--n", "1,2", "--samples", "2"]) == EXIT_OK
    rows = [row.split(",") for row in capsys.readouterr().out.strip().splitlines()[1:]]
    assert [(n, seed, fam) for n, seed, _, _, fam, _ in rows] == \
        [("1", "0", "0"), ("1", "1", "0"), ("2", "0", "0"), ("2", "1", "0")]
    for g in (path_graph(2), Graph(range(4), [(0, 1), (2, 3)])):
        trace = {}
        assert solver.solve_hc(g, caterpillar_decomposition(list(g.vertices)), trace) == (False, None)
        assert trace == {"node_sizes": [], "max_family": 0}


def test_bench_random_family_ignores_k(capsys):
    """Only the grid family reads --k: a random family with a --k list
    draws and solves each (n, seed) once, as it does without --k."""
    strip = lambda out: [row.rsplit(",", 1)[0] for row in out.splitlines()]
    assert main(["bench", "--n", "6,7", "--k", "2,3", "--samples", "2"]) == EXIT_OK
    with_k = strip(capsys.readouterr().out)
    assert main(["bench", "--n", "6,7", "--samples", "2"]) == EXIT_OK
    assert with_k == strip(capsys.readouterr().out)
    assert len(with_k) == 1 + 2 * 2


@pytest.mark.parametrize("ns", ["0", "-1", "6,0"])
def test_bench_random_family_needs_positive_n(ns, capsys):
    """A random family with a size below 1 exits 2 with an error naming
    --n, before the header: standard output stays empty."""
    assert main(["bench", "--n", ns]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--n" in captured.err


@pytest.mark.parametrize("family", ["random", "grid"])
@pytest.mark.parametrize("samples", ["0", "-2"])
def test_bench_needs_positive_samples(family, samples, capsys):
    """A --samples below 1 exits 2 with an error naming --samples, before
    the header, for either family: it does not print a header alone."""
    argv = ["bench", "--family", family, "--n", "6", "--k", "2", "--samples", samples]
    assert main(argv) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--samples" in captured.err


@pytest.mark.parametrize("ns", ["0", "-1", "0,3", "3,0"])
def test_bench_grid_family_needs_positive_n(ns, capsys):
    """A grid family with a size below 1 exits 2 with an error naming --n,
    before the header, as the random family does: it does not draw the
    2-column grid that such a size rounds to."""
    assert main(["bench", "--family", "grid", "--n", ns, "--k", "2"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--n" in captured.err


def test_seed_placement_both_sides(tmp_path, capsys):
    f = write_graph(tmp_path, cycle_graph(5))
    assert main(["--seed", "7", "hc", f]) == EXIT_OK
    capsys.readouterr()
    assert main(["hc", f, "--seed", "7"]) == EXIT_OK


def test_deterministic_output(tmp_path, capsys):
    f = write_graph(tmp_path, complete_graph(6))
    main(["decompose", f])
    first = capsys.readouterr().out
    main(["decompose", f])
    assert capsys.readouterr().out == first
    args = ["--seed", "5", "bench", "--n", "6", "--samples", "2"]
    main(args)
    b1 = capsys.readouterr().out
    main(args)
    b2 = capsys.readouterr().out
    # timing column may vary; everything else must be byte-identical
    strip = lambda s: [r.rsplit(",", 1)[0] for r in s.splitlines()]
    assert strip(b1) == strip(b2)


@st.composite
def edge_list_texts(draw):
    """Edge-list text of a graph on at most 10 vertices, sometimes with one
    line dropped, repeated or replaced by a short token string."""
    n = draw(st.integers(0, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, kept in zip(pairs, keep) if kept]
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    i = draw(st.integers(0, len(lines) - 1))
    fault = draw(st.sampled_from(["none"] * 3 + ["drop", "repeat", "replace"]))
    if fault == "drop":
        del lines[i]
    elif fault == "repeat":
        lines.insert(i, lines[i])
    elif fault == "replace":  # at most three characters: no huge vertex count
        lines[i] = draw(st.text("0123456789 -#x", max_size=3))
    return "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=edge_list_texts())
def test_hc_fuzz_agrees_with_oracle(tmp_path, capsys, text):
    """`smhc hc` exits 0, 1 or 2 without a traceback; a verdict agrees with
    the Held-Karp oracle, and a printed witness is a Hamiltonian cycle."""
    path = tmp_path / "fuzz.txt"
    path.write_text(text)
    code = main(["hc", str(path)])
    out, err = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_NO, EXIT_PARSE)
    assert "Traceback" not in out + err
    if code == EXIT_PARSE:
        assert err.startswith("error:") and not out
        return
    g = parse_edge_list(text)
    assert code == (EXIT_OK if oracles.brute_hc(g)[0] else EXIT_NO)
    if code == EXIT_NO:
        assert out == "NOT HAMILTONIAN\n"
        return
    verdict, witness = out.splitlines()
    assert verdict == "HAMILTONIAN"
    cycle = [tuple(map(int, e.split("-"))) for e in witness.split()]
    assert all(g.has_edge(u, v) for u, v in cycle)
    assert oracles._is_spanning_cycle(g, g.edge_mask(cycle))
