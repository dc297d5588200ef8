"""Per-layer spans and counts, recorded from outside the program.

`install` replaces each layer's public functions under the name their caller
looks them up by (`smhc.solver.preserving_extension`,
`smhc.repsets.trim_separator`, ...), so the program runs unchanged and only
the traced run pays for the wrappers.  A span's self time is its duration
minus the time of the spans it encloses, so the self times of all layers
plus `cli.self_s` add up to the time spent in `smhc.cli.main`.  Counts come
from the `trace=`/`stats=` parameters of `solve_hc`, injected by the wrapper
of `smhc.cli.solve_hc`, and from argument and result sizes at the wrappers.

A hook whose target is missing is skipped and reported, so a program that
renames a function still runs; its metrics then read zero.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter

# (metric, unit) in report order; `_s` metrics are span self times.
METRICS = [
    ("graph.parse_s", "s"),
    ("splitdec.decompose_s", "s"),
    ("splitdec.primes", "count"),
    ("splitdec.max_prime_n", "count"),
    ("pipeline.self_s", "s"),
    ("pipeline.prime_calls", "count"),
    ("pipeline.k_too_small", "count"),
    ("pipeline.greedy_share", "share"),
    ("pipeline.width_max", "count"),
    ("branchdec.search_s", "s"),
    ("branchdec.search_calls", "count"),
    ("cuts.mm_s", "s"),
    ("cuts.mm_calls", "count"),
    ("cuts.memo_hit_ratio", "ratio"),
    ("cuts.is_split_s", "s"),
    ("cuts.is_split_calls", "count"),
    ("cuts.cover_s", "s"),
    ("solver.self_s", "s"),
    ("solver.nodes", "count"),
    ("solver.family_peak", "count"),
    ("solver.family_sum", "count"),
    ("solver.trim_split_s", "s"),
    ("solver.trim_split_calls", "count"),
    ("solver.trim_keep_ratio", "ratio"),
    ("repsets.extension_s", "s"),
    ("repsets.extension_calls", "count"),
    ("repsets.torso_trim_s", "s"),
    ("repsets.torso_trim_calls", "count"),
    ("repsets.sep_k_max", "count"),
    ("repsets.hc_sets_s", "s"),
    ("repsets.hc_sets_keep_ratio", "ratio"),
    ("repsets.forests_s", "s"),
    ("repsets.forests_calls", "count"),
    ("repsets.bound_violations", "count"),
    ("cli.self_s", "s"),
    ("traced_s", "s"),
    ("decomposition.share", "share"),
    ("repsets.share", "share"),
    ("solver.trim_split_share", "share"),
    ("trace.overhead_share", "share"),
]

# Layer spans, by the name of their self-time metric.
SPAN_METRICS = {
    "graph.parse_s": "graph.parse",
    "splitdec.decompose_s": "splitdec.decompose",
    "pipeline.self_s": "pipeline",
    "branchdec.search_s": "branchdec.search",
    "cuts.mm_s": "cuts.mm",
    "cuts.is_split_s": "cuts.is_split",
    "cuts.cover_s": "cuts.cover",
    "solver.self_s": "solver",
    "solver.trim_split_s": "solver.trim_split",
    "repsets.extension_s": "repsets.extension",
    "repsets.torso_trim_s": "repsets.torso_trim",
    "repsets.hc_sets_s": "repsets.hc_sets",
    "repsets.forests_s": "repsets.forests",
}

# Count metrics that must repeat exactly for the same inputs.
COUNT_METRICS = [name for name, unit in METRICS if unit in ("count", "ratio")] + [
    "pipeline.greedy_share"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Aggregated spans (calls and self time per name) and counts."""

    def __init__(self):
        self.stack: list[list[float]] = []  # child time of each open span
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.top_level = 0.0  # time inside outermost spans
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.counting = True
        self.solves: list[tuple[dict, dict]] = []
        self.decompositions: list = []  # (decomposition, sm cut function)
        self.greedy = False  # current pipeline call used the greedy backend
        self.sm_function = None

    def span(self, name: str, fn):
        clock = time.perf_counter
        stack = self.stack

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.self_time[name] += elapsed - child[0]
                self.calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.top_level += elapsed

        return wrapper

    def finish_call(self) -> None:
        """Fold in what the last `smhc.cli.main` call left; run outside its timing."""
        for trace, stats in self.solves:
            sizes = trace.get("node_sizes", [])
            self.counts["solver.nodes"] += len(sizes)
            self.counts["solver.family_sum"] += sum(sizes)
            self.maxima["solver.family_peak"] = max(
                self.maxima["solver.family_peak"], trace.get("max_family", 0))
            self.counts["repsets.bound_violations"] += stats.get("bound_violations", 0)
        self.solves.clear()
        self.counting = False  # the width below re-reads memoized cuts only
        try:
            for bd, smf in self.decompositions:
                width = max((smf(a) for a, _ in bd.cuts()), default=0)
                self.maxima["pipeline.width_max"] = max(
                    self.maxima["pipeline.width_max"], width)
        finally:
            self.counting = True
        self.decompositions.clear()

    def metrics(self, call_time: float) -> dict[str, float]:
        """Every per-layer metric; `call_time` is the summed `cli.main` time."""
        c, m = self.counts, self.maxima
        out = {metric: self.self_time[span] for metric, span in SPAN_METRICS.items()}
        out.update({
            "splitdec.primes": c["splitdec.primes"],
            "splitdec.max_prime_n": m["splitdec.max_prime_n"],
            "pipeline.prime_calls": c["pipeline.prime_calls"],
            "pipeline.k_too_small": c["pipeline.k_too_small"],
            "pipeline.greedy_share": _ratio(c["pipeline.greedy_calls"],
                                            self.calls["pipeline"]),
            "pipeline.width_max": m["pipeline.width_max"],
            "branchdec.search_calls": self.calls["branchdec.search"],
            "cuts.mm_calls": self.calls["cuts.mm"],
            "cuts.memo_hit_ratio": _ratio(c["cuts.cut_calls"], c["cuts.cut_evaluations"]),
            "cuts.is_split_calls": self.calls["cuts.is_split"],
            "solver.nodes": c["solver.nodes"],
            "solver.family_peak": m["solver.family_peak"],
            "solver.family_sum": c["solver.family_sum"],
            "solver.trim_split_calls": self.calls["solver.trim_split"],
            "solver.trim_keep_ratio": _ratio(c["solver.trim_out"], c["solver.trim_in"]),
            "repsets.extension_calls": self.calls["repsets.extension"],
            "repsets.torso_trim_calls": self.calls["repsets.torso_trim"],
            "repsets.sep_k_max": m["repsets.sep_k_max"],
            "repsets.hc_sets_keep_ratio": _ratio(c["repsets.hc_sets_out"],
                                                 c["repsets.hc_sets_in"]),
            "repsets.forests_calls": self.calls["repsets.forests"],
            "repsets.bound_violations": c["repsets.bound_violations"],
            "cli.self_s": call_time - self.top_level,
            "traced_s": call_time,
        })
        decomposition = sum(out[k] for k in (
            "splitdec.decompose_s", "pipeline.self_s", "branchdec.search_s"))
        repsets = sum(out[k] for k in (
            "repsets.extension_s", "repsets.torso_trim_s", "repsets.hc_sets_s",
            "repsets.forests_s"))
        out["decomposition.share"] = _ratio(decomposition, call_time)
        out["repsets.share"] = _ratio(repsets, call_time)
        out["solver.trim_split_share"] = _ratio(out["solver.trim_split_s"], call_time)
        return out

    def count_snapshot(self) -> dict[str, float]:
        metrics = self.metrics(0.0)
        return {name: metrics[name] for name in COUNT_METRICS}


def install(tr: Tracer, smhc) -> tuple[list, list[str]]:
    """Wrap every layer hook; returns (patches for `uninstall`, missing hooks)."""
    patches: list = []
    missing: list[str] = []

    def patch(module, attr: str, make) -> None:
        orig = getattr(module, attr, None)
        if orig is None:
            missing.append(f"{getattr(module, '__name__', module)}.{attr}")
            return
        patches.append((module, attr, orig))
        setattr(module, attr, make(orig))

    def spanned(name):
        return lambda fn: tr.span(name, fn)

    cli, pipeline, splitdec = smhc.cli, smhc.pipeline, smhc.splitdec
    cuts, solver, repsets = smhc.cuts, smhc.solver, smhc.repsets
    ktoosmall = getattr(pipeline, "KTooSmall", ())

    # graph
    patch(cli, "parse_edge_list", spanned("graph.parse"))

    # pipeline, with splitdec and branchdec below it
    def pipeline_hook(fn):
        timed = tr.span("pipeline", fn)

        def approx(*args, **kwargs):
            tr.greedy = False
            tr.sm_function = None
            try:
                bd = timed(*args, **kwargs)
            finally:
                tr.counts["pipeline.greedy_calls"] += tr.greedy
            if tr.sm_function is not None:
                tr.decompositions.append((bd, tr.sm_function))
            return bd

        return approx

    patch(cli, "approx_sm_decomposition", pipeline_hook)

    def split_hook(fn):
        timed = tr.span("splitdec.decompose", fn)

        def decompose(*args, **kwargs):
            dec = timed(*args, **kwargs)
            tr.counts["splitdec.primes"] += len(dec.primes)
            tr.counts["splitdec.split_inputs"] += len(dec.primes) > 1
            tr.maxima["splitdec.max_prime_n"] = max(
                tr.maxima["splitdec.max_prime_n"], max(p.n for p in dec.primes))
            return dec

        return decompose

    patch(pipeline, "split_decompose", split_hook)

    def prime_hook(fn):
        def prime_decomposition(*args, **kwargs):
            tr.counts["pipeline.prime_calls"] += 1
            backend = kwargs.get("backend", args[2] if len(args) > 2 else "exact")
            tr.greedy = tr.greedy or backend == "greedy"
            try:
                return fn(*args, **kwargs)
            except ktoosmall:
                tr.counts["pipeline.k_too_small"] += 1
                raise

        return prime_decomposition

    patch(pipeline, "prime_decomposition", prime_hook)

    def sm_function_hook(fn):
        def sm_cut_function(*args, **kwargs):
            tr.sm_function = fn(*args, **kwargs)
            return tr.sm_function

        return sm_cut_function

    patch(pipeline, "sm_cut_function", sm_function_hook)
    patch(pipeline, "approx_decomposition", spanned("branchdec.search"))

    # cuts
    for module in (cuts, solver, pipeline, splitdec):
        patch(module, "mm_value", spanned("cuts.mm"))
    for module in (cuts, solver):
        patch(module, "is_split", spanned("cuts.is_split"))
    patch(solver, "min_vertex_cover", spanned("cuts.cover"))

    cut_function = getattr(cuts, "CutFunction", None)
    if cut_function is not None:
        def memo_hook(fn):
            def call(self, a):
                cache = getattr(self, "_cache", None)
                before = len(cache) if cache is not None else 0
                value = fn(self, a)
                if tr.counting:
                    tr.counts["cuts.cut_calls"] += 1
                    if cache is not None and len(cache) != before:
                        tr.counts["cuts.cut_evaluations"] += 1
                return value

            return call

        patch(cut_function, "__call__", memo_hook)
    else:
        missing.append("smhc.cuts.CutFunction")

    # solver
    def solver_hook(fn):
        timed = tr.span("solver", fn)
        params = inspect.signature(fn).parameters

        def solve_hc(*args, **kwargs):
            trace: dict = {}
            stats: dict = {}
            if "trace" in params:
                kwargs.setdefault("trace", trace)
            if "stats" in params:
                kwargs.setdefault("stats", stats)
            try:
                return timed(*args, **kwargs)
            finally:
                tr.solves.append((trace, stats))

        return solve_hc

    patch(cli, "solve_hc", solver_hook)

    def trim_hook(fn):
        def trim(g, a, fam, *args, **kwargs):
            out = fn(g, a, fam, *args, **kwargs)
            tr.counts["solver.trim_in"] += len(fam)
            tr.counts["solver.trim_out"] += len(out)
            return out

        return trim

    patch(solver, "trim", trim_hook)
    patch(solver, "trim_split", spanned("solver.trim_split"))

    # repsets
    patch(solver, "preserving_extension", spanned("repsets.extension"))

    def torso_hook(fn):
        timed = tr.span("repsets.torso_trim", fn)

        def trim_separator(g, a, sep, *args, **kwargs):
            tr.maxima["repsets.sep_k_max"] = max(tr.maxima["repsets.sep_k_max"],
                                                 sep.bit_count())
            return timed(g, a, sep, *args, **kwargs)

        return trim_separator

    patch(repsets, "trim_separator", torso_hook)

    def hc_sets_hook(fn):
        timed = tr.span("repsets.hc_sets", fn)

        def representative_hc_sets(g, members, *args, **kwargs):
            out = timed(g, members, *args, **kwargs)
            tr.counts["repsets.hc_sets_in"] += len(members)
            tr.counts["repsets.hc_sets_out"] += len(out)
            return out

        return representative_hc_sets

    patch(repsets, "representative_hc_sets", hc_sets_hook)
    patch(repsets, "representative_forests", spanned("repsets.forests"))
    return patches, missing


def uninstall(patches: list) -> None:
    for module, attr, orig in reversed(patches):
        setattr(module, attr, orig)
