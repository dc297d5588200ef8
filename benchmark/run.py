"""Benchmark: time to a verified Hamiltonicity verdict from `smhc hc`.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  Each operation is one in-process call of
`smhc.cli.main(["hc", <edge-list file>, ...])` with its output captured:
file read, parse, split decomposition, width pipeline, certificate DP and
the printed verdict and witness.  Calls are made one after another by a
single client (a closed loop), in whole passes over the workload's inputs:
as many as took about `--seconds` when the benchmark was defined.  Call
and set-up times are scaled to a reference speed of the machine, gauged
between the calls by a fixed loop (`speed.py`), and the time metrics are
computed from the scaled times.

`--trace 0` reports the end-to-end metrics.  `--trace 1` makes the traced
run: untraced, traced, untraced and traced passes over the inputs, then
over a held-out seed, checking that verdicts and every count repeat, and
reports the per-layer metrics of `layers.py`.

Every verdict is checked against a reference the solver does not compute
(see `workloads.py`), outside the timed windows.  Human-readable lines come
first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

TIME_LIMIT_S = 60.0  # per input; the slowest input seen took under 2 s
SETUP_REPEATS = 21  # set-ups per untraced run, spread over it; setup_s is their median
WARM_UP_S = 2.0  # untimed calls before the closed loop
HELD_OUT_OFFSET = 1_000_003  # held-out seed of the traced run: seed + offset
# Inputs per traced pass (a prefix of the workload's order) on the run's
# seed and on the held-out seed.
TRACE_INPUTS = {
    "sweep-small": (250, 50),
    "grid-long": (8, 4),
    "clique-split": (13, 6),
}
# Seconds one pass over the corpus took at the commit that defined the
# benchmark (2-core x86 virtual machine); a run sends
# round(--seconds / this) passes.
NOMINAL_PASS_S = {"sweep-small": 10.0, "grid-long": 2.0, "clique-split": 5.3}

END_TO_END_UNITS = {
    "verdict_s.p50": "s",
    "verdict_s.tail": "s",
    "graphs_per_s": "1/s",
    "solved_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class InputTimeout(BaseException):
    """Raised by SIGALRM when one call exceeds TIME_LIMIT_S.

    A BaseException, so that no `except Exception` in the program absorbs it.
    """


def _on_alarm(signum, frame):
    raise InputTimeout()


# -- set-up ---------------------------------------------------------------------

def import_program():
    """Import the package under test from the checkout's `src/`, freshly."""
    src = ROOT / "src"
    if not (src / "smhc" / "__init__.py").is_file():
        raise ImportError(f"no smhc package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "smhc" or m.startswith("smhc.")]:
        del sys.modules[name]
    import smhc  # noqa: F401
    import smhc.cli
    import smhc.generators
    import smhc.oracles
    if Path(smhc.__file__).resolve().parent != (src / "smhc").resolve():
        raise ImportError(f"smhc imported from {smhc.__file__}, not from {src}")
    return smhc


def set_up(workload: str, seed: int, directory: Path):
    """Import the program afresh, make the inputs and write their files; timed.

    A repeated set-up of the run rewrites the files in place, with the same
    contents, so that its time is the program's import and the generation
    rather than the file system's cost of creating files.  Returns (smhc,
    inputs, argvs, seconds).
    """
    gc.unfreeze()  # let the previous round's copy of the program be collected
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    smhc = import_program()
    inputs = workloads.order(workload, seed, smhc)
    directory.mkdir(parents=True, exist_ok=True)
    argvs = [inp.write(directory, i) for i, inp in enumerate(inputs)]
    return smhc, inputs, argvs, time.perf_counter() - start


# -- the closed loop ------------------------------------------------------------

class Sample:
    __slots__ = ("index", "code", "output", "seconds", "scaled", "error", "failure")

    def __init__(self, index, code, output, seconds, error):
        self.index = index
        self.code = code
        self.output = output
        self.seconds = seconds
        self.scaled = None  # `seconds` at the reference speed, set by a `speed.Gauge`
        self.error = error  # None, "timeout" or the exception's repr
        self.failure = None  # set by `check`: None when the call was right


def call_once(smhc, argv: list[str], index: int) -> Sample:
    # Start every call from the same collector state, with the benchmark's
    # own objects frozen out of the program's collections, so that a call's
    # time does not depend on which calls ran before it.
    gc.collect()
    gc.freeze()
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = smhc.cli.main(argv)
    except InputTimeout:
        error = "timeout"
    except Exception as exc:  # a crash is a failed input, never a verdict
        error = f"exception {exc!r}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return Sample(index, code, out.getvalue(), time.perf_counter() - start, error)


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def closed_loop(smhc, argvs, passes: int, seconds: float, set_up_again, gauge):
    """Send `passes` whole passes over the inputs; [(samples, wall s)] per pass.

    A fixed number of whole passes makes every run measure the same mix of
    inputs and the same number of samples.  A run is cut short only past
    four times its nominal length, so a much slower program still ends.
    `set_up_again()` is called SETUP_REPEATS - 1 times, evenly spread
    between the calls, outside their timed windows.  Every call goes to
    `gauge`, which scales its time between the calls.

    Calls over the inputs in turn for WARM_UP_S come first, untimed and
    unchecked, so that the first timed calls find the process and the
    machine's caches as the later ones do.
    """
    gauge.read()
    warm_up_start = time.perf_counter()
    while time.perf_counter() - warm_up_start < WARM_UP_S:
        for argv in argvs:
            call_once(smhc, argv, 0)
            if time.perf_counter() - warm_up_start >= WARM_UP_S:
                break
    gauge.read()
    total = passes * len(argvs)
    set_up_after = {(j + 1) * total // SETUP_REPEATS for j in range(SETUP_REPEATS - 1)}
    out = []
    done = 0
    start = time.perf_counter()
    for _ in range(passes):
        pass_start = time.perf_counter()
        paused = 0.0
        samples = []
        for i, argv in enumerate(argvs):
            samples.append(call_once(smhc, argv, i))
            gauge.add(samples[-1])
            done += 1
            if done in set_up_after:
                pause_start = time.perf_counter()
                set_up_again()
                paused += time.perf_counter() - pause_start
            if time.perf_counter() - start >= 4 * seconds:
                break
        out.append((samples, time.perf_counter() - pass_start - paused))
        if time.perf_counter() - start >= 4 * seconds:
            break
    gauge.read()
    return out


def one_pass(smhc, argvs, count: int, tracer=None):
    samples = []
    for i in range(count):
        samples.append(call_once(smhc, argvs[i], i))
        if tracer is not None:
            tracer.finish_call()
    return samples


# -- checking -------------------------------------------------------------------

class Checker:
    """References per input, computed once and outside every timed window."""

    def __init__(self, smhc, inputs):
        self.smhc = smhc
        self.inputs = inputs
        self.expected: dict[int, bool] = {}
        self.edge_sets: dict[int, set] = {}

    def failure(self, s: Sample) -> str | None:
        if s.error is not None:
            return s.error
        if s.index not in self.expected:
            inp = self.inputs[s.index]
            self.expected[s.index] = workloads.reference_verdict(inp, self.smhc)
            self.edge_sets[s.index] = set(inp.edges)
        return workloads.check_output(self.inputs[s.index], self.edge_sets[s.index],
                                      self.expected[s.index], s.code, s.output)


def check(checker: Checker, samples, failures: list) -> tuple[int, int]:
    """(failed, wrong): failed counts every failure, wrong excludes timeouts."""
    failed = wrong = 0
    for s in samples:
        s.failure = checker.failure(s)
        if s.failure is not None:
            failed += 1
            wrong += s.failure != "timeout"
            failures.append(f"{checker.inputs[s.index].label}: {s.failure}")
    return failed, wrong


# -- metrics --------------------------------------------------------------------

def tail(samples: list[Sample]):
    """(sample, percentile, beyond): the tail of the calls' scaled times.

    The highest percentile with at least 10 calls beyond it (all calls but
    one when there are fewer than 11).
    """
    order = sorted(samples, key=lambda s: s.scaled)
    n = len(order)
    beyond = min(10, n - 1)
    return order[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def per_input_median(samples: list[Sample], key) -> float:
    """The median over the inputs of each input's median call time."""
    times: dict[int, list[float]] = {}
    for s in samples:
        times.setdefault(s.index, []).append(key(s))
    return statistics.median(statistics.median(v) for v in times.values())


def run_untraced(smhc, inputs, argvs, passes, seconds, set_up_again, gauge, lines):
    """End-to-end metrics of one closed-loop run.

    Every time metric is computed from the calls' scaled times (see
    `speed.py`); the unscaled wall-clock figures are printed beside them.
    """
    runs = closed_loop(smhc, argvs, passes, seconds, set_up_again, gauge)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = [s for group, _ in runs for s in group]
    failures: list[str] = []
    failed, wrong = check(Checker(smhc, inputs), samples, failures)
    at, pct, beyond = tail(samples)
    slowest = max(samples, key=lambda s: s.seconds)
    wall = sum(w for _, w in runs)
    metrics = {
        "verdict_s.p50": per_input_median(samples, lambda s: s.scaled),
        "verdict_s.tail": at.scaled,
        "graphs_per_s": (len(samples) - failed) / sum(s.scaled for s in samples),
        "solved_share": (len(samples) - failed) / len(samples),
        "peak_rss_mb": peak_rss_mb,
    }
    lines.append(f"closed loop: 1 client, {len(runs)} passes over {len(inputs)} inputs, "
                 f"{len(samples)} calls in {wall:.3f} s; pass seconds "
                 + " ".join(f"{w:.3f}" for _, w in runs))
    readings = sorted(gauge.readings)
    lines.append(f"speed gauge: {len(readings)} readings, {readings[0] * 1e3:.3f} to "
                 f"{readings[-1] * 1e3:.3f} ms, median {statistics.median(readings) * 1e3:.3f} ms "
                 f"(reference {speed.REFERENCE_S * 1e3:g} ms)")
    lines.append(f"verdict_s.tail is p{pct:.2f} of the {len(samples)} calls "
                 f"({beyond} beyond it): a call of input {inputs[at.index].label}")
    lines.append(f"unscaled: median per-input time {per_input_median(samples, lambda s: s.seconds):.6f} s, "
                 f"wall throughput {(len(samples) - failed) / wall:.4f}/s")
    lines.append(f"failed_share {failed / len(samples):.6f} ({failed} of {len(samples)})")
    lines.append(f"slowest input {inputs[slowest.index].label}: "
                 f"{slowest.seconds:.3f} s (limit {TIME_LIMIT_S:.0f} s)")
    return metrics, len(samples), failed, wrong, failures


def traced_pass(smhc, argvs, count: int):
    tracer = layers.Tracer()
    patches, missing = layers.install(tracer, smhc)
    try:
        return tracer, one_pass(smhc, argvs, count, tracer), missing
    finally:
        layers.uninstall(patches)


def run_traced(smhc, inputs, argvs, workload, seed, directory, lines):
    """Alternate untraced and traced passes over a prefix of the inputs.

    On the run's seed and on a held-out seed: untraced, traced, untraced,
    traced.  Every pass must print the same verdicts and witnesses, and the
    two traced passes must give the same counts.  The per-layer metrics are
    the first traced pass on the run's seed; the tracing overhead compares
    both traced passes with both untraced ones.
    """
    held_seed = seed + HELD_OUT_OFFSET
    held_inputs = workloads.order(workload, held_seed, smhc)
    held_dir = directory / "held-out"
    held_dir.mkdir()
    held_argvs = [inp.write(held_dir, i) for i, inp in enumerate(held_inputs)]

    checked: list = []
    mismatches: list[str] = []
    report = None
    for label, inps, avs, count in (("seed", inputs, argvs, TRACE_INPUTS[workload][0]),
                                    ("held-out seed", held_inputs, held_argvs,
                                     TRACE_INPUTS[workload][1])):
        count = min(count, len(avs))
        plain1 = one_pass(smhc, avs, count)
        tr1, traced1, missing = traced_pass(smhc, avs, count)
        plain2 = one_pass(smhc, avs, count)
        tr2, traced2, _ = traced_pass(smhc, avs, count)
        outputs = [[(s.index, s.code, s.output, s.error) for s in group]
                   for group in (plain1, traced1, plain2, traced2)]
        if any(out != outputs[0] for out in outputs):
            mismatches.append(f"{label}: verdicts differ between passes")
        counts1, counts2 = tr1.count_snapshot(), tr2.count_snapshot()
        mismatches += [f"{label}: {name} {counts1[name]} != {counts2[name]}"
                       for name in counts1 if counts1[name] != counts2[name]]
        checker = Checker(smhc, inps)
        checked += [(checker, group) for group in (plain1, traced1, plain2, traced2)]
        if report is None:
            properties = (inps[:count], checker, tr1)
            plain_s = sum(s.seconds for s in plain1 + plain2)
            traced_s = sum(s.seconds for s in traced1 + traced2)
            report = tr1.metrics(sum(s.seconds for s in traced1))
            report["trace.overhead_share"] = (traced_s - plain_s) / plain_s
            lines.append(f"traced passes: {count} inputs of seed {seed}, "
                         f"{traced_s / 2:.3f} s traced, {plain_s / 2:.3f} s untraced")
            if missing:
                lines.append("layer hooks missing: " + ", ".join(missing))
    lines.append(f"determinism: {len(mismatches)} mismatches "
                 f"(held-out seed {held_seed})")
    lines.extend(mismatches)
    failures: list[str] = []
    failed = wrong = attempted = 0
    for checker, group in checked:
        f, w = check(checker, group, failures)
        failed, wrong, attempted = failed + f, wrong + w, attempted + len(group)
    lines.append(input_properties(*properties, report))
    return report, attempted, failed, wrong + len(mismatches), failures


def input_properties(inps, checker, tracer, report) -> str:
    """One line describing the traced inputs, from references and the trace."""
    sizes = [inp.n for inp in inps]
    edges = [len(inp.edges) for inp in inps]
    hamiltonian = sum(checker.expected[i] for i in range(len(inps)))
    decomposed = tracer.calls["pipeline"]
    split = tracer.counts["splitdec.split_inputs"]
    return (f"traced inputs: {len(inps)}, n {min(sizes)}..{max(sizes)}, "
            f"m {min(edges)}..{max(edges)}, Hamiltonian {hamiltonian / len(inps):.3f}, "
            f"with a split {split}/{decomposed} decomposed, largest prime "
            f"{report['splitdec.max_prime_n']}, greedy backend "
            f"{report['pipeline.greedy_share']:.3f}, max separator "
            f"{report['repsets.sep_k_max']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CORPORA))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = args.seed
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    signal.signal(signal.SIGALRM, _on_alarm)
    directory = ROOT / ".bench_work" / f"{args.workload}-{seed}-{os.getpid()}"
    lines = [f"workload {args.workload}, seed {seed}, trace {args.trace}"]
    try:
        try:
            import_program()  # warm-up: compiles and caches bytecode, untimed
            gauge = None if args.trace else speed.Gauge()
            smhc, inputs, argvs, setup_s = set_up(args.workload, seed, directory / "inputs")
        except ImportError as exc:
            print(f"error: cannot import the program: {exc}", file=sys.stderr)
            return 2
        if args.trace:
            metrics, attempted, failed, wrong, failures = run_traced(
                smhc, inputs, argvs, args.workload, seed, directory, lines)
            units = dict(layers.METRICS)
        else:
            setups = [speed.Timed(setup_s)]
            gauge.add(setups[0])

            def set_up_again():
                setups.append(speed.Timed(set_up(args.workload, seed, directory / "inputs")[3]))
                gauge.add(setups[-1])

            metrics, attempted, failed, wrong, failures = run_untraced(
                smhc, inputs, argvs, passes_for(args.workload, args.seconds),
                args.seconds, set_up_again, gauge, lines)
            metrics["setup_s"] = statistics.median(t.scaled for t in setups)
            lines.append(f"setup_s is the median of {len(setups)} scaled set-ups: "
                         + " ".join(f"{t.scaled:.4f}" for t in setups)
                         + f"; unscaled median {statistics.median(t.seconds for t in setups):.4f} s")
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            directory.parent.rmdir()  # only when no other run is using it

    sizes = [inp.n for inp in inputs]
    edges = [len(inp.edges) for inp in inputs]
    lines.append(f"inputs: {len(inputs)} graphs, n {min(sizes)}..{max(sizes)}, "
                 f"m {min(edges)}..{max(edges)}")
    lines.extend(f"FAILED {reason}" for reason in failures[:20])
    width = max(len(name) for name in units)
    for name, unit in units.items():
        lines.append(f"{name:<{width}}  {metrics[name]:.6g} {unit}")
    print("\n".join(lines))
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
