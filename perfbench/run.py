"""Closed-loop benchmark of the qpencil pipeline.

One process, one client: each operation starts when the previous one has
returned. A run repeats whole passes over its workload's operations until
another pass would overrun ``--seconds`` (always at least one pass), checks
every output against an independent oracle or a golden file, and prints a
readable summary followed by one JSON line::

    python3 perfbench/run.py --workload subset-sweep --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: set-up time,
the fixed work of one pass and its throughput, both relative to a reference
loop timed alongside (see ``reference_s``), and peak memory. The summary
also prints them in seconds, with per-case latencies. ``--trace 1`` runs the
same loop untraced, then again with every layer function wrapped in spans,
and reports the per-layer metrics, per pass, plus the tracing overhead; the
spans are written to ``perfbench/out/``. ``--workload all`` runs the four
workloads one after another. Set-up time is the median of several fresh
interpreters that each import qpencil and build the inputs, each over a
reference set of imports timed in the next interpreter (see ``end_to_end``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("scenarios", "ghz-pencils", "degenerate-pencils", "subset-sweep")
DEFAULT_SEED = 1
SETUP_SAMPLES = 9
# ``setup_s`` is reported in seconds on a machine on which the reference
# imports of ``setup_probe.py --reference`` take this long.
SETUP_REFERENCE_S = 0.05
# Workload-specific latencies go to the summary only: the JSON line carries
# the metrics every workload has.
CASE_METRIC = {"scenarios": "scenario_s", "ghz-pencils": "ghz_s"}


# On a shared 2-vCPU virtual machine the CPU speed drifted by up to 2x within
# a minute, and every CPU-bound loop drifted with it. Each operation is
# therefore also timed relative to a fixed reference loop, timed right before
# and after the operation and, on SIGALRM, every SAMPLE_INTERVAL_S during it.
# The gated metrics use that ratio; the summary prints seconds as well.
# Samples taken during an operation add a few per cent to its latency, on
# every commit alike.
REFERENCE_STEPS = 800
SAMPLE_INTERVAL_S = 0.5


def _reference_loop() -> float:
    third, half, acc = Fraction(1, 3), Fraction(1, 2), Fraction(0)
    t0 = time.thread_time()
    for i in range(REFERENCE_STEPS):
        acc += Fraction(i % 7, 3) * half - third
    return time.thread_time() - t0


def reference_s(cpus: int = 1) -> float:
    """CPU time of a fixed loop of small-Fraction arithmetic, the package's
    kind of work.

    With ``cpus`` = 1 the loop runs where the caller runs, which during a
    single-process operation is the CPU the operation runs on. With more, for
    an operation that keeps that many worker processes busy, it runs pinned
    to each of the first ``cpus`` CPUs this process may use, and the mean
    counts: the sweep's two pool workers run on both vCPUs of the machine
    above, which slowed down independently, so the speed of whichever one the
    main process ran on did not predict the sweep's. CPU time, so that a
    sample taken while the workers hold both CPUs does not count the time it
    waits for one."""
    if cpus == 1:
        return _reference_loop()
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed)[:cpus]:
            os.sched_setaffinity(0, {cpu})
            times.append(_reference_loop())
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(times)


def run_sampled(call, reference=reference_s):
    """Call ``call()``; return (result, exception, latency, reference samples)."""
    samples = []
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(reference()))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    result = error = None
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as e:  # a failing operation is counted, not fatal
        error = e
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        latency = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    return result, error, latency, samples


@dataclass
class Loop:
    """What one measured loop saw."""

    pass_walls: list[float] = field(default_factory=list)
    pass_refs: list[float] = field(default_factory=list)
    latencies: list[tuple[str, float]] = field(default_factory=list)
    references: list[float] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    units: int = 0
    attempted: int = 0
    failed: int = 0


def measure(ops, seconds: float, recorder=None) -> Loop:
    """Run whole passes over ``ops`` until another pass would overrun ``seconds``.

    Only the calls into the package are timed; a pass's wall time is the sum
    of its operations' latencies, and its reference time the sum of each
    latency over the mean of the reference timings around and during it. An
    operation that raises or fails its check counts as failed and the loop
    goes on.
    """
    from oracles import OracleMismatch

    def call(op):
        with recorder.op() if recorder else nullcontext():
            return op.run()

    reference = partial(reference_s, max(op.cpus for op in ops))
    loop = Loop()
    start = time.perf_counter()
    before = reference()
    while True:
        wall = relative = 0.0
        for op in ops:
            loop.attempted += 1
            result, error, latency, during = run_sampled(partial(call, op), reference)
            after = reference()
            loop.references += during + [after]
            wall += latency
            relative += latency / statistics.fmean([before, *during, after])
            before = after
            if error is not None:
                loop.failed += 1
                traceback.print_exception(error)
                continue
            loop.latencies.append((op.case, latency))
            loop.units += op.units
            try:
                loop.counters.update(op.check(result))
            except OracleMismatch as e:
                loop.failed += 1
                print(f"check failed: {e}", file=sys.stderr)
        loop.pass_walls.append(wall)
        loop.pass_refs.append(relative)
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(loop.pass_walls)) > seconds:
            return loop


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def probe(*args: str) -> float:
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), *args],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1])


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(set-up, reference) seconds from fresh interpreters, alternately,
    after one discarded warm-up pair."""
    pairs = [(probe(workload, str(seed)), probe("--reference")) for _ in range(SETUP_SAMPLES + 1)]
    return pairs[1:]


def peak_rss_mib() -> float:
    """Largest resident set of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def end_to_end(loop: Loop, setup: list[tuple[float, float]]) -> dict[str, tuple[float, str]]:
    """The gated metrics. Like the loop's times, set-up is taken relative to
    a reference timed next to it, the imports of ``setup_probe.py
    --reference``: over eight runs on a shared 2-vCPU virtual machine the
    median raw set-up seconds varied by up to 1.97x, the median ratio by
    1.24x. ``setup_s`` is that ratio in seconds at ``SETUP_REFERENCE_S``;
    the summary prints the raw seconds."""
    wall = statistics.median(loop.pass_refs)
    setup_ref = statistics.median(s / r for s, r in setup)
    return {
        "setup_s": (setup_ref * SETUP_REFERENCE_S, "s"),
        "wall_ref": (wall, "ref"),
        "ops_per_ref": (loop.units / len(loop.pass_refs) / wall, "1/ref"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
    }


def per_layer(names, untraced: Loop, traced: Loop, recorder, totals) -> dict[str, float]:
    """Per-layer metrics per pass; ``<layer>.calls`` and ``<layer>.self_s``
    come from the spans, the ratios from counters at the same boundaries.
    ``trace_accounted_ratio`` is the share of the traced wall time inside the
    layer spans, ``1 - op.self_s / wall``: time spent in functions that are
    not wrapped lowers it."""
    from spans import ROOT_SPAN

    passes = len(traced.pass_walls)
    c = traced.counters
    ratios = {
        "logic.sweep.no_state_ratio": (c["logic.sweep.no_state"], c["logic.sweep.masks"]),
        "logic.sweep.critical_ratio": (c["logic.sweep.critical"], c["logic.sweep.no_state"]),
        "pencil.degenerate_ratio": (
            recorder.raised[("pencil.joint_context", "DegeneratePencilError")],
            totals.get("pencil.joint_context", (0, 0.0))[0],
        ),
        "trace_overhead_ratio": (
            statistics.median(traced.pass_refs), statistics.median(untraced.pass_refs)
        ),
        "trace_accounted_ratio": (
            sum(own for name, (_, own) in totals.items() if name != ROOT_SPAN),
            sum(traced.pass_walls),
        ),
    }
    out = {}
    for name in names:
        if name in ratios:
            num, den = ratios[name]
            out[name] = num / den if den else 0.0
            continue
        layer, _, kind = name.rpartition(".")
        calls, own = totals.get(layer, (0, 0.0))
        out[name] = {"calls": calls, "self_s": own}[kind] / passes
    return out


def summary(workload: str, seed: int, loop: Loop, metrics: dict, setup=None) -> list[str]:
    lines = [
        f"workload {workload}  seed {seed}  attempted {loop.attempted}  "
        f"failed {loop.failed}  fail_ratio {loop.failed / loop.attempted:.4f}",
        "  pass walls (s): " + " ".join(f"{w:.3f}" for w in loop.pass_walls),
    ]
    lines += [f"  {name:<34} {value:>14.6g} {unit}" for name, (value, unit) in metrics.items()]
    if setup:
        for i, name in enumerate(("setup_wall_s", "setup_reference_s")):
            lines.append(
                f"  {name:<34} {statistics.median(p[i] for p in setup):>14.6g} s   "
                f"(median of {len(setup)})"
            )
    latencies = [t for _, t in loop.latencies]
    if not latencies:
        return lines
    n = len(latencies)
    wall = statistics.median(loop.pass_walls)
    lines.append(f"  {'wall_s':<34} {wall:>14.6g} s")
    lines.append(f"  {'ops_per_s':<34} {loop.units / len(loop.pass_walls) / wall:>14.6g} 1/s")
    lines.append(
        f"  {'reference_s':<34} {statistics.median(loop.references):>14.6g} s   "
        f"({len(loop.references)} samples)"
    )
    lines.append(f"  {'op_p50_s':<34} {statistics.median(latencies):>14.6g} s   ({n} samples)")
    lines.append(f"  {'op_p90_s':<34} {percentile(latencies, 90):>14.6g} s   ({n} samples)")
    prefix = CASE_METRIC.get(workload)
    if prefix:
        cases: dict[str, list[float]] = {}
        for case, t in loop.latencies:
            cases.setdefault(case, []).append(t)
        for case, times in cases.items():
            name = f"{prefix}.{case}"
            lines.append(
                f"  {name:<34} {statistics.median(times):>14.6g} s   (median of {len(times)})"
            )
    return lines


def run_untraced(workload: str, seed: int, seconds: float, spec: dict) -> dict:
    import workloads

    setup = measure_setup(workload, seed)
    loop = measure(workloads.make(workload, seed), seconds)
    metrics = end_to_end(loop, setup)
    expected = [m["name"] for m in spec["end_to_end"]]
    if list(metrics) != expected:
        raise RuntimeError(f"end-to-end metrics {list(metrics)} != {expected}")
    print("\n".join(summary(workload, seed, loop, metrics, setup)))
    return result_line(loop.attempted, loop.failed, metrics)


def run_traced(workload: str, seed: int, seconds: float, spec: dict) -> dict:
    import workloads
    from spans import SpanRecorder, layer_totals

    ops = workloads.make(workload, seed)
    untraced = measure(ops, seconds)
    recorder = SpanRecorder()
    recorder.install()
    try:
        loop = measure(ops, seconds, recorder)
    finally:
        recorder.uninstall()
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    recorder.write(out_dir / f"spans-{workload}-seed{seed}.json")

    totals = layer_totals(recorder.spans)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    values = per_layer(units, untraced, loop, recorder, totals)
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    lines = summary(workload, seed, loop, metrics)
    lines.append("  all spans, per pass (calls, self_s):")
    passes = len(loop.pass_walls)
    for name, (calls, own) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"    {name:<32} {calls / passes:>10.1f} {own / passes:>12.6f}")
    print("\n".join(lines))
    return result_line(
        untraced.attempted + loop.attempted, untraced.failed + loop.failed, metrics
    )


def result_line(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qpencil" / "__init__.py").is_file():
        print(f"run.py: no qpencil source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        for workload in WORKLOADS:
            code = subprocess.run([
                sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]).returncode
            if code:
                return code
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runner = run_traced if args.trace else run_untraced
    print(json.dumps(runner(args.workload, args.seed, args.seconds, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
