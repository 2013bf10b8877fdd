"""Benchmark of weylkit, one workload per process.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 15 --trace 0

Run from the root of a source tree; the library is imported from ``src/``.
The workload runs as a closed loop, one client and one thread, in whole
rounds of the queries its seed fixed, for at least ``--seconds`` seconds.
All times are corrected to a nominal host speed (see ``hostclock``).  The
last line of standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
See README.md for the workloads, the metrics and how to read them.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hostclock  # noqa: E402  (standard library only)

AGE_AT_START = hostclock.process_age()
CLOCK = hostclock.HostClock()
FIRST_SAMPLE = CLOCK.sample()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager, redirect_stderr, redirect_stdout  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
WORKLOADS = ["roundtrip", "spectra", "orbits", "cli"]
# The percentile reported as latency_tail_ms; see README.md for the sample
# counts behind each choice.
TAIL_PCT = {"roundtrip": 90, "spectra": 90, "orbits": 90, "cli": 75}
SETUP_PROBES = 2
STARTUP_PROBES = 3
NOMINAL = hostclock.NOMINAL_REF_S


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def in_process_cli(argv):
    """``cli.main(argv)`` in this process, its output captured."""
    from weylkit import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return hostclock.ChildRun(code, out.getvalue(), err.getvalue(), 0)


def setup(workload: str, seed: int, in_process: bool = False):
    """Import the library, make the inputs from the seed and warm up: one
    round in process, one interpreter start for the cli workload."""
    if not os.path.isfile(os.path.join(SRC, "weylkit", "__init__.py")):
        raise SystemExit(f"run.py: no weylkit sources under {SRC}")
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    import workloads
    rng = random.Random(seed)
    if workload == "cli":
        if in_process:
            runner = in_process_cli
        else:
            def runner(argv):
                return workloads.spawn_cli(argv, OUT, SRC)
        queries = workloads.cli(rng, runner)
        queries[0].run()
    else:
        queries = workloads.ROUNDS[workload](rng)
        for q in queries:
            q.run()
    return queries


def setup_seconds(end_sample: int) -> tuple[float, float]:
    """(raw, corrected) seconds from process start to end_sample."""
    raw, corrected = CLOCK.between(FIRST_SAMPLE, end_sample)
    d_first = CLOCK.samples[FIRST_SAMPLE][1]
    return AGE_AT_START + raw, AGE_AT_START * NOMINAL / d_first + corrected


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set up again in a fresh process; (raw, corrected) seconds."""
    with ticks_paused():
        out = hostclock.spawn([sys.executable, os.path.abspath(__file__), "--workload", workload,
                               "--seed", str(seed), "--setup-probe"], dict(os.environ), OUT)
    if out.code != 0:
        raise RuntimeError(f"setup probe failed: {out.stderr}")
    probe = json.loads(out.stdout.splitlines()[-1])
    return probe["raw"], probe["corrected"]


@contextmanager
def ticks_paused():
    """While this process waits for a child that times itself or is timed
    with the child reference, the in-process ticks would only take its CPU."""
    CLOCK.stop_ticks()
    try:
        yield
    finally:
        CLOCK.start_ticks()


def probe_startup(child_clock) -> float:
    """Corrected seconds for a fresh interpreter to import weylkit.cli."""
    env = dict(os.environ, PYTHONPATH=SRC)
    _, _, corrected = child_clock.timed(lambda: hostclock.spawn(
        [sys.executable, "-c", "import weylkit.cli"], env, OUT))
    return corrected


def run_rounds(queries, seconds: float, on_round=None, timer=CLOCK.timed):
    """Whole rounds until ``seconds`` have passed (at least one).  Returns
    per-query (raw, corrected) latencies, the last result of each query and
    the failures."""
    latencies, failures = [], []
    results = [None] * len(queries)
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        first = len(latencies)
        for k, q in enumerate(queries):
            try:
                result, raw, corrected = timer(q.run)
            except Exception:
                failures.append((q.label, traceback.format_exc()))
                continue
            results[k] = (result,)
            latencies.append((raw, corrected))
        rounds += 1
        if on_round is not None:
            on_round(latencies[first:])
    return latencies, results, failures, rounds


def check_all(queries, results) -> list[str]:
    errors = []
    for q, res in zip(queries, results):
        if res is None:
            continue
        try:
            q.check(res[0])
        except Exception as exc:  # a malformed answer is as wrong as a false one
            errors.append(f"{q.label}: {exc!r}")
    return errors


def summarise(lat, pct):
    ops = len(lat) / sum(lat)
    return ops, statistics.median(lat) * 1e3, percentile(lat, pct) * 1e3


def untraced(args, queries, setup_s):
    if args.workload == "cli":
        with ticks_paused():
            child_clock = hostclock.ChildClock(OUT)
            latencies, results, failures, rounds = run_rounds(queries, args.seconds,
                                                              timer=child_clock.timed)
        reference = (f"child reference median {child_clock.median_ref_ms():.2f} ms "
                     f"(nominal {hostclock.NOMINAL_CHILD_REF_S * 1e3} ms)")
        peak_kb = max(r[0].maxrss_kb for r in results if r is not None)
    else:
        latencies, results, failures, rounds = run_rounds(queries, args.seconds)
        reference = (f"reference median {CLOCK.median_ref_ms():.4f} ms "
                     f"(nominal {NOMINAL * 1e3} ms)")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups = [setup_s] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    raw = summarise([r for r, _ in latencies], TAIL_PCT[args.workload])
    cor = summarise([c for _, c in latencies], TAIL_PCT[args.workload])
    setup_raw = statistics.median(r for r, _ in setups)
    setup_cor = statistics.median(c for _, c in setups)
    metrics = {
        "ops_per_s": (cor[0], raw[0], "1/s"),
        "latency_p50_ms": (cor[1], raw[1], "ms"),
        "latency_tail_ms": (cor[2], raw[2], "ms"),
        "setup_s": (setup_cor, setup_raw, "s"),
        "peak_rss_mb": (peak_kb / 1024, peak_kb / 1024, "MB"),
    }
    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  "
          f"queries {len(latencies)}  tail percentile p{TAIL_PCT[args.workload]}  {reference}")
    print(f"{'metric':18s} {'corrected':>14s} {'raw':>14s}  unit")
    for name, (c, r, unit) in metrics.items():
        print(f"{name:18s} {c:14.4f} {r:14.4f}  {unit}")
    return ({name: {"value": c, "unit": unit} for name, (c, _, unit) in metrics.items()},
            results, failures, len(latencies) + len(failures))


def traced(args, queries):
    import tracing
    untraced_seconds = args.seconds / 3
    latencies, results, failures, _ = run_rounds(queries, untraced_seconds)
    untraced_ops = len(latencies) / sum(c for _, c in latencies)
    attempted = len(latencies) + len(failures)

    tracer = tracing.Tracer(CLOCK)
    sums: dict[str, float] = {}
    rounds = 0

    def on_round(lat):
        nonlocal rounds
        raw, corrected = sum(r for r, _ in lat), sum(c for _, c in lat)
        factor = corrected / raw if raw else 1.0
        for name, value in tracing.layer_metrics(*tracer.take()).items():
            sums[name] = sums.get(name, 0.0) + (value * factor if name.endswith("_s") else value)
        rounds += 1

    tracer.install()
    try:
        lat_t, res_t, fail_t, _ = run_rounds(queries, args.seconds - untraced_seconds, on_round)
    finally:
        tracer.uninstall()
    tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
    results = [b if b is not None else a for a, b in zip(results, res_t)]
    failures += fail_t
    attempted += len(lat_t) + len(fail_t)
    traced_ops = len(lat_t) / sum(c for _, c in lat_t)

    units = {"calls": "count", "pairs": "count", "inserts": "count", "cells": "count",
             "brackets": "count", "unknowns": "count", "checks": "count", "ratio": "ratio"}
    metrics = {}
    for name, total in sums.items():
        kind = name.rsplit(".", 1)[-1].rsplit("_", 1)[-1]
        unit = "s" if kind == "s" else units[kind]
        value = total / rounds
        metrics[name] = {"value": round(value) if unit == "count" else value, "unit": unit}
    with ticks_paused():
        child_clock = hostclock.ChildClock(OUT)
        startup = statistics.median(probe_startup(child_clock) for _ in range(STARTUP_PROBES))
    if args.workload == "cli":
        main_s = sum(c for _, c in latencies) * len(queries) / len(latencies)
        out_bytes = sum(len(r[0].stdout.encode()) for r in results if r is not None)
    else:
        main_s, out_bytes = 0.0, 0
    metrics["cli.startup_s"] = {"value": startup, "unit": "s"}
    metrics["cli.main_s"] = {"value": main_s, "unit": "s"}
    metrics["cli.output_bytes"] = {"value": out_bytes, "unit": "bytes"}
    metrics["host.ref_loop_ms"] = {"value": CLOCK.median_ref_ms(), "unit": "ms"}
    metrics["trace.untraced_ops_per_s"] = {"value": untraced_ops, "unit": "1/s"}
    metrics["trace.traced_ops_per_s"] = {"value": traced_ops, "unit": "1/s"}
    metrics["trace.overhead_ratio"] = {"value": untraced_ops / traced_ops, "unit": "ratio"}
    print(f"workload {args.workload}  seed {args.seed}  traced rounds {rounds}  "
          f"(per-layer figures are per round; times corrected)")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:16.6f}  {m['unit']}")
    return metrics, results, failures, attempted


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args()

    hostclock.pin_to_one_cpu()
    CLOCK.start_ticks()
    try:
        queries = setup(args.workload, args.seed, in_process=bool(args.trace))
        setup_s = setup_seconds(CLOCK.sample())
        if args.setup_probe:
            print(json.dumps({"raw": setup_s[0], "corrected": setup_s[1]}))
            return 0
        if args.trace:
            metrics, results, failures, attempted = traced(args, queries)
        else:
            metrics, results, failures, attempted = untraced(args, queries, setup_s)
    finally:
        CLOCK.stop_ticks()
    errors = check_all(queries, results)
    for label, tb in failures:
        print(f"FAILED {label}\n{tb}", file=sys.stderr)
    for e in errors:
        print(f"WRONG {e}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
