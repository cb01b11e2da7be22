#!/usr/bin/env python3
"""wittzeta benchmark: seeded CLI workloads, checked against oracles.

Usage, from the root of a wittzeta checkout:

    python3 perfbench/run.py --workload census-ext --seed 1 --seconds 25 --trace 0

One process, one thread, one client in a closed loop: each op is the
in-process call ``wittzeta.cli.main(argv + ["--json"])`` with stdout
captured, and the next op starts when the previous one returns.  Ops share
the package's cross-call caches the way a library session does.  Every
timing is reported at reference machine speed: each op is bracketed by
probes of the machine's current speed (see ``speed.py``), and the raw wall
times go into the report.

With ``--trace 0`` the run measures for ``--seconds`` and reports the
end-to-end metrics.  With ``--trace 1`` it runs a fixed number of ops
twice, untraced in a child process and then traced in this one, and
reports per-layer metrics plus the tracing overhead.  Either way every
op's output is checked against an independent oracle after timing stops,
two small census ops are re-run with ``--threads 2`` and must print the
same bytes, and the last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  The line before it is a
JSON report: machine, seed, op counts, tail percentile, cache accounting,
failures.  Spans of a traced run are written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

import speed
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 7  # fresh interpreters timed from start to ready; median
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
# Probe kernels per workload, matched to where its ops spend their time:
# witt-algebra in interpreter loops over series and polynomials, rational
# in big-integer resultants and the Fraction code around them,
# census-prime in numpy arrays, and census-ext in both Python
# decode/encode and array work.
PROBE_KINDS = {
    "census-ext": ("interp", "numpy"),
    "census-prime": ("numpy",),
    "witt-algebra": ("interp",),
    "rational": ("interp", "bigint"),
}
CHILD_TIMEOUT = 170
# Traced runs execute a fixed number of whole cycles, so the layer counts
# of one seed repeat exactly from run to run and commit to commit.
TRACE_CYCLES = {
    "census-ext": 2,
    "census-prime": 2,
    "witt-algebra": 4,
    "rational": 12,
}


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_cli():
    """wittzeta.cli from this checkout's src/, never from anywhere else."""
    init = os.path.join(SRC, "wittzeta", "__init__.py")
    if not os.path.isfile(init):
        fail(f"{init} not found; run from the root of a wittzeta checkout")
    sys.path.insert(0, SRC)
    import wittzeta
    import wittzeta.cli

    if os.path.abspath(wittzeta.__file__) != init:
        fail(f"imported wittzeta from {wittzeta.__file__}, not {init}")
    return wittzeta.cli


def setup_probe(workload: str, seed: int):
    """Child side of the set-up measurement: be ready for the first op."""
    import_cli()
    stream = workloads.ops(workload, seed)
    _, cycle = workloads.GENERATORS[workload]
    for _ in range(cycle):
        next(stream)
    print("ready", flush=True)


def time_to_ready(argv) -> float:
    """Seconds from starting a child process to its "ready" line."""
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT)
    if code != 0 or line.strip() != b"ready":
        fail(f"{argv[1:3]} exited with {code} before it was ready")
    return elapsed


def measure_setup(workload: str, seed: int) -> tuple:
    """Seconds from interpreter start to ready, in fresh child processes.

    Returns (wall seconds, seconds at reference speed) per child.  Each
    child is bracketed by two runs of the start-up probe, a bare
    interpreter that imports numpy (``speed.STARTUP_ARGV``).
    """
    argv = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", workload, "--seed", str(seed),
    ]
    probe_argv = [sys.executable, *speed.STARTUP_ARGV]
    times, ref_times = [], []
    before = time_to_ready(probe_argv)
    for _ in range(SETUP_PROBES):
        elapsed = time_to_ready(argv)
        after = time_to_ready(probe_argv)
        times.append(elapsed)
        slowdown = (before + after) / 2 / speed.REFERENCE_S["startup"]
        ref_times.append(elapsed / slowdown)
        before = after
    return times, ref_times


def call(cli, argv) -> tuple:
    """One op: (exit code or None if it raised, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv) + ["--json"])
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the op failed; record it and go on
            return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


@dataclass
class Record:
    op: workloads.Op
    rc: int | None
    out: str
    err: str
    seconds: float  # wall time
    ref_seconds: float  # at reference speed
    reused_field: bool


def closed_loop(cli, stream, probe, seconds: float, max_ops, tracer=None):
    """Run ops back to back; returns (records, wall seconds, cache deltas).

    The machine's speed is probed before the first op and after each op,
    outside the op's timing.
    """
    from wittzeta import counting, finitefield

    # the lru_cache object itself, even while the tracer has rebound the name
    make_field = finitefield.make_field if tracer is None else tracer.make_field
    records = []
    info0 = make_field.cache_info()
    cache0 = len(counting._count_cache)
    start = time.perf_counter()
    before = probe.slowdown()
    limit = seconds if max_ops is None else 3 * seconds
    while time.perf_counter() - start < limit:
        if max_ops is not None and len(records) >= max_ops:
            break
        op = next(stream)
        hits = make_field.cache_info().hits
        if tracer is not None:
            tracer.op = len(records)
            tracer.active = True
        t0 = time.perf_counter()
        rc, out, err = call(cli, op.argv)
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        reused = make_field.cache_info().hits > hits
        after = probe.slowdown()
        ref = elapsed / ((before + after) / 2)
        records.append(Record(op, rc, out, err, elapsed, ref, reused))
        before = after
    wall = time.perf_counter() - start
    info1 = make_field.cache_info()
    cache = {
        "make_field_hits": info1.hits - info0.hits,
        "make_field_misses": info1.misses - info0.misses,
        "count_cache_growth": len(counting._count_cache) - cache0,
    }
    return records, wall, cache


def check_records(records) -> list:
    failures = []
    for i, rec in enumerate(records):
        if rec.rc is None:
            error = f"raised {rec.err}"
        else:
            error = rec.op.check(rec.rc, rec.out)
            if error and rec.err:
                error += f" (stderr: {rec.err.strip()})"
        if error:
            failures.append({"op": i, "class": rec.op.label, "error": error})
    return failures


def thread_invariance(cli, seed: int) -> list:
    """Re-run small census ops with --threads 1 and 2 on a cold count cache."""
    from wittzeta import counting

    results = []
    for op in workloads.invariance_ops(seed):
        outputs = []
        for threads in (1, 2):
            counting._count_cache.clear()
            rc, out, _ = call(cli, op.argv + ("--threads", str(threads)))
            outputs.append((rc, out))
        error = op.check(*outputs[0])
        if error is None and outputs[0] != outputs[1]:
            error = "--threads 2 changed the output"
        results.append({"class": op.label, "error": error})
    return results


def tail(latencies: list) -> tuple:
    """Latency at the highest percentile with TAIL_BEYOND samples above it.

    Returns (latency, percentile, samples above); a run too short to leave
    TAIL_BEYOND samples above any percentile reports its maximum.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    index = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


def ops_per_s(records) -> float:
    """Ops per second of op time at reference speed."""
    return len(records) / sum(r.ref_seconds for r in records)


def machine() -> dict:
    model = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def untraced_reference(args, max_ops: int) -> dict:
    """The same ops without tracing, in a fresh interpreter."""
    argv = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--ops", str(max_ops),
    ]
    proc = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"untraced reference run exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# Per-layer metrics read straight off the spans: "<traced name>.<stat>".
SPAN_METRICS = (
    "finitefield.vec_add.s", "finitefield.vec_add.elems",
    "finitefield.vec_mul.s", "finitefield.vec_mul.elems",
    "finitefield.vec_pow.s", "finitefield.square_counts.s",
    "finitefield.make_field.s",
    "counting.count_points.calls", "counting.count_points.s",
    "counting.count_points.self_s", "counting.count_points.cache_hits",
    "counting.closed_point_census.s", "counting.sym_product_counts.self_s",
    "series.mul.calls", "series.mul.s", "series.invert.s", "series.pow_int.s",
    "witt.witt_mul.calls", "witt.witt_mul.s", "witt.ghost.s",
    "witt.from_ghost.s", "witt.witt_pow.s", "witt.twist.s",
    "sigma.sigma_series.s",
    "polynomials.resultant.calls", "polynomials.resultant.s",
    "rational.rat_star.s", "rational.rat_make.s", "rational.rat_mul.s",
    "rational.rationalize.s", "rational.rat_expand.s",
    "zeta.kapranov_zeta.s", "verdict.compare_series.s",
    "parsing.parse_poly.s", "varieties.load_variety.s", "cli.main.self_s",
)
STAT_UNITS = {"s": "s", "self_s": "s", "calls": "count", "elems": "count",
              "cache_hits": "count"}


def layer_metrics(summary: dict, cache: dict, records, ref: dict):
    values = {}
    for metric in SPAN_METRICS:
        name, stat = metric.rsplit(".", 1)
        values[metric] = (summary.get(name, {}).get(stat, 0), STAT_UNITS[stat])
    census = cache["census_ops"]
    reused = cache["census_ops_reusing_field"] / census if census else 0.0
    untraced_rate = ref["metrics"]["ops_per_s"]["value"]
    values.update({
        "finitefield.table_build.s": (
            sum(s["table_build_s"] for s in summary.values()), "s",
        ),
        "finitefield.make_field.misses": (cache["make_field_misses"], "count"),
        "finitefield.make_field.hits": (cache["make_field_hits"], "count"),
        "finitefield.field_reuse_share": (reused, "ratio"),
        "counting.count_cache.growth": (cache["count_cache_growth"], "count"),
        "trace.ops": (len(records), "count"),
        "trace.untraced_ops_per_s": (untraced_rate, "1/s"),
        "trace.overhead_ops_per_s": (ops_per_s(records) - untraced_rate, "1/s"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def write_spans(args, spans: list) -> str:
    names = sorted({s[0] for s in spans})
    index = {name: i for i, name in enumerate(names)}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "fields": ["name", "start", "end", "parent", "op", "flags"],
                "names": names,
                "spans": [[index[s[0]], *s[1:]] for s in spans],
            },
            fh,
        )
    return os.path.relpath(path, ROOT)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ops", type=int,
        help="run exactly this many ops instead of for --seconds",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    cli = import_cli()
    setup, ref_setup = (
        measure_setup(args.workload, args.seed) if not args.trace else ([], [])
    )
    probe = speed.Probe(PROBE_KINDS[args.workload])
    stream = workloads.ops(args.workload, args.seed)
    _, cycle = workloads.GENERATORS[args.workload]

    tracer = None
    max_ops = args.ops
    if args.trace:
        max_ops = TRACE_CYCLES[args.workload] * cycle
        reference = untraced_reference(args, max_ops)
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        records, wall, cache = closed_loop(
            cli, stream, probe, args.seconds, max_ops, tracer
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = check_records(records)
    invariance = thread_invariance(cli, args.seed)
    failures += [dict(r, op="threads") for r in invariance if r["error"]]
    attempted = len(records) + len(invariance)
    latencies = [r.ref_seconds for r in records]
    tail_s, tail_pct, beyond = tail(latencies)
    wall_latencies = [r.seconds for r in records]
    census = [r for r in records if r.op.argv[0] in ("zeta", "count")]
    cache["census_ops"] = len(census)
    cache["census_ops_reusing_field"] = sum(r.reused_field for r in census)

    report = {
        "report": "wittzeta-perfbench",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "input_sizes": workloads.INPUT_SIZES[args.workload],
        "ops": len(records),
        "ops_by_class": dict(Counter(r.op.label for r in records)),
        "median_ref_s_by_class": {
            label: statistics.median(
                r.ref_seconds for r in records if r.op.label == label
            )
            for label in dict.fromkeys(r.op.label for r in records)
        },
        "wall_s": wall,
        "probe_kinds": PROBE_KINDS[args.workload],
        "slowdown": {
            "median": statistics.median(r.seconds / r.ref_seconds for r in records),
            "max": max(r.seconds / r.ref_seconds for r in records),
        },
        "wall_clock": {
            "ops_per_s": len(records) / sum(wall_latencies),
            "op_p50_s": statistics.median(wall_latencies),
            "op_tail_s": tail(wall_latencies)[0],
            "setup_s": statistics.median(setup) if setup else None,
        },
        "tail": {"percentile": tail_pct, "samples": len(latencies),
                 "beyond": beyond},
        "failed_ratio": {"value": len(failures) / attempted, "unit": "ratio"},
        "failures": failures[:20],
        "thread_invariance": invariance,
        "cache": cache,
        "setup_probes_s": setup,
        "setup_probes_ref_s": ref_setup,
    }
    if args.trace:
        summary = tracing.summarize(tracer.spans)
        metrics = layer_metrics(summary, cache, records, reference)
        report["spans_file"] = write_spans(args, tracer.spans)
        report["untraced_reference"] = reference
        correct = not failures and reference["correct"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(ref_setup), "unit": "s"},
            "ops_per_s": {"value": ops_per_s(records), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        correct = not failures
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
