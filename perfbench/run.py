"""Benchmark of hilbert-mfg: run one workload for a time budget, check its
outputs, and print its metrics as one JSON object on the last line.

    python3 perfbench/run.py --workload mfg-2d --seed 11 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Run it from the root of a checkout; the package is imported from ./src and
nothing is installed.  With --trace 0 a run reports the end-to-end metrics
(wall_s, setup_s, peak_rss_mb, hjb_residual); with --trace 1 it reports the
per-layer metrics of spans.py.  Scratch files go to ./.perfbench.
"""

import os
import sys

# One thread per numeric library, fixed before numpy is first imported: the
# CLI's --threads flag sets these only after numpy has loaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DEFAULT_SECONDS = 15
MIN_CALLS = 4       # a run makes at least this many timed calls
SETUP_SAMPLES = 3   # fresh processes whose set-up time gives setup_s
NAMES = ("mfg-1d", "mfg-2d", "transport-w1", "fp-3d")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "hjb_residual": "1"}


def _import_program():
    """Import hilbert_mfg from ./src and the modules that drive it; exit
    with code 2 when the checkout does not hold the package."""
    sys.path.insert(0, str(SRC))
    try:
        import hilbert_mfg
    except ImportError as exc:
        sys.exit("perfbench: cannot import hilbert_mfg from %s: %s" % (SRC, exc))
    if Path(hilbert_mfg.__file__).resolve().parent.parent != SRC:
        sys.exit("perfbench: hilbert_mfg was imported from %s, not from %s"
                 % (hilbert_mfg.__file__, SRC))
    import spans
    import workloads
    return spans, workloads


def machine_line():
    import numpy
    import scipy
    return ("nproc=%d python=%s numpy=%s scipy=%s threads=%s"
            % (os.cpu_count(), platform.python_version(), numpy.__version__,
               scipy.__version__, os.environ["OPENBLAS_NUM_THREADS"]))


def setup_seconds(name, seed):
    """Median wall time of SETUP_SAMPLES fresh processes that import the
    program and build one workload's model, config and inputs."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                        "--seed", str(seed), "--setup-probe"],
                       check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _call(wl, prep, out, traced, spans_mod):
    """One timed call.  Returns (wall seconds, problems, digest, info, tracer)."""
    tracer = spans_mod.Tracer() if traced else None
    t0 = time.perf_counter()
    try:
        with tracer if traced else contextlib.nullcontext():
            outcome = wl.call(prep, out)
    except Exception as exc:  # the harness reports any failure of the program
        wall = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return wall, ["%s: %s" % (type(exc).__name__, exc)], "", {}, tracer
    wall = time.perf_counter() - t0
    try:
        verdict = wl.verify(prep, outcome)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return wall, ["unreadable outputs: %s: %s" % (type(exc).__name__, exc)], "", {}, tracer
    return wall, verdict.problems, verdict.digest, verdict.info, tracer


def measure(wl, seed, seconds, trace, workdir, spans_mod, setup_s=None, report=print):
    """Call one workload repeatedly for about `seconds` (at least MIN_CALLS
    times) and return the result object the last output line carries.

    With trace off every call is untraced.  With trace on the calls cycle
    untraced, traced, traced, so the run yields the tracing overhead and
    two traced calls whose counts must agree.  A call whose outputs fail a
    check, or whose digest differs from the first correct call's, counts as
    failed and gives no time."""
    from workloads import dir_bytes

    workdir.mkdir(parents=True, exist_ok=True)
    prep = wl.prepare(seed, workdir)
    calls = []
    kept = None
    reference = None
    start = time.perf_counter()
    while len(calls) < MIN_CALLS or (
            time.perf_counter() - start + statistics.median(c["wall"] for c in calls) <= seconds):
        index = len(calls)
        traced = bool(trace) and index % 3 != 0
        out = workdir / "run"  # one path for every call: config.echo records it
        wall, problems, digest, info, tracer = _call(wl, prep, out, traced, spans_mod)
        if not problems:
            reference = reference or digest
            if digest != reference:
                problems = ["digest %s differs from the first call's %s" % (digest, reference)]
        call = {"wall": wall, "traced": traced, "problems": problems, "info": info}
        if traced:
            call["layers"] = tracer.layer_metrics()
            call["layers"]["cli.artifact_bytes"] = dir_bytes(out) if out.exists() else 0
            if not any(c["traced"] for c in calls):
                tracer.dump(workdir.parent / ("spans-%s-seed%d.jsonl" % (wl.name, seed)))
        calls.append(call)
        report("perfbench: call %d %s %.4f s %s%s" % (
            index, "traced" if traced else "untraced", wall,
            "ok" if not problems else "FAILED: " + "; ".join(problems),
            "".join(" %s=%s" % kv for kv in info.items())))
        if kept is None and not problems and out.exists():
            kept = out.rename(workdir / "kept")
        elif out.exists():
            shutil.rmtree(out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layer_units = {name: unit for name, (unit, _) in spans_mod.LAYER_METRICS.items()}
    traced = [c for c in calls if c["traced"] and not c["problems"]]
    for c in traced[1:]:
        for name, unit in layer_units.items():
            if unit != "s" and c["layers"].get(name) != traced[0]["layers"].get(name):
                c["problems"].append("count %s = %r differs from the first traced call's %r"
                                     % (name, c["layers"].get(name), traced[0]["layers"].get(name)))
        if c["problems"]:
            report("perfbench: traced call FAILED: " + "; ".join(c["problems"]))
    ok = [c for c in calls if not c["problems"]]
    report("perfbench: digest %s seed=%d %s" % (wl.name, seed, reference))

    def median_wall(group):
        return statistics.median(c["wall"] for c in (group or calls))

    untraced = [c for c in ok if not c["traced"]]
    correct = len(ok) == len(calls)
    if trace:
        traced = [c for c in ok if c["traced"]]
        values = dict(traced[0]["layers"]) if traced else {}
        for name, unit in layer_units.items():
            if unit == "s" and name in values:
                values[name] = statistics.median(c["layers"][name] for c in traced)
        values["trace.overhead_s"] = median_wall(traced) - median_wall(untraced)
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit in layer_units.items()}
    else:
        residual = 1.0  # placeholder for workloads that run no value solve
        if wl.residual is not None and kept is not None:
            residual = wl.residual(prep, kept)
            report("perfbench: hjb_residual %s seed=%d %.17g" % (wl.name, seed, residual))
            correct = correct and math.isfinite(residual)
        values = {"wall_s": median_wall(untraced), "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb, "hjb_residual": residual}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    shutil.rmtree(workdir, ignore_errors=True)
    return {"correct": correct, "attempted": len(calls),
            "failed": len(calls) - len(ok), "metrics": metrics}


def run_all(args):
    """Run every workload in its own process and print a table of metrics."""
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print("perfbench: %s exited %d without a result" % (name, proc.returncode))
            return 1
        results[name] = json.loads(lines[-1])
    print("%-14s %-30s %16s  %s" % ("workload", "metric", "value", "unit"))
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print("%-14s %-30s %16.6g  %s" % (name, metric, m["value"], m["unit"]))
        print("%-14s %-30s %16s" % (name, "correct attempted/failed",
                                     "%s %d/%d" % (res["correct"], res["attempted"], res["failed"])))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s.%s" % (name, metric): m
                    for name, r in results.items() for metric, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    spans_mod, workloads = _import_program()
    if args.workload == "all":
        return run_all(args)
    wl = workloads.WORKLOADS[args.workload]
    workdir = WORK / ("%s-%d" % (args.workload, os.getpid()))
    if args.setup_probe:
        workdir.mkdir(parents=True)
        try:
            wl.prepare(args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    print("perfbench: workload=%s seed=%d trace=%d %s"
          % (args.workload, args.seed, args.trace, machine_line()))
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    result = measure(wl, args.seed, args.seconds, args.trace, workdir, spans_mod, setup_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
