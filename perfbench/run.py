"""qdcavity benchmark.

    python3 perfbench/run.py --workload paper-figs|closed-large|exact-large|all
                             --seed N --seconds S --trace 0|1

Runs one workload for about S seconds as a sequence of passes.  Each
pass is a fresh child process (perfbench/one_pass.py, single-threaded
BLAS/OpenMP) that sets up, runs the workload's qdcavity.cli.main calls,
reads its metrics and then checks every output.  Passes run one at a
time, so no lru_cache carries over between them.  Every metric is
reported as the median over passes, with quartiles and pass count.

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 untraced and traced passes alternate
and it carries the per-layer metrics, medians over the traced passes,
plus trace.overhead_s (traced minus untraced median wall time).
Workload operations, work per pass and the layer map are in
perfbench/workloads.json.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
# No pass starts that would, at the last pass's pace, end after this.
RUN_LIMIT_S = 150
CHILD_TIMEOUT_S = 150
_BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                          "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                          "NUMEXPR_NUM_THREADS")


class PassError(RuntimeError):
    """A pass process ended without a result."""


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_workloads():
    return json.loads((HERE / "workloads.json").read_text())["workloads"]


def _child_env():
    env = dict(os.environ)
    source = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source, env.get("PYTHONPATH")]))
    for name in _BLAS_THREAD_VARIABLES:
        env[name] = "1"
    return env


def run_pass(spec, seed, trace, setup_only=False):
    """Result dict of one pass in a fresh process."""
    command = [sys.executable, str(HERE / "one_pass.py"),
               "--spec", json.dumps(spec), "--seed", str(seed),
               "--trace", str(int(trace))]
    if setup_only:
        command.append("--setup-only")
    try:
        done = subprocess.run(command, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise PassError(f"pass exceeded {CHILD_TIMEOUT_S} s") from err
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise PassError(f"pass exited with code {done.returncode}:\n"
                        f"{done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    """Median, quartiles and count of a list of numbers."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def measure(name, spec, seed, seconds, trace, benchmark):
    """Run passes of one workload for `seconds` and summarise them."""
    run_pass(spec, seed, trace=False, setup_only=True)  # warm import caches
    kinds = (False, True) if trace else (False,)
    passes = {kind: [] for kind in kinds}
    start = time.perf_counter()
    last = 0.0

    def more():
        elapsed = time.perf_counter() - start
        counts = [len(runs) for runs in passes.values()]
        if min(counts) == 0:
            return True
        if elapsed + last > RUN_LIMIT_S:
            return False
        return elapsed < seconds or min(counts) < MIN_PASSES

    count = 0
    while more():
        kind = kinds[count % len(kinds)]
        began = time.perf_counter()
        result = run_pass(spec, seed, kind)
        last = time.perf_counter() - began
        passes[kind].append(result)
        count += 1

    every = [result for runs in passes.values() for result in runs]
    untraced = passes[False]
    summary = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "passes": {"untraced": len(untraced),
                   "traced": len(passes.get(True, []))},
        "attempted": sum(result["attempted"] for result in every),
        "failed": sum(len(result["failures"]) for result in every),
        "failures": [f for result in every for f in result["failures"]][:5],
        "argv": untraced[0]["argv"],
        "end_to_end": {
            metric["name"]: spread([r["metrics"][metric["name"]]
                                    for r in untraced])
            for metric in benchmark["end_to_end"]},
    }
    if trace:
        traced = passes[True]
        layers = {}
        for metric in benchmark["per_layer"]:
            metric_name = metric["name"]
            if metric_name == "trace.overhead_s":
                continue
            # A validate check never run on this workload reports zero.
            layers[metric_name] = spread(
                [r["layers"].get(metric_name, 0) for r in traced])
        summary["not_emitted"] = sorted(
            {m["name"] for m in benchmark["per_layer"]}
            - {"trace.overhead_s"}
            - {name for r in traced for name in r["layers"]})
        traced_wall = statistics.median(r["metrics"]["wall_s"] for r in traced)
        layers["trace.overhead_s"] = spread(
            [traced_wall - summary["end_to_end"]["wall_s"]["median"]])
        summary["per_layer"] = layers
        summary["traced_wall_s"] = traced_wall
        summary["unwrapped"] = traced[0]["unwrapped"]
    return summary


def report(summary, spec, benchmark):
    """Print one workload's results for a reader."""
    units = {m["name"]: m["unit"]
             for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    why = {w["name"]: w["why"] for w in benchmark["workloads"]}
    print(f"== {summary['workload']}  seed={summary['seed']}  "
          f"passes={summary['passes']}")
    print(f"   why: {why.get(summary['workload'], '-')}")
    for argv in summary["argv"]:
        print("   op: qdcavity " + " ".join(argv))
    groups = [("end_to_end", "untraced")]
    if summary["trace"]:
        groups.append(("per_layer", "traced"))
    for group, label in groups:
        for metric_name, s in summary[group].items():
            print(f"   {metric_name:40s} {s['median']:14.6g} "
                  f"{units[metric_name]:6s} q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  n {s['n']}  ({label})")
    print(f"   operations: {summary['attempted']} attempted, "
          f"{summary['failed']} failed")
    for failure in summary["failures"]:
        print(f"   FAILED {' '.join(failure['argv'])}: "
              f"{'; '.join(failure['problems'])}")
    if summary["trace"]:
        layers = summary["per_layer"]
        for metric_name in spec.get("zero_in_trace", []):
            value = layers[metric_name]["median"]
            verdict = "confirmed" if value == 0 else "NOT confirmed"
            print(f"   bypass {metric_name} = {value:g}: {verdict}")
        timed = sorted(((s["median"], n) for n, s in layers.items()
                        if n.endswith("_s") and n != "trace.overhead_s"),
                       reverse=True)
        wall = summary["traced_wall_s"]
        shares = ", ".join(f"{n} {100 * v / wall:.0f} %" for v, n in timed[:5])
        print(f"   largest layers by self time: {shares}")
        if summary["unwrapped"]:
            print(f"   not found, so not traced: {summary['unwrapped']}")


def final_metrics(summary, benchmark, prefix=""):
    group = "per_layer" if summary["trace"] else "end_to_end"
    return {f"{prefix}{m['name']}": {"value": summary[group][m["name"]]["median"],
                                     "unit": m["unit"]}
            for m in benchmark[group]}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through SystemExit on SIGTERM, so subprocess.run kills and
    # reaps the running pass instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    benchmark = load_benchmark()
    workloads = load_workloads()
    seconds = args.seconds if args.seconds is not None \
        else benchmark["run_seconds"]
    names = list(workloads) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in workloads]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; "
                     f"choose from {', '.join(workloads)} or all")

    summaries = []
    try:
        for name in names:
            summary = measure(name, workloads[name], args.seed, seconds,
                              args.trace, benchmark)
            report(summary, workloads[name], benchmark)
            summaries.append(summary)
    except PassError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    metrics = {}
    for summary in summaries:
        prefix = f"{summary['workload']}." if len(summaries) > 1 else ""
        metrics.update(final_metrics(summary, benchmark, prefix))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "summaries": summaries}))
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
