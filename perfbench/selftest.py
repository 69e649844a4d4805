"""Self-test of the benchmark harness at a tiny size.

    python3 perfbench/selftest.py

Runs every workload shrunk to nbar <= 10 and 11 time steps, once plain
and once traced, and checks that each metric BENCHMARK.json names is
emitted, that no operation fails and that the traced run confirms each
workload's bypasses.  Then hands the correctness gate outputs that were
corrupted on purpose, each of which it must flag, and a dust-level
change, which it must accept.  Exits 1 if any check fails.
"""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from qdcavity import algebra, cli  # noqa: E402

import gate  # noqa: E402
import run  # noqa: E402

TINY_STEPS = 11  # lambda*t = 0, 1, ..., 10: every reference row is hit
PRESET_STEPS = 201
TINY_NBAR = "10"

failures = []


def expect(condition, message):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def _set_flag(argv, flag, value):
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]


def shrink(spec):
    """The workload with every sweep cut to TINY_STEPS points and nbar
    capped at TINY_NBAR; expected rows and cutoffs follow."""
    tiny = copy.deepcopy(spec)
    for op in tiny["ops"]:
        if "expect" in op:
            continue
        argv = op["argv"]
        steps = int(argv[argv.index("--steps") + 1]) if "--steps" in argv \
            else PRESET_STEPS
        _set_flag(argv, "--steps", str(TINY_STEPS))
        op["rows"] = op["rows"] // steps * TINY_STEPS
        op["grid_points"] = op["grid_points"] // steps * TINY_STEPS
        if "--nbar" in argv:
            _set_flag(argv, "--nbar", TINY_NBAR)
            m = int(argv[argv.index("--m") + 1])
            op["cutoff"] = algebra.choose_cutoff(float(TINY_NBAR), m)
    return tiny


def capture(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def check_harness(benchmark, workloads):
    end_to_end = {m["name"] for m in benchmark["end_to_end"]}
    per_layer = {m["name"] for m in benchmark["per_layer"]}
    layer_map = json.loads((HERE / "workloads.json").read_text())["layer_map"]
    mapped = {name for row in layer_map for name in row["metrics"]}
    expect(mapped == per_layer,
           "the layer map covers exactly the per-layer metrics")
    expect([w["name"] for w in benchmark["workloads"]] == list(workloads),
           "BENCHMARK.json and workloads.json list the same workloads")
    for name, spec in workloads.items():
        tiny = shrink(spec)
        for trace in (0, 1):
            summary = run.measure(name, tiny, seed=1, seconds=0, trace=trace,
                                  benchmark=benchmark)
            label = f"{name} trace={trace}"
            expect(summary["attempted"] >= 1 and summary["failed"] == 0,
                   f"{label}: {summary['attempted']} operations, "
                   f"{summary['failed']} failed {summary['failures']}")
            metrics = run.final_metrics(summary, benchmark)
            wanted = per_layer if trace else end_to_end
            expect(set(metrics) == wanted,
                   f"{label}: emits every {'per-layer' if trace else 'end-to-end'} metric")
            if not trace:
                expect(all(v["value"] > 0 for v in metrics.values()),
                       f"{label}: end-to-end metrics are positive")
                continue
            missing = summary["not_emitted"]
            if name != "paper-figs":  # validate runs only there
                missing = [n for n in missing if not n.startswith("validate.")]
            expect(not missing and not summary["unwrapped"],
                   f"{label}: every layer is traced {missing} "
                   f"{summary['unwrapped']}")
            for metric in spec["zero_in_trace"]:
                expect(metrics[metric]["value"] == 0,
                       f"{label}: bypass {metric} = 0")


def replace_cell(text, key, column, value):
    """text with one CSV cell, addressed by row key and column, replaced."""
    lines = text.splitlines()
    columns = next(line for line in lines if not line.startswith("#")).split(",")
    for i, line in enumerate(lines):
        cells = line.split(",")
        if not line.startswith("#") and cells != columns \
                and gate.row_key(columns, cells) == key:
            cells[columns.index(column)] = value
            lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


def check_gate(workloads):
    figs = shrink(workloads["paper-figs"])
    op = figs["ops"][0]
    code, text = capture(op["argv"])
    seed = 1
    expect(gate.check_operation(op, op["argv"], code, text, None, seed) == [],
           "gate accepts a clean paper-figs CSV")

    _, columns, rows = gate.parse_csv(text)
    row = next(r for r in rows if gate.row_key(columns, r) == "5,0.5")
    s_z = float(row[columns.index("s_z")])
    bad = replace_cell(text, "5,0.5", "s_z", cli.fmt(s_z + 1e-6))
    expect(gate.check_operation(op, op["argv"], 0, bad, None, seed) != [],
           "gate flags a paper-figs CSV with one value off by 1e-6")
    dust = replace_cell(text, "0,0", "negativity", "3e-15")
    expect(gate.check_operation(op, op["argv"], 0, dust, None, seed) == [],
           "gate accepts a dust-level (1e-15) change")
    truncated = "\n".join(text.splitlines()[:-1]) + "\n"
    expect(gate.check_operation(op, op["argv"], 0, truncated, None, seed) != [],
           "gate flags a paper-figs CSV missing its last row")
    expect(gate.check_operation(op, op["argv"], 1, text, None, seed) != [],
           "gate flags a non-zero exit code")

    validate_op = figs["ops"][-1]
    expect(gate.check_operation(validate_op, ["validate"], 0,
                                "7/8 checks passed\n", None, seed) != [],
           "gate flags a validate report without 8/8 checks passed")

    for name in ("closed-large", "exact-large"):
        seeded = shrink(workloads[name])["ops"][0]
        argv = [arg.format(q1="0.5", q2="0.9", atoms="0.5,0.5,0.5,0.5")
                for arg in seeded["argv"]]
        code, text = capture(argv)
        expect(gate.check_operation(seeded, argv, code, text, None, seed) == [],
               f"gate accepts a clean {name} CSV (cross-engine spot check)")
        _, columns, rows = gate.parse_csv(text)
        bad = text
        for r in rows:
            value = float(r[columns.index("c_zz")]) + 1e-3
            bad = replace_cell(bad, gate.row_key(columns, r), "c_zz",
                               cli.fmt(value))
        expect(gate.check_operation(seeded, argv, 0, bad, None, seed) != [],
               f"gate flags {name} output that disagrees with the other engine")

def main():
    benchmark = run.load_benchmark()
    workloads = run.load_workloads()
    check_gate(workloads)
    check_harness(benchmark, workloads)
    print(f"selftest: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
