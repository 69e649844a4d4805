"""One benchmark pass, run by run.py in a fresh process.

Sets up (imports numpy and qdcavity, draws the inputs from the seed),
runs the workload's operations as qdcavity.cli.main(argv) calls with
their output captured in memory, reads the metrics, and only then
checks every output.  Prints one JSON object on stdout.

    python3 perfbench/one_pass.py --spec JSON --seed N --trace 0|1
"""

import time

T0 = time.perf_counter()  # setup_s is measured from here, the first statement

import argparse
import contextlib
import io
import json
import resource
import sys
import traceback

import numpy as np

from qdcavity import cli


def draw_inputs(seed):
    """Placeholders of the seeded argv templates: two q values in
    [0.1, 1) and normalised complex atomic amplitudes, all printed with
    17 significant digits."""
    rng = np.random.default_rng(seed)
    q1, q2 = rng.uniform(0.1, 1.0, size=2)
    atoms = rng.normal(size=4) + 1j * rng.normal(size=4)
    atoms = atoms / np.linalg.norm(atoms)
    return {
        "q1": f"{q1:.17g}",
        "q2": f"{q2:.17g}",
        "atoms": ",".join(f"{a.real:.17g}{a.imag:+.17g}i" for a in atoms),
    }


def expand(template, values):
    return [arg.format(**values) for arg in template]


def run_operation(argv):
    """(exit code, captured stdout, error text or None) of one call."""
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        return exc.code, buffer.getvalue(), None
    except Exception:  # an operation that raises counts as failed
        return None, buffer.getvalue(), traceback.format_exc()
    return code, buffer.getvalue(), None


def sweep_output_counts(ops, outputs):
    """(CSV data rows, CSV bytes, distinct (lambda_t, q) points) over
    the simulate/teleport operations."""
    import gate

    rows = size = points = 0
    for op, (_, text, _) in zip(ops, outputs):
        if "expect" in op:
            continue
        _, columns, data = gate.parse_csv(text)
        rows += len(data)
        size += len(text.encode())
        if columns:
            points += len({(row[0], row[1]) for row in data})
    return rows, size, points


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", required=True,
                        help="JSON workload record from workloads.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up (warms the import caches)")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec)
    values = draw_inputs(args.seed)
    ops = spec["ops"]
    argvs = [expand(op["argv"], values) for op in ops]
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install()

    outputs = []
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for argv_ in argvs:
        if tracer is not None:
            tracer.op = "validate" if argv_[0] == "validate" else "sweep"
        outputs.append(run_operation(argv_))
    wall_s = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (after.ru_utime + after.ru_stime)
        - (before.ru_utime + before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,  # ru_maxrss is in KiB
    }
    result = {"metrics": metrics, "attempted": len(ops), "argv": argvs}
    if tracer is not None:
        # Snapshot the layers before the checks below call into them.
        rows, size, points = sweep_output_counts(ops, outputs)
        result["layers"] = tracer.metrics(points)
        result["layers"].update({"cli.rows": rows, "cli.csv_bytes": size})
        result["layers"]["exact.build_peak_mb"] = tracer.build_peak_mb()
        result["unwrapped"] = tracer.missing

    # Everything below runs after the metrics were read.
    import gate

    reference = gate.load_reference()
    failures = []
    for op, argv_, (code, text, error) in zip(ops, argvs, outputs):
        problems = gate.check_operation(op, argv_, code, text, error,
                                        args.seed, reference)
        if problems:
            failures.append({"argv": argv_, "problems": problems[:5]})
    result["failures"] = failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
