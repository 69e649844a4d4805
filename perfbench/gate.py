"""Correctness gate: every benchmark operation is checked after the pass
has read its metrics.

An operation fails if it raised, returned a non-zero exit code, or its
output fails one of the checks below.  Reference values are compared
numerically within REFERENCE_ATOL, never by byte hash: the CSVs carry
dust-level values (1e-15 to 1e-19) whose last digits may legitimately
move, while any physics change is far above the tolerance.
"""

import json
import math
from pathlib import Path

import numpy as np

from qdcavity import cli, closedform, exact, states

REFERENCE_PATH = Path(__file__).resolve().parent / "reference" / "paper-figs.json"
# The CSVs print 12 significant digits of values of magnitude <= ~3.
REFERENCE_ATOL = 1e-9
# The engine-equivalence bound of the validate suite.
CROSS_ENGINE_ATOL = 1e-6
CROSS_SAMPLES_PER_Q = 8
BLOCH_COLUMNS = ("s_x", "s_y", "s_z", "t_x", "t_y", "t_z",
                 "c_xx", "c_xy", "c_xz", "c_yx", "c_yy", "c_yz",
                 "c_zx", "c_zy", "c_zz")


def parse_csv(text):
    """(comment lines, column names, data rows as lists of strings)."""
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    body = [line.split(",") for line in lines if not line.startswith("#")]
    if not body:
        return comments, [], []
    return comments, body[0], body[1:]


def row_key(columns, row):
    """Identify a row by its printed lambda_t, q and teleport branch."""
    key = [row[columns.index("lambda_t")], row[columns.index("q")]]
    if "branch" in columns:
        key.append(row[columns.index("branch")])
    return ",".join(key)


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())


def _reference_problems(name, columns, rows, reference):
    entry = reference["csv"].get(name)
    if entry is None:
        return [f"no reference values recorded for {name!r}"]
    if columns != entry["columns"]:
        return [f"columns {columns} differ from the reference"]
    by_key = {row_key(columns, row): row for row in rows}
    problems = []
    for key, expected in entry["rows"].items():
        row = by_key.get(key)
        if row is None:
            problems.append(f"reference row {key} missing")
            continue
        for name, want, got in zip(columns, expected, row):
            if isinstance(want, str):
                ok = want == got
            else:
                ok = abs(float(got) - want) <= REFERENCE_ATOL
            if not ok:
                problems.append(f"row {key} column {name}: {got} != {want}")
    return problems


def _cross_engine_problems(argv, columns, rows, seed):
    """Recompute sampled rows of a closed- or exact-engine sweep with the
    other engine."""
    args = cli.build_parser().parse_args(argv)
    config = cli._resolve(args, args.command)
    field = config.field()
    atoms = config.atomic_state()
    times = config.time_grid
    index = [columns.index(name) for name in BLOCH_COLUMNS]
    rng = np.random.default_rng(seed)
    worst = 0.0
    problems = []
    for qi, q in enumerate(config.q_values):
        spec = config.hamiltonian(q)
        if config.engine == "closed":
            propagator = exact.Propagator(spec, field.cutoff)
            initial = exact.initial_composite_state(atoms, field)
        picks = set(rng.choice(config.steps, CROSS_SAMPLES_PER_Q - 1,
                               replace=False).tolist()) | {config.steps - 1}
        for ti in sorted(picks):
            t = times[ti]
            if config.engine == "closed":
                other = states.decompose(exact.reduced_atomic_state(
                    propagator.evolve(initial, t)))
            else:
                other = closedform.evolved_bloch(t, atoms, field, spec)
            row = rows[qi * config.steps + ti]
            if abs(float(row[0]) - config.lam * t) > 1e-9 or \
                    abs(float(row[1]) - q) > 1e-9:
                problems.append(f"row {qi * config.steps + ti} is not "
                                f"(lambda_t={t:g}, q={q:g})")
                continue
            expected = np.concatenate([other.s, other.t, other.cross.ravel()])
            got = np.array([float(row[i]) for i in index])
            worst = max(worst, float(np.max(np.abs(got - expected))))
    if worst > CROSS_ENGINE_ATOL:
        problems.append(f"cross-engine deviation {worst:.3e} exceeds "
                        f"{CROSS_ENGINE_ATOL:g}")
    return problems


def check_operation(op, argv, code, text, error, seed, reference=None):
    """Problems found with one operation; an empty list means it passed.

    op is the workload's operation record (expected rows, cutoff and
    which comparisons apply), argv the arguments actually passed.
    """
    if error is not None:
        return [error]
    if code != 0:
        return [f"exit code {code}"]
    if "expect" in op:
        found = op["expect"] in text.splitlines()
        return [] if found else [f"output lacks {op['expect']!r}"]

    comments, columns, rows = parse_csv(text)
    problems = []
    if len(rows) != op["rows"]:
        problems.append(f"{len(rows)} rows, expected {op['rows']}")
    if f"# cutoff={op['cutoff']}" not in comments:
        problems.append(f"header does not report cutoff={op['cutoff']}")
    if any(len(row) != len(columns) for row in rows):
        return problems + ["ragged CSV rows"]
    numeric = [i for i, name in enumerate(columns) if name != "branch"]
    for row in rows:
        try:
            values = [float(row[i]) for i in numeric]
        except ValueError:
            return problems + [f"non-numeric cell in row {row}"]
        if not all(math.isfinite(v) for v in values):
            return problems + [f"non-finite value in row {row}"]
    if problems:
        return problems
    if op.get("reference"):
        problems += _reference_problems(op["reference"], columns, rows,
                                        reference or load_reference())
    if op.get("cross_check"):
        problems += _cross_engine_problems(argv, columns, rows, seed)
    return problems
