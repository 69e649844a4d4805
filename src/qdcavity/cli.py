"""Command-line surface: time sweeps, teleportation sweeps and the
cross-validation report, all emitted as deterministic CSV/plain text.
`simulate` and `teleport` resolve their flags, --config file and --fig
preset into one sweep.SweepConfig and format the rows of sweep.sweep;
`validate` prints the report of validate.run_all_checks.  `teleport`
computes its columns with teleport.branch_map, the affine map of each
block's Bloch states as the sweep yields them, under every engine, and
runs the gate-level circuit once, for the header's ideal-channel
self-test.  A rejected input, or a time grid the host cannot hold, exits
2 before any output.

Times are always reported as lambda * t (dimensionless): the engines
work in units of 1/lambda, so lambda moves no data row and only the
header echoes it.  Values are printed with 12 significant digits,
comma-delimited, with a provenance header (config echo, cutoff, engine,
version) on '#' comment lines, so a repeated run is byte-identical.
"""

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import __version__, states, teleport
from .exact import positivity_warnings
from .sweep import SweepConfig, sweep
from .validate import ideal_channel_shortfall, run_all_checks

__all__ = ["main", "SweepConfig"]

SIMULATE_COLUMNS = (
    "lambda_t", "q", "s_x", "s_y", "s_z", "t_x", "t_y", "t_z",
    "abs_s", "abs_t",
    "c_xx", "c_xy", "c_xz", "c_yx", "c_yy", "c_yz", "c_zx", "c_zy", "c_zz",
    "entanglement", "purity", "negativity",
)
TELEPORT_COLUMNS = (
    "lambda_t", "q", "branch", "probability",
    "f_paper", "f_overlap", "f_average",
)

# Sweep presets mirroring the published parameter sets.
FIG_PRESETS = {
    "1a": {"command": "simulate", "m": 1, "q": (0.0, 0.5, 0.9), "nbar": 10.0},
    "1b": {"command": "simulate", "m": 2, "q": (0.0, 0.5, 0.9), "nbar": 10.0},
    "2a": {"command": "simulate", "m": 1, "q": (0.5, 0.9), "nbar": 10.0},
    "2b": {"command": "simulate", "m": 2, "q": (0.5, 0.9), "nbar": 10.0},
    "3a": {"command": "teleport", "m": 1, "q": (0.5, 0.9), "nbar": 10.0},
    "3b": {"command": "teleport", "m": 2, "q": (0.5, 0.9), "nbar": 10.0},
}

def parse_complex(text: str) -> complex:
    """Accept 're', 're+imi' or 're+imj' forms."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError as err:
        raise ValueError(f"cannot parse complex number from {text!r}") from err


def fmt(value: float) -> str:
    return "%.12g" % (float(value) + 0.0)  # + 0.0 turns -0.0 into 0.0


def format_rows(values) -> list[str]:
    """One CSV line per row of np.column_stack(values), each cell printed
    as fmt prints it, with one % per row."""
    rows = (np.column_stack(values) + 0.0).tolist()
    template = ",".join(["%.12g"] * len(rows[0]))
    return [template % tuple(row) for row in rows]


def fmt_complex(value: complex) -> str:
    z = complex(value)
    return f"{fmt(z.real)}{z.imag or 0.0:+.12g}i"


def _floats(value) -> tuple[float, ...]:
    return tuple(float(v) for v in
                 (value.split(",") if isinstance(value, str) else value))


def _atoms(text: str) -> tuple[complex, ...]:
    atoms = tuple(parse_complex(v) for v in text.split(","))
    if len(atoms) != 4:
        raise ValueError("expected four comma-separated atomic amplitudes")
    return atoms


# Config key -> (SweepConfig field, parser).  The key is also the dest of
# its flag, so a value comes from the flag, then the --config file, then
# the --fig preset; a key none of them sets keeps the field's default.  A
# subcommand accepts exactly the keys its parser has flags for.
CONFIG_KEYS = {
    "engine": ("engine", str),
    "q": ("q_values", _floats),
    "m": ("m", int),
    "nbar": ("nbar", float),
    "lam": ("lam", float),
    "t_max": ("t_max", float),
    "steps": ("steps", int),
    "atoms": ("atoms", _atoms),
    "alpha": ("alpha", parse_complex),
    "beta": ("beta", parse_complex),
    "tail_eps": ("tail_eps", float),
}


def _read_config_file(path: str, accepted: list[str]) -> dict:
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line {raw!r} (expected key=value)")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    unknown = sorted(set(values) - set(accepted))
    if unknown:
        raise ValueError(
            f"unknown config key(s) {', '.join(unknown)} in {path}; "
            f"accepted keys: {', '.join(accepted)}")
    return values


def _resolve(args: argparse.Namespace, command: str) -> SweepConfig:
    """The SweepConfig of `command`, whose parser produced args and has
    already restricted --fig to that command's presets."""
    accepted = [key for key in CONFIG_KEYS if hasattr(args, key)]
    file_values = _read_config_file(args.config, accepted) if args.config else {}
    preset = FIG_PRESETS.get(args.fig, {})
    fields = {}
    for key in accepted:
        name, parse = CONFIG_KEYS[key]
        for value in (getattr(args, key), file_values.get(key),
                      preset.get(key)):
            if value is not None:
                fields[name] = parse(value)
                break
    return SweepConfig(**fields, fig=args.fig)


def _provenance(config: SweepConfig, command: str) -> list[str]:
    lines = [
        f"# qdcavity v{__version__} {command}",
        f"# engine={config.engine}",
        f"# q={','.join(fmt(v) for v in config.q_values)}",
        f"# m={config.m} nbar={fmt(config.nbar)} lambda={fmt(config.lam)} "
        f"tail_eps={config.tail_eps:g}",
        f"# t_max={fmt(config.t_max)} steps={config.steps}",
        "# atoms=" + ",".join(fmt_complex(a) for a in config.atoms),
        f"# cutoff={config.field().cutoff}",
        "# note: q=1 is the undeformed limit of the ladder algebra; "
        "q=0 is the strongest deformation",
    ]
    if config.fig:
        lines.insert(1, f"# preset=fig{config.fig}")
    for warning in config.warnings:
        lines.append(f"# warning: {warning}")
    return lines


def _report_positivity(warnings: list[str]) -> None:
    """One stderr line for the positivity warnings of a sweep's states."""
    if warnings:
        print(f"warning: {len(warnings)} non-positive state(s), first: "
              f"{warnings[0]}", file=sys.stderr)


def cmd_simulate(config: SweepConfig, stream) -> int:
    columns = SIMULATE_COLUMNS + (("max_dev",) if config.engine == "both" else ())
    for line in _provenance(config, "simulate"):
        print(line, file=stream)
    print(",".join(columns), file=stream)
    warnings = []
    for q, times, bloch, reference in sweep(config):
        rho = states.compose(bloch)
        warnings.extend(rho.warnings)
        values = [
            times, np.full(times.shape, q), bloch.s, bloch.t,
            np.sqrt(np.linalg.vecdot(bloch.s, bloch.s)),
            np.sqrt(np.linalg.vecdot(bloch.t, bloch.t)),
            bloch.cross.reshape(-1, 9), states.entanglement_degree(bloch),
            states.purity(bloch), states.negativity(rho),
        ]
        if reference is not None:
            values.append(states.max_deviation(bloch, reference))
        print("\n".join(format_rows(values)), file=stream)
    _report_positivity(warnings)
    return 0


def cmd_teleport(config: SweepConfig, stream) -> int:
    unknown = config.unknown_qubit()
    su = unknown.su
    for line in _provenance(config, "teleport"):
        print(line, file=stream)
    print(f"# alpha={fmt_complex(unknown.alpha)} beta={fmt_complex(unknown.beta)} "
          f"su={','.join(fmt(v) for v in su)}", file=stream)
    print("# f_paper: quarter-normalised score from the branch-weighted "
          "receiver vector (2 * probability * sb on every branch)",
          file=stream)
    shortfall = ideal_channel_shortfall(
        teleport.UnknownQubit.from_bloch((1.0, 0.0, 0.0)))
    print(f"# self-test: ideal channel worst fidelity shortfall "
          f"{shortfall:.3e} {'PASS' if shortfall < 1e-10 else 'FAIL'}",
          file=stream)
    columns = TELEPORT_COLUMNS + (("max_dev",) if config.engine == "both" else ())
    print(",".join(columns), file=stream)
    warnings = []
    count = len(teleport.OUTCOME_LABELS)
    for q, times, bloch, reference in sweep(config):
        if config.engine != "exact":  # the exact states passed a raising check
            warnings.extend(states.compose(bloch).warnings)
        probability, sb = teleport.branch_map(bloch, su)
        # A receiver state (1 + sb . sigma)/2 has the eigenvalue (1 - |sb|)/2.
        warnings.extend(positivity_warnings(
            ((1.0 - np.sqrt(np.linalg.vecdot(sb, sb))) / 2.0).T))
        overlap = (1.0 + np.linalg.vecdot(sb, su)) / 2.0
        values = [
            probability,
            teleport.fidelity_paper(su, 2.0 * probability[..., None] * sb),
            overlap,
            np.broadcast_to(teleport.average_fidelity(probability, overlap)
                            [..., None], probability.shape),
        ]
        if reference is not None:
            values.append(np.max(np.abs(
                sb - teleport.branch_map(reference, su)[1]), axis=-1))
        # Rows run time-major: the four branches of one time, then the next.
        leads = format_rows([np.repeat(times, count),
                             np.full(count * len(times), q)])
        cells = format_rows([np.stack(values, axis=-1).reshape(
            count * len(times), -1)])
        print("\n".join(f"{lead},{label},{rest}" for lead, label, rest in zip(
            leads, teleport.OUTCOME_LABELS * len(times), cells)), file=stream)
    _report_positivity(warnings)
    return 0


def cmd_validate(stream) -> int:
    checks, info = run_all_checks()
    print(f"qdcavity v{__version__} validation report", file=stream)
    for check in checks:
        print(check.line(), file=stream)
    for line in info:
        print(line, file=stream)
    failed = [c for c in checks if not c.passed]
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed",
          file=stream)
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of every main call: parse_args leaves it unchanged,
    and --q's append action starts a new list in each namespace."""
    parser = argparse.ArgumentParser(
        prog="qdcavity",
        description="Two-atom dynamics in a q-deformed multiphoton cavity: "
                    "Bloch-vector sweeps, entanglement, and teleportation "
                    "fidelity over the generated channel.")
    parser.add_argument("--version", action="version",
                        version=f"qdcavity {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sweep(command, help):
        p = sub.add_parser(command, help=help)
        p.add_argument("--engine", choices=("closed", "exact", "both"))
        p.add_argument("--q", action="append", type=float,
                       help="deformation parameter, repeatable")
        p.add_argument("--m", type=int, help="photon multiplicity")
        p.add_argument("--nbar", type=float, help="mean photon number")
        p.add_argument("--lambda", dest="lam", type=float,
                       help="atom-field coupling: the time unit, echoed in "
                       "the header; no data row depends on it")
        p.add_argument("--t-max", type=float, help="largest lambda*t")
        p.add_argument("--steps", type=int, help="grid points")
        p.add_argument("--atoms", help="a1,a2,a3,a4 (complex, re+imi)")
        p.add_argument("--tail-eps", type=float,
                       help="coherent tail tolerance")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--config", help="key=value file; flags override it")
        p.add_argument("--fig", help="preset parameter set",
                       choices=[fig for fig, preset in FIG_PRESETS.items()
                                if preset["command"] == command])
        return p

    add_sweep("simulate", "Bloch-vector/entanglement time sweep (CSV)")
    tele = add_sweep("teleport", "teleportation fidelity sweep (CSV)")
    tele.add_argument("--alpha", help="input amplitude on |e>")
    tele.add_argument("--beta", help="input amplitude on |g>")

    sub.add_parser("validate", help="run the cross-validation suite")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate(sys.stdout)
    runner = cmd_simulate if args.command == "simulate" else cmd_teleport
    # ConfigurationError is a ValueError too; OSError covers a missing
    # --config file or --out directory, and MemoryError a time grid the
    # host cannot hold, which SweepConfig builds before any output.
    try:
        config = _resolve(args, args.command)
        for warning in config.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        if args.out:
            with open(args.out, "w", newline="\n") as handle:
                return runner(config, handle)
        return runner(config, sys.stdout)
    except (ValueError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
