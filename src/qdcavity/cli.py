"""Command-line surface: time sweeps, teleportation sweeps and the
cross-validation report, all emitted as deterministic CSV/plain text.

Times are always reported as lambda * t (dimensionless).  Values are
printed with 12 significant digits, comma-delimited, with a provenance
header (config echo, cutoff, engine, version) on '#' comment lines, so a
repeated run is byte-identical.
"""

import argparse
import sys
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from . import __version__, algebra, closedform, exact, states, teleport
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


@dataclass
class SweepConfig:
    engine: str = "closed"
    q_values: tuple[float, ...] = (1.0,)
    m: int = 1
    nbar: float = 10.0
    lam: float = 1.0
    t_max: float = 10.0
    steps: int = 201
    atoms: tuple[complex, complex, complex, complex] = (1.0, 0.0, 0.0, 0.0)
    alpha: complex = complex(1 / np.sqrt(2.0))
    beta: complex = complex(1 / np.sqrt(2.0))
    tail_eps: float = 1e-12
    out: str | None = None
    fig: str | None = None
    warnings: list[str] = dataclass_field(default_factory=list)

    def __post_init__(self):
        if self.engine not in ("closed", "exact", "both"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.steps < 2:
            raise ValueError("steps must be at least 2")
        if self.t_max <= 0:
            raise ValueError("t_max must be positive")
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        norm = float(np.linalg.norm(np.asarray(self.atoms, dtype=complex)))
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(
                f"atomic amplitudes have norm {norm!r}; renormalisation is "
                "only applied for deviations below 1e-6")
        if abs(norm - 1.0) > 0:
            rescaled = tuple(complex(a) / norm for a in self.atoms)
            if abs(norm - 1.0) > 1e-15:
                self.warnings.append(
                    f"renormalised atomic amplitudes (norm was {norm!r})")
            self.atoms = rescaled
        # A bad value must fail here, before any output or --out file exists.
        for q in self.q_values:
            algebra.DeformationParameter(q)
        self._field = algebra.coherent_field(self.nbar, self.m, self.tail_eps)
        self.unknown_qubit()

    @property
    def time_grid(self) -> np.ndarray:
        """Times in units of 1/lambda such that lambda*t spans [0, t_max]."""
        return np.linspace(0.0, self.t_max, self.steps) / self.lam

    def atomic_state(self) -> exact.AtomicInitialState:
        return exact.AtomicInitialState(*self.atoms)

    def unknown_qubit(self) -> teleport.UnknownQubit:
        ket = np.array([self.alpha, self.beta], dtype=complex)
        norm = float(np.linalg.norm(ket))
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"unknown-qubit amplitudes have norm {norm!r}")
        ket = ket / norm
        return teleport.UnknownQubit(alpha=complex(ket[0]),
                                     beta=complex(ket[1]))

    def hamiltonian(self, q: float) -> exact.HamiltonianSpec:
        return exact.HamiltonianSpec.resonant(self.lam, m=self.m, q=q)

    def field(self) -> algebra.FieldSpec:
        return self._field


def fmt(value: float) -> str:
    v = float(value)
    if v == 0.0:
        v = 0.0  # normalise -0.0
    return f"{v:.12g}"


def fmt_complex(value: complex) -> str:
    z = complex(value)
    return f"{fmt(z.real)}{z.imag:+.12g}i"


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
# the --fig preset; a key none of them sets keeps the field's default.
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


def _read_config_file(path: str) -> dict:
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line {raw!r} (expected key=value)")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    unknown = sorted(set(values) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(
            f"unknown config key(s) {', '.join(unknown)} in {path}; "
            f"accepted keys: {', '.join(CONFIG_KEYS)}")
    return values


def _resolve(args: argparse.Namespace, command: str) -> SweepConfig:
    file_values = _read_config_file(args.config) if args.config else {}
    preset = dict(FIG_PRESETS.get(args.fig or "", {}))
    if preset and preset.pop("command") != command:
        raise ValueError(
            f"preset {args.fig!r} belongs to the other subcommand")
    fields = {}
    for key, (name, parse) in CONFIG_KEYS.items():
        for value in (getattr(args, key, None), file_values.get(key),
                      preset.get(key)):
            if value is not None:
                fields[name] = parse(value)
                break
    return SweepConfig(**fields, out=args.out, fig=args.fig)


def _provenance(config: SweepConfig, command: str, cutoff: int) -> list[str]:
    lines = [
        f"# qdcavity v{__version__} {command}",
        f"# engine={config.engine}",
        f"# q={','.join(fmt(v) for v in config.q_values)}",
        f"# m={config.m} nbar={fmt(config.nbar)} lambda={fmt(config.lam)} "
        f"tail_eps={config.tail_eps:g}",
        f"# t_max={fmt(config.t_max)} steps={config.steps}",
        "# atoms=" + ",".join(fmt_complex(a) for a in config.atoms),
        f"# cutoff={cutoff}",
        "# note: q=1 is the undeformed limit of the ladder algebra; "
        "q=0 is the strongest deformation",
    ]
    if config.fig:
        lines.insert(1, f"# preset=fig{config.fig}")
    for warning in config.warnings:
        lines.append(f"# warning: {warning}")
    return lines


def _sweep(config: SweepConfig, field):
    """Yield (q, times, table, reduced) per chunk of the time grid: the
    closed-form AmplitudeTable (None under --engine exact) and the exact
    engine's reduced atomic states (None under --engine closed)."""
    atoms = config.atomic_state()
    closed = config.engine in ("closed", "both")
    propagate = config.engine in ("exact", "both")
    initial = exact.initial_composite_state(atoms, field) if propagate else None
    for q in config.q_values:
        spec = config.hamiltonian(q)
        propagator = exact.Propagator(spec, field.cutoff) if propagate else None
        for times in algebra.time_chunks(config.time_grid, field.cutoff):
            table = (closedform.amplitude_table(times, atoms, field, spec)
                     if closed else None)
            reduced = (exact.reduced_atomic_state(
                propagator.evolve(initial, times)) if propagate else None)
            yield q, times, table, reduced


def cmd_simulate(config: SweepConfig, stream) -> int:
    field = config.field()
    columns = SIMULATE_COLUMNS + (("max_dev",) if config.engine == "both" else ())
    for line in _provenance(config, "simulate", field.cutoff):
        print(line, file=stream)
    print(",".join(columns), file=stream)
    for q, times, table, reduced in _sweep(config, field):
        bloch = (states.decompose(reduced) if table is None
                 else closedform.bloch_from_table(table))
        rho = states.compose(bloch)
        values = [
            config.lam * times, np.full(times.shape, q), bloch.s, bloch.t,
            np.sqrt(np.linalg.vecdot(bloch.s, bloch.s)),
            np.sqrt(np.linalg.vecdot(bloch.t, bloch.t)),
            bloch.cross.reshape(-1, 9), states.entanglement_degree(bloch),
            states.purity(bloch), states.negativity(rho),
        ]
        if config.engine == "both":
            values.append(states.max_deviation(
                bloch, states.decompose(reduced)))
        for row in np.column_stack(values):
            print(",".join(fmt(v) for v in row), file=stream)
    return 0


def cmd_teleport(config: SweepConfig, stream) -> int:
    field = config.field()
    unknown = config.unknown_qubit()
    su = unknown.su
    for line in _provenance(config, "teleport", field.cutoff):
        print(line, file=stream)
    print(f"# alpha={fmt_complex(unknown.alpha)} beta={fmt_complex(unknown.beta)} "
          f"su={','.join(fmt(v) for v in su)}", file=stream)
    print("# f_paper: quarter-normalised score from the branch-weighted "
          "receiver vector (closed-form sums on the ee branch)", file=stream)
    shortfall = ideal_channel_shortfall(
        [teleport.UnknownQubit.from_bloch((1.0, 0.0, 0.0))])
    print(f"# self-test: ideal channel worst fidelity shortfall "
          f"{shortfall:.3e} {'PASS' if shortfall < 1e-10 else 'FAIL'}",
          file=stream)
    columns = TELEPORT_COLUMNS + (("max_dev",) if config.engine == "both" else ())
    print(",".join(columns), file=stream)
    for q, times, table, reduced in _sweep(config, field):
        channel = (reduced if table is None
                   else states.compose(closedform.bloch_from_table(table)))
        outcomes = teleport.circuit_teleport(channel, unknown)
        f_avg = teleport.average_fidelity(outcomes, unknown)
        exact_outcomes = (teleport.circuit_teleport(reduced, unknown)
                          if config.engine == "both" else None)
        branches = []
        for index, outcome in enumerate(outcomes):
            if outcome.outcome_label == "ee" and table is not None:
                sb_weighted = teleport.closed_form_bob(unknown, table)
            else:
                sb_weighted = 2.0 * outcome.probability[..., None] * outcome.sb
            values = [
                outcome.probability, teleport.fidelity_paper(su, sb_weighted),
                teleport.fidelity_overlap(unknown, outcome.bob_state), f_avg,
            ]
            if exact_outcomes is not None:
                values.append(np.max(np.abs(
                    outcome.sb - exact_outcomes[index].sb), axis=-1))
            branches.append(np.column_stack(values))
        # Rows run time-major: the four branches of one time, then the next.
        for t, per_time in zip(times, np.stack(branches, axis=1)):
            for label, row in zip(teleport.OUTCOME_LABELS, per_time):
                print(",".join([fmt(config.lam * t), fmt(q), label,
                                *(fmt(v) for v in row)]), file=stream)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdcavity",
        description="Two-atom dynamics in a q-deformed multiphoton cavity: "
                    "Bloch-vector sweeps, entanglement, and teleportation "
                    "fidelity over the generated channel.")
    parser.add_argument("--version", action="version",
                        version=f"qdcavity {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, figs):
        p.add_argument("--engine", choices=("closed", "exact", "both"))
        p.add_argument("--q", action="append", type=float,
                       help="deformation parameter, repeatable")
        p.add_argument("--m", type=int, help="photon multiplicity")
        p.add_argument("--nbar", type=float, help="mean photon number")
        p.add_argument("--lambda", dest="lam", type=float,
                       help="atom-field coupling (sets the time unit)")
        p.add_argument("--t-max", type=float, help="largest lambda*t")
        p.add_argument("--steps", type=int, help="grid points")
        p.add_argument("--atoms", help="a1,a2,a3,a4 (complex, re+imi)")
        p.add_argument("--tail-eps", type=float,
                       help="coherent tail tolerance")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--config", help="key=value file; flags override it")
        p.add_argument("--fig", choices=figs, help="preset parameter set")

    sim = sub.add_parser("simulate",
                         help="Bloch-vector/entanglement time sweep (CSV)")
    add_common(sim, ("1a", "1b", "2a", "2b"))

    tele = sub.add_parser("teleport",
                          help="teleportation fidelity sweep (CSV)")
    add_common(tele, ("3a", "3b"))
    tele.add_argument("--alpha", help="input amplitude on |e>")
    tele.add_argument("--beta", help="input amplitude on |g>")

    sub.add_parser("validate", help="run the cross-validation suite")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate(sys.stdout)
    try:
        config = _resolve(args, args.command)
    except (ValueError, closedform.UnsupportedConfigurationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for warning in config.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    runner = cmd_simulate if args.command == "simulate" else cmd_teleport
    try:
        if config.out:
            with open(config.out, "w", newline="\n") as handle:
                code = runner(config, handle)
        else:
            code = runner(config, sys.stdout)
    except (ValueError, closedform.UnsupportedConfigurationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
