"""Cross-validation suite: algebra identities, normalisation, agreement
of the closed-form engine with the exact propagator, and teleportation
self-tests.  The CLI `validate` subcommand renders these results; the
acceptance tests assert the same bounds independently.  Every time-sweep
check reads a SweepConfig: those on Bloch vectors or reduced states run
sweep.sweep, the code path of `simulate` and `teleport`, and the two that
need the amplitude table itself build it on the config's time grid.  The
SweepConfig defaults give the excited pair |ee> and lambda*t in [0, 10].
"""

from dataclasses import dataclass

import numpy as np

from . import algebra, closedform, exact, states, teleport
from .sweep import SweepConfig, sweep

__all__ = [
    "CheckResult",
    "engine_pair_deviation",
    "equivalence_grid",
    "ideal_channel_shortfall",
    "run_all_checks",
]

EQUIVALENCE_Q = (0.5, 0.9, 1.0)
EQUIVALENCE_M = (1, 2)
EQUIVALENCE_NBAR = (0.0, 10.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


def equivalence_grid():
    """The cross-engine comparison grid."""
    for q in EQUIVALENCE_Q:
        for m in EQUIVALENCE_M:
            for nbar in EQUIVALENCE_NBAR:
                yield q, m, nbar


def engine_pair_deviation(q: float, m: int, nbar: float) -> float:
    """Worst per-component difference between the closed-form Bloch
    representation and the decomposed exact propagator output: the
    largest max_dev of `simulate --engine both`."""
    config = SweepConfig(engine="both", q_values=(q,), m=m, nbar=nbar)
    return max(np.max(states.max_deviation(bloch, states.decompose(reduced)))
               for _, _, bloch, reduced in sweep(config))


def _table(config: SweepConfig, q: float) -> closedform.AmplitudeTable:
    """The closed-form amplitude table over the config's whole time grid."""
    return closedform.amplitude_table(config.time_grid, config.atomic_state(),
                                      config.field(), config.hamiltonian(q))


def check_commutator() -> CheckResult:
    """[a_q, a_q^+]|n> = q^n |n> on the truncated ladder.

    Deviations are measured relative to the commutator's operator scale
    (its largest element, q^0 = 1): for q < 1 and large n the target q^n
    sinks below the double-precision resolution of the q-numbers whose
    difference produces it, so a q^n-relative comparison is not
    computable at 1e-12.
    """
    worst = 0.0
    for q in (0.0, 0.5, 0.9, 1.0):
        ladder = exact.deformed_lowering_power(62, 1, q)
        commutator = ladder @ ladder.T - ladder.T @ ladder
        for n in range(61):
            expected = q**n
            dev = abs(commutator[n, n] - expected) / max(1.0, abs(expected))
            worst = max(worst, dev)
    return CheckResult("commutator-identity", worst < 1e-12,
                       f"worst relative deviation {worst:.3e}")

def check_coherent_normalization() -> CheckResult:
    """Truncated weights retain unit squared mass and the Poisson mean."""
    worst_mass = 0.0
    worst_mean = 0.0
    for nbar in (0.0, 1.0, 10.0):
        field = algebra.coherent_field(nbar, 1)
        mass = float(np.sum(field.weights**2))
        worst_mass = max(worst_mass, abs(mass - 1.0))
        mean = float(np.sum(np.arange(field.cutoff + 1) * field.weights**2))
        worst_mean = max(worst_mean, abs(mean - nbar))
    passed = worst_mass < 1e-12 and worst_mean < 1e-9
    return CheckResult(
        "coherent-normalization", passed,
        f"mass deviation {worst_mass:.3e}, mean deviation {worst_mean:.3e}")


def check_amplitude_normalization() -> CheckResult:
    """sum_n sum_i |c_n^(i)(t)|^2 stays 1 along the sweep grids."""
    worst = 0.0
    for m in (1, 2):
        config = SweepConfig(q_values=(0.0, 0.5, 0.9), m=m, steps=51)
        for q in config.q_values:
            table = _table(config, q)
            worst = max(worst, np.max(np.abs(table.total_weight - 1.0)))
    return CheckResult("amplitude-normalization", worst < 1e-9,
                       f"worst deviation {worst:.3e}")


def check_engine_equivalence() -> CheckResult:
    worst = 0.0
    for q, m, nbar in equivalence_grid():
        worst = max(worst, engine_pair_deviation(q, m, nbar))
    return CheckResult("engine-equivalence", worst < 1e-6,
                       f"worst component deviation {worst:.3e}")


def ideal_channel_shortfall(unknown: teleport.UnknownQubit) -> float:
    """Worst fidelity shortfall, over every input of the stack and every
    branch, of teleporting the input over the ideal channel
    (|ee> + |gg>)/sqrt(2), in one circuit run."""
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    channel = exact.DensityMatrix.from_matrix(bell)
    _, bob_state = teleport.circuit_teleport(channel, unknown)
    # Each input against the branch axis.
    per_branch = teleport.UnknownQubit(
        alpha=np.asarray(unknown.alpha)[..., None],
        beta=np.asarray(unknown.beta)[..., None])
    return float(np.max(np.abs(
        1.0 - teleport.fidelity_overlap(per_branch, bob_state))))


def check_teleport_ideal() -> CheckResult:
    """The maximally entangled channel teleports exactly."""
    rng = np.random.default_rng(7)
    kets = []
    for _ in range(50):
        ket = rng.normal(size=2) + 1j * rng.normal(size=2)
        kets.append(ket / np.linalg.norm(ket))
    kets = np.array(kets)
    worst = ideal_channel_shortfall(
        teleport.UnknownQubit(alpha=kets[:, 0], beta=kets[:, 1]))
    return CheckResult("teleport-ideal-channel", worst < 1e-10,
                       f"worst fidelity shortfall {worst:.3e}")


def _random_density(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def check_probability_sums() -> CheckResult:
    rng = np.random.default_rng(11)
    unknown = teleport.UnknownQubit(alpha=0.6, beta=0.8)
    channels = exact.DensityMatrix.from_matrix(
        np.stack([_random_density(rng, 4) for _ in range(100)]))
    probability, _ = teleport.circuit_teleport(channels, unknown)
    total = sum(np.moveaxis(probability, -1, 0))
    worst = np.max(np.abs(total - 1.0))
    return CheckResult("teleport-probability-sum", worst < 1e-10,
                       f"worst deviation {worst:.3e}")


# The corners of a regular tetrahedron, times sqrt(3): both routes are
# affine in su, so four affinely independent inputs pin the whole map,
# where the x axis alone cannot tell |e> from |g>.  Plain tuples: a numpy
# operation at import raised a run's peak RSS by about 0.1 MiB.
TETRAHEDRON = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def check_bob_convention() -> CheckResult:
    """closed_form_bob and the map's 2 p_ee sb_ee reproduce the circuit's
    ee branch, carried at twice its probability, along the teleportation
    sweep, for a stack of inputs spanning the Bloch ball."""
    # The inputs on a leading axis, against the sweep's time axis.
    unknown = teleport.UnknownQubit.from_bloch(
        np.divide(TETRAHEDRON, np.sqrt(3.0))[:, None])
    worst = np.zeros(2)
    config = SweepConfig(q_values=(0.5, 0.9), steps=51)
    for q in config.q_values:
        table = _table(config, q)
        bloch = closedform.bloch_from_table(table)
        p, bob_state = teleport.circuit_teleport(states.compose(bloch), unknown)
        carried = 2.0 * p[..., :1] * states.bloch_vector(bob_state)[..., 0, :]
        p, sb = teleport.branch_map(bloch, unknown.su)
        routes = (teleport.closed_form_bob(unknown, table),
                  2.0 * p[..., :1] * sb[..., 0, :])
        worst = np.maximum(worst, [np.max(np.abs(r - carried)) for r in routes])
    return CheckResult(
        "bob-convention", max(worst) < 1e-10,
        f"worst deviation from the circuit's ee 2 p sb: closed form "
        f"{worst[0]:.3e}, map {worst[1]:.3e}; margin {1e-10 - max(worst):.3e}")


def check_physicality() -> CheckResult:
    """Every reduced state on the sweep grid is a physical density
    matrix with purity in [1/4, 1]."""
    worst_eig = 0.0
    worst_trace = 0.0
    purity_lo, purity_hi = 1.0, 0.25
    for q, m, nbar in equivalence_grid():
        config = SweepConfig(q_values=(q,), m=m, nbar=nbar, steps=26)
        for _, _, bloch, _ in sweep(config):
            rho = states.compose(bloch)
            worst_eig = min(worst_eig, np.min(np.linalg.eigvalsh(rho.matrix)))
            traces = np.trace(rho.matrix, axis1=-2, axis2=-1).real
            worst_trace = max(worst_trace, np.max(np.abs(traces - 1.0)))
            p = states.purity(bloch)
            purity_lo = min(purity_lo, np.min(p))
            purity_hi = max(purity_hi, np.max(p))
    passed = (worst_eig >= -1e-9 and worst_trace < 1e-10
              and purity_lo >= 0.25 - 1e-9 and purity_hi <= 1.0 + 1e-9)
    return CheckResult(
        "physicality-sweep", passed,
        f"min eigenvalue {worst_eig:.3e}, trace deviation {worst_trace:.3e}, "
        f"purity range [{purity_lo:.6f}, {purity_hi:.6f}]")


def entanglement_minima_info() -> list[str]:
    """Smallest entanglement degree reached for t > 0 on the standard
    sweep; reported as values, not asserted as exact zeros."""
    lines = []
    for q in (0.5, 0.9):
        config = SweepConfig(q_values=(q,))
        values = np.concatenate([states.entanglement_degree(bloch)
                                 for _, _, bloch, _ in sweep(config)])[1:]
        times = config.time_grid[1:]
        lines.append(
            f"INFO entanglement-minimum q={q:g}: "
            f"min {min(values):.6e} at lambda_t="
            f"{times[int(np.argmin(values))]:g}")
    return lines


def run_all_checks() -> tuple[list[CheckResult], list[str]]:
    checks = [
        check_commutator(),
        check_coherent_normalization(),
        check_amplitude_normalization(),
        check_engine_equivalence(),
        check_teleport_ideal(),
        check_probability_sums(),
        check_bob_convention(),
        check_physicality(),
    ]
    return checks, entanglement_minima_info()
