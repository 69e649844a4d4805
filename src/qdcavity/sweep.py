"""The one time sweep behind `simulate`, `teleport` and `validate`: a
checked SweepConfig, and sweep(), which walks its time grid per q value
in chunks of times (algebra.time_chunks) through one engine or both.
SweepConfig holds only values a run reads; its checks reject every
out-of-range or non-finite value before a caller writes anything.
"""

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import algebra, closedform, exact, teleport

__all__ = ["SweepConfig", "sweep"]


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
    fig: str | None = None
    warnings: list[str] = dataclass_field(default_factory=list, init=False)

    def __post_init__(self):
        if self.engine not in ("closed", "exact", "both"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.steps < 2:
            raise ValueError("steps must be at least 2")
        if not 0 < self.t_max < np.inf:
            raise ValueError("t_max must be finite and positive")
        if not self.q_values:
            raise ValueError("q_values must hold at least one q")
        self.atoms = self._normalised("atomic", self.atoms)
        # A bad value must fail here, before any output or --out file
        # exists; HamiltonianSpec checks lambda, m and each q.
        for q in self.q_values:
            self.hamiltonian(q)
        self._field = algebra.coherent_field(self.nbar, self.m, self.tail_eps)
        self._unknown = teleport.UnknownQubit(*map(complex, self._normalised(
            "unknown-qubit", (self.alpha, self.beta))))

    def _normalised(self, name: str, amplitudes) -> tuple:
        """The amplitudes at unit norm: a norm more than 1e-6 from 1 is
        rejected, one more than 1e-15 from 1 is reported, and exactly 1
        leaves them as given (dividing by 1 can flip a signed zero)."""
        norm = float(np.linalg.norm(np.asarray(amplitudes, dtype=complex)))
        if not abs(norm - 1.0) <= 1e-6:
            raise ValueError(
                f"{name} amplitudes have norm {norm!r}; renormalisation is "
                "only applied for deviations below 1e-6")
        if abs(norm - 1.0) > 1e-15:
            self.warnings.append(
                f"renormalised {name} amplitudes (norm was {norm!r})")
        if norm == 1.0:
            return tuple(amplitudes)
        return tuple(complex(a) / norm for a in amplitudes)

    @property
    def time_grid(self) -> np.ndarray:
        """Times in units of 1/lambda such that lambda*t spans [0, t_max]."""
        return np.linspace(0.0, self.t_max, self.steps) / self.lam

    def atomic_state(self) -> exact.AtomicInitialState:
        return exact.AtomicInitialState(*self.atoms)

    def unknown_qubit(self) -> teleport.UnknownQubit:
        return self._unknown

    def hamiltonian(self, q: float) -> exact.HamiltonianSpec:
        return exact.HamiltonianSpec(self.lam, m=self.m, q=q)

    def field(self) -> algebra.FieldSpec:
        return self._field


def sweep(config: SweepConfig):
    """Yield (q, times, table, reduced) per q value and chunk of the time
    grid: the closed-form AmplitudeTable (None under engine "exact") and
    the exact engine's reduced atomic states (None under engine "closed")."""
    field = config.field()
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
