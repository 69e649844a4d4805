"""The one time sweep behind `simulate`, `teleport` and `validate`: a
checked SweepConfig, and sweep(), which walks its time grid per q value
in blocks of times (algebra.time_chunks) through one engine or both and
yields Bloch stacks only.  SweepConfig holds only values a run reads;
its checks reject every out-of-range or non-finite value, m whose ladder
overflows and t_max whose largest phase overflows, and it builds the
time grid, all before any output.  The engines work in units of
1/lambda: they see the couplings over lambda and evolve to lambda*t, so
lambda moves no data row and is only echoed in the CSV header.
"""

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import algebra, closedform, exact, states, teleport

__all__ = ["SweepConfig", "sweep"]


@dataclass
class SweepConfig:
    engine: str = "closed"
    q_values: tuple[float, ...] = (1.0,)
    m: int = 1
    nbar: float = 10.0
    lam: float = 1.0  # the time unit: checked and echoed, no engine reads it
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
        if not 2 <= self.steps <= 10**8:  # the grid takes 8 bytes a step
            raise ValueError(f"steps must lie in [2, 1e8], got {self.steps}")
        if not 0 < self.t_max < np.inf:
            raise ValueError("t_max must be finite and positive")
        if not 0 < self.lam < np.inf:
            raise ValueError("lambda must be finite and positive")
        if not self.q_values:
            raise ValueError("q_values must hold at least one q")
        self.atoms = self._normalised("atomic", self.atoms)
        # A bad value must fail here, before any output or --out file
        # exists; HamiltonianSpec checks m and each q.
        for q in self.q_values:
            self.hamiltonian(q)
        self._field = algebra.coherent_field(self.nbar, self.m, self.tail_eps)
        self._check_phases()
        self._unknown = teleport.UnknownQubit(*map(complex, self._normalised(
            "unknown-qubit", (self.alpha, self.beta))))
        # Last, after every check and before any output: a grid the host
        # cannot hold raises MemoryError here, which the CLI maps to exit 2.
        self._time_grid = np.linspace(0.0, self.t_max, self.steps)
        self._time_grid.flags.writeable = False

    def _check_phases(self):
        """Reject an m whose couplings overflow, and a t_max whose largest
        phase (2 mu t or 2 t closed, +-2 mu t exact) is not finite."""
        with np.errstate(over="ignore"):
            largest = max(float(np.max(closedform._cached_couplings(
                self._field.cutoff, self.m, q)[2])) for q in self.q_values)
        if not np.isfinite(largest):
            raise ValueError(f"m = {self.m} overflows the ladder's couplings")
        phase = 2.0 * max(largest, 1.0) * self.t_max
        if not np.isfinite(phase):
            raise ValueError(
                f"t_max {self.t_max!r} overflows a phase: "
                f"2 t max(mu, 1) = {phase!r} for largest mu {largest!r}")

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
        """The grid of lambda*t, [0, t_max], built once and read-only:
        the engines' time in units of 1/lambda."""
        return self._time_grid

    def atomic_state(self) -> exact.AtomicInitialState:
        return exact.AtomicInitialState(*self.atoms)

    def unknown_qubit(self) -> teleport.UnknownQubit:
        return self._unknown

    def hamiltonian(self, q: float) -> exact.HamiltonianSpec:
        return exact.HamiltonianSpec(m=self.m, q=q)

    def field(self) -> algebra.FieldSpec:
        return self._field


# Complex cells of one 4x4 matrix: a block of CHUNK_CELLS // 16 times
# holds as many cells as one kernel chunk.
_MATRIX_CELLS = 16


def sweep(config: SweepConfig):
    """Yield (q, times, bloch, reference) per q value and block of
    CHUNK_CELLS // 16 times: bloch is the run's Bloch stack, the exact
    engine's under engine "exact" and else the closed form's, and
    reference the exact engine's under "both", else None.  Inside a block
    the engines run in kernel chunks of CHUNK_CELLS // width times (X + 1
    closed, cutoff + 1 exact), writing their amplitudes into one buffer
    per sweep, with what time does not change formed once per q
    (kernel_factors, Propagator.coefficients and evolve's scratch) and
    dropped after its last block.  The closed form works in one workspace
    per sweep and reduces each chunk into the block's rows, read once per
    block; the exact engine's reduced states are decomposed per block."""
    field = config.field()
    atoms = config.atomic_state()
    full = field.cutoff + 1
    closed = config.engine in ("closed", "both")
    propagate = config.engine in ("exact", "both")
    initial = exact.initial_composite_state(atoms, field) if propagate else None
    blocks = algebra.time_chunks(config.time_grid, _MATRIX_CELLS)
    # The widest chunk: CHUNK_CELLS cells or one row, within the first block.
    cells = min(max(algebra.CHUNK_CELLS, full), len(blocks[0]) * full)
    buffer = np.empty(4 * cells, dtype=complex)
    work = closedform.workspace(1, cells) if closed else None
    for q in config.q_values:
        spec = config.hamiltonian(q)
        propagator = exact.Propagator(spec, field.cutoff) if propagate else None
        factors = closedform.kernel_factors(atoms, field, spec) if closed else None
        coefficients = propagator.coefficients(initial) if propagate else None
        # evolve's scratch for the widest exact chunk, of cells // full times.
        scratch = np.empty(4 * full * (cells // full), complex) if propagate else None
        for block in blocks:
            bloch = reference = None
            if closed:
                sums = closedform.Reduction(
                    np.empty((4, len(block))), np.empty((6, len(block)), complex))
                start = 0
                for times in algebra.time_chunks(block, factors.k.shape[-1]):
                    closedform.amplitude_table(
                        times, atoms, field, spec, out=buffer, work=work,
                        factors=factors).reduce_into(
                            *(s[:, start:start + len(times)] for s in sums), work)
                    start += len(times)
                bloch = closedform.bloch_from_table(sums)
                del sums
            if propagate:
                reference = exact.DensityMatrix(np.concatenate([
                    exact.reduced_atomic_state(propagator.evolve(
                        initial, times, out=buffer[:4 * full * len(times)].reshape(
                            -1, 4, full), work=scratch,
                        coefficients=coefficients)).matrix
                    for times in algebra.time_chunks(block, full)]))
            if block is blocks[-1]:
                propagator = factors = coefficients = scratch = None
            # Decompose once the q's state is dropped: held, it adds to the peak.
            if propagate:
                reference = states.decompose(reference)
                if not closed:
                    bloch, reference = reference, None
            yield q, block, bloch, reference
