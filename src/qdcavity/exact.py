"""Exact propagation on the truncated atom-atom-Fock space.

The interaction couples the two atoms to the mode through m-photon
exchanges, so the composite space splits into invariant manifolds
{|ee,n>, |eg,n+m>, |ge,n+m>, |gg,n+2m>}.  The propagator holds the
Hermitian blocks as one stack per block size (1, 3 or 4), diagonalises
each stack once and reuses the decomposition for every evolution time.
Atomic basis order is ee, eg, ge, gg with the excited level first.
Evolving to a 1-D array of times gives stacked states, density matrices
and reductions, with the times on the leading axis.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import (
    DeformationParameter,
    FieldSpec,
    _as_deformation,
    ladder_elements,
    q_number,
)

__all__ = [
    "ATOMIC_LABELS",
    "AtomicInitialState",
    "CompositeState",
    "ConfigurationError",
    "DensityMatrix",
    "HamiltonianSpec",
    "PhysicalityError",
    "Propagator",
    "build_hamiltonian",
    "deformed_lowering_power",
    "initial_composite_state",
    "propagate",
    "reduced_atomic_state",
]

ATOMIC_LABELS = ("ee", "eg", "ge", "gg")

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-10
_EIGENVALUE_FLOOR = -1e-9
_NORM_TOL = 1e-10


class ConfigurationError(ValueError):
    """Raised for inconsistent Hamiltonian or cutoff configuration."""


class PhysicalityError(ValueError):
    """Raised when a matrix fails the density-matrix invariants."""


@dataclass(frozen=True)
class HamiltonianSpec:
    """Couplings and mode parameters of the two-atom/cavity interaction.

    lambda1 sets the time unit: all sweep times are reported as
    lambda * t.  At resonance (detuning = 0) the free terms are dropped
    (interaction picture); the frequencies only enter off resonance.
    """

    lambda1: float
    lambda2: float
    m: int
    q: DeformationParameter
    detuning: float = 0.0
    field_freq: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "q", _as_deformation(self.q))
        if self.lambda1 <= 0 or self.lambda2 <= 0:
            raise ConfigurationError("coupling constants must be positive")
        if self.m < 1:
            raise ConfigurationError("photon multiplicity m must be >= 1")

    @property
    def atom_freq(self) -> float:
        """Atomic transition frequency, field_freq - detuning."""
        return self.field_freq - self.detuning

    @classmethod
    def resonant(cls, coupling: float, m: int = 1, q=1.0) -> "HamiltonianSpec":
        """Equal couplings at zero detuning, the analytically solved case."""
        return cls(lambda1=coupling, lambda2=coupling, m=m,
                   q=_as_deformation(q))

    @property
    def symmetric_resonant(self) -> bool:
        return self.lambda1 == self.lambda2 and self.detuning == 0.0


@dataclass(frozen=True)
class AtomicInitialState:
    """Pure two-atom state a1|ee> + a2|eg> + a3|ge> + a4|gg>."""

    a1: complex
    a2: complex
    a3: complex
    a4: complex

    def __post_init__(self):
        norm_sq = sum(abs(a) ** 2 for a in self.amplitudes)
        if abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(
                f"amplitudes must be normalised, |a|^2 = {norm_sq!r}"
            )

    @property
    def amplitudes(self) -> tuple[complex, complex, complex, complex]:
        return (complex(self.a1), complex(self.a2),
                complex(self.a3), complex(self.a4))

    @property
    def vector(self) -> np.ndarray:
        return np.array(self.amplitudes, dtype=complex)

    @classmethod
    def normalized(cls, a1, a2, a3, a4) -> "AtomicInitialState":
        v = np.array([a1, a2, a3, a4], dtype=complex)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("cannot normalise the zero vector")
        v = v / norm
        return cls(*v)


@dataclass(frozen=True)
class DensityMatrix:
    """Dense Hermitian unit-trace matrix (or a stack of them) with
    physicality validators; one warning per non-positive matrix."""

    matrix: np.ndarray
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           np.asarray(self.matrix, dtype=complex))

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @classmethod
    def from_matrix(cls, matrix, *, positivity: str = "raise") -> "DensityMatrix":
        """Validate Hermiticity, unit trace and spectrum.

        positivity = "raise" rejects negative eigenvalues below the
        truncation-dust floor; "warn" records them in the result instead.
        """
        rho = np.asarray(matrix, dtype=complex)
        if rho.ndim < 2 or rho.shape[-2] != rho.shape[-1]:
            raise PhysicalityError(f"expected a square matrix, got {rho.shape}")
        herm_dev = float(np.max(np.abs(rho - rho.conj().mT)))
        if herm_dev > _HERMITICITY_TOL:
            raise PhysicalityError(f"matrix not Hermitian, deviation {herm_dev:.3e}")
        trace_dev = float(np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)))
        if trace_dev > _TRACE_TOL:
            raise PhysicalityError(f"trace deviates from 1 by {trace_dev:.3e}")
        min_eig = np.ravel(np.linalg.eigvalsh((rho + rho.conj().mT) / 2.0)[..., 0])
        warnings = tuple(f"negative eigenvalue {value:.3e} below floor"
                         for value in min_eig[min_eig < _EIGENVALUE_FLOOR])
        if warnings and positivity != "warn":
            raise PhysicalityError(warnings[0])
        return cls(matrix=rho, warnings=warnings)


def as_matrix(rho) -> np.ndarray:
    """Accept DensityMatrix or bare ndarray."""
    return np.asarray(getattr(rho, "matrix", rho), dtype=complex)


@dataclass(frozen=True)
class CompositeState:
    """Amplitudes over (atomic level) x (Fock number), unit norm, with
    any leading stack axes."""

    cutoff: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amp)
        if amp.shape[-2:] != (4, self.cutoff + 1):
            raise ValueError(
                f"expected shape (..., 4, {self.cutoff + 1}), got {amp.shape}"
            )
        norm_dev = np.max(np.abs(np.linalg.norm(amp, axis=(-2, -1)) - 1.0))
        if norm_dev > _NORM_TOL:
            raise ValueError(f"composite state norm off 1 by {norm_dev:.3e}")


def deformed_lowering_power(cutoff: int, m: int, q) -> np.ndarray:
    """Matrix of a_q^m on the truncated Fock space:
    <n-m| a_q^m |n> = ladder_elements(cutoff, m, q)[n]."""
    out = np.zeros((cutoff + 1, cutoff + 1))
    np.fill_diagonal(out[:, m:], ladder_elements(cutoff, m, q)[m:])
    return out


def _atomic_lowering() -> tuple[np.ndarray, np.ndarray]:
    """(first-atom, second-atom) lowering operators on the 4-dim basis."""
    sig = np.zeros((4, 4))
    sig[2, 0] = 1.0  # ee -> ge
    sig[3, 1] = 1.0  # eg -> gg
    tau = np.zeros((4, 4))
    tau[1, 0] = 1.0  # ee -> eg
    tau[3, 2] = 1.0  # ge -> gg
    return sig, tau


def build_hamiltonian(spec: HamiltonianSpec, cutoff: int) -> np.ndarray:
    """Full Hamiltonian on the 4(cutoff+1)-dimensional composite space.

    At resonance only the interaction part survives:
        lambda1 (sigma+ a_q^m + sigma- a_q^+m)
      + lambda2 (tau+   a_q^m + tau-   a_q^+m).
    Off resonance the free parts field_freq * a_q^+ a_q and
    (atom_freq/2)(sigma_z + tau_z) are kept; they are diagonal, so the
    manifold block structure is unchanged.
    """
    if cutoff < 2 * spec.m:
        raise ConfigurationError(
            f"cutoff {cutoff} cannot hold one full manifold (need >= {2 * spec.m})"
        )
    a_m = deformed_lowering_power(cutoff, spec.m, spec.q)
    sig_minus, tau_minus = _atomic_lowering()
    h = spec.lambda1 * np.kron(sig_minus.T, a_m) \
        + spec.lambda2 * np.kron(tau_minus.T, a_m)
    h = h + h.T
    h = h.astype(complex)
    if spec.detuning != 0.0:
        number = np.diag([q_number(n, spec.q) for n in range(cutoff + 1)])
        inversion = np.diag([1.0, 0.0, 0.0, -1.0])
        h = h + spec.field_freq * np.kron(np.eye(4), number) \
            + spec.atom_freq * np.kron(inversion, np.eye(cutoff + 1))
    return h


def _manifold_blocks(cutoff: int, m: int) -> list[np.ndarray]:
    """Flat indices of the invariant blocks, one (blocks, size) stack per
    block size; with cutoff >= 2m exactly the sizes 1, 3 and 4 occur.
    |k,p> lies in manifold n = p - (0, m, m, 2m)[k]; the stable sort on n
    keeps each block's members in ee, eg, ge, gg order."""
    dim = cutoff + 1
    label = np.tile(np.arange(dim), 4) - np.repeat([0, m, m, 2 * m], dim)
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[order], prepend=-2 * m - 1))
    sizes = np.diff(starts, append=order.size)
    return [order[starts[sizes == k][:, None] + np.arange(k)]
            for k in (1, 3, 4)]


class Propagator:
    """Spectral block propagator for one (spec, cutoff) pair.

    One stack per block size, each eigendecomposed once; the stacks are
    immutable after construction, so a single instance may be shared
    across threads and evolution times.
    """

    def __init__(self, spec: HamiltonianSpec, cutoff: int):
        self.spec = spec
        self.cutoff = cutoff
        hamiltonian = build_hamiltonian(spec, cutoff)
        self._stacks = []
        for flat in _manifold_blocks(cutoff, spec.m):
            eigvals, eigvecs = np.linalg.eigh(
                hamiltonian[flat[:, :, None], flat[:, None, :]])
            self._stacks.append((flat, eigvals, eigvecs))

    def evolve(self, state: CompositeState, t) -> CompositeState:
        """psi(t) = exp(-i H t) psi(0), one stack of blocks at a time, at
        one time t or at each time of a 1-D array (a stack of states)."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("evolution time must be nonnegative")
        if state.cutoff != self.cutoff:
            raise ConfigurationError("state cutoff does not match propagator")
        psi0 = state.amplitudes.reshape(4 * (self.cutoff + 1))
        amps = np.empty(t.shape + psi0.shape, dtype=complex)
        for flat, eigvals, eigvecs in self._stacks:
            # V^H psi0 once, (B, k, 1); phases per time, ([T,] B, k, 1).
            coefficients = eigvecs.conj().mT @ psi0[flat][:, :, None]
            phases = np.exp(-1j * eigvals * t[..., None, None])[..., None]
            amps[..., flat] = (eigvecs @ (phases * coefficients))[..., 0]
        return CompositeState(self.cutoff, amps.reshape(t.shape + (4, -1)))


@functools.lru_cache(maxsize=32)
def _cached_propagator(spec: HamiltonianSpec, cutoff: int) -> Propagator:
    return Propagator(spec, cutoff)


def propagate(state: CompositeState, spec: HamiltonianSpec,
              t: float) -> CompositeState:
    """Evolve a composite state; block decompositions are cached per
    (spec, cutoff)."""
    return _cached_propagator(spec, state.cutoff).evolve(state, t)


def initial_composite_state(atoms: AtomicInitialState,
                            field: FieldSpec) -> CompositeState:
    """Product state (sum_k a_k |k>) x (sum_n W_n |n>), renormalised to
    absorb the truncated coherent tail."""
    amps = np.outer(atoms.vector, field.weights.astype(complex))
    norm = np.linalg.norm(amps)
    if norm == 0:
        raise ValueError("empty initial state")
    return CompositeState(field.cutoff, amps / norm)


def reduced_atomic_state(state: CompositeState) -> DensityMatrix:
    """Trace out the field: rho_a[k, l] = sum_n psi[k, n] psi*[l, n]."""
    psi = state.amplitudes
    rho = psi @ psi.conj().mT
    return DensityMatrix.from_matrix(rho)
