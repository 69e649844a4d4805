"""Exact propagation on the truncated atom-atom-Fock space.

The interaction couples the two atoms to the mode through m-photon
exchanges, so the composite space splits into invariant manifolds
{|ee,n>, |eg,n+m>, |ge,n+m>, |gg,n+2m>}.  The propagator builds the
Hermitian blocks from their indices, one stack per block size (1, 3 or
4), never the full 4(cutoff+1)-square operator; it diagonalises each
stack once and reuses the decomposition for every evolution time.
Atomic basis order is ee, eg, ge, gg with the excited level first.
Evolving to a 1-D array of times gives stacked states, density matrices
and reductions, with the times on the leading axis.  Propagator.evolve
writes the evolved amplitudes into a caller's buffer when given one,
which is how sweep.sweep reuses one buffer for every chunk of a sweep,
and works in a caller's scratch when given one, which sweep.sweep keeps
for each q.  Each stack's phases are formed from the real angles -E t
as cosines and sines, weighted in place, and turned back by one matmul;
the full manifolds are written back by one slice per level.
"""

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .algebra import FieldSpec, check_deformation, ladder_elements

__all__ = [
    "AtomicInitialState",
    "CompositeState",
    "ConfigurationError",
    "DensityMatrix",
    "HamiltonianSpec",
    "PhysicalityError",
    "Propagator",
    "deformed_lowering_power",
    "initial_composite_state",
    "positivity_warnings",
    "reduced_atomic_state",
]

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
    """Photon multiplicity and deformation of the resonant two-atom/cavity
    interaction, in units of its coupling lambda.

    Both atoms couple to the mode with the same lambda, which sets the
    time unit: the engines evolve under H / lambda to the time lambda*t,
    the only time any sweep reports.  At resonance the free terms drop
    out in the interaction picture, so no frequency enters.
    """

    m: int = 1
    q: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "q", check_deformation(self.q))
        if not 1 <= self.m < np.inf:
            raise ConfigurationError(
                "photon multiplicity m must be finite and >= 1")


@dataclass(frozen=True)
class AtomicInitialState:
    """Pure two-atom state a1|ee> + a2|eg> + a3|ge> + a4|gg>."""

    a1: complex
    a2: complex
    a3: complex
    a4: complex

    def __post_init__(self):
        norm_sq = sum(abs(a) ** 2 for a in self.amplitudes)
        if not abs(norm_sq - 1.0) <= 1e-12:
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


def positivity_warnings(smallest) -> tuple[str, ...]:
    """One warning per smallest eigenvalue below the truncation-dust floor."""
    smallest = np.ravel(smallest)
    return tuple(f"negative eigenvalue {value:.3e} below floor"
                 for value in smallest[smallest < _EIGENVALUE_FLOOR])


@dataclass(frozen=True)
class DensityMatrix:
    """Dense Hermitian unit-trace matrix (or a stack of them); from_matrix
    records a warning per non-positive matrix and each min_eigenvalue."""

    matrix: np.ndarray
    warnings: tuple[str, ...] = ()
    min_eigenvalue: np.ndarray | None = dataclass_field(default=None, init=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           np.asarray(self.matrix, dtype=complex))

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
        if not herm_dev <= _HERMITICITY_TOL:
            raise PhysicalityError(f"matrix not Hermitian, deviation {herm_dev:.3e}")
        trace_dev = float(np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)))
        if not trace_dev <= _TRACE_TOL:
            raise PhysicalityError(f"trace deviates from 1 by {trace_dev:.3e}")
        min_eig = np.linalg.eigvalsh((rho + rho.conj().mT) / 2.0)[..., 0]
        warnings = positivity_warnings(min_eig)
        if warnings and positivity != "warn":
            raise PhysicalityError(warnings[0])
        result = cls(matrix=rho, warnings=warnings)
        object.__setattr__(result, "min_eigenvalue", min_eig)
        return result


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
        # One pass per stacked state: its float view dotted with itself.
        cells = np.ascontiguousarray(amp).reshape(amp.shape[:-2] + (-1,)).view(float)
        norm_dev = np.max(np.abs(np.sqrt(np.vecdot(cells, cells)) - 1.0))
        if not norm_dev <= _NORM_TOL:
            raise ValueError(f"composite state norm off 1 by {norm_dev:.3e}")


def deformed_lowering_power(cutoff: int, m: int, q) -> np.ndarray:
    """Matrix of a_q^m on the truncated Fock space:
    <n-m| a_q^m |n> = ladder_elements(cutoff, m, q)[n]."""
    out = np.zeros((cutoff + 1, cutoff + 1))
    np.fill_diagonal(out[:, m:], ladder_elements(cutoff, m, q)[m:])
    return out


def _collective_lowering() -> np.ndarray:
    """sigma- + tau-, both atoms' lowering operators summed on the 4-dim
    basis; the two never share an entry."""
    low = np.zeros((4, 4))
    low[2, 0] = low[3, 1] = 1.0  # first atom: ee -> ge, eg -> gg
    low[1, 0] = low[3, 2] = 1.0  # second atom: ee -> eg, ge -> gg
    return low


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


def _block_stacks(spec: HamiltonianSpec, cutoff: int) -> list:
    """(flat, blocks) per block size of the interaction-picture coupling,
    in units of lambda,
        sigma+ a_q^m + sigma- a_q^+m + tau+ a_q^m + tau- a_q^+m:
    |k,p> and |l,r> couple by ladder[max(p, r)] when one atom flips
    between levels k and l, and not at all otherwise."""
    ladder = ladder_elements(cutoff, spec.m, spec.q)
    low = _collective_lowering()
    adjacency = low + low.T
    stacks = []
    for flat in _manifold_blocks(cutoff, spec.m):
        level, p = divmod(flat, cutoff + 1)
        blocks = (ladder[np.maximum(p[:, :, None], p[:, None, :])]
                  * adjacency[level[:, :, None], level[:, None, :]])
        stacks.append((flat, blocks.astype(complex)))
    return stacks


def _column_runs(flat: np.ndarray):
    """One slice per column of a stack's flat indices when every column
    is a run of consecutive indices, else None: the full manifolds
    n = 0, 1, ... hold level i at photon numbers shift_i + n."""
    runs = tuple(slice(start, start + len(flat)) for start in flat[0])
    return runs if all(np.array_equal(column, np.arange(run.start, run.stop))
                       for column, run in zip(flat.T, runs)) else None


class Propagator:
    """Spectral block propagator for one (spec, cutoff) pair.

    One stack per block size, built from its indices (memory linear in
    the cutoff) and eigendecomposed once; the stacks are immutable after
    construction, and evolve keeps no buffer between calls (an out=
    buffer and a work= scratch belong to their caller), so a single
    instance may be shared across threads and evolution times.
    """

    def __init__(self, spec: HamiltonianSpec, cutoff: int):
        if cutoff < 2 * spec.m:
            raise ConfigurationError(
                f"cutoff {cutoff} cannot hold one full manifold (need >= {2 * spec.m})"
            )
        self.cutoff = cutoff
        # (flat, eigvals, eigvecs, runs) per block size, the full manifolds
        # first: evolve forms their phases in out, which their own slice
        # writes overwrite before the edge stacks write theirs.
        self._stacks = [(flat, *np.linalg.eigh(blocks), _column_runs(flat))
                        for flat, blocks in reversed(_block_stacks(spec, cutoff))]
        assert self._stacks[0][3] is not None, "full manifolds are not runs"

    def coefficients(self, state: CompositeState) -> list:
        """V^H psi0 per stack, (B, k, 1): what evolve reads of the state,
        and takes as coefficients= when many calls evolve one state."""
        psi0 = state.amplitudes.reshape(-1)
        return [eigvecs.conj().mT @ psi0[flat][:, :, None]
                for flat, _, eigvecs, _ in self._stacks]

    def evolve(self, state: CompositeState, t, *, out=None, work=None,
               coefficients=None) -> CompositeState:
        """psi(t) = exp(-i H t) psi(0), H and t in units of lambda and
        1/lambda, one stack of blocks at a time, at one time t or at each
        time of a 1-D array (a stack of states).  Per stack, the phases
        are cos(-E t) + i sin(-E t) of the real angles -E t, which gives
        the amplitudes of exp(-1j * E * t) bit for bit; they are weighted
        by the coefficients and turned back by the eigenvectors, and the
        full manifolds are written by one slice copy per level, the edge
        stacks by their flat indices.

        The amplitudes are written into out when it is given: a
        caller-owned C-contiguous complex array of shape
        t.shape + (4, cutoff + 1), apart from the state's amplitudes,
        which the returned state wraps.  work is a caller-owned scratch
        for the full manifolds' product with the eigenvectors, whose
        phases are formed in out: a C-contiguous complex array of at
        least out's size, apart from out and the state.  Either is
        allocated per call when None; a wrong one raises before anything
        is written."""
        t = np.asarray(t, dtype=float)
        if not np.all(t >= 0):
            raise ValueError("evolution time must be nonnegative")
        if state.cutoff != self.cutoff:
            raise ConfigurationError("state cutoff does not match propagator")
        shape = t.shape + (4, self.cutoff + 1)
        size = math.prod(shape)
        if out is not None and (
                out.shape != shape or out.dtype != complex
                or not out.flags.c_contiguous
                or np.may_share_memory(out, state.amplitudes)):
            raise ValueError(f"out must be a C-contiguous complex array of "
                             f"shape {shape} apart from the state, got "
                             f"{out.dtype} {out.shape}")
        if work is not None and (
                work.dtype != complex or work.size < size
                or not work.flags.c_contiguous
                or np.may_share_memory(work, state.amplitudes)
                or out is not None and np.may_share_memory(work, out)):
            raise ValueError(f"work must be a C-contiguous complex array of "
                             f"at least {size} cells apart from out and "
                             f"the state, got {work.dtype} {work.shape}")
        out = np.empty(shape, dtype=complex) if out is None else out
        work = np.empty(size, dtype=complex) if work is None else work
        coefficients = coefficients or self.coefficients(state)
        amps, work = out.reshape(t.shape + (-1,)), work.reshape(-1)
        minus_t = -t[..., None, None]
        for (flat, eigvals, eigvecs, runs), weights in zip(self._stacks,
                                                            coefficients):
            # Phases per time, ([T,] B, k, 1), and V phases in separate
            # memory (numpy copies a matmul operand that the output
            # overlaps): for the full manifolds, the front of out and of
            # work; for the 2m-block edge stacks, one small array.  The
            # real angles sit in the product's cells until it overwrites
            # them.
            stack = t.shape + weights.shape
            cells = math.prod(stack)
            if runs is None:
                phases, product = np.empty((2,) + stack, dtype=complex)
            else:
                phases = out.reshape(-1)[:cells].reshape(stack)
                product = work[:cells].reshape(stack)
            angle = product.reshape(-1).view(float)[:cells].reshape(
                t.shape + eigvals.shape)
            np.multiply(eigvals, minus_t, out=angle)
            np.cos(angle, out=phases.real[..., 0])
            np.sin(angle, out=phases.imag[..., 0])
            np.multiply(phases, weights, out=phases)
            np.matmul(eigvecs, phases, out=product)
            if runs is None:
                amps[..., flat] = product[..., 0]
            else:
                for level, run in enumerate(runs):
                    amps[..., run] = product[..., level, 0]
        return CompositeState(self.cutoff, out)


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
