"""Two-qubit state analysis: Bloch/dyadic decomposition, purity, the
entanglement-dyadic measure and the negativity.

Axis convention: the y Pauli matrix is taken as [[0, i], [-i, 0]], the
mirror image of the more common sign.  All Bloch components, dyadic
elements and teleportation formulas in this package follow that
convention consistently; rotation-invariant quantities (purity, the
entanglement degree, fidelities, negativity) are unaffected by it.
Every function also takes a stack of states (leading axes) at once.
decompose reads each Pauli expectation value as a gather of four matrix
entries, with no matrix product.
"""

from dataclasses import dataclass

import numpy as np

from .exact import DensityMatrix, PhysicalityError, as_matrix

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "TwoQubitBlochState",
    "bloch_vector",
    "compose",
    "decompose",
    "entanglement_degree",
    "max_deviation",
    "negativity",
    "purity",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)
_ID2 = np.eye(2, dtype=complex)

# Operator tables for the linear (de)composition maps.
_FIRST_OPS = [np.kron(p, _ID2) for p in _PAULIS]
_SECOND_OPS = [np.kron(_ID2, p) for p in _PAULIS]
_CROSS_OPS = [np.kron(pi, pj) for pi in _PAULIS for pj in _PAULIS]
# Each of the 15 products O_k has one nonzero entry per column a, at row
# _PICK[k, a] with the value _PHASE[k, a] (one of +-1, +-i), so that
# tr(rho O_k) = sum_a rho[a, _PICK[k, a]] _PHASE[k, a].  Found with list
# operations: a first numpy argmax at import costs 128 KiB of peak RSS.
_ENTRIES = [[next((b, value) for b, value in enumerate(column) if value)
             for column in op.T.tolist()]
            for op in _FIRST_OPS + _SECOND_OPS + _CROSS_OPS]
_PICK = np.array([[b for b, _ in row] for row in _ENTRIES])
_PHASE = np.array([[value for _, value in row] for row in _ENTRIES])
_COLUMNS = np.arange(4)


@dataclass(frozen=True)
class TwoQubitBlochState:
    """Bloch vectors s (first atom), t (second atom) and the 3x3 cross
    dyadic of joint Pauli correlations, with any leading stack axes."""

    s: np.ndarray
    t: np.ndarray
    cross: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        t = np.asarray(self.t, dtype=float)
        cross = np.asarray(self.cross, dtype=float)
        if s.shape[-1:] != (3,) or t.shape != s.shape or cross.shape != s.shape + (3,):
            raise ValueError("expected two 3-vectors and one 3x3 matrix")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "cross", cross)


def decompose(rho) -> TwoQubitBlochState:
    """Pauli expectation values of a physical 4x4 density matrix:
    s_i = tr(rho sigma_i x 1), t_i = tr(rho 1 x tau_i),
    C_ij = tr(rho sigma_i x tau_j).

    Each trace is one gather of four entries, summed in the pairs
    (p0 + p1) + (p2 + p3) that numpy's trace of rho @ O_k uses, so the
    values keep the bits of that matrix-product form."""
    mat = as_matrix(rho)
    if mat.shape[-2:] != (4, 4):
        raise PhysicalityError(f"expected a 4x4 matrix, got {mat.shape}")
    if not isinstance(rho, DensityMatrix):
        DensityMatrix.from_matrix(mat)
    picks = (mat[..., _COLUMNS, _PICK] * _PHASE).real
    values = (picks[..., 0] + picks[..., 1]) + (picks[..., 2] + picks[..., 3])
    return TwoQubitBlochState(
        s=values[..., :3], t=values[..., 3:6],
        cross=values[..., 6:].reshape(mat.shape[:-2] + (3, 3)))


def compose(state: TwoQubitBlochState) -> DensityMatrix:
    """Inverse of decompose: rho = (1 + s.sigma + t.tau + sigma.C.tau)/4.

    Hermiticity and unit trace hold by construction; positivity is
    checked but only recorded as a warning on the result, since callers
    may legitimately build trial states outside the physical set.
    """
    rho = np.eye(4, dtype=complex)
    for i in range(3):
        rho = rho + state.s[..., i, None, None] * _FIRST_OPS[i] \
            + state.t[..., i, None, None] * _SECOND_OPS[i]
        for j in range(3):
            rho = rho + state.cross[..., i, j, None, None] * _CROSS_OPS[3 * i + j]
    return DensityMatrix.from_matrix(rho / 4.0, positivity="warn")


def purity(state: TwoQubitBlochState) -> float:
    """tr(rho^2) = (1 + |s|^2 + |t|^2 + ||C||_F^2)/4, in [1/4, 1]."""
    return (1.0 + np.linalg.vecdot(state.s, state.s)
            + np.linalg.vecdot(state.t, state.t)
            + np.sum(state.cross * state.cross, axis=(-2, -1))) / 4.0


def max_deviation(a: TwoQubitBlochState, b: TwoQubitBlochState) -> float:
    """Largest component difference between two Bloch representations,
    over s, t and the cross dyadic."""
    return np.maximum.reduce([np.max(np.abs(a.s - b.s), axis=-1),
                              np.max(np.abs(a.t - b.t), axis=-1),
                              np.max(np.abs(a.cross - b.cross), axis=(-2, -1))])


def entanglement_degree(state: TwoQubitBlochState) -> float:
    """Squared Frobenius norm of the entanglement dyadic E = C - s t^T.

    Zero for every product state and 3 for a maximally entangled one.
    Positive values certify correlation beyond the product of the local
    Bloch vectors, which for classically correlated mixtures is not the
    same as entanglement; see negativity() for a standard cross-check.
    """
    excess = state.cross - state.s[..., :, None] * state.t[..., None, :]
    return np.sum(excess * excess, axis=(-2, -1))


def negativity(rho) -> float:
    """Standard negativity: absolute sum of the negative eigenvalues of
    the partial transpose over the second qubit.  This is not the
    entanglement-dyadic measure; it is emitted alongside it as an
    independent sanity channel."""
    mat = as_matrix(rho)
    if mat.shape[-2:] != (4, 4):
        raise PhysicalityError(f"expected a 4x4 matrix, got {mat.shape}")
    tensor = mat.reshape(mat.shape[:-2] + (2, 2, 2, 2))
    partial = np.swapaxes(tensor, -3, -1).reshape(mat.shape)
    eigvals = np.linalg.eigvalsh((partial + partial.conj().mT) / 2.0)
    return -np.sum(np.minimum(eigvals, 0.0), axis=-1)


def bloch_vector(rho) -> np.ndarray:
    """Single-qubit Bloch vector (same y-axis convention as above)."""
    mat = as_matrix(rho)
    if mat.shape[-2:] != (2, 2):
        raise PhysicalityError(f"expected a 2x2 matrix, got {mat.shape}")
    return np.stack([np.trace(mat @ p, axis1=-2, axis2=-1).real
                     for p in _PAULIS], axis=-1)
