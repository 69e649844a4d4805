"""Single-qubit teleportation over a generated two-atom channel.

Three routes are provided.  branch_map gives each measurement branch's
probability and receiver Bloch vector as an affine map of the channel's
Bloch vectors and cross dyadic; the CLI computes its columns with it.
circuit_teleport is a gate-level density-matrix simulation of the
protocol (CNOT, Hadamard, projective measurement, conditional Pauli
correction): the independent oracle that the CLI header's self-test and
`validate` run.  closed_form_bob assembles the ee branch's receiver
vector, carried at twice the branch probability (2 p_ee sb_ee, as the
map gives it), directly from the manifold amplitudes of the channel.
All three read alpha as the amplitude on |e>.  A stack of channels, and
a stack of inputs, runs through at once, adding its leading axes to
every result.
"""

from dataclasses import dataclass

import numpy as np

from .closedform import AmplitudeTable
from .exact import DensityMatrix, PhysicalityError, as_matrix
from .states import PAULI_X, PAULI_Z, TwoQubitBlochState, bloch_vector

__all__ = [
    "OUTCOME_LABELS",
    "TeleportOutcome",
    "UnknownQubit",
    "average_fidelity",
    "branch_map",
    "circuit_teleport",
    "closed_form_bob",
    "fidelity_overlap",
    "fidelity_paper",
]

OUTCOME_LABELS = ("ee", "eg", "ge", "gg")

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

# Pauli correction per measurement outcome, fixed so the ideal maximally
# entangled channel (|ee> + |gg>)/sqrt(2) teleports perfectly on every
# branch.
_CORRECTIONS = {
    "ee": np.eye(2, dtype=complex),
    "eg": PAULI_X,
    "ge": PAULI_Z,
    "gg": PAULI_Z @ PAULI_X,
}


@dataclass(frozen=True)
class UnknownQubit:
    """Pure input state alpha|e> + beta|g> handed to the sender; alpha
    and beta may be equal-shaped arrays, a stack of inputs."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        norm_sq = np.ravel(np.abs(self.alpha) ** 2 + np.abs(self.beta) ** 2)
        off = norm_sq[~(np.abs(norm_sq - 1.0) <= 1e-12)]
        if off.size:
            raise ValueError(
                f"input not normalised, |alpha|^2+|beta|^2={float(off[0])!r}")

    @property
    def ket(self) -> np.ndarray:
        """(alpha, beta) on the last axis."""
        return np.stack([np.asarray(self.alpha, dtype=complex),
                         np.asarray(self.beta, dtype=complex)], axis=-1)

    @property
    def density(self) -> np.ndarray:
        ket = self.ket
        return ket[..., :, None] * ket.conj()[..., None, :]

    @property
    def su(self) -> np.ndarray:
        """Bloch vector of the input: (2 Re(alpha beta*),
        2 Im(alpha beta*), |alpha|^2 - |beta|^2)."""
        alpha, beta = self.ket[..., 0], self.ket[..., 1]
        z = alpha * np.conj(beta)
        return np.stack([2.0 * z.real, 2.0 * z.imag,
                         np.abs(alpha) ** 2 - np.abs(beta) ** 2], axis=-1)

    @classmethod
    def from_bloch(cls, su) -> "UnknownQubit":
        """Pure state with the given unit Bloch vector."""
        sx, sy, sz = (float(v) for v in np.asarray(su, dtype=float))
        norm = float(np.sqrt(sx * sx + sy * sy + sz * sz))
        if not abs(norm - 1.0) <= 1e-9:
            raise ValueError(f"pure input needs |su| = 1, got {norm!r}")
        alpha = np.sqrt(max((1.0 + sz) / 2.0, 0.0))
        if alpha < 1e-12:
            return cls(alpha=0.0, beta=1.0)
        beta = (sx - 1j * sy) / (2.0 * alpha)
        state = np.array([alpha, beta], dtype=complex)
        state = state / np.linalg.norm(state)
        return cls(alpha=complex(state[0]), beta=complex(state[1]))


@dataclass(frozen=True)
class TeleportOutcome:
    """One measurement branch: its probability, the receiver's corrected
    (normalised) state and its Bloch vector."""

    outcome_label: str
    probability: float
    bob_state: DensityMatrix
    sb: np.ndarray


# CNOT with u as control and A as target, then Hadamard on u, on (u, A, B).
# Control |e> (bit 0) leaves the target alone, so |e> is the CNOT-inactive
# control value, matching the correction table; control |g> flips it.
_CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
_UNITARY = np.kron(np.kron(_HADAMARD, np.eye(2)), np.eye(2)) \
    @ np.kron(_CNOT, np.eye(2, dtype=complex))


def circuit_teleport(channel, unknown: UnknownQubit) -> list[TeleportOutcome]:
    """Run the full protocol on qubits (u, A, B) where (A, B) hold the
    channel: CNOT with u as control and A as target, Hadamard on u,
    measurement of (u, A) in the energy basis, then the branch's Pauli
    correction on B.  Returns all four branches; branch states are
    normalised.  A branch of zero probability carries the maximally
    mixed state.  Stacks of channels and of inputs broadcast."""
    rho_chan = as_matrix(channel)
    if rho_chan.shape[-2:] != (4, 4):
        raise PhysicalityError(f"channel must be 4x4, got {rho_chan.shape}")
    if not isinstance(channel, DensityMatrix):
        DensityMatrix.from_matrix(rho_chan)

    # np.kron's products, broadcast over the stack axes.
    joint = (unknown.density[..., :, None, :, None]
             * rho_chan[..., None, :, None, :])
    rho = _UNITARY @ joint.reshape(joint.shape[:-4] + (8, 8)) \
        @ _UNITARY.conj().T

    outcomes = []
    for index, label in enumerate(OUTCOME_LABELS):
        block = rho[..., 2 * index:2 * index + 2, 2 * index:2 * index + 2]
        probability = np.trace(block, axis1=-2, axis2=-1).real
        weight = probability[..., None, None]
        occupied = weight > 1e-14
        bob = np.where(occupied, block / np.where(occupied, weight, 1.0),
                       np.eye(2, dtype=complex) / 2.0)
        probability = np.maximum(probability, 0.0)
        correction = _CORRECTIONS[label]
        bob = correction @ bob @ correction.conj().T
        bob_state = DensityMatrix.from_matrix(bob, positivity="warn")
        outcomes.append(TeleportOutcome(
            outcome_label=label,
            probability=probability,
            bob_state=bob_state,
            sb=bloch_vector(bob_state),
        ))
    return outcomes


# Sign rows of the affine branch map, one per branch in OUTCOME_LABELS
# order; the circuit's CNOT, Hadamard and _CORRECTIONS fix them.
_ETA = np.array([[1, -1, 1], [1, 1, -1], [-1, 1, 1], [-1, -1, -1]],
                dtype=float)
_FLIP = np.array([[1, 1, 1], [1, -1, -1], [-1, -1, 1], [-1, 1, -1]],
                 dtype=float)


def branch_map(bloch: TwoQubitBlochState, su) -> tuple[np.ndarray, np.ndarray]:
    """Probability (..., 4) and receiver Bloch vector (..., 4, 3) of the
    branches, in OUTCOME_LABELS order, as the affine map of the channel's
    (s, t, C) that circuit_teleport computes (M., P. & R. Horodecki,
    PRA 60, 1888 (1999)):

        p_k = (1 + (eta_k o su) . s)/4,
        p_k sb_k = D_k o (t + C^T (eta_k o su))/4,

    with eta the rows of _ETA and D those of _FLIP.  As in the circuit, a
    branch of probability <= 1e-14 carries the maximally mixed state
    (sb = 0) and a negative probability reads 0."""
    eta_su = _ETA * np.asarray(su, dtype=float)[..., None, :]
    weight = (1.0 + np.linalg.vecdot(eta_su, bloch.s[..., None, :])) / 4.0
    carried = _FLIP * (bloch.t[..., None, :] + eta_su @ bloch.cross) / 4.0
    # Dividing by inf gives a branch of probability <= 1e-14 sb = 0.
    sb = carried / np.where(weight > 1e-14, weight, np.inf)[..., None]
    return np.maximum(weight, 0.0), sb


def closed_form_bob(unknown: UnknownQubit, table: AmplitudeTable) -> np.ndarray:
    """Receiver Bloch vector on the ee branch, assembled directly from
    the channel's manifold amplitudes.

    The sums carry the branch weight rather than being normalised, as
    2 p_ee sb_ee of branch_map: at t = 0 over a doubly-excited channel
    they give (0, 0, |alpha|^2).  Stacks of tables and of inputs
    broadcast.
    """
    alpha, beta = unknown.ket[..., 0], unknown.ket[..., 1]
    n1, n2, n3, n4 = table.populations
    ee_ge, eg_gg, ee_eg, ge_gg, ee_gg, eg_ge = table.correlations
    ge_eg = eg_ge.conjugate()

    aa = np.abs(alpha) ** 2
    bb = np.abs(beta) ** 2
    ab = alpha * np.conj(beta)

    gg_ee = np.conj(ee_gg)
    sx = bb * 2.0 * ge_gg.real + aa * 2.0 * ee_eg.real \
        + 2.0 * (np.conj(ab) * (ge_eg + gg_ee)).real
    sy = bb * 2.0 * ge_gg.imag + aa * 2.0 * ee_eg.imag \
        + 2.0 * (np.conj(ab) * (ge_eg - gg_ee)).imag
    sz = bb * (n3 - n4) + aa * (n1 - n2) \
        + 2.0 * (ab * (ee_ge - eg_gg)).real
    return np.stack([sx, sy, sz], axis=-1)


def fidelity_paper(su, sb) -> float:
    """Quarter-normalised overlap score (1 + su . sb)/4.  With this
    normalisation a perfectly teleported pure state scores 0.5."""
    return (1.0 + np.linalg.vecdot(np.asarray(su, dtype=float),
                                   np.asarray(sb, dtype=float))) / 4.0


def fidelity_overlap(unknown: UnknownQubit, bob_state) -> float:
    """Standard state overlap <psi_u| rho_B |psi_u> in [0, 1]."""
    rho = as_matrix(bob_state)
    ket = unknown.ket[..., :, None]
    # Row @ rho @ column: unlike vector operands, bit-identical on a stack.
    return (ket.conj().mT @ rho @ ket).real[..., 0, 0][()]


def average_fidelity(probability, overlap) -> float:
    """Probability-weighted overlap fidelity across the four branches,
    which run along the last axis of both arguments, added in order."""
    return sum(np.moveaxis(np.multiply(probability, overlap), -1, 0))
