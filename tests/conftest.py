import numpy as np
import pytest

from qdcavity import AtomicInitialState, DensityMatrix


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def random_density(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_ket(rng, dim: int) -> np.ndarray:
    ket = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return ket / np.linalg.norm(ket)


def random_product_density(rng) -> np.ndarray:
    return np.kron(random_density(rng, 2), random_density(rng, 2))


def normalized_atoms(*amplitudes) -> AtomicInitialState:
    """The two-atom state a1|ee> + a2|eg> + a3|ge> + a4|gg>, scaled to
    unit norm."""
    v = np.array(amplitudes, dtype=complex)
    return AtomicInitialState(*(v / np.linalg.norm(v)))


def bell_phi_plus() -> DensityMatrix:
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[0, 3] = rho[3, 0] = rho[3, 3] = 0.5
    return DensityMatrix.from_matrix(rho)
