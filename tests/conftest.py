import math

import numpy as np
import pytest

from qdcavity import AtomicInitialState, DensityMatrix, ladder_elements
from qdcavity.exact import deformed_lowering_power


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


def collective_lowering() -> np.ndarray:
    """sigma- + tau- on the ee, eg, ge, gg basis, from the one-atom
    lowering |g><e| (excited level first) on each factor."""
    lower, one = np.array([[0.0, 0.0], [1.0, 0.0]]), np.eye(2)
    return np.kron(lower, one) + np.kron(one, lower)


def build_hamiltonian(spec, cutoff: int) -> np.ndarray:
    """Operator-level oracle: the full interaction-picture Hamiltonian
        lam (sigma+ a_q^m + sigma- a_q^+m + tau+ a_q^m + tau- a_q^+m)
    as a dense 4(cutoff+1)-square matrix, for small cutoffs only."""
    a_m = deformed_lowering_power(cutoff, spec.m, spec.q)
    h = spec.lam * np.kron(collective_lowering().T, a_m)
    return (h + h.T).astype(complex)


def apply_hamiltonian(spec, psi: np.ndarray) -> np.ndarray:
    """H psi for psi of shape (4, cutoff+1), in operator form and linear
    memory: (a_q^m psi)[p-m] = L[p] psi[p] and (a_q^+m psi)[p] =
    L[p] psi[p-m], with L = ladder_elements(cutoff, m, q)."""
    m, ladder = spec.m, ladder_elements(psi.shape[-1] - 1, spec.m, spec.q)
    lowered, raised = np.zeros_like(psi), np.zeros_like(psi)
    lowered[:, :-m] = ladder[m:] * psi[:, m:]
    raised[:, m:] = ladder[m:] * psi[:, :-m]
    low = collective_lowering()
    return spec.lam * (low.T @ lowered + low @ raised)


def reference_amplitudes(mean_photons: float, count: int) -> np.ndarray:
    """W_0..W_{count-1} from the log formula coherent_weights has always
    used, with no truncation or mass check."""
    if mean_photons == 0:
        w = np.zeros(count)
        w[0] = 1.0
        return w
    n = np.arange(count, dtype=float)
    log_w = 0.5 * (n * math.log(mean_photons)
                   - np.array([math.lgamma(v + 1.0) for v in n])) \
        - mean_photons / 2.0
    return np.exp(log_w)


def reference_cutoff(mean_photons: float, m: int,
                     tail_eps: float = 1e-12) -> int:
    """The scalar loop choose_cutoff ran before its amplitudes came from
    one array: extend term by term, with its own log formula, until past
    nbar the amplitudes drop below 1e-25, then locate the tail cut."""
    if mean_photons == 0:
        return 2 * m
    log_half_nbar = 0.5 * math.log(mean_photons)
    terms = []
    n = 0
    while True:
        log_w = n * log_half_nbar - 0.5 * math.lgamma(n + 1.0) \
            - mean_photons / 2.0
        w = math.exp(log_w)
        terms.append(w)
        if n > mean_photons and w < 1e-25:
            break
        n += 1
    suffix = np.cumsum(np.asarray(terms)[::-1])[::-1]
    # suffix[k] = sum_{n >= k} W_n; want smallest K with suffix[K+1] < eps.
    tails = [*suffix[1:].tolist(), 0.0]
    return next(k for k, tail in enumerate(tails) if tail < tail_eps) + 2 * m
