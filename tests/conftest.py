import math

import numpy as np
import pytest

from qdcavity import (AtomicInitialState, DensityMatrix, TwoQubitBlochState,
                      ladder_elements)
from qdcavity.states import PAULI_X, PAULI_Y, PAULI_Z
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


def reference_decompose(rho) -> TwoQubitBlochState:
    """decompose as it was computed before it gathered entries: numpy's
    trace of rho @ O for each of the 15 Pauli products O.  The
    bit-identity oracle of states.decompose."""
    paulis, one = (PAULI_X, PAULI_Y, PAULI_Z), np.eye(2, dtype=complex)
    ops = ([np.kron(p, one) for p in paulis]
           + [np.kron(one, p) for p in paulis]
           + [np.kron(a, b) for a in paulis for b in paulis])
    mat = np.asarray(getattr(rho, "matrix", rho), dtype=complex)
    values = np.stack([np.trace(mat @ op, axis1=-2, axis2=-1).real
                       for op in ops], axis=-1)
    return TwoQubitBlochState(
        s=values[..., :3], t=values[..., 3:6],
        cross=values[..., 6:].reshape(mat.shape[:-2] + (3, 3)))


def collective_lowering() -> np.ndarray:
    """sigma- + tau- on the ee, eg, ge, gg basis, from the one-atom
    lowering |g><e| (excited level first) on each factor."""
    lower, one = np.array([[0.0, 0.0], [1.0, 0.0]]), np.eye(2)
    return np.kron(lower, one) + np.kron(one, lower)


def build_hamiltonian(spec, cutoff: int, lam: float = 1.0) -> np.ndarray:
    """Operator-level oracle: the full interaction-picture Hamiltonian
        lam (sigma+ a_q^m + sigma- a_q^+m + tau+ a_q^m + tau- a_q^+m)
    as a dense 4(cutoff+1)-square matrix, for small cutoffs only.  The
    engines work at lam = 1, in units of 1/lam."""
    a_m = deformed_lowering_power(cutoff, spec.m, spec.q)
    h = lam * np.kron(collective_lowering().T, a_m)
    return (h + h.T).astype(complex)


def apply_hamiltonian(spec, psi: np.ndarray, lam: float = 1.0) -> np.ndarray:
    """H psi for H = build_hamiltonian(spec, cutoff, lam) and psi of shape
    (4, cutoff+1), in operator form and linear memory:
    (a_q^m psi)[p-m] = L[p] psi[p] and (a_q^+m psi)[p] = L[p] psi[p-m],
    with L = ladder_elements(cutoff, m, q)."""
    m, ladder = spec.m, ladder_elements(psi.shape[-1] - 1, spec.m, spec.q)
    lowered, raised = np.zeros_like(psi), np.zeros_like(psi)
    lowered[:, :-m] = ladder[m:] * psi[:, m:]
    raised[:, m:] = ladder[m:] * psi[:, :-m]
    low = collective_lowering()
    return lam * (low.T @ lowered + low @ raised)


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


def reference_amplitude_arrays(t, atoms, field, spec) -> np.ndarray:
    """The closed-form kernel as it was before it wrote through a
    workspace: every intermediate a fresh array, the frozen manifolds
    (mu = 0) chosen by np.where.  The oracle of closedform.amplitude_table:
    bit for bit when a2 = a3 = 0, to 1e-15 otherwise, since the kernel's
    coefficient table multiplies a2 and a3 into the weights first."""
    a1, a2, a3, a4 = atoms.amplitudes
    m = spec.m
    t = np.asarray(t, dtype=float)[..., None]
    w_n2m = field.weights
    w_nm = np.concatenate([np.zeros(m), w_n2m[:-m]])
    w_n = np.concatenate([np.zeros(2 * m), w_n2m[:-2 * m]])
    nu2 = ladder_elements(field.cutoff, m, spec.q)
    nu1 = np.concatenate([np.zeros(m), nu2[:-m]])
    mu = np.sqrt((nu1 * nu1 + nu2 * nu2) / 2.0)

    mu_safe = np.where(mu > 0.0, mu, 1.0)
    half_rabi = np.where(mu > 0.0, np.sin(2.0 * mu_safe * t) / (2.0 * mu_safe), t)
    sin_mu_t = np.sin(mu * t)
    swap = np.where(mu > 0.0, (sin_mu_t / mu_safe) ** 2, 0.0)
    cos_sq = np.cos(mu * t) ** 2
    sin_sq = sin_mu_t ** 2

    drive = a1 * nu1 * w_n + a4 * nu2 * w_n2m
    out = np.empty(t.shape[:-1] + (4, w_n2m.size), dtype=complex)
    np.subtract(a1 * w_n - nu1 * drive * swap,
                1j * nu1 * (a2 + a3) * w_nm * half_rabi, out=out[..., 0, :])
    np.subtract(w_nm * (a2 * cos_sq - a3 * sin_sq), 1j * drive * half_rabi,
                out=out[..., 1, :])
    np.subtract(w_nm * (a3 * cos_sq - a2 * sin_sq), 1j * drive * half_rabi,
                out=out[..., 2, :])
    np.subtract(a4 * w_n2m - nu2 * drive * swap,
                1j * nu2 * (a2 + a3) * w_nm * half_rabi, out=out[..., 3, :])
    return out


def reference_reductions(c: np.ndarray, m: int) -> tuple:
    """(populations, correlations) of an amplitude table c as they were
    computed from fresh arrays: sum_n |c^(i)_n|^2 per row, then the six
    shifted correlations (ee_ge, eg_gg, ee_eg, ge_gg, ee_gg, eg_ge)."""
    rows = np.sum(c.real**2 + c.imag**2, axis=-1)
    populations = tuple(np.moveaxis(rows, -1, 0))

    def correlation(i, j, shift):
        ci = c[..., i - 1, shift:]
        cj = c[..., j - 1, :ci.shape[-1]]
        return np.sum(np.multiply(ci, np.conj(cj)), axis=-1)

    correlations = (correlation(1, 3, m), correlation(2, 4, m),
                    correlation(1, 2, m), correlation(3, 4, m),
                    correlation(1, 4, 2 * m), correlation(2, 3, 0))
    return populations, correlations
