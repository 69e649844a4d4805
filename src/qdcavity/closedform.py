"""Analytic solution of the resonant, equal-coupling dynamics.

Each excitation manifold {|ee,n>, |eg,n+m>, |ge,n+m>, |gg,n+2m>} evolves
under a fixed 4x4 block whose exponential is known in closed form; the
four manifold amplitudes are assembled here directly, and the reduced
two-atom state follows by summing shifted amplitude products over n.

The manifold index runs from -2m: indices -2m..-m-1 hold the frozen
ground states |gg, n+2m> with too few photons to climb, and -m..-1 hold
the three-level tail {|eg,n+m>, |ge,n+m>, |gg,n+2m>} missing its
doubly-excited head.  The couplings are lambda times the m-photon
ladder elements of algebra.ladder_elements, which vanish below m photons,
so couplings to missing states are zero there.  That keeps the same
formulas valid and makes the table exhaust the whole truncated space
(total weight 1 for any initial state).  A 1-D array of times in place
of one time puts a leading time axis on every result; amplitude_table
writes the stacked table into a caller's buffer when given one, which is
how sweep.sweep reuses one buffer for every chunk of a sweep.
"""

import functools

import numpy as np

from .algebra import FieldSpec, ladder_elements
from .exact import AtomicInitialState, ConfigurationError, HamiltonianSpec
from .states import TwoQubitBlochState

__all__ = [
    "AmplitudeTable",
    "amplitude_table",
    "bloch_from_table",
    "evolved_bloch",
]


class AmplitudeTable:
    """Manifold amplitudes c, of shape ([T,] 4, cutoff + 1): row i holds
    c^(i+1), and column n + 2m holds manifold n, for n from -2m."""

    def __init__(self, m: int, c: np.ndarray):
        self.m = m
        self.c = c

    def correlation(self, i: int, j: int, shift: int) -> complex:
        """sum_n c^(i)_n conj(c^(j)_{n-shift}) with shift >= 0."""
        ci = self.c[..., i - 1, shift:]
        cj = self.c[..., j - 1, :ci.shape[-1]]
        # Not `*`: from 256 KiB on, it may write into the conj temporary,
        # which swaps the complex product's operands and changes a last bit.
        return np.sum(np.multiply(ci, np.conj(cj)), axis=-1)

    @functools.cached_property
    def populations(self) -> tuple[float, float, float, float]:
        """(n1, n2, n3, n4): sum_n |c^(i)_n|^2 for each amplitude row."""
        rows = np.sum(self.c.real**2 + self.c.imag**2, axis=-1)
        return tuple(np.moveaxis(rows, -1, 0))

    @functools.cached_property
    def correlations(self) -> tuple[complex, ...]:
        """(ee_ge, eg_gg, ee_eg, ge_gg, ee_gg, eg_ge), the six shifted
        correlations read by the Bloch reduction and the receiver vector.

        Products pair amplitudes living on the same photon number: flipping
        one atom shifts the manifold index by m, flipping both by 2m (the
        eg/ge coherence stays inside one manifold).
        """
        m = self.m
        return (self.correlation(1, 3, m), self.correlation(2, 4, m),
                self.correlation(1, 2, m), self.correlation(3, 4, m),
                self.correlation(1, 4, 2 * m), self.correlation(2, 3, 0))

    @property
    def total_weight(self) -> float:
        return np.sum(self.c.real**2 + self.c.imag**2, axis=(-2, -1))


@functools.lru_cache(maxsize=128)
def _cached_couplings(cutoff: int, m: int, lam: float, q_value: float):
    """nu1, nu2, mu per manifold index n = p - 2m for p = 0..cutoff, read
    off the ladder table L = ladder_elements(cutoff, m, q): nu2 = lam L[p]
    couples |gg,p> upward and nu1 = lam L[p - m] couples |eg,p - m>, both
    zero where the photon number falls below m.  The arrays are shared
    read-only across sweep points."""
    ladder = ladder_elements(cutoff, m, q_value)
    nu2 = lam * ladder
    nu1 = lam * np.concatenate([np.zeros(m), ladder[:-m]])
    mu = np.sqrt((nu1 * nu1 + nu2 * nu2) / 2.0)
    for arr in (nu1, nu2, mu):
        arr.setflags(write=False)
    return nu1, nu2, mu


def _amplitude_arrays(t, atoms: AtomicInitialState, field: FieldSpec,
                      spec: HamiltonianSpec, out=None) -> np.ndarray:
    a1, a2, a3, a4 = atoms.amplitudes
    m = spec.m
    t = np.asarray(t, dtype=float)[..., None]  # ([T,] 1) against n

    # Coherent weights W_{n+2m}, W_{n+m}, W_n for n = -2m..cutoff-2m; a
    # weight at a negative photon number is zero.
    w_n2m = field.weights
    w_nm = np.concatenate([np.zeros(m), w_n2m[:-m]])
    w_n = np.concatenate([np.zeros(2 * m), w_n2m[:-2 * m]])

    nu1, nu2, mu = _cached_couplings(field.cutoff, m, spec.lam, spec.q)

    # Frozen manifolds have mu = 0; there sin(2 mu t)/(2 mu) -> t, and swap
    # is 0, not t^2 (which overflows): it only multiplies vanishing couplings.
    # Where mu > 0, mu_safe is mu, so swap and sin_sq share one sin(mu t).
    mu_safe = np.where(mu > 0.0, mu, 1.0)
    half_rabi = np.where(mu > 0.0, np.sin(2.0 * mu_safe * t) / (2.0 * mu_safe), t)
    sin_mu_t = np.sin(mu * t)
    swap = np.where(mu > 0.0, (sin_mu_t / mu_safe) ** 2, 0.0)
    cos_sq = np.cos(mu * t) ** 2
    sin_sq = sin_mu_t ** 2

    drive = a1 * nu1 * w_n + a4 * nu2 * w_n2m
    if out is None:
        out = np.empty(t.shape[:-1] + (4, w_n2m.size), dtype=complex)
    # Each row is written in place.  Four row arrays held as well would
    # take a chunk's temporaries past glibc's heap trim threshold, and
    # every chunk would then take fresh pages.
    np.subtract(a1 * w_n - nu1 * drive * swap,
                1j * nu1 * (a2 + a3) * w_nm * half_rabi, out=out[..., 0, :])
    np.subtract(w_nm * (a2 * cos_sq - a3 * sin_sq), 1j * drive * half_rabi,
                out=out[..., 1, :])
    np.subtract(w_nm * (a3 * cos_sq - a2 * sin_sq), 1j * drive * half_rabi,
                out=out[..., 2, :])
    np.subtract(a4 * w_n2m - nu2 * drive * swap,
                1j * nu2 * (a2 + a3) * w_nm * half_rabi, out=out[..., 3, :])
    return out


def amplitude_table(t, atoms: AtomicInitialState, field: FieldSpec,
                    spec: HamiltonianSpec, *, out=None) -> AmplitudeTable:
    """All manifold amplitudes at time t, or at each time of a 1-D array,
    written into out (complex, of the table's shape) when it is given."""
    if field.cutoff < 2 * spec.m:
        raise ConfigurationError(
            f"cutoff {field.cutoff} below one manifold span 2m = {2 * spec.m}")
    return AmplitudeTable(spec.m, _amplitude_arrays(t, atoms, field, spec, out))


def evolved_bloch(t, atoms: AtomicInitialState, field: FieldSpec,
                  spec: HamiltonianSpec) -> TwoQubitBlochState:
    """Bloch vectors and cross dyadic of the reduced two-atom state at
    time t, or at each time of a 1-D array, assembled from shifted
    manifold-amplitude products."""
    return bloch_from_table(amplitude_table(t, atoms, field, spec))


def bloch_from_table(table: AmplitudeTable) -> TwoQubitBlochState:
    """Reduce an amplitude table to the two-atom Bloch representation."""
    n1, n2, n3, n4 = table.populations
    ee_ge, eg_gg, ee_eg, ge_gg, ee_gg, eg_ge = table.correlations

    s = np.stack([
        2.0 * (ee_ge + eg_gg).real,
        2.0 * (ee_ge + eg_gg).imag,
        n1 + n2 - n3 - n4,
    ], axis=-1)
    t_vec = np.stack([
        2.0 * (ee_eg + ge_gg).real,
        2.0 * (ee_eg + ge_gg).imag,
        n1 - n2 + n3 - n4,
    ], axis=-1)
    cross = np.stack([
        2.0 * (ee_gg + eg_ge).real,
        2.0 * (ee_gg - eg_ge).imag,
        2.0 * (ee_ge - eg_gg).real,
        2.0 * (ee_gg + eg_ge).imag,
        2.0 * (eg_ge - ee_gg).real,
        2.0 * (ee_ge - eg_gg).imag,
        2.0 * (ee_eg - ge_gg).real,
        2.0 * (ee_eg - ge_gg).imag,
        n1 - n2 - n3 + n4,
    ], axis=-1).reshape(s.shape[:-1] + (3, 3))
    return TwoQubitBlochState(s=s, t=t_vec, cross=cross)
