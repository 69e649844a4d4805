"""Analytic solution of the resonant, equal-coupling dynamics.

Each excitation manifold {|ee,n>, |eg,n+m>, |ge,n+m>, |gg,n+2m>} evolves
under a fixed 4x4 block whose exponential is known in closed form; the
four manifold amplitudes are assembled here directly, and the reduced
two-atom state follows by summing shifted amplitude products over n.

The manifold index runs from -2m: indices -2m..-m-1 hold the frozen
ground states |gg, n+2m> with too few photons to climb, and -m..-1 hold
the three-level tail {|eg,n+m>, |ge,n+m>, |gg,n+2m>} missing its
doubly-excited head.  The couplings are the m-photon ladder elements of
algebra.ladder_elements, in units of lambda (times are lambda*t); they
vanish below m photons, so couplings to missing states are zero there.
That keeps the same formulas valid and makes the table exhaust the whole
truncated space (total weight 1 for any initial state).  Row i of the
table is c^(i+1) = K[i] R, K a coefficient table formed once per q and R
= (1, half_rabi, cos^2, sin^2, swap).  From column head on, where the
ladder has saturated, R stops depending on n: the kernel computes columns
[0, X], X = min(cutoff, head + 2m), and the reduction sums the rest as
forms over R.  A 1-D array of times puts a leading time axis on every
result; sweep.sweep runs every chunk through one buffer, one workspace
and its q's kernel_factors, reduces it into the block's rows, and
assembles Bloch states per block.
"""

import collections
import functools
import math

import numpy as np

from .algebra import FieldSpec, ladder_elements
from .exact import AtomicInitialState, ConfigurationError, HamiltonianSpec
from .states import TwoQubitBlochState

__all__ = [
    "AmplitudeTable",
    "Reduction",
    "amplitude_table",
    "bloch_from_table",
    "evolved_bloch",
    "kernel_factors",
    "workspace",
]


# What bloch_from_table reads, as AmplitudeTable.reduce_into writes it.
Reduction = collections.namedtuple("Reduction", "populations correlations")
# The correlations' rows i, j and shift over m, in Reduction's order.
_PAIRS = ((0, 2, 1), (1, 3, 1), (0, 1, 1), (2, 3, 1), (0, 3, 2), (1, 2, 0))


class AmplitudeTable:
    """Manifold amplitudes c = K R on the explicit columns, of shape ([T,]
    4, X + 1): row i holds c^(i+1), and column n + 2m holds manifold n, for
    n from -2m.  Past X, R is R at head: reals ([T,] 5), and tail the 5x5
    forms of K's rows past X (4 grams, 6 crosses)."""

    def __init__(self, m: int, c: np.ndarray, reals=None, tail=None):
        self.m, self.c, self.reals, self.tail = m, c, reals, tail

    def reduce_into(self, populations: np.ndarray, correlations: np.ndarray,
                    work: np.ndarray) -> None:
        """Write sum_n |c^(i)_n|^2 per row into populations (4, [T]), and
        sum_n c^(i)_n conj(c^(j)_{n-shift}) for (ee_ge, eg_gg, ee_eg, ge_gg,
        ee_gg, eg_ge) into correlations (6, [T]).  These pair amplitudes on
        one photon number: flipping one atom shifts the manifold index by m,
        flipping both by 2m (eg/ge stays inside one manifold)."""
        self._populations_into(populations, work)
        c, m = self.c, self.m
        for k, (i, j, shift) in enumerate(_PAIRS):
            shift *= m
            n = c.shape[-1] - shift
            conj, product = _scratch(work, c.shape[:-2] + (n,), 2)
            # Not in place: an output aliasing an input moves numpy's
            # complex product to another loop, which changes a last bit.
            np.multiply(c[..., i, shift:], np.conj(c[..., j, :n], out=conj),
                        out=product)
            np.add.reduce(product, axis=-1, out=correlations[k, ...])
        for k, form in enumerate(self.tail[1] if self.tail else ()):
            correlations[k, ...] += self._tail_sum(form)

    def _populations_into(self, populations: np.ndarray, work: np.ndarray) -> None:
        """The populations half of reduce_into, which total_weight reads
        alone."""
        c = self.c
        real, imag = _scratch(work, c.shape[:-2] + c.shape[-1:], 2, float)
        for i in range(4):
            np.add(np.square(c[..., i, :].real, out=real),
                   np.square(c[..., i, :].imag, out=imag), out=real)
            np.add.reduce(real, axis=-1, out=populations[i, ...])
        for k, form in enumerate(self.tail[0] if self.tail else ()):
            populations[k, ...] += self._tail_sum(form)

    def _tail_sum(self, form: np.ndarray) -> np.ndarray:
        return np.vecdot(self.reals, np.vecdot(self.reals[..., None, :], form))

    @functools.cached_property
    def _reduction(self) -> Reduction:
        shape = self.c.shape[:-2]
        reduction = Reduction(np.empty((4, *shape)), np.empty((6, *shape), complex))
        self.reduce_into(*reduction, workspace(math.prod(shape), self.c.shape[-1]))
        return reduction

    populations = property(lambda self: self._reduction.populations)
    correlations = property(lambda self: self._reduction.correlations)

    @property
    def total_weight(self) -> float:
        """sum_i populations[i], from the populations alone: the six
        correlations are not formed."""
        shape = self.c.shape[:-2]
        populations = np.empty((4, *shape))
        self._populations_into(
            populations, workspace(math.prod(shape), self.c.shape[-1]))
        return np.sum(populations, axis=0)


@functools.lru_cache(maxsize=128)
def _cached_couplings(cutoff: int, m: int, q_value: float):
    """nu1, nu2, mu per manifold index n = p - 2m for p = 0..cutoff, in
    units of lambda, read off the ladder table L = ladder_elements(cutoff,
    m, q): nu2 = L[p] couples |gg,p> upward and nu1 = L[p - m] couples
    |eg,p - m>, both zero where the photon number falls below m.  The
    arrays are shared read-only across sweep points."""
    nu2 = ladder_elements(cutoff, m, q_value)
    nu1 = np.concatenate([np.zeros(m), nu2[:-m]])
    mu = np.sqrt((nu1 * nu1 + nu2 * nu2) / 2.0)
    for arr in (nu1, nu2, mu):
        arr.setflags(write=False)
    return nu1, nu2, mu


def workspace(rows: int, width: int) -> np.ndarray:
    """Caller-owned scratch for amplitude_table and reduce_into on up to
    rows times: two complex (rows, width) slots."""
    return np.empty((2 * rows, width), dtype=complex)


def _scratch(work: np.ndarray, shape: tuple, count: int, dtype=complex):
    """count contiguous arrays of shape and dtype, from a workspace's front."""
    return work.reshape(-1).view(dtype)[:count * math.prod(shape)].reshape(
        (count,) + shape)


# Row i of K multiplies R[u], R[v] and R[w], (u, v, w) = _TERMS[i], with
# _SIGNS' signs: c^(i+1) = K[i, 0] R[u] - K[i, 1] R[v] - K[i, 2] R[w].
# Subtracting, not adding negated terms, keeps the reference's signed zeros.
_TERMS = np.array([(0, 4, 1), (2, 3, 1), (2, 3, 1), (0, 4, 1)])
_SIGNS = np.array([1.0, -1.0, -1.0])

Factors = collections.namedtuple("Factors", "head mu frozen mu_safe two_mu_safe k tail")


def kernel_factors(atoms: AtomicInitialState, field: FieldSpec,
                   spec: HamiltonianSpec) -> Factors:
    """The time-invariant rows over n of one q's kernel.  head starts the
    trailing run of bit-equal rates mu ([n]_q = 1/(1-q) in doubles; the
    cutoff at q = 1); mu, frozen, mu_safe and 2 mu_safe end at head, the
    coefficient table k (4, 3, X + 1) at X = min(cutoff, head + 2m), and
    tail sums the rest."""
    a1, a2, a3, a4 = atoms.amplitudes
    # Coherent weights W_{n+2m}, W_{n+m}, W_n for n = -2m..cutoff-2m; a
    # weight at a negative photon number is zero.
    w_n2m = field.weights
    w_nm = np.concatenate([np.zeros(spec.m), w_n2m[:-spec.m]])
    w_n = np.concatenate([np.zeros(2 * spec.m), w_n2m[:-2 * spec.m]])
    nu1, nu2, mu = _cached_couplings(field.cutoff, spec.m, spec.q)
    head = int(np.max(np.flatnonzero(mu != mu[-1]), initial=-1)) + 1
    last = min(field.cutoff, head + 2 * spec.m)
    mu = mu[:head + 1]
    frozen = mu == 0.0
    mu_safe = np.where(frozen, 1.0, mu)
    drive = a1 * nu1 * w_n + a4 * nu2 * w_n2m
    k = np.empty((4, 3, field.cutoff + 1), complex)
    for i, a, nu, w in ((0, a1, nu1, w_n), (3, a4, nu2, w_n2m)):
        k[i] = a * w, nu * drive, 1j * nu * (a2 + a3) * w_nm
    for i, a, b in ((1, a2, a3), (2, a3, a2)):
        k[i] = a * w_nm, b * w_nm, 1j * drive
    tail = _tail_forms(k, last, spec.m) if last < field.cutoff else None
    return Factors(head, mu, frozen, mu_safe, 2.0 * mu_safe,
                   np.ascontiguousarray(k[..., :last + 1]), tail)


def _tail_forms(k: np.ndarray, last: int, m: int) -> tuple:
    """The 5x5 forms over R of k's columns past X = last, with R at head
    as at each n - shift > head: gram_i = Re sum_n c^(i+1)[n] conj(c^(i+1)[n])
    and cross_k = sum_n c^(i+1)[n] conj(c^(j+1)[n - shift]), each entry a
    signed dot product of two rows of k."""
    sums = tuple((i, i, 0) for i in range(4)) + _PAIRS
    left, right, _ = np.transpose(sums)
    forms, end = np.zeros((len(sums), 5, 5), complex), k.shape[-1]
    forms[np.arange(len(sums))[:, None, None], _TERMS[left, :, None],
          _TERMS[right, None, :]] = np.outer(_SIGNS, _SIGNS) * [np.vecdot(
              k[j, None, :, last + 1 - s * m:end - s * m], k[i, :, None, last + 1:])
              for i, j, s in sums]
    return forms[:4].real, forms[4:]


def amplitude_table(t, atoms: AtomicInitialState, field: FieldSpec,
                    spec: HamiltonianSpec, *, out=None, work=None,
                    factors=None) -> AmplitudeTable:
    """All manifold amplitudes at time t, or at each time of a 1-D array,
    on the explicit columns.  The table is a view, with each of its four
    rows contiguous, of the front of out (C-contiguous complex memory of
    at least its size) or of fresh memory; work is a workspace and factors
    kernel_factors(atoms, field, spec), each formed here when None."""
    if field.cutoff < 2 * spec.m:
        raise ConfigurationError(
            f"cutoff {field.cutoff} below one manifold span 2m = {2 * spec.m}")
    head, mu, frozen, mu_safe, two_mu_safe, k, tail = \
        factors or kernel_factors(atoms, field, spec)
    shape = np.shape(t) + k.shape[-1:]  # one row
    size = 4 * math.prod(shape)
    rows = (np.empty(size, complex) if out is None else
            np.reshape(out, -1, copy=False)[:size]).reshape((4,) + shape)
    work = workspace(math.prod(shape[:-1]), shape[-1]) if work is None else work
    t = np.asarray(t, dtype=float)[..., None]  # ([T,] 1) against n

    # The reals live in table rows 0, 1 and 3, each row of c is summed in
    # the workspace, and no sin, cos or complex product writes over its
    # own input, which may select another numpy loop.
    (sin_sq, cos_sq), (two_mu_t, mu_t), (half_rabi, swap) = (
        rows[i].view(float).reshape((2,) + shape) for i in (0, 1, 3))

    # The four reals depend on n only through mu: computed on [0, head],
    # column head is copied up to X (equal inputs, equal bits).
    # Frozen manifolds have sin(2 mu t)/(2 mu) -> t, and swap 0, not t^2
    # (which overflows): it only multiplies vanishing couplings.  Where
    # mu > 0, mu_safe is mu, so swap and sin_sq share one sin(mu t).
    cut = (..., slice(head + 1))
    np.sin(np.multiply(two_mu_safe, t, out=two_mu_t[cut]), out=half_rabi[cut])
    np.divide(half_rabi[cut], two_mu_safe, out=half_rabi[cut])
    half_rabi[cut][..., frozen] = t
    np.multiply(mu, t, out=mu_t[cut])
    np.square(np.cos(mu_t[cut], out=cos_sq[cut]), out=cos_sq[cut])
    np.sin(mu_t[cut], out=sin_sq[cut])
    np.square(np.divide(sin_sq[cut], mu_safe, out=swap[cut]), out=swap[cut])
    swap[cut][..., frozen] = 0.0
    np.square(sin_sq[cut], out=sin_sq[cut])
    r = (None, half_rabi, cos_sq, sin_sq, swap)  # R, whose R[0] = 1 is implied
    for real in r[1:]:
        real[..., head + 1:] = real[..., head, None]
    reals = None if tail is None else np.stack([np.ones(shape[:-1]), *(
        real[..., head] for real in r[1:])], -1)

    # c = K R, term by term in _TERMS' order: rows 1 and 2 first, while
    # row 0 still holds cos^2 and sin^2.
    first, second = _scratch(work, shape, 2)
    for i in (1, 2, 0, 3):
        (u, v, w), (k_u, k_v, k_w) = _TERMS[i], k[i]
        lead = k_u if u == 0 else np.multiply(k_u, r[u], out=first)
        np.subtract(lead, np.multiply(k_v, r[v], out=second), out=first)
        np.subtract(first, np.multiply(k_w, r[w], out=second), out=rows[i])
    return AmplitudeTable(spec.m, rows.swapaxes(0, -2), reals, tail)


def evolved_bloch(t, atoms: AtomicInitialState, field: FieldSpec,
                  spec: HamiltonianSpec) -> TwoQubitBlochState:
    """Bloch vectors and cross dyadic of the reduced two-atom state at
    time t, or at each time of a 1-D array, assembled from shifted
    manifold-amplitude products."""
    return bloch_from_table(amplitude_table(t, atoms, field, spec))


def bloch_from_table(table: AmplitudeTable | Reduction) -> TwoQubitBlochState:
    """Reduce an amplitude table, or its Reduction, to the two-atom Bloch
    representation."""
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
