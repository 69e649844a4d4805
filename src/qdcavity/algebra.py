"""q-deformed oscillator primitives.

The deformed ladder operators are a_q = a f(n) with
f(n) = sqrt((1 - q^n) / (n (1 - q))), so that a_q|n> = sqrt([n]_q)|n-1>
where [n]_q = (1 - q^n)/(1 - q) is the q-number.  q -> 1 recovers the
ordinary oscillator ([n]_1 = n).  [n]_q is evaluated for every q as
-expm1(n log1p(-eps))/eps with eps = 1 - q, which keeps full relative
precision as q -> 1 instead of cancelling in 1 - q^n; q = 1 ([n]_1 = n)
and q = 0 ([n]_0 = min(n, 1)) are exact special cases.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DeformationParameter",
    "FieldSpec",
    "TruncationError",
    "q_number",
    "ladder_elements",
    "coherent_weights",
    "choose_cutoff",
    "coherent_field",
    "time_chunks",
]

# (time, Fock level) cells per chunk of a time sweep.  Chunk arrays then stay
# below numpy's 256 KiB threshold for reusing temporaries in place (its
# operand swap changes the last bit of complex products) and add < 0.5 MiB
# to peak RSS; larger chunks were measured to add more.
CHUNK_CELLS = 2**12


class TruncationError(ValueError):
    """Raised when a Fock cutoff cannot hold the requested tail mass."""


@dataclass(frozen=True)
class DeformationParameter:
    """Deformation strength q in [0, 1]; q = 1 is the undeformed limit."""

    q: float

    def __post_init__(self):
        if not (0.0 <= self.q <= 1.0):
            raise ValueError(f"q must lie in [0, 1], got {self.q}")


def _as_deformation(q) -> DeformationParameter:
    if isinstance(q, DeformationParameter):
        return q
    return DeformationParameter(float(q))


def q_number(n: int, q) -> float:
    """[n]_q = (1 - q^n)/(1 - q) = n f(n)^2; [0]_q = 0, [n]_1 = n."""
    if n < 0:
        raise ValueError(f"q_number requires n >= 0, got {n}")
    eps = 1.0 - _as_deformation(q).q
    if eps == 0.0:
        return float(n)
    if eps == 1.0:
        return float(min(n, 1))
    return -math.expm1(n * math.log1p(-eps)) / eps


def ladder_elements(cutoff: int, m: int, q) -> np.ndarray:
    """<p-m| a_q^m |p> = sqrt([p-m+1]_q ... [p]_q) for p = 0..cutoff, zero
    for p < m.  Every coupling of both engines is one of these times a
    bare coupling constant."""
    if m < 1:
        raise ValueError(f"ladder_elements requires m >= 1, got {m}")
    if cutoff < 0:
        raise ValueError(f"ladder_elements requires cutoff >= 0, got {cutoff}")
    qp = _as_deformation(q)
    numbers = np.array([q_number(n, qp) for n in range(cutoff + 1)])
    rows = max(cutoff + 1 - m, 0)
    product = numbers[1:1 + rows]
    for j in range(2, m + 1):
        product = product * numbers[j:j + rows]
    out = np.zeros(cutoff + 1)
    out[m:] = np.sqrt(product)
    return out


@dataclass(frozen=True)
class FieldSpec:
    """Truncated coherent field: real amplitudes W_0..W_cutoff with
    squared mass within tail_eps of unity."""

    mean_photons: float
    cutoff: int
    weights: np.ndarray
    tail_eps: float = 1e-12

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if self.mean_photons < 0:
            raise ValueError("mean photon number must be nonnegative")
        if self.cutoff < 1:
            raise ValueError("cutoff must be at least 1")
        if w.shape != (self.cutoff + 1,):
            raise ValueError(
                f"expected {self.cutoff + 1} weights, got shape {w.shape}"
            )
        if np.any(w < 0):
            raise ValueError("coherent weights must be nonnegative")
        mass = float(np.sum(w * w))
        if mass > 1.0 + 1e-12 or mass < 1.0 - self.tail_eps:
            raise TruncationError(
                f"weight mass {mass!r} outside [1 - {self.tail_eps:g}, 1]"
            )

    def amplitude(self, n: int) -> float:
        """W_n, zero outside the truncated range."""
        if 0 <= n <= self.cutoff:
            return float(self.weights[n])
        return 0.0


def coherent_weights(mean_photons: float, cutoff: int,
                     tail_eps: float = 1e-12) -> FieldSpec:
    """Coherent-state amplitudes W_n = nbar^(n/2) exp(-nbar/2)/sqrt(n!).

    nbar is the mean photon number (amplitude alpha = sqrt(nbar), phase
    fixed to zero), so W_n^2 is the Poisson distribution with mean nbar.
    Computed in log space to survive large n.  Raises TruncationError if
    the cutoff leaves more than tail_eps of squared mass outside.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    if mean_photons < 0:
        raise ValueError("mean photon number must be nonnegative")
    if not (0.0 < tail_eps <= 1e-3):
        raise ValueError("tail_eps must lie in (0, 1e-3]")
    if mean_photons == 0:
        w = np.zeros(cutoff + 1)
        w[0] = 1.0
        return FieldSpec(mean_photons, cutoff, w, tail_eps)
    n = np.arange(cutoff + 1, dtype=float)
    log_w = 0.5 * (n * math.log(mean_photons)
                   - np.array([math.lgamma(v + 1.0) for v in n])) \
        - mean_photons / 2.0
    w = np.exp(log_w)
    mass = float(np.sum(w * w))
    if mass < 1.0 - tail_eps:
        raise TruncationError(
            f"cutoff {cutoff} keeps squared mass {mass:.15f}; tail "
            f"{1.0 - mass:.3e} exceeds tail_eps {tail_eps:g}"
        )
    return FieldSpec(mean_photons, cutoff, w, tail_eps)


def choose_cutoff(mean_photons: float, m: int, tail_eps: float = 1e-12) -> int:
    """Smallest Fock cutoff that keeps the coherent tail below tail_eps
    with a 2m margin for the index shifts n+m, n+2m in the dynamics.

    The tail is measured on the amplitudes: the cutoff is K + 2m where K
    is the smallest index with sum_{n>K} W_n < tail_eps.  This is the
    conservative reading (amplitude tail dominates squared-mass tail), so
    the FieldSpec mass invariant holds a fortiori.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not (0.0 < tail_eps <= 1e-3):
        raise ValueError("tail_eps must lie in (0, 1e-3]")
    if mean_photons < 0:
        raise ValueError("mean photon number must be nonnegative")
    if mean_photons == 0:
        return 2 * m
    # Extend until the terms are negligible, then locate the tail cut.
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
        if n > 1_000_000:  # pragma: no cover - defensive
            raise TruncationError("coherent amplitude tail did not converge")
    suffix = np.cumsum(np.asarray(terms)[::-1])[::-1]
    # suffix[k] = sum_{n >= k} W_n; want smallest K with suffix[K+1] < eps.
    tails = [*suffix[1:].tolist(), 0.0]
    return next(k for k, tail in enumerate(tails) if tail < tail_eps) + 2 * m


def coherent_field(mean_photons: float, m: int,
                   tail_eps: float = 1e-12) -> FieldSpec:
    """Coherent field truncated at choose_cutoff(mean_photons, m, tail_eps)."""
    cutoff = choose_cutoff(mean_photons, m, tail_eps)
    return coherent_weights(mean_photons, cutoff, tail_eps)


def time_chunks(times: np.ndarray, cutoff: int) -> list[np.ndarray]:
    """Consecutive slices of max(1, CHUNK_CELLS // (cutoff + 1)) times."""
    rows = max(1, CHUNK_CELLS // (cutoff + 1))
    return [times[start:start + rows] for start in range(0, len(times), rows)]
