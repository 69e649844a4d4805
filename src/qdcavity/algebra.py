"""q-deformed oscillator primitives.

The deformed ladder operators are a_q = a f(n) with
f(n) = sqrt((1 - q^n) / (n (1 - q))), so that a_q|n> = sqrt([n]_q)|n-1>
where [n]_q = (1 - q^n)/(1 - q) is the q-number.  q -> 1 recovers the
ordinary oscillator ([n]_1 = n).  [n]_q is evaluated for every q as
-expm1(n log1p(-eps))/eps with eps = 1 - q, which keeps full relative
precision as q -> 1 instead of cancelling in 1 - q^n; q = 1 ([n]_1 = n)
and q = 0 ([n]_0 = min(n, 1)) are exact special cases.  q is a plain
float; check_deformation is the one place that checks it lies in [0, 1].
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FieldSpec",
    "TruncationError",
    "check_deformation",
    "q_number",
    "ladder_elements",
    "coherent_weights",
    "choose_cutoff",
    "coherent_field",
    "time_chunks",
]

# Complex cells per chunk of a time sweep: a kernel chunk of (time, Fock
# level) cells, or a block of 4x4 matrices (16 cells per time).  A chunk's
# table and the closed kernel's workspace then add < 0.5 MiB to peak RSS;
# larger chunks were measured to add more.
CHUNK_CELLS = 2**12


class TruncationError(ValueError):
    """Raised when a Fock cutoff cannot hold the requested tail mass."""


def check_deformation(q) -> float:
    """q as a float, raising unless it lies in [0, 1]; q = 1 is the
    undeformed limit and q = 0 the strongest deformation."""
    q = float(q)
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"q must lie in [0, 1], got {q}")
    return q


def q_number(n: int, q) -> float:
    """[n]_q = (1 - q^n)/(1 - q) = n f(n)^2; [0]_q = 0, [n]_1 = n."""
    if n < 0:
        raise ValueError(f"q_number requires n >= 0, got {n}")
    eps = 1.0 - check_deformation(q)
    if eps == 0.0:
        return float(n)
    if eps == 1.0:
        return float(min(n, 1))
    return -math.expm1(n * math.log1p(-eps)) / eps


def ladder_elements(cutoff: int, m: int, q) -> np.ndarray:
    """<p-m| a_q^m |p> = sqrt([p-m+1]_q ... [p]_q) for p = 0..cutoff, zero
    for p < m.  Every coupling of both engines is one of these, in units
    of the bare coupling constant lambda."""
    if m < 1:
        raise ValueError(f"ladder_elements requires m >= 1, got {m}")
    if cutoff < 0:
        raise ValueError(f"ladder_elements requires cutoff >= 0, got {cutoff}")
    q = check_deformation(q)
    numbers = np.array([q_number(n, q) for n in range(cutoff + 1)])
    rows = max(cutoff + 1 - m, 0)
    product = numbers[1:1 + rows]
    for j in range(2, m + 1):
        product = product * numbers[j:j + rows]
    out = np.zeros(cutoff + 1)
    out[m:] = np.sqrt(product)
    return out


@dataclass(frozen=True)
class FieldSpec:
    """Truncated coherent field: real amplitudes W_0..W_cutoff whose
    squared mass lies in [1 - tail_eps, 1] up to log-space rounding.

    2 log W_n = n log nbar - lgamma(n+1) - nbar subtracts terms of up to
    about lgamma(cutoff+2) where the weight lies.  An ulp in log, half an
    ulp in the product and one in lgamma put up to 3 eps lgamma(cutoff+2)
    on it (C. Loader, 2000, on log-space binomial terms); exp and the
    square add ~3 eps, below eps lgamma(cutoff+2) once cutoff >= 3.  So
    the window admits 4 eps lgamma(cutoff+2) either side.
    """

    mean_photons: float
    cutoff: int
    weights: np.ndarray
    tail_eps: float = 1e-12

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if not 0 <= self.mean_photons < math.inf:
            raise ValueError("mean photon number must be finite and nonnegative")
        if self.cutoff < 1:
            raise ValueError("cutoff must be at least 1")
        if w.shape != (self.cutoff + 1,):
            raise ValueError(
                f"expected {self.cutoff + 1} weights, got shape {w.shape}"
            )
        if not np.all(w >= 0):
            raise ValueError("coherent weights must be nonnegative")
        mass = float(np.sum(w * w))
        rounding = 4 * sys.float_info.epsilon * math.lgamma(self.cutoff + 2)
        if not 1.0 - self.tail_eps - rounding <= mass <= 1.0 + rounding:
            raise TruncationError(
                f"weight mass {mass!r} outside [1 - {self.tail_eps:g}, 1] "
                f"by more than rounding {rounding:.1e}"
            )


def _last_index(mean_photons: float, tail_eps: float) -> int:
    """N = ceil(nbar + x) from the Bernstein bound on the Poisson law W_n^2
    of mean nbar: P(n >= nbar + x) <= exp(-x^2/(2(nbar + x/3))) =
    (e^-30 tail_eps)^2, so the geometrically decaying W_n past N are
    negligible against tail_eps."""
    if not 0 <= mean_photons < math.inf:
        raise ValueError("mean photon number must be finite and nonnegative")
    if not (0.0 < tail_eps <= 1e-3):
        raise ValueError("tail_eps must lie in (0, 1e-3]")
    log_delta = 2.0 * (30.0 - math.log(tail_eps))
    bound = mean_photons + log_delta / 3.0 + math.sqrt(
        log_delta * log_delta / 9.0 + 2.0 * log_delta * mean_photons)
    if not bound <= 1_000_000:
        raise TruncationError(f"nbar {mean_photons:g} needs over 1e6 Fock levels")
    return math.ceil(bound)


def _amplitudes(mean_photons: float, size: int) -> np.ndarray:
    """W_n = nbar^(n/2) exp(-nbar/2)/sqrt(n!) in log space, for n = 0 to
    size - 1 (alpha = sqrt(nbar), phase zero)."""
    n = np.arange(size, dtype=float)
    if mean_photons == 0:
        return (n == 0).astype(float)
    log_w = 0.5 * (n * math.log(mean_photons)
                   - np.array([math.lgamma(v + 1.0) for v in n])) \
        - mean_photons / 2.0
    return np.exp(log_w)


def _cutoff(w: np.ndarray, m: int, tail_eps: float) -> int:
    """K + 2m, where K is the smallest index with sum_{n>K} W_n < tail_eps
    over the amplitudes w = W_0..W_N."""
    # suffix[k] = sum_{n>=k} W_n, summed from the far end, never increases.
    suffix = np.cumsum(w[::-1])[::-1]
    return int(np.count_nonzero(suffix[1:] >= tail_eps)) + 2 * m


def _truncate(mean_photons: float, w: np.ndarray, cutoff: int,
              tail_eps: float) -> FieldSpec:
    """The field of w[:cutoff + 1], raising TruncationError if the squared
    mass of the rest of w, which runs to max(cutoff, N), exceeds tail_eps."""
    tail = float(np.sum(w[cutoff + 1:] ** 2))
    if tail > tail_eps:
        raise TruncationError(f"cutoff {cutoff} drops squared tail "
                              f"{tail:.3e}, above tail_eps {tail_eps:g}")
    return FieldSpec(mean_photons, cutoff, w[:cutoff + 1], tail_eps)


def coherent_weights(mean_photons: float, cutoff: int,
                     tail_eps: float = 1e-12) -> FieldSpec:
    """Coherent amplitudes W_0..W_cutoff, never renormalised.  Raises
    TruncationError if the squared mass dropped past the cutoff,
    sum_{n>cutoff} W_n^2, exceeds tail_eps."""
    last = _last_index(mean_photons, tail_eps)
    return _truncate(mean_photons, _amplitudes(mean_photons,
                                               max(cutoff, last) + 1),
                     cutoff, tail_eps)


def choose_cutoff(mean_photons: float, m: int, tail_eps: float = 1e-12) -> int:
    """Smallest Fock cutoff that keeps the coherent tail below tail_eps
    with a 2m margin for the index shifts n+m, n+2m in the dynamics.

    The tail is measured on the amplitudes: the cutoff is K + 2m where K
    is the smallest index with sum_{n>K} W_n < tail_eps, so the squared
    tail coherent_weights checks is below tail_eps^2.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    last = _last_index(mean_photons, tail_eps)
    return _cutoff(_amplitudes(mean_photons, last + 1), m, tail_eps)


def coherent_field(mean_photons: float, m: int,
                   tail_eps: float = 1e-12) -> FieldSpec:
    """Coherent field truncated at choose_cutoff(mean_photons, m, tail_eps).
    That cutoff is at most N + 2m, so one amplitude array, the weights
    W_0..W_{N+2m}, yields both the cutoff and the truncated field."""
    if m < 1:
        raise ValueError("m must be at least 1")
    last = _last_index(mean_photons, tail_eps)
    w = coherent_weights(mean_photons, last + 2 * m, tail_eps).weights
    cutoff = _cutoff(w[:last + 1], m, tail_eps)
    return _truncate(mean_photons, w[:max(cutoff, last) + 1], cutoff,
                     tail_eps)


def time_chunks(times: np.ndarray, width: int) -> list[np.ndarray]:
    """Consecutive slices of max(1, CHUNK_CELLS // width) times, for width
    cells per time: cutoff + 1 for the kernel's chunks, 16 for a block of
    4x4 matrices."""
    rows = max(1, CHUNK_CELLS // width)
    return [times[start:start + rows] for start in range(0, len(times), rows)]
