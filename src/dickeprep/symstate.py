"""Symmetric n-qubit states and the synthesis operators that produce them.

A state invariant under qubit permutations is stored as n+1 real amplitudes
a_0..a_n, one per Hamming weight, normalized as sum_k C(n,k) a_k^2 = 1.  The
Dicke state |D^n_w> is the unit vector a_w = 1/sqrt(C(n,w)).

Synthesis maps:
  * dj_state        -- H U_f H on |0..0>, amplitudes rw_f(k)/2^n (exact ints
                       divided once, so Parseval gives normalization for free)
  * biased_dj_state -- B_{r,n} U_f H on |0..0>; amplitude at weight k is
                       2^{-n/2} sum_i (-1)^{f_i} sum_j (-1)^j C(k,j) C(n-k,i-j)
                           (1-r/n)^{(n-d)/2} (r/n)^{d/2},   d = i+k-2j,
                       the weight-grouped form of the double sum over basis
                       strings (x counted by wt(x)=i and overlap |x AND z|=j).
                       O(n^2) per weight instead of O(4^n).
  * childs_probability -- the plain biased-Hadamard baseline B_{w,n} |0..0>.

Parity measurement is modeled at the outcome level: weight k is drawn with
probability C(n,k) a_k^2 and the register collapses to |D^n_k>.  Each state
owns that row (`probabilities`) and its gated, normalized form
(`distribution`), each computed once, so synthesis, Grover planning and
sampling weigh and gate a state once between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

import numpy as np

from .errors import StateError, UnreachableTargetError
from .krawtchouk import abs_column_sum, column
from .symfunc import SymmetricBooleanFunction, reduced_walsh_spectrum, spectrum_value

__all__ = [
    "SymmetricState",
    "biased_amplitude_spectrum",
    "biased_amplitude_table",
    "biased_dj_state",
    "childs_probability",
    "childs_probability_exact",
    "childs_state",
    "dicke",
    "dj_optimal_success_exact",
    "dj_state",
    "dj_success_exact",
    "parity_measure",
    "parity_sample",
    "repetitions_until_success",
    "success_probability",
]

NORM_ATOL = 1e-8  # SymmetricState.distribution refuses a larger |norm - 1|


@dataclass(frozen=True, eq=False)
class SymmetricState:
    """n-qubit permutation-symmetric state: one real amplitude per weight."""

    n: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"n={self.n} must be non-negative")
        amps = np.asarray(self.amps, dtype=float)
        if amps.shape != (self.n + 1,):
            raise ValueError(f"amps has shape {amps.shape}, expected ({self.n + 1},)")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @cached_property
    def probabilities(self) -> np.ndarray:
        """Parity-measurement outcome weights p_k = C(n,k) a_k^2, read-only.

        The binomial row is Krawtchouk column 0.  Each exact C(n,k) is rounded
        once to a float and multiplied by a_k twice, left to right, so the
        result is the float product comb(n, k) * a_k * a_k bit for bit.  That
        rounding holds to n = 1029; from n = 1030 the middle binomials exceed
        the float range and the conversion raises OverflowError.
        """
        p = np.array(column(0, self.n), dtype=float) * self.amps * self.amps
        p.flags.writeable = False
        return p

    @cached_property
    def distribution(self) -> np.ndarray:
        """probabilities / their sum, read-only: the parity-measurement law.

        Raises StateError, on every access, when the sum misses 1 by more
        than NORM_ATOL.
        """
        total = self.probabilities.sum()
        if not abs(total - 1.0) <= NORM_ATOL:  # also refuses a NaN norm
            raise StateError(f"state norm {total:.6g} is not 1 within {NORM_ATOL:g}")
        p = self.probabilities / total
        p.flags.writeable = False
        return p


def dicke(n: int, w: int) -> SymmetricState:
    """|D^n_w>: the equal superposition of all weight-w basis states."""
    if not 0 <= w <= n:
        raise ValueError(f"w={w} out of range [0, {n}]")
    amps = np.zeros(n + 1)
    amps[w] = 1.0 / math.sqrt(comb(n, w))
    return SymmetricState(n=n, amps=amps)


def dj_state(f: SymmetricBooleanFunction) -> SymmetricState:
    """H^n U_f H^n |0..0>: amplitude rw_f(k)/2^n at each weight k."""
    denom = 1 << f.n
    amps = np.array([rw / denom for rw in reduced_walsh_spectrum(f)])
    return SymmetricState(n=f.n, amps=amps)


def success_probability(s: SymmetricState, w: int) -> float:
    """C(n,w) a_w^2: the parity-measurement probability of landing in |D^n_w>."""
    if not 0 <= w <= s.n:
        raise ValueError(f"w={w} out of range [0, {s.n}]")
    a = float(s.amps[w])
    return comb(s.n, w) * a * a


def dj_success_exact(f: SymmetricBooleanFunction, w: int) -> Fraction:
    """The dj_state success probability as an exact rational C(n,w) rw^2 / 2^(2n)."""
    if not 0 <= w <= f.n:
        raise ValueError(f"w={w} out of range [0, {f.n}]")
    rw = spectrum_value(f, w)
    return Fraction(comb(f.n, w) * rw * rw, 1 << (2 * f.n))


def dj_optimal_success_exact(n: int, w: int) -> Fraction:
    """dj_success_exact at the sign-rule optimum, via the column absolute sum.

    The sign rule aligns every spectrum term, so rw_f(w) = sum_i |K_i(w, n)|.
    """
    if not 0 <= w <= n:
        raise ValueError(f"w={w} out of range [0, {n}]")
    s = abs_column_sum(w, n)
    return Fraction(comb(n, w) * s * s, 1 << (2 * n))


def childs_probability_exact(n: int, w: int) -> Fraction:
    """C(n,w) (w/n)^w (1-w/n)^(n-w) exactly, with 0^0 = 1 at the endpoints."""
    if not 0 <= w <= n:
        raise ValueError(f"w={w} out of range [0, {n}]")
    if w in (0, n):
        return Fraction(1)
    return Fraction(comb(n, w) * w**w * (n - w) ** (n - w), n**n)


def childs_probability(n: int, w: int) -> float:
    """Success probability of the plain biased-Hadamard preparation B_{w,n}|0..0>.

    childs_probability_exact as one correctly rounded big-int true division
    (0^0 = 1 covers the endpoints), without reducing the fraction first.
    """
    if not 0 <= w <= n:
        raise ValueError(f"w={w} out of range [0, {n}]")
    return (comb(n, w) * w**w * (n - w) ** (n - w)) / n**n


def childs_state(n: int, w: int) -> SymmetricState:
    """B_{w,n}|0..0>: the product state with a_k = (w/n)^{k/2} (1-w/n)^{(n-k)/2}."""
    if not 0 <= w <= n:
        raise ValueError(f"w={w} out of range [0, {n}]")
    rho = w / n
    ks = np.arange(n + 1, dtype=float)
    log_rho = math.log(rho) if rho > 0.0 else -1e12
    log_1mrho = math.log1p(-rho) if rho < 1.0 else -1e12
    amps = np.exp(0.5 * ks * log_rho + 0.5 * (n - ks) * log_1mrho)
    return SymmetricState(n=n, amps=amps)


# ---------------------------------------------------------------------------
# biased Deutsch-Jozsa

def _masked_log(x: np.ndarray) -> np.ndarray:
    # log with -inf replaced by a huge negative finite value so that
    # d * log(0) evaluates to 0 when d == 0 and underflows to exp(..) = 0
    # when d > 0, implementing the 0^0 = 1 convention without warnings.
    with np.errstate(divide="ignore"):
        out = np.log(x)
    return np.where(np.isneginf(out), -1e12, out)


def biased_amplitude_table(n: int, k: int, rhos: np.ndarray) -> np.ndarray:
    """Function-independent inner sums of the biased-DJ amplitude at weight k.

    Returns T of shape (n+1, len(rhos)) with
      T[i, g] = 2^{-n/2} sum_j (-1)^j C(k,j) C(n-k,i-j)
                (1-rho_g)^{(n-d)/2} rho_g^{d/2},   d = i+k-2j,
    so the amplitude for a function f is sum_i (-1)^{f_i} T[i].  Logs of the
    exact binomials keep every term finite at any n.
    """
    rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
    if np.any(rhos < 0.0) or np.any(rhos > 1.0):
        raise ValueError("rho values must lie in [0, 1]")
    lr = _masked_log(rhos)
    with np.errstate(divide="ignore"):
        l1r = np.log1p(-rhos)
    l1r = np.where(np.isneginf(l1r), -1e12, l1r)
    log_ck = list(map(math.log, column(0, k)))
    log_cnk = list(map(math.log, column(0, n - k)))
    half_log = 0.5 * n * math.log(2.0)

    T = np.zeros((n + 1, rhos.shape[0]))
    for i in range(n + 1):
        j_lo = max(0, i - (n - k))
        j_hi = min(i, k)
        if j_lo > j_hi:
            continue
        js = np.arange(j_lo, j_hi + 1)
        d = (i + k - 2 * js)[:, None].astype(float)
        base = np.array([log_ck[j] + log_cnk[i - j] for j in js])[:, None] - half_log
        logw = 0.5 * d * lr[None, :] + 0.5 * (n - d) * l1r[None, :]
        terms = np.exp(base + logw)
        terms[js % 2 == 1] *= -1.0
        T[i] = terms.sum(axis=0)
    return T


def biased_amplitude_spectrum(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact Fourier form of the biased_amplitude_table rows at weight k.

    With sin^2(theta) = rho the bias layer is B = R(theta) Z, and on the
    symmetric subspace R(theta)^{(x)n} = S exp(-i theta X) S^-1, where
    S = diag(i^m) and X is the real tridiagonal spin generator with
    off-diagonal sqrt((m+1)(n-m)).  X has the integer eigenvalues
    lam = -n, -n+2, ..., n, so every row is a trigonometric polynomial:
      T[i](theta) = Re sum_l C[i, l] e^{-i theta lam_l},
      C[i, l] = i^{k+i} 2^{-n/2} sqrt(C(n,i)/C(n,k)) V[k, l] V[i, l],
    with V the eigenvectors of X.  Returns (lam, C): integer frequencies of
    shape (n+1,) and complex coefficients of shape (n+1, n+1).
    """
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range [0, {n}]")
    m = np.arange(n)
    off = np.sqrt((m + 1.0) * (n - m))
    evals, V = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    lam = np.rint(evals).astype(np.int64)
    log_comb = np.array(
        [math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) for i in range(n + 1)]
    )
    scale = np.exp(0.5 * (log_comb - log_comb[k] - n * math.log(2.0)))
    phase = np.array([1, 1j, -1, -1j])[(k + np.arange(n + 1)) % 4]
    C = (phase * scale)[:, None] * V * V[k][None, :]
    return lam, C


def _check_bias(r: float, n: int) -> float:
    if not 0.0 <= r <= n:
        raise ValueError(f"r={r} out of range [0, {n}]")
    return r / n


def biased_dj_state(f: SymmetricBooleanFunction, r: float) -> SymmetricState:
    """B_{r,n} U_f H |0..0> in the symmetric representation.

    r = n/2 makes the bias layer an ordinary Hadamard and reproduces
    dj_state(f).  Cost is O(n^2) per weight, O(n^3) for the full state.
    Raises StateError when sum_k C(n,k) a_k^2 misses 1 by more than
    NORM_ATOL: the summed terms cancel, so past n of about 60 the result
    can be far from a unit vector.
    """
    n = f.n
    rho = _check_bias(r, n)
    signs = np.array(f.signs(), dtype=float)
    amps = np.empty(n + 1)
    for k in range(n + 1):
        T = biased_amplitude_table(n, k, np.array([rho]))
        amps[k] = signs @ T[:, 0]
    state = SymmetricState(n=n, amps=amps)
    state.distribution  # the norm gate of parity measurement
    return state


# ---------------------------------------------------------------------------
# parity measurement

def parity_measure(s: SymmetricState, rng: np.random.Generator) -> int:
    """Sample one parity-measurement outcome; result k collapses s to |D^n_k>."""
    return int(rng.choice(s.n + 1, p=s.distribution))


def parity_sample(s: SymmetricState, trials: int, rng: np.random.Generator) -> np.ndarray:
    """Vector of `trials` independent parity-measurement outcomes."""
    if trials < 0:
        raise ValueError(f"trials={trials} must be non-negative")
    return rng.choice(s.n + 1, size=trials, p=s.distribution)


def repetitions_until_success(s: SymmetricState, w: int, rng: np.random.Generator) -> int:
    """Number of prepare-and-measure rounds until the outcome is w.

    Each round is an independent preparation of s followed by a parity
    measurement, so the count is geometric with mean 1/success_probability.
    """
    p = success_probability(s, w)
    s.distribution  # validate normalization, same gate as parity_measure
    if p <= 0.0:
        raise UnreachableTargetError(f"target weight {w} has zero amplitude")
    return int(rng.geometric(min(p, 1.0)))
