"""Symmetric n-qubit states and the synthesis operators that produce them.

A state invariant under qubit permutations is stored as n+1 real amplitudes
a_0..a_n, one per Hamming weight, normalized as sum_k C(n,k) a_k^2 = 1.  The
Dicke state |D^n_w> is the unit vector a_w = 1/sqrt(C(n,w)).

Synthesis maps:
  * dj_state        -- H U_f H on |0..0>, amplitudes rw_f(k)/2^n (exact ints
                       divided once, so Parseval gives normalization for free)
  * biased_dj_state -- B_{r,n} U_f H on |0..0>.  Grouping the basis strings
                       x by weight and by overlap with z gives, at weight k,
                         sum_i T_i(k) z^i = 2^{-n/2} (v - u z)^k (u + v z)^{n-k}
                       with u = sqrt(1-r/n), v = sqrt(r/n): the biased form of
                       the Krawtchouk generating function, which it is, times
                       2^{-n}, at r = n/2.  The amplitude is
                       a_k = sum_i (-1)^{f_i} T_i(k).
                       One table of (u + v z)^m rows, n additive steps, gives
                       both factors for every k; one matrix product with the
                       Hankel matrix of the signs sums all weights at once.
                       O(n) numpy calls and O(n^3) flops per state instead of
                       O(4^n).
  * childs_probability -- the plain biased-Hadamard baseline B_{w,n} |0..0>.

Parity measurement is modeled at the outcome level: weight k is drawn with
probability C(n,k) a_k^2 and the register collapses to |D^n_k>.  Each state
owns that row (`probabilities`) and its gated, normalized form
(`distribution`), each computed once, so synthesis, Grover planning and
sampling weigh and gate a state once between them.  The float binomial row
C(n, k) is built once per n and shared by every state of that size, from a
small per-n cache.

`childs_profile_strings` and `childs_quarter_slice_strings` give the 9-digit
text of the Childs column from floats.  One table holds v^v for v = 0..N as
a mantissa in [1/2, 1) and an int64 exponent.  It is built by left-to-right
square-and-multiply over the bits of v, vectorised over v, with np.frexp
renormalising after every step, so nothing overflows at any N.  Only the
IEEE products round (a product by 1 is exact).  With e(v) roundings in v^v,
e(1) = 0, e(2v) = 2 e(v) + 1 and e(v + 1) = e(v) + 1 give e(v) = v - 1, so
entry v is within gamma_(v-1) = (v-1)u / (1 - (v-1)u) of v^v, u = 2^-53
(Higham, Accuracy and Stability of Numerical Algorithms, Lemma 3.1).  The
exact C(n, w), from the binomial half row or `symfunc.quarter_binomials`,
is rounded once at any size by `symfunc._frexp_ints`, to a mantissa and an
int64 exponent.  Then p~ = C V[w] V[n-w] / V[n] takes
1 + (w-1) + (n-w-1) + (n-1) + 3 = 2n + 1 roundings for 0 < w < n, so
p~ = p (1 + theta) with |theta| <= gamma_(2n+1); at w = 0 and n, p~ = 1
exactly.  Each end of [lo, hi] = p~ (1 -+ rel) rounds twice more, so
rel = gamma_k / (1 - gamma_k) at k = 2n + 3; the rounding of rel itself
is of second order, inside the slack of those two.  No value is
subnormal: p_C(n, w) is the mode of a binomial law, at least 1/(n + 1).
A value prints from its bounds when both give the same 9 digits (the Ziv
rule of `symfunc.dj_optimal_profile_strings`), and otherwise from the
exact childs_probability, which is also the reference they are tested
against.

Outcomes are drawn by inverse CDF through a guide table (Chen & Asau, AIIE
Trans. 6 (1974) 163; Devroye, Non-Uniform Random Variate Generation, 1986,
III.2.4), bit for bit the stream of Generator.choice(n + 1, size, p=...).
Like choice, the sampler takes cdf = cumsum(distribution) / its last entry
and one uniform u = rng.random() per trial, and the outcome is
#{cdf <= u} = cdf.searchsorted(u, side="right").  With G the smallest power
of two >= 4(n+1), the table holds cut[j] = #{cdf <= j/G}; u*G and j/G are
exact, and #{cdf <= u} is non-decreasing in u, so on the bucket
j <= u*G < j+1 it lies between cut[j] and cut[j+1].  Where the two agree
that count is the outcome, read with one gather; only trials in a bucket
that holds a cdf value are binary-searched.  The uniforms are drawn a block
of at most 2^15 at a time into one buffer, so a draw holds 8 bytes per trial
(the outcome array) plus at most 256 KiB (the buffer), where choice holds 16
bytes per trial.  These are the per-trial outcomes; the CLI's
`simulate --trials` prints only counts, so it draws them in one
Generator.multinomial on `distribution`, the same law at constant memory.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from .errors import StateError, UnreachableTargetError, check_bias, check_index, check_size
from .krawtchouk import abs_column_sum, column
from .symfunc import (SymmetricBooleanFunction, _U, _certified_strings, _frexp_ints,
                      reduced_walsh_spectrum, spectrum_value)

__all__ = [
    "SymmetricState",
    "biased_dj_state",
    "childs_probability",
    "childs_probability_exact",
    "childs_profile_strings",
    "childs_quarter_slice_strings",
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


# rounded binomial rows kept, one per n: at most 8 x 1030 x 8 B = 64.4 KiB,
# since from n = 1030 the row raises instead
_BINOMIAL_ROWS = 8


@lru_cache(maxsize=_BINOMIAL_ROWS)
def _binomial_row(n: int) -> np.ndarray:
    """np.array(column(0, n), dtype=float), read-only: C(n, k) rounded once.

    Raises OverflowError from n = 1030, and lru_cache keeps no entry then.
    """
    row = np.array(column(0, n), dtype=float)
    row.flags.writeable = False
    return row


@dataclass(frozen=True, eq=False)
class SymmetricState:
    """n-qubit permutation-symmetric state: one real amplitude per weight."""

    n: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        check_size("n", self.n, 0)
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
        the float range and the conversion raises OverflowError.  The rounded
        row is shared by every state of the same n (_binomial_row).
        """
        p = _binomial_row(self.n) * self.amps * self.amps
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
            raise StateError(f"state norm {float(total)!r} is not 1 within {NORM_ATOL:g}: "
                             f"it misses by {abs(total - 1.0):.3g}")
        p = self.probabilities / total
        p.flags.writeable = False
        return p


def dicke(n: int, w: int) -> SymmetricState:
    """|D^n_w>: the equal superposition of all weight-w basis states."""
    check_index("w", w, n)
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
    check_index("w", w, s.n)
    a = float(s.amps[w])
    return comb(s.n, w) * a * a


def dj_success_exact(f: SymmetricBooleanFunction, w: int) -> Fraction:
    """The dj_state success probability as an exact rational C(n,w) rw^2 / 2^(2n)."""
    check_index("w", w, f.n)
    rw = spectrum_value(f, w)
    return Fraction(comb(f.n, w) * rw * rw, 1 << (2 * f.n))


def dj_optimal_success_exact(n: int, w: int) -> Fraction:
    """dj_success_exact at the sign-rule optimum, via the column absolute sum.

    The sign rule aligns every spectrum term, so rw_f(w) = sum_i |K_i(w, n)|.
    """
    check_index("w", w, n)
    s = abs_column_sum(w, n)
    return Fraction(comb(n, w) * s * s, 1 << (2 * n))


def childs_probability_exact(n: int, w: int) -> Fraction:
    """C(n,w) (w/n)^w (1-w/n)^(n-w) exactly, with 0^0 = 1 at the endpoints."""
    check_index("w", w, n)
    if w in (0, n):
        return Fraction(1)
    return Fraction(comb(n, w) * w**w * (n - w) ** (n - w), n**n)


def childs_probability(n: int, w: int) -> float:
    """Success probability of the plain biased-Hadamard preparation B_{w,n}|0..0>.

    childs_probability_exact as one correctly rounded big-int true division
    (0^0 = 1 covers the endpoints), without reducing the fraction first.
    """
    check_index("w", w, n)
    return (comb(n, w) * w**w * (n - w) ** (n - w)) / n**n


def _power_table(top: int) -> tuple[np.ndarray, np.ndarray]:
    """(m, e) with m[v] 2^e[v] within gamma_(v-1) of v**v for v = 0..top (0**0 = 1 exactly).

    Left-to-right square-and-multiply over the bits of v, vectorised over v,
    on mantissas renormalised by np.frexp after every step (module docstring).
    """
    vs = np.arange(top + 1)
    base, base_exp = np.frexp(vs.astype(float))  # exact: every v < 2^53
    on = (vs >> np.arange(top.bit_length() - 1, -1, -1)[:, None]) & 1 == 1  # the bits of v, highest first
    factors, factor_exps = np.where(on, base, 1.0), np.where(on, base_exp, 0)
    m, e = np.ones(top + 1), np.zeros(top + 1, dtype=np.int64)
    for factor, factor_exp in zip(factors, factor_exps):
        m, shift = np.frexp(m * m * factor)  # a square, then a product where the bit is set
        e = 2 * e + factor_exp + shift
    return m, e


def _childs_float_bounds(binoms: Sequence[int], ws: np.ndarray, ns, table) -> tuple[np.ndarray, ...]:
    """(p~, lo, hi) with lo <= childs_probability_exact(ns, ws) <= hi certified, from binoms = C(ns, ws).

    p~ = C V[w] V[n - w] / V[n] on mantissas from the v**v table rounds
    within gamma_(2n+1) (module docstring), and [lo, hi] widens it outward.
    """
    m, e = table
    cm, ce = _frexp_ints(binoms)
    p = np.ldexp(cm * m[ws] * m[ns - ws] / m[ns], ce + e[ws] + e[ns - ws] - e[ns])
    k = 2 * ns + 3  # the 2n + 1 roundings of p~, and two more for each end of [lo, hi]
    rel = k * _U / (1.0 - 2 * k * _U)  # gamma_k / (1 - gamma_k); its own rounding is of second order
    return p, p * (1.0 - rel), p * (1.0 + rel)


def childs_profile_strings(n: int, binoms: Sequence[int]) -> list[str]:
    """[csvio.fmt(childs_probability(n, w)) for w in 0..n], the same strings, from certified floats.

    A value prints from its bounds (`_childs_float_bounds`) when both give
    the same 9 digits, and otherwise from the exact childs_probability(n, w).
    binoms is the binomial half row (C(n, 0), ..., C(n, n//2)).
    """
    check_size("n", n, 0)
    ws = np.arange(n // 2 + 1)
    _, lo, hi = _childs_float_bounds(binoms, ws, n, _power_table(n))
    half = _certified_strings(lo, hi, lambda w: childs_probability(n, w))
    return half + half[: n - n // 2][::-1]


def childs_quarter_slice_strings(max_n: int, binoms: Sequence[int]) -> list[str]:
    """[csvio.fmt(childs_probability(n, n // 4)) for n in 0..max_n], the same strings, from certified floats.

    binoms is symfunc.quarter_binomials(max_n), C(n, n//4) carried along n
    as for symfunc.quarter_slice; each value prints from its bounds when both
    give the same 9 digits, and otherwise from the exact
    childs_probability(n, n // 4).
    """
    check_size("max_n", max_n, 0)
    ns = np.arange(max_n + 1)
    _, lo, hi = _childs_float_bounds(binoms, ns // 4, ns, _power_table(max_n))
    return _certified_strings(lo, hi, lambda n: childs_probability(n, n // 4))


def childs_state(n: int, w: int) -> SymmetricState:
    """B_{w,n}|0..0>: the product state with a_k = (w/n)^{k/2} (1-w/n)^{(n-k)/2}."""
    check_index("w", w, n)
    rho = w / n if n else 0.0  # n = 0: the empty product, a_0 = 1
    ks = np.arange(n + 1, dtype=float)
    log_rho = math.log(rho) if rho > 0.0 else -1e12
    log_1mrho = math.log1p(-rho) if rho < 1.0 else -1e12
    amps = np.exp(0.5 * ks * log_rho + 0.5 * (n - ks) * log_1mrho)
    return SymmetricState(n=n, amps=amps)


# ---------------------------------------------------------------------------
# biased Deutsch-Jozsa


def _power_rows(a: float, b: float, n: int) -> np.ndarray:
    """Coefficients of (a + b z)^m, m = 0..n: row m of an (n+1, n+1) table.

    Row m+1 is a * row m plus b * row m shifted one place.  With a, b >= 0
    both terms are non-negative, so no step cancels, and a or b = 0 gives
    exact zeros (the 0^0 = 1 convention).
    """
    rows = np.zeros((n + 1, n + 2))  # column 0 is a zero pad for the shift
    rows[0, 1] = 1.0
    for m in range(n):
        rows[m + 1, 1:] = a * rows[m, 1:] + b * rows[m, :-1]
    return rows[:, 1:]


def biased_dj_state(f: SymmetricBooleanFunction, r: float) -> SymmetricState:
    """B_{r,n} U_f H |0..0> in the symmetric representation.

    With u = sqrt(1-r/n), v = sqrt(r/n) and s_i = (-1)^{f_i},
      a_k = 2^{-n/2} sum_{j,m} s_{j+m} [z^j](v - u z)^k [z^m](u + v z)^{n-k}.
    The coefficient tables have no cancelling terms, and r = 0 or n needs no
    special case: the bias layer is then Z or X and every product is exact.
    r = n/2 makes the bias layer an ordinary Hadamard and reproduces
    dj_state(f).  Cost is n row steps and one (n+1)-square matrix product.

    The sum over j and m cancels: its terms add up in absolute value to
    ((u+v)/sqrt 2)^n, between 2^{-n/2} and 1, while an amplitude that
    matters is about 1/sqrt(C(n,k)), so the relative rounding error grows
    like sqrt(C(n,k)), about 2^{n/2}.
    Raises StateError when sum_k C(n,k) a_k^2 misses 1 by more than
    NORM_ATOL.  For sign-rule functions the gate first refuses a weight at
    n = 62, and refuses all weights from an n between 76 and 106 that
    depends on r: (60, w = 15, r = 30) passes, (150, 37, r = 40) raises.  It
    bounds the norm, not each weight: against exact Pythagorean biases
    (r = 9n/25 and 25n/169, n <= 100, sign-rule f) a passing state was off
    by up to 6e-6 in one C(n,k) a_k^2, at (89, 28, r = 9n/25).
    """
    n = f.n
    rho = check_bias(r, n)
    # the n-k qubits where the output string is 0 contribute (u + v z)^{n-k},
    # the k where it is 1 contribute (v - u z)^k, whose z^j coefficient is
    # (-1)^j [z^{k-j}] (u + v z)^k: row k reversed.  For j > k the index
    # k - j wraps to a column past row k's degree, which holds a zero.
    on_zeros = _power_rows(math.sqrt(1.0 - rho), math.sqrt(rho), n)
    ks = np.arange(n + 1)
    on_ones = on_zeros[ks[:, None], ks[:, None] - ks]
    on_ones[:, 1::2] *= -1.0
    # H[j, m] = s_{j+m}; past s_n the padding only meets zero coefficients.
    # The strided view is the one sliding_window_view builds, without its
    # per-call checks
    signs = np.concatenate([f.signs(), np.zeros(n)])
    hankel = np.ndarray((n + 1, n + 1), buffer=signs, strides=2 * signs.strides)
    amps = ((on_ones @ hankel) * on_zeros[::-1]).sum(axis=1) * 2.0 ** (-0.5 * n)
    state = SymmetricState(n=n, amps=amps)
    state.distribution  # the norm gate of parity measurement
    return state


# ---------------------------------------------------------------------------
# parity measurement

_BLOCK = 1 << 15  # uniforms drawn per rng.random call in parity_sample


def parity_measure(s: SymmetricState, rng: np.random.Generator) -> int:
    """Sample one parity-measurement outcome; result k collapses s to |D^n_k>.

    One uniform, the same value as int(rng.choice(s.n + 1, p=s.distribution)).
    """
    return int(parity_sample(s, 1, rng)[0])


def parity_sample(s: SymmetricState, trials: int, rng: np.random.Generator) -> np.ndarray:
    """Vector of `trials` independent parity-measurement outcomes, int64.

    Equal to rng.choice(s.n + 1, size=trials, p=s.distribution), and leaves
    rng where choice would; the module docstring gives the guide-table
    argument.
    """
    check_size("trials", trials, 0)
    cdf = s.distribution.cumsum()
    cdf /= cdf[-1]
    g = 1 << (4 * cdf.size - 1).bit_length()  # smallest power of two >= 4(n+1)
    # cdf * g is exact, so cdf <= j/g exactly when ceil(cdf * g) <= j
    cut = np.bincount(np.ceil(cdf * g).astype(np.intp), minlength=g + 1).cumsum()
    guide = np.where(cut[:-1] == cut[1:], cut[:-1], -1)  # -1: search this bucket
    out = np.empty(trials, dtype=np.int64)
    u = np.empty(min(trials, _BLOCK))
    for start in range(0, trials, _BLOCK):
        k = out[start:start + _BLOCK]
        v = rng.random(out=u[:k.size])
        np.multiply(v, g, out=k, casting="unsafe")  # the bucket floor(u * g)
        np.take(guide, k, out=k, mode="clip")
        miss = np.flatnonzero(k < 0)
        k[miss] = cdf.searchsorted(v[miss], side="right")
    return out


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
