"""Symmetric n-qubit states, their synthesis operators, and the paper's probability columns.

A state invariant under qubit permutations is stored as n+1 real amplitudes
a_0..a_n, one per Hamming weight, normalized as sum_k C(n,k) a_k^2 = 1.  The
Dicke state |D^n_w> is the unit vector a_w = 1/sqrt(C(n,w)).

Synthesis maps:
  * dj_state        -- H U_f H on |0..0>, amplitudes rw_f(k)/2^n (exact ints
                       rounded once, so Parseval gives normalization for free)
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

Outcomes are drawn by inverse CDF through a guide table (Chen & Asau, AIIE
Trans. 6 (1974) 163; Devroye, Non-Uniform Random Variate Generation, 1986,
III.2.4), bit for bit the stream of Generator.choice(n + 1, size, p=...).
Like choice, the sampler takes cdf = cumsum(distribution) / its last entry
and one uniform u = rng.random() per trial, and the outcome is
#{cdf <= u} = cdf.searchsorted(u, side="right").  With G the smallest power
of two >= max(4(n+1), min(trials, 1024)), the table holds
cut[j] = #{cdf <= j/G}; u*G and j/G are exact, and #{cdf <= u} is
non-decreasing in u, so on the bucket j <= u*G < j+1 it lies between cut[j]
and cut[j+1].  Where the two agree that count is the outcome, read with one
gather; only trials in a bucket that holds a cdf value are binary-searched.
At most n+1 of the G buckets hold one, so with G near 4(n+1) up to a
quarter of the trials can reach the search.  A draw of many trials spreads
the cost of a larger table over them, so it takes at least 1024 buckets;
below 1024 trials the floor is the trial count, so a small draw builds no
table much larger than itself, and parity_measure's one trial keeps the
4(n+1)-bucket table.  The uniforms are drawn a block of at most 2^15 at a
time into one buffer, so a draw holds 8 bytes per trial (the outcome array)
plus at most 256 KiB (the buffer) and the table's 2G words, where choice
holds 16 bytes per trial.  These are the per-trial outcomes; the CLI's
`simulate --trials` prints only counts, so it draws them in one
Generator.multinomial on `distribution`, the same law at constant memory.

The paper's probability columns compare the DJ optimum
p_dj(n, k) = C(n, k) S(k, n)^2 / 4^n, S(k, n) = sum_i |K_i(k, n)|, with the
Childs baseline childs_probability, and are checked against the exact
dj_optimal_success_exact and childs_probability_exact above.  Each public
function walks its own binomials once and returns both columns:
`curves_columns` over w at one n, `quarter_columns` at w = n//4 over n,
and `c_minima` the least c_k(n) = p_dj(n, k) sqrt(n) at each n.  Every big
integer of these columns becomes a float through one conversion,
`_frexp_ints`, and every exact DJ value is one correctly rounded integer
ratio, `_dj_ratio`.  A DJ spectrum at n <= 1022 is rounded by one
conversion too (`dj_state`); past that its amplitudes can be subnormal,
and each is one integer division.

`quarter_columns` gives the 9-digit text of p_dj(n, n//4) for every n up
to max_n, the `sweep-quarter` DJ column, with C(n, k) carried along n by
one exact multiply and divide.  Its exact work is at the anchors
n0 = 0, 48, 96, ...: there the half column k0 = n0/4 comes from
`krawtchouk.half_column`, and p_dj(n0, k0) is one exact ratio
(`_dj_ratio`).  The B = 47 values of n after an anchor come from floats.
As G_k(z) = (1 - z)^k (1 + z)^(n - k), column (n0 + j)//4 at n0 + j is
column k0 at n0 times kappa_j(z) = (1 + z)^(j - j//4) (1 - z)^(j//4), so
its entry i is sum_t kappa_j[t] K_(i-t)(k0, n0).  The coefficients are
integers below 2^47, exact in floats, and the same for every anchor (n0 is
a multiple of 4): one constant (48, 47) matrix.  The anchor's entries
K_0 .. K_(n0/2 + 23) (past the middle, from the palindrome) and S(k0, n0)
are rounded once (`_frexp_ints`) and scaled by 2^-top, top the exponent
of S(k0, n0), exactly; an entry below 2^-1001 is flushed to 0 (from the
anchor n0 = 1728 on, K_0 = 1 is one).  One product
of the sliding windows (X_(i-47), ..., X_i) with that matrix gives entries
i <= n/2 of all 47 columns, and one weighted sum of their absolute values
(2 below the middle, 1 on it) their S~.  The anchors of a batch are
aligned on their middle row n0/2, so that one set of weights serves them
all; a batch holds at most 2^15 window entries (256 KiB for its product).

The bound, with u = 2^-53 as in Higham (below): a rounded entry X~_l is
within u |X~_l| of the exact scaled X_l, and a flushed one lost at most
2^-1001.  A computed window product is within
gamma_(j+1) sum_t |kappa_j[t]| |X~_(i-t)| of the exact product of the
floats in any order of summation, fused multiply-adds or not (Higham,
ch. 3; a zero coefficient adds an exact zero, so only j + 1 terms round).
Over the rows and their weights these and the anchor's rounding add at most
2 (j + 2) 1.01 u |kappa_j|_1 T, with |kappa_j|_1 <= 2^j and
T = S(k0, n0) 2^-top rounded once: the entries past the middle repeat
ones below it, so the sum of |X~_l| over the windows is at most
(1 + u) S(k0, n0) 2^-top <= (1 + u) T / (1 - u), inside the 1.01.  The
flushed entries add at most |kappa_j|_1 rows 2^-1000, and the weighted sum
of rows terms (rows + 3) 1.01 u S~.  An unflushed entry is at least
2^-1001, a multiple of 2^-1053, and so is every product and every sum, so
a result below 2^-1000 is exact: no rounding meets the subnormal range, and
the bound needs no underflow term.  The sum dev of these terms, lifted by
_BOUND_MARGIN, gives |S~ - S(k, n) 2^-top| <= dev, and
[lo, hi] = C~ (S~ -+ dev)^2 2^(2 top - 2n), C~ = C(n, k) rounded once,
is widened by 2^-48, past five roundings.  A value prints from [lo, hi] by
the Ziv rule (below), and otherwise from the exact ratio with
S = abs_column_sum(k, n): up to n = 2100 only n = 8, 9 and 11 do, whose
values (567/1024 = 0.5537109375, ...) lie on a 9-digit rounding boundary;
the bound is some 100 times the largest observed error or more.

`c_minima` gives only the least term at each n, c(n) = min_k c_k(n)
with c_k(n) = C(n, k) S(k, n)^2 sqrt(n) / 4^n and S(k, n) = sum_i |K_i(k, n)|,
so a certified float filter rules out the other terms, and only the
survivors, usually one per n, are evaluated exactly.  The filter carries
every column k <= n//2 in one table of floats Y_i ~ K_i(k, n) 2^-e_k, by
the Pascal step Y_i + Y_{i-1} (the palindrome gives the extra input at
odd n).  A step of n costs two passes over the live table, whole rows at
a time through one reusable buffer: the Pascal add (from a copy of the
old entries) and the float sums S~ of |Y_i| over the full columns.  The
rest runs once per block of 32 n, vectorised over the block: the error
bounds, the carried binomials, the bounds of every term, the prune, and a
rescale of each column by the power of two that brings its sum into
[1/2, 1), so nothing overflows at any n.  Column k is born at n = 2k in
closed form: G_k(z) = (1 - z)^k (1 + z)^k = (1 - z^2)^k, so K_i(k, 2k) is
(-1)^(i/2) C(k, i/2) at even i and 0 at odd i, from the binomial half row
of k, itself carried by one add per entry.  A block's births are written
before it steps, into rows its steps reach only from their birth on.

The error bound follows Higham, Accuracy and Stability of Numerical
Algorithms (2nd ed., 2002), ch. 3-4, with unit roundoff u = 2^-53: a step
rounds each entry once, by at most u |Y_i| / (1 - u), and passes on the
old errors e_i + e_{i-1}, so the bound F on the total error over the full
column obeys F(n+1) = 2 F(n) + 2u S~(n+1), where S~ is the float sum of
|Y_i| over the full column (a sum that lands among the subnormals is
exact).  A rescale or a conversion from integers (`_frexp_ints`) adds
(n + 2) 2^-1074 for subnormal results, and so does every step.  Over a
block of n0 + 1, ..., n0 + r the recurrence is the sum F(n0 + j + 1) = sum_{t <= j} 2^(j - t) g_t
of the terms g_t = 2u S~(n0 + t + 1) + (n0 + t + 3) 2^-1074 (g_0 also
carries 2 F(n0)), each scaled exactly by 2^(r - 1 - t), summed once and
rounded up.  Then |S(k, n) 2^-e_k - S~| <= F + (n + 8) u S~, the
last term being the rounding of the sum itself.  C(n, k) is a float
carried by the ratio n / (n - k) from its exact value at birth, one
running product per block, within (2(n - 2k) + 1) 1.01 u.  These give
certified bounds lo_k <= c_k(n) <= hi_k, and `c_minima`'s prune rule
drops a term only when no rounding of the printed float can make it the
minimum.  A surviving column whose F passes 2^-24 S~ is rebuilt from the
exact column at the first n of the block where it survives, at its scale
2^-e_k, and replayed to the end of the block, all such columns of a block
together; the exact S of the rebuild serves its term.  The middle column
k = n//2 has S = 2^ceil(n/2), so its exact term needs only C(n, k) (the
minimum at every even n up to 2895 is this column); other survivors take S from
`krawtchouk.abs_column_sum`.  The table, the buffer and the block's
arrays take `c_minima_bytes`, and `cli` refuses a `cn` run past its byte
bound.

`curves_columns` gives the 9-digit text of the whole profile, the `curves`
DJ column, from floats.  The orthonormal Krawtchouk basis
U[i, k] = K_i(k, n) sqrt(C(n, k) / C(n, i)) / 2^(n/2) is symmetric, its
column k is the eigenvector of the tridiagonal X (off-diagonal
b_i = sqrt((i + 1)(n - i))) for the eigenvalue lam = n - 2k, and
U[i, 0] = w_i = sqrt(C(n, i) / 2^n), so
p_dj(n, k) = C(n, k) S(k, n)^2 / 4^n = (sum_i |U[i, k]| w_i)^2.  Every
column k <= n//2 starts at u_0 = 1 and runs the three-term recurrence
sqrt((i+1)(n-i)) u_{i+1} = lam u_i - sqrt(i(n-i+1)) u_{i-1}, vectorised
over k, in blocks of at most 32 rows (Abdulhussain et al., J. Math. Imaging
Vis. 60 (2018) 285: from the tail into the oscillatory band, where the
wanted solution dominates).  The palindrome u_{n-i} = (-1)^k u_i gives the
rest of the column, so the rows i <= n//2 carry the folded sums
t = sum_i |u_i| w_i and nu = |u|^2 over the full column, and
p = t^2 / nu.  After each block, a column whose last two rows reach 1 is
scaled by a power of two, and so are its t and nu; a block grows a column
by at most (2 sqrt(n) + 1) per row, so no sum of squares passes 2^1000 and
nothing overflows at any n.  Memory is one (block + 2) x (n//2 + 1) buffer.

The bound, with u = 2^-53 as in Higham (above): the computed column
satisfies rows i < n//2 of X u = lam u up to a rounding of at most
gamma_5 (|lam| |u_i| + sqrt(i(n-i+1)) |u_{i-1}|) (four operations and two
rounded square roots), so those rows and their mirrors have a residual of
norm at most gamma_5 (|lam| + (n + 1) / 2) |u|, plus a subnormal term.
Row n//2 joins the half column to its mirror image; its residual, the
closure, is computed from the last two rows (within 4u).  The eigenvalues
of X are n - 2j, 2 apart, so Davis-Kahan (Parlett, The Symmetric
Eigenvalue Problem, ch. 11) gives sin(angle) <= |X u - lam u| / (2 |u|),
and the unit vectors differ by at most sqrt(2) sin(angle).  With |w| = 1
that moves sqrt(p) by as much; the floats of w_i (2u each, a subnormal one
within 2^-1074) add |w~ - w|; the folded dot and sum of squares add
gamma_(n//2 + 4) each, plus their subnormal products and rescalings.  The
sum eps is rounded up, and [lo, hi] = [(tau - eps)^2, (tau + eps)^2],
tau = t / sqrt(nu), is rounded outward.  A value prints from its floats
when format(lo, ".9g") == format(hi, ".9g") (Ziv, ACM TOMS 17 (1991)
410): the 9-digit rounding is monotone, so the exact value rounded to a
float prints the same.  Otherwise, or when a bound is not finite, that one
value is computed exactly, as one correctly rounded integer ratio
C(n, k) S(k, n)^2 / 4^n (`_dj_ratio`).  The same rule
(`_certified_strings`) prints the Childs column.  Most values are settled
without formatting hi, by a numeric pre-test made of IEEE products,
comparisons, rint and lookups in a table of powers of ten parsed from
decimal text: lo and hi scaled by 10^k, k from lo's decade, must lie
strictly inside one integer's rounding cell (m - 1/2, m + 1/2), clipped to
(10^8, 10^9), with a relative margin 8u that covers the three roundings of
each scaled bound and its margin product.  That proves both print as m
with 9 digits, so the pre-test only spares the second format: values it
does not settle take the rule above, and the texts and the exact
fallbacks are the rule's own.  No transcendental ufunc is used, so which
values the pre-test settles does not follow numpy's SIMD dispatch either.
The bound is about 75
to 600 times the observed error at n = 50 to 1000, and few columns fall
back: 0 of 176 at n = 350, 2 of 501 at n = 1000.

The Childs column of `curves_columns` and `quarter_columns` comes from one
table of v^v for v = 0..N as a mantissa in [1/2, 1) and an int64 exponent.
It is built by left-to-right square-and-multiply over the bits of v,
vectorised over v, with np.frexp renormalising after every step, so nothing
overflows at any N.  Only the IEEE products round (a product by 1 is
exact).  With e(v) roundings in v^v, e(1) = 0, e(2v) = 2 e(v) + 1 and
e(v + 1) = e(v) + 1 give e(v) = v - 1, so entry v is within
gamma_(v-1) = (v-1)u / (1 - (v-1)u) of v^v, u = 2^-53 (Higham, above).  The
exact C(n, w), from the binomial half row or the carried quarter binomials,
is rounded once by `_frexp_ints`, one conversion that the DJ bounds of the
same column pair share.  Then p~ = C V[w] V[n-w] / V[n] takes
1 + (w-1) + (n-w-1) + (n-1) + 3 = 2n + 1 roundings for 0 < w < n, so
p~ = p (1 + theta) with |theta| <= gamma_(2n+1); at w = 0 and n, p~ = 1
exactly.  Each end of [lo, hi] = p~ (1 -+ rel) rounds twice more, so
rel = gamma_k / (1 - gamma_k) at k = 2n + 3; the rounding of rel itself
is of second order, inside the slack of those two.  No value is
subnormal: p_C(n, w) is the mode of a binomial law, at least 1/(n + 1).
A value prints from its bounds by the Ziv rule (above), and otherwise from
the exact childs_probability.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import repeat
from math import comb

import numpy as np

from .errors import StateError, UnreachableTargetError, check_bias, check_index, check_size
from .krawtchouk import abs_column_sum, column, full_column, half_abs_sum, half_column, next_half_column
from .symfunc import SymmetricBooleanFunction, reduced_walsh_spectrum, spectrum_value

__all__ = [
    "SymmetricState",
    "biased_dj_state",
    "c_minima",
    "c_minima_bytes",
    "childs_probability",
    "childs_probability_exact",
    "childs_state",
    "curves_columns",
    "dicke",
    "dj_optimal_success_exact",
    "dj_state",
    "dj_success_exact",
    "parity_measure",
    "parity_sample",
    "quarter_columns",
    "repetitions_until_success",
    "success_probability",
]

NORM_ATOL = 1e-8  # SymmetricState.distribution refuses a larger |norm - 1|
_NORMAL_DJ_N = 1022  # the largest n at which 2^-n, the least nonzero |rw_f(k)| / 2^n, is a normal float


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
    """H^n U_f H^n |0..0>: amplitude rw_f(k)/2^n at each weight k, correctly rounded.

    At n <= 1022 every nonzero amplitude, |rw_f(k)| / 2^n >= 2^-n, is a
    normal float, so the whole spectrum is rounded in one conversion to
    floats (|rw_f(k)| <= 2^n, inside the float range) and scaled by 2^-n,
    which is exact.  Past that each entry is one integer division, which
    rounds a subnormal result once.  Nothing gates the amplitudes there:
    past n ~ 1023 the small ones can go subnormal, keeping fewer than 53
    bits, and further on they underflow to 0 (at n = 5000, 4563 of the
    5001 amplitudes of the sign-rule f at w = 2), while `probabilities`
    refuses from n = 1030.
    """
    n = f.n
    spectrum = reduced_walsh_spectrum(f)
    if n <= _NORMAL_DJ_N:
        amps = np.array(spectrum, dtype=float) * 2.0**-n
    else:
        denom = 1 << n
        amps = np.array([rw / denom for rw in spectrum])
    return SymmetricState(n=n, amps=amps)


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
    At even n, G_{n/2}(z) = (1 - z^2)^(n/2), so |K_i(n/2, n)| is C(n/2, i/2)
    at even i and 0 at odd i, and S(n/2, n) = 2^(n/2).  Then p_dj(n, n/2) =
    C(n, n/2) 2^n / 4^n = C(n, n/2) / 2^n = childs_probability_exact(n, n/2).
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
    like sqrt(C(n,k)), about 2^{n/2}.  It shows well before the gate: for
    the sign-rule f at (n, w) = (32, 22), the success probability at
    optimize_r's r = 16 - 4e-15 and at n - r is off by 7e-13 and 1.0e-12
    relative from the exact Fraction value (at r = 16 exactly the layer is
    a Hadamard and p is exact).
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
_GUIDE_FLOOR = 1024  # least guide-table size of a draw of at least this many trials


def parity_measure(s: SymmetricState, rng: np.random.Generator) -> int:
    """Sample one parity-measurement outcome; result k collapses s to |D^n_k>.

    One uniform, the same value as int(rng.choice(s.n + 1, p=s.distribution)).
    """
    return int(parity_sample(s, 1, rng)[0])


def parity_sample(s: SymmetricState, trials: int, rng: np.random.Generator) -> np.ndarray:
    """Vector of `trials` independent parity-measurement outcomes, int64.

    Equal to rng.choice(s.n + 1, size=trials, p=s.distribution), and leaves
    rng where choice would.  The guide table has G buckets, G the smallest
    power of two >= max(4(n+1), min(trials, 1024)): 1024 buckets send few
    trials of a large draw to the binary search, and a small draw is not
    charged for a table larger than itself.  The module docstring gives the
    argument.
    """
    check_size("trials", trials, 0)
    cdf = s.distribution.cumsum()
    cdf /= cdf[-1]
    # smallest power of two >= max(4(n+1), min(trials, 1024))
    g = 1 << (max(4 * cdf.size, min(trials, _GUIDE_FLOOR)) - 1).bit_length()
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


# ---------------------------------------------------------------------------
# the paper's probability columns: c(n), curves and sweep-quarter

# the float paths of the columns (module docstring)
_U = 2.0**-53  # unit roundoff of float64
_BOUND_MARGIN = 1.0 + 2.0**-40  # past the rounding of the few dozen float operations that form a bound
_SUBNORMAL = 2.0**-1074  # two roundings of a subnormal result, per entry
_PRINTED = ".9g"  # csvio.fmt's format of a float
_TENS = np.array([float(f"1e{i}") for i in range(-307, 309)])  # 10^i correctly rounded, i = -307..308: all normal
# 10^(8 - d) for the decade d = j - 308 of an x with j = searchsorted(_TENS, x, "right"), clipped to _TENS
_SCALES = _TENS[np.clip(623 - np.arange(len(_TENS) + 1), 0, len(_TENS) - 1)]
_CELL_MARGIN = 2.0**-50  # 8u: past the three roundings of x 10^k and of its margin product (_certified_strings)


def _frexp_ints(values: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(m, e): m 2^e is each int of values rounded once to 53 bits, at any size; |m| in [1/2, 1) or m = 0, e int64.

    float() takes ints below 2^1024 - 2^970 only; past that each v is first divided by 2^s,
    s = max(bit_length - 1000, 0), one correctly rounded quotient, and s joins its exponent.
    """
    try:
        m, e = np.frexp(np.array(values, dtype=float))
        return m, e.astype(np.int64)
    except OverflowError:
        shifts = [max(v.bit_length() - 1000, 0) for v in values]
        m, e = np.frexp([v / (1 << s) for v, s in zip(values, shifts)])
        return m, e + np.array(shifts, dtype=np.int64)


def _certified_strings(lo: np.ndarray, hi: np.ndarray, exact) -> list[str]:
    """format(x_j, ".9g") for values x_j certified to lie in [lo[j], hi[j]].

    The text comes from the bounds when both print alike (Ziv, module
    docstring), and otherwise, or when a bound is not finite, from the
    float exact(j).  Every text starts as format(lo[j]), all in one bulk
    map; a numeric pre-test then spares most values the format of hi[j].
    With k = 8 - d, d the decade of lo[j] read from _TENS, the table entry
    fl(10^k) and the product s = fl(lo fl(10^k)) each round once, so s is
    within a factor (1 + u)^2 of lo 10^k, and fl(s (1 - 8u)) rounds once
    more (1 - 8u is exact); (1 - 8u)(1 + u)^3 < 1, so fl(s (1 - 8u)) > L
    gives lo 10^k > L exactly, and likewise, as (1 + 8u)(1 - u)^3 > 1,
    fl(t (1 + 8u)) < U with t = fl(hi fl(10^k)) gives hi 10^k < U, where
    m = rint(s), L = max(m - 1/2, 10^8) and U = min(m + 1/2, 10^9), both
    exact.  Then every x in [lo, hi] lies in
    (10^(8-k), 10^(9-k)), where its 9 digits are x 10^k rounded to an
    integer, and x 10^k rounds to m: lo and hi print alike.  This holds for
    any integer k, so a decade misread next to a power of ten, past the
    table, or at lo <= 0, only fails the test.  A value that fails it goes
    through the two-format rule, so the texts, and the indices at which
    exact is called, are those of that rule alone.
    """
    with np.errstate(over="ignore"):  # a bound far past lo, or a non-positive lo, only fails the test
        scale = _SCALES[np.searchsorted(_TENS, lo, side="right")]
        s, t = lo * scale, hi * scale
        m = np.rint(s)
        sure = s * (1.0 - _CELL_MARGIN) > np.maximum(m - 0.5, 1e8)
        sure &= t * (1.0 + _CELL_MARGIN) < np.minimum(m + 0.5, 1e9)
    out = list(map(float.__format__, lo.tolist(), repeat(_PRINTED)))
    highs = hi.tolist()
    for j in np.flatnonzero(~sure).tolist():
        if not math.isfinite(highs[j]) or out[j] != format(highs[j], _PRINTED):
            out[j] = format(exact(j), _PRINTED)
    return out


def _dj_ratio(binom: int, s: int, n: int) -> float:
    """C(n, k) S(k, n)^2 / 4^n from binom = C(n, k) and s = S(k, n): the integer ratio, correctly rounded."""
    return (binom * s * s) / (1 << (2 * n))


# c_minima's float filter (module docstring)
_RESEED_RATIO = 2.0**-24  # a candidate column whose error bound passes this share of its sum is rebuilt exactly
_BLOCK_STEPS = 32  # steps of n per block: one bound, prune and rescale pass each; rows of the sum buffer
_ROUND_UP = 1.0 + 2.0**-51  # lifts a computed bound past the rounding of its own arithmetic
_PRUNE_SLACK = 1.0 + 2.0**-48  # past (1 + u)^3 / (1 - u)^3, the rounding of the printed term
_POWER_CLIP = 800  # |binary exponent| of a bound, far past any c_k(n)


def _buffer_rows(m: int) -> int:
    """Rows of c_minima's sum buffer for m columns: 32, or as many as fill 32^3 entries, at most m."""
    return min(max(_BLOCK_STEPS, _BLOCK_STEPS**3 // (m + 1)), m)


def c_minima_bytes(max_n: int) -> int:
    """Bytes of c_minima(max_n)'s float arrays, m = max_n//2 + 1 columns of m + 1 entries.

    The (m, m + 1) table, the sum buffer of whole table rows (32 of them, or
    as many as fill 32^3 entries), and ten (32, m) arrays' worth for a
    block: its sums, error bounds, binomials, lo and hi, and the temporaries
    that form them (module docstring).
    """
    check_size("max_n", max_n, 1)
    m = max_n // 2 + 1
    return 8 * (m * (m + 1) + _buffer_rows(m) * (m + 1) + 10 * _BLOCK_STEPS * m)


def _born_column(binomials: list[int], h: int) -> list[int]:
    """(K_0(h, 2h), ..., K_h(h, 2h)) from the binomial half row (C(h, 0), ..., C(h, h//2)).

    G_h(z) = (1 - z)^h (1 + z)^h = (1 - z^2)^h, so K_i(h, 2h) is
    (-1)^(i/2) C(h, i/2) at even i and 0 at odd i.
    """
    out = [0] * (h + 1)
    out[::2] = [-c if j & 1 else c for j, c in enumerate(binomials)]
    return out


def _doubling_sums(g: np.ndarray) -> np.ndarray:
    """F_j >= sum_{t <= j} 2^(j - t) g_t down the rows of a nonnegative g, in place: F_j = 2 F_(j-1) + g_j at once.

    Row t is scaled by 2^(r - 1 - t), r = len(g), which is exact; the running
    sum (within gamma_r) is scaled back by 2^(j + 1 - r) and rounded up by
    _BOUND_MARGIN in one product, and _SUBNORMAL covers that product's
    rounding of a subnormal result.
    """
    r = len(g)
    g *= np.ldexp(1.0, np.arange(r - 1, -1, -1))[:, None]
    np.cumsum(g, axis=0, out=g)
    g *= _BOUND_MARGIN * np.ldexp(1.0, np.arange(1 - r, 1))[:, None]
    g += _SUBNORMAL
    return g


class _FloatFilter:
    """Certified float bounds lo <= c_k(n) <= hi for every k <= n//2, one block of n at a time.

    Row k of `table` holds half column k as Y_i ~ K_i(k, n) 2^-e_k, with
    e_k = exps[k] through a block.  After `advance`, row j of each block
    array belongs to n = ns[j]: sums[j, k] is the float sum of |Y_i| over
    the full column, with
    |S(k, n) 2^-exps[k] - sums[j, k]| <= err[j, k] + (n + 8) u sums[j, k],
    binoms[j, k] 2^binom_exps[k] is C(n, k) within a relative
    (2(n - 2k) + 1) 1.01 u, and lo[j, k] <= c_k(n) <= hi[j, k]; `candidates`
    keeps all of this true.  Entries k > n//2 are not columns yet; their hi
    is inf.
    """

    def __init__(self, max_n: int) -> None:
        m = max_n // 2 + 1
        self.max_n, self.n = max_n, 0
        self.table = np.zeros((m, m + 1))  # entries past i = n//2 + 1 stay zero: at least one past each row
        self.table[0, 0] = 1.0  # column 0 at n = 0
        self._buf = np.empty((_buffer_rows(m), m + 1))  # the sum buffer: whole rows of the table
        # each column at n, the end of the last block
        self._err = np.zeros(m)
        self._exps = np.zeros(m, dtype=np.int64)
        self._binoms = np.ones(m)
        self.binom_exps = np.zeros(m, dtype=np.int64)
        # full-column weights of the entries i <= n//2, from row n % 2 at m - n//2: 2, the middle of even n 1, then 0
        self._weights = np.zeros((2, 2 * m + 1))
        self._weights[:, : m + 1] = 2.0
        self._weights[0, m] = 1.0
        self._signs = np.where(np.arange(m) & 1, -1.0, 1.0)
        self._row, self._middle = [1], 1  # C(h, j) for j <= h//2, and C(2h, h), of the last column born
        self.ns = np.zeros(0, dtype=np.int64)

    def _bounds(self, ns, ks, sums, err, binoms, binom_exps, exps) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi): lo <= C(n, k) S(k, n)^2 sqrt(n) / 4^n <= hi, elementwise over the broadcast (n, k)."""
        dev = sums * ((ns + 8) * _U)
        dev += err
        dev *= _ROUND_UP
        lo = np.subtract(sums, dev)
        np.maximum(lo, 0.0, out=lo)
        hi = np.add(sums, dev, out=dev)
        for bound in (lo, hi):  # in place, so that few block-sized temporaries add to c_minima_bytes
            np.square(bound, out=bound)
            bound *= binoms
            bound *= np.sqrt(ns)
        # the binomial's error, 2(n - 2k) + 1 roundings, plus a few u for sqrt(n) and the products here
        factor = np.subtract(ns + 8, 2 * ks, dtype=float)
        factor *= 2.02 * _U
        factor += 1.0
        hi *= factor
        lo *= np.subtract(2.0, factor, out=factor)  # exactly 1 - rel, as 1 + rel was rounded
        power = np.subtract(binom_exps + 2 * exps, 2 * ns)
        low, high = power < -_POWER_CLIP, power > _POWER_CLIP
        np.clip(power, -_POWER_CLIP, _POWER_CLIP, out=power)  # lowers lo, raises hi
        np.ldexp(lo, power, out=lo)
        np.ldexp(hi, power, out=hi)
        lo[low], hi[high] = 0.0, np.inf
        return lo, hi

    def _birth(self, n: int) -> None:
        """Column h = n/2 at n from the binomial half row of h (`_born_column`), before the block steps."""
        h = n // 2
        self._row = next_half_column(self._row, 0, h - 1)
        self._middle = self._middle * n * (n - 1) // (h * h)
        self.middles[n] = self._middle
        top = self._row[-1].bit_length()  # C(h, h//2), the largest entry
        m, e = _frexp_ints(_born_column(self._row, h))
        self.table[h, : h + 1] = np.ldexp(m, e - top)  # a subnormal result rounds once more
        self._exps[h], self._err[h] = top, 0.0

    def _pass(self, n: int, t: np.ndarray, stepped: int, signs: np.ndarray, out: np.ndarray) -> None:
        """The first `stepped` rows of t to n by the Pascal step, then every row's full-column sum into out.

        Row r of t is a column k at n - 1 (at n when not stepped), signs[r] =
        (-1)^k.  Rows go through the buffer in chunks, whole rows at a time,
        so every pass is contiguous: a copy of the old entries, Y_i + Y_{i-1}
        over the flattened rows (the zero past each row keeps the next row's
        Y_0), then |Y_i| weighted 2 for i < n/2, 1 for the middle of even n
        and 0 past it.
        """
        h, buf = n // 2, self._buf
        width, flat = t.shape[1], t.reshape(-1)
        if n % 2 == 0:  # the half column gains K_h(k, n-1) = (-1)^k K_{h-1}(k, n-1)
            np.multiply(signs, t[:stepped, h - 1], out=t[:stepped, h])
        start = len(self.table) - h
        weights = self._weights[n % 2, start : start + width]
        for r in range(0, len(t), len(buf)):
            e = min(r + len(buf), len(t))
            s = min(e, stepped)
            if s > r:
                old = buf.reshape(-1)[: (s - r) * width - 1]
                np.copyto(old, flat[r * width : s * width - 1])
                np.add(flat[r * width + 1 : s * width], old, out=flat[r * width + 1 : s * width])
            np.dot(np.abs(t[r:e], out=buf[: e - r]), weights, out=out[r:e])
        if n % 2 == 0:  # the step carried K_h into entry h + 1; an odd step's is overwritten by the next one
            t[:stepped, h + 1] = 0.0

    def _rescale(self) -> None:
        """Close the last block: scale each column by the power of two that brings its sum into [1/2, 1)."""
        n = self.n
        h = n // 2
        shift = np.frexp(self.sums[-1])[1]
        rows = self.table[: h + 1]
        np.ldexp(rows, -shift[:, None], out=rows)
        self._err[: h + 1] = (np.ldexp(self.err[-1], -shift) + (n + 2) * _SUBNORMAL) * _ROUND_UP
        self._exps[: h + 1] += shift
        self._binoms[: h + 1], shift = np.frexp(self.binoms[-1])
        self.binom_exps[: h + 1] += shift
        del self.sums, self.err, self.binoms, self.lo, self.hi, self.valid  # before the next block's

    def advance(self) -> None:
        """Step every column through the next block of up to 32 n, and bound every term of the block."""
        if self.ns.size:
            self._rescale()
        first = self.n + 1
        self.n = min(self.n + _BLOCK_STEPS, self.max_n)
        ns = self.ns = np.arange(first, self.n + 1)
        w = self.n // 2 + 1
        self.middles = {}
        for n in range(first + first % 2, self.n + 1, 2):
            self._birth(n)
        born = [n // 2 for n in self.middles]  # C(n, n/2) of every birth of the block, in one conversion
        self._binoms[born], self.binom_exps[born] = _frexp_ints(list(self.middles.values()))
        self.sums = np.zeros((len(ns), w))
        for j, n in enumerate(ns.tolist()):
            live = (n + 1) // 2  # the columns k <= (n - 1)//2 step; column n/2 is born at even n
            self._pass(n, self.table[: n // 2 + 1], live, self._signs[:live], self.sums[j, : n // 2 + 1])
        # F(n) = 2 F(n-1) + 2u S~(n), and the birth's rounding; every n gets a subnormal term
        g = self.sums * (2 * _U)
        g += ((ns + 2) * _SUBNORMAL)[:, None]
        g[0] += 2.0 * self._err[:w]
        self.err = _doubling_sums(g)
        # C(n, k) = C(n-1, k) n / (n - k), from the block's start or from the birth
        ks, col = np.arange(w), ns[:, None]
        binoms = np.ones((len(ns) + 1, w))
        binoms[0] = self._binoms[:w]
        np.divide(col, col - ks, out=binoms[1:], where=ks <= (col - 1) // 2)
        self.binoms = np.cumprod(binoms, axis=0, out=binoms)[1:]
        self.exps = self._exps[:w]
        self.lo, self.hi = self._bounds(col, ks, self.sums, self.err, self.binoms, self.binom_exps[:w], self.exps)
        self.valid = ks <= col // 2
        self.hi[~self.valid] = np.inf

    def _reseed(self, ks: np.ndarray, starts: np.ndarray) -> dict[tuple[int, int], int]:
        """Rebuild each column ks[i] at n = ns[starts[i]] from the exact krawtchouk.half_column, at its scale
        2^-exps[k], and replay them all to the block's end in a copy of their rows; S(k, n) at each rebuild."""
        order = np.argsort(starts, kind="stable")
        ks, starts = ks[order].tolist(), starts[order].tolist()
        rows, out = np.zeros((len(ks), self.table.shape[1])), np.empty(len(ks))
        signs, rebuilt, done = self._signs[ks], {}, 0
        for j in range(starts[0], len(self.ns)):
            n, stepped = int(self.ns[j]), done
            while done < len(ks) and starts[done] == j:  # one exact column at a time
                half = half_column(ks[done], n)
                m, e = _frexp_ints(half)
                rows[done, : n // 2 + 1] = np.ldexp(m, e - self.exps[ks[done]])
                rebuilt[j, ks[done]] = half_abs_sum(half, n)
                done += 1
            self._pass(n, rows[:done], stepped, signs[:stepped], out[:done])
            self.sums[j, ks[:done]] = out[:done]
        self.table[ks] = rows
        # from each rebuild on: F = the rounding of the conversion, then the doubling recurrence
        col = self.ns[:, None]
        after = np.arange(len(self.ns))[:, None] >= np.array(starts)
        g = np.where(after, self.sums[:, ks] * (2 * _U) + (col + 2) * _SUBNORMAL, 0.0)
        self.err[:, ks] = np.where(after, _doubling_sums(g), self.err[:, ks])
        lo, hi = self._bounds(col, np.array(ks), self.sums[:, ks], self.err[:, ks], self.binoms[:, ks],
                              self.binom_exps[ks], self.exps[ks])
        self.lo[:, ks] = np.where(after, lo, self.lo[:, ks])
        self.hi[:, ks] = np.where(after, hi, self.hi[:, ks])
        return rebuilt

    def candidates(self) -> tuple[np.ndarray, dict[tuple[int, int], int]]:
        """keep[j, k]: whether c_k(ns[j]) may print as the minimum; and S(k, n) of the columns rebuilt.

        A kept column past the reseed ratio is rebuilt at the first row where
        it is (`_reseed`, such columns of the block together), which moves
        its bounds from there to the block's end, and the block is pruned
        again, until no kept column is past the ratio.  No (n, k) is rebuilt
        twice, so this ends.
        """
        rebuilt: dict[tuple[int, int], int] = {}
        while True:
            keep = (self.lo <= self.hi.min(axis=1, keepdims=True) * _PRUNE_SLACK) & self.valid
            redo = keep & (self.err / _RESEED_RATIO > self.sums)
            for j, k in rebuilt:
                redo[j, k] = False
            ks = np.flatnonzero(redo.any(axis=0))
            if not ks.size:
                return keep, rebuilt
            starts = redo[:, ks].argmax(axis=0)
            for g in range(0, len(ks), _BLOCK_STEPS):  # a copy of at most 32 rows, one block array's worth
                rebuilt.update(self._reseed(ks[g : g + _BLOCK_STEPS], starts[g : g + _BLOCK_STEPS]))


def _c_term(k: int, n: int, binom: int, s: int | None = None) -> float:
    """c_k(n) = (C(n, k) S(k, n)^2) / 4^n * sqrt(n) from binom = C(n, k), rounded three times.

    The integer ratio is correctly rounded (`_dj_ratio`), then multiplied by
    the rounded sqrt(n), as `c_minima` defines each term.  The middle column
    k = n//2 has S = 2^ceil(n/2); elsewhere S is `s`, or abs_column_sum(k, n)
    when not given.
    """
    if k == n // 2:
        s = 1 << (n - k)
    elif s is None:
        s = abs_column_sum(k, n)
    return _dj_ratio(binom, s, n) * math.sqrt(n)


def c_minima(max_n: int) -> list[tuple[float, int]]:
    """(c(n), w_min(n)) for n = 1..max_n: the least term c_k(n) over k = 0..n and its first index.

    Each term is the float c_k(n) = (C(n, k) S(k, n)^2) / 4^n * sqrt(n),
    S(k, n) = sum_i |K_i(k, n)|: the integer ratio correctly rounded, times
    the rounded sqrt(n).  A certified float filter (`_FloatFilter`, module
    docstring) rules out all but a few terms per n, usually one; those are
    evaluated exactly as that float (`_c_term`), so every row is the same
    float and first index as a minimum over every term, whatever the
    filter's floats round to.

    Prune rule: with lo_k <= c_k(n) <= hi_k certified and U = min_k hi_k,
    column k is dropped when lo_k > U (1 + 2^-48).  The printed term rounds
    three times (the integer ratio, sqrt(n) and their product), so it lies
    within (1 +- u)^3 of the exact one, and a dropped term prints strictly
    above the term that attains U.  The terms are symmetric in k <-> n-k,
    so a strict `<` over the ascending surviving k keeps the first minimum.
    The float arrays take c_minima_bytes(max_n).
    """
    check_size("max_n", max_n, 1)
    out = []
    floats = _FloatFilter(max_n)
    while floats.n < max_n:
        floats.advance()
        keep, rebuilt = floats.candidates()
        rows = [(math.inf, 0)] * len(floats.ns)
        for j, k in np.argwhere(keep).tolist():  # ascending k in each row
            n = int(floats.ns[j])
            binom = floats.middles[n] if 2 * k == n else comb(n, k)
            c = _c_term(k, n, binom, rebuilt.get((j, k)))
            if c < rows[j][0]:
                rows[j] = (c, k)
        out += rows
    return out


# curves' DJ float basis (module docstring)
_BLOCK_ROWS = 32  # rows of U per block: one buffer of (_BLOCK_ROWS + 2) x (n//2 + 1) floats
_GAMMA_ROW = 5.01 * _U  # past gamma_5 = 5u / (1 - 5u), the rounding of one recurrence row
_OUTWARD = 1.0 + 2.0**-50  # past (1 + u)^4, the rounding of a square and its operands


def _sqrt_ratios(rounded: tuple[np.ndarray, np.ndarray], n: int) -> np.ndarray:
    """sqrt(v / 2^n) for each positive int v from rounded = _frexp_ints(v), within 2u relative (subnormal: _SUBNORMAL)."""
    m, e = rounded
    d = e - n  # v / 2^n = m 2^(d & 1) 4^(d >> 1), the first factor in [1/2, 2)
    return np.ldexp(np.sqrt(np.ldexp(m, d & 1)), d >> 1)


def _recurrence_block(rows: np.ndarray, top: int, i: int, lam, alpha, beta) -> None:
    """Rows u_{i+1}..u_{i+top} of every column into rows[2 : top + 2], from u_{i-1}, u_i in rows[0], rows[1]."""
    for j in range(1, top + 1):  # u_{i+j} = (lam u_{i+j-1} - alpha u_{i+j-2}) / beta, row i+j-1
        new, r = rows[j + 1], i + j - 1
        np.multiply(lam, rows[j], out=new)
        new -= alpha[r] * rows[j - 1]
        new /= beta[r]


@dataclass(frozen=True)
class _DjTerms:
    """The terms of the bound of `_dj_float_bounds`, one entry per column k <= n//2 (module docstring).

    tau = t / sqrt(nu) ~ sqrt(p) from the folded sums t = sum |u_i| w_i and
    nu = |u|^2, kept at their final power-of-two scale; rel bounds the
    relative rounding errors of t and nu, and sums the error they put in
    tau.  The residual X u - lam u is at most row * 2|u| + floor over the
    rows i != n//2 and their mirrors, and at most closure over the middle
    row (two rows at odd n), at the scale of nu.  weights bounds |w~ - w|.
    """

    tau: np.ndarray
    nu: np.ndarray
    rel: np.ndarray
    sums: np.ndarray
    row: np.ndarray
    floor: float
    closure: np.ndarray
    weights: float


def _dj_float_terms(n: int, rounded: tuple[np.ndarray, np.ndarray]) -> _DjTerms:
    """Columns k of U streamed row by row through the three-term recurrence, each from u_0 = 1
    and rescaled by powers of two at block ends, and the terms of their bound (module docstring).

    rounded is _frexp_ints of the binomial half row (C(n, 0), ..., C(n, n//2)).
    """
    h = n // 2
    ks = np.arange(h + 1)
    lam = (n - 2 * ks).astype(float)
    alpha = np.sqrt((ks * (n - ks + 1)).astype(float))  # sqrt(i (n - i + 1)), the u_{i-1} coefficient
    beta = np.sqrt(((ks + 1) * (n - ks)).astype(float))  # sqrt((i + 1) (n - i)), the u_{i+1} coefficient
    mult = np.full(h + 1, 2.0)  # rows i < n/2 stand for rows i and n - i of the full column
    if n % 2 == 0:
        mult[h] = 1.0
    weights = mult * _sqrt_ratios(rounded, n)  # the column U[:, 0], folded
    # a block of g^R growth, g = 2 sqrt(n) + 1 per row, keeps every sum of squares below 2^1000
    growth = 2.0 * math.log2(2.0 * math.sqrt(n) + 1.0) if n else 1.0
    block = max(1, min(_BLOCK_ROWS, int((1000 - math.log2(2 * h + 2)) / growth)))

    rows = np.zeros((block + 2, h + 1))  # rows[0], rows[1]: u_{i-1}, u_i; the block's new rows follow
    rows[1] = 1.0
    t, nu = weights[0] * rows[1], mult[0] * rows[1]
    i = 0
    while i < h:
        top = min(block, h - i)
        _recurrence_block(rows, top, i, lam, alpha, beta)
        new_rows = rows[2 : top + 2]
        t += weights[i + 1 : i + top + 1] @ np.abs(new_rows)
        nu += mult[i + 1 : i + top + 1] @ np.square(new_rows)
        rows[:2] = rows[top : top + 2]
        i += top
        shift = np.maximum(np.frexp(np.abs(rows[:2]).max(axis=0))[1], 0)
        if shift.any():
            rows[:2] = np.ldexp(rows[:2], -shift)
            t, nu = np.ldexp(t, -shift), np.ldexp(nu, -2 * shift)

    # row h of X u - lam u, the closure by u_{n-i} = (-1)^k u_i, in floats and within 4u of their sum
    sign = np.where(ks & 1, -1.0, 1.0)
    if n % 2 == 0:
        near, own = 1.0 + sign, -lam
    else:
        near, own = np.ones(h + 1), sign * (h + 1) - lam
    a, b = near * (alpha[h] * rows[0]), own * rows[1]
    with np.errstate(all="ignore"):  # a non-finite bound certifies nothing
        closure = np.abs(a + b) + 4 * _U * (np.abs(a) + np.abs(b)) + 3 * _SUBNORMAL
        # |t~ - t| / t + |nu~ - nu| / nu: gamma_(h+4) for each sum, and their subnormal products and rescalings
        tiny = 2 * (n + 2) * _SUBNORMAL
        rel = 1.01 * (2.02 * (h + 4) * _U + tiny / t + tiny / nu)
        rel = np.where(rel <= 2.0**-10, rel, np.inf)
        tau = t / np.sqrt(nu)
        sums = 1.01 * tau * (rel + 3 * _U)
    return _DjTerms(
        tau=tau, nu=nu, rel=rel, sums=sums,
        row=_GAMMA_ROW * (lam + (n + 1) / 2) / 2,  # a-priori, rows i < h and their mirrors
        floor=math.sqrt(2 * h) * 4 * (n + 2) * _SUBNORMAL,
        closure=math.sqrt(1 + n % 2) * closure,
        weights=2 * _U + math.sqrt(n + 1) * _SUBNORMAL,
    )


def _dj_float_bounds(n: int, rounded: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) for k <= n//2, with lo[k] <= C(n, k) S(k, n)^2 / 4^n <= hi[k] certified.

    rounded is _frexp_ints of the binomial half row (C(n, 0), ..., C(n, n//2)).  The terms
    come from `_dj_float_terms`; the bound is in the module docstring.  A
    non-finite entry of lo or hi certifies nothing.
    """
    d = _dj_float_terms(n, rounded)
    with np.errstate(all="ignore"):  # a non-finite bound certifies nothing
        # Davis-Kahan, sin <= |X u - lam u| / (2 |u|): a-priori rows i < h (twice), then the closure
        sine = d.row + (d.floor + d.closure) / (2 * np.sqrt(d.nu * (1.0 - d.rel)))
        eps = (math.sqrt(2) * sine + d.weights + d.sums) * _BOUND_MARGIN
        lo = np.square(np.maximum(d.tau - eps, 0.0)) * (2.0 - _OUTWARD)
        hi = np.square(d.tau + eps) * _OUTWARD
    return lo, hi


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


def _childs_float_bounds(rounded: tuple[np.ndarray, np.ndarray], ws: np.ndarray, ns, table) -> tuple[np.ndarray, ...]:
    """(p~, lo, hi) with lo <= childs_probability_exact(ns, ws) <= hi certified, from rounded = _frexp_ints(C(ns, ws)).

    p~ = C V[w] V[n - w] / V[n] on mantissas from the v**v table rounds
    within gamma_(2n+1) (module docstring), and [lo, hi] widens it outward.
    """
    m, e = table
    cm, ce = rounded
    p = np.ldexp(cm * m[ws] * m[ns - ws] / m[ns], ce + e[ws] + e[ns - ws] - e[ns])
    k = 2 * ns + 3  # the 2n + 1 roundings of p~, and two more for each end of [lo, hi]
    rel = k * _U / (1.0 - 2 * k * _U)  # gamma_k / (1 - gamma_k); its own rounding is of second order
    return p, p * (1.0 - rel), p * (1.0 + rel)


def curves_columns(n: int) -> tuple[list[str], list[str]]:
    """(dj, childs) for w = 0..n: csvio.fmt of the DJ optimum C(n, w) S(w, n)^2 / 4^n and of childs_probability(n, w).

    S(w, n) = sum_i |K_i(w, n)|.  Both columns are symmetric in w <-> n - w,
    so only w <= n//2 are computed, both from one binomial half row, rounded
    once to floats.  Each value comes with certified bounds (`_dj_float_bounds`,
    `_childs_float_bounds`, module docstring) and prints from them when both
    give the same 9 digits; otherwise it is computed exactly: the DJ value as
    `_dj_ratio` with S = abs_column_sum(w, n), the Childs value as
    childs_probability(n, w).  Memory is O(n).
    """
    check_size("n", n, 0)
    binoms = half_column(0, n)  # C(n, k) for k <= n//2
    rounded = _frexp_ints(binoms)
    lo, hi = _dj_float_bounds(n, rounded)
    dj = _certified_strings(lo, hi, lambda k: _dj_ratio(binoms[k], abs_column_sum(k, n), n))
    _, lo, hi = _childs_float_bounds(rounded, np.arange(n // 2 + 1), n, _power_table(n))
    childs = _certified_strings(lo, hi, lambda w: childs_probability(n, w))
    return dj + dj[: n - n // 2][::-1], childs + childs[: n - n // 2][::-1]


# sweep-quarter's DJ float blocks (module docstring)
_QUARTER_STEP = 48  # n per block: the exact anchor n0, a multiple of 48, then n0 + 1 .. n0 + 47 from floats
_FLUSH_EXP = -1000  # anchor entries below 2^(_FLUSH_EXP - 1) of the block's scale are flushed to 0
_QUARTER_CHUNK = 1 << 15  # window entries per batch of blocks: 256 KiB for its product
_QUARTER_OUTWARD = np.array([1.0 - 2.0**-48, 1.0 + 2.0**-48])[:, None, None]  # past (1 + u)^5 (module docstring)


def _quarter_steps() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(steps, middle, factors) for blocks of B = _QUARTER_STEP - 1 values of n after an anchor n0 = 0 mod 4.

    Column j - 1 of the (B + 1, B) matrix steps holds the coefficients of
    kappa_j(z) = (1 + z)^(j - j//4) (1 - z)^(j//4), Krawtchouk column j//4
    at n = j, highest power first, so that the window (X_(i-B), ..., X_i) of
    column n0//4 at n0 times it is entry i of column (n0 + j)//4 at n0 + j.
    Every coefficient is an integer below 2^B, exact in a float.
    middle[r, j - 1] weighs row i = n0/2 + r in the sum over the full column
    at n0 + j: 2 below the middle, 1 on it, 0 past it.  Column j - 1 of
    factors holds 2 (j + 2) 1.01 u |kappa_j|_1 and |kappa_j|_1, the factors
    of the bound (module docstring), each lifted by _BOUND_MARGIN.
    """
    b = _QUARTER_STEP - 1
    steps = np.zeros((b + 1, b))
    for j in range(1, b + 1):
        steps[b - j:, j - 1] = column(j // 4, j)[::-1]
    js = np.arange(1, b + 1)
    twice = 2 * np.arange(b // 2 + 1)[:, None]
    middle = np.where(twice < js, 2.0, np.where(twice == js, 1.0, 0.0))
    norms = np.abs(steps).sum(axis=0)  # exact: integers below 2^53
    return steps, middle, np.array([(js + 2) * (2.02 * _U), np.ones(b)]) * norms * _BOUND_MARGIN


_QUARTER_STEPS, _QUARTER_MIDDLE, _QUARTER_FACTORS = _quarter_steps()


def _window_sums(flat: list[int], middle_row: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sums, dev, top) of a batch of blocks: |sums[a, j - 1] - S_j 2^-top[a]| <= dev[a, j - 1] for j = 1..B.

    Row a of flat, B = _QUARTER_STEP - 1, holds B + middle_row - h0 zeros,
    then X_0 .. X_(h0 + tail) (entries 0 .. n0/2 + tail of column k0 at the
    anchor n0 = 2 h0, tail = _QUARTER_STEP/2 - 1), zeros up to
    B + middle_row + tail + 1 entries, and last an integer T >= sum_l |X_l|
    (S(k0, n0) at an anchor).  S_j = sum_i w_i |Y_i| over i <= h0 + tail,
    Y_i = sum_t kappa_j[t] X_(i-t), with w_i 2, 1 or 0 as 2 (i - h0) is
    below, at or past j: at an anchor, S(k0 + j//4, n0 + j) (module
    docstring).  Every int is rounded once, scaled by 2^-top, the exponent
    of T, and flushed to 0 below 2^(_FLUSH_EXP - 1).
    """
    b, rows = _QUARTER_STEP - 1, middle_row + _QUARTER_STEP // 2
    m, e = _frexp_ints(flat)
    m, e = m.reshape(-1, rows + b + 1), e.reshape(-1, rows + b + 1)
    top = e[:, -1].copy()  # T >= every |X_l|, so its exponent is the largest
    e -= top[:, None]
    e[e < _FLUSH_EXP] = -2 * 1074  # flushed: ldexp gives 0
    x = np.ldexp(m, e, out=m)
    # the sliding windows, as sliding_window_view builds them, without its per-call checks
    y = np.ndarray((len(x), rows, b + 1), buffer=x, strides=(x.strides[0], 8, 8)) @ _QUARTER_STEPS
    np.abs(y, out=y)
    sums = y[:, :middle_row].sum(axis=1)  # rows below every middle, weight 2
    sums *= 2.0
    sums += np.einsum("brj,rj->bj", y[:, middle_row:], _QUARTER_MIDDLE)
    # the sum's rounding, then the windows' (|kappa_j|_1 T) and the flushed entries' (|kappa_j|_1 rows 2^_FLUSH_EXP)
    dev = sums * ((rows + 3) * (1.01 * _U) * _BOUND_MARGIN)
    dev += np.stack((x[:, -1], np.full(len(x), rows * 2.0**_FLUSH_EXP)), axis=1) @ _QUARTER_FACTORS
    return sums, dev, top


def _quarter_dj_bounds(binoms: list[int], rounded: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) for n = 0..len(binoms) - 1, k = n // 4, from binoms[n] = C(n, k) and rounded = _frexp_ints(binoms).

    At each anchor n0, a multiple of _QUARTER_STEP, lo = hi is the exact
    p_dj(n0, k0) = C(n0, k0) S(k0, n0)^2 / 4^n0, correctly rounded.  The
    other n take one product of float windows of the anchor's column
    (`_window_sums`, module docstring), blocks in batches of about
    _QUARTER_CHUNK window entries, and lo <= p_dj(n, k) <= hi is certified.
    """
    step = _QUARTER_STEP
    tail = step // 2 - 1  # the last n//2 of a block is n0/2 + tail
    blocks = (len(binoms) - 1) // step + 1
    sums, dev = np.empty((blocks, step - 1)), np.empty((blocks, step - 1))
    tops, exact = np.empty(blocks, dtype=np.int64), []
    first = 0
    while first < blocks:
        last = first + 1  # the batch is blocks first .. last - 1, its largest anchor (last - 1) step
        while last < blocks and (last - first + 1) * (last * step // 2 + tail + 1) * step <= _QUARTER_CHUNK:
            last += 1
        middle_row = (last - 1) * step // 2  # the anchors are aligned on their middle row n0/2
        width = middle_row + tail + step
        flat = []
        for n0 in range(first * step, last * step, step):
            k0, h0 = n0 // 4, n0 // 2
            half = half_column(k0, n0)
            total = half_abs_sum(half, n0)
            exact.append(_dj_ratio(binoms[n0], total, n0))
            x = full_column(half, k0, n0)[: h0 + tail + 1]
            lead = middle_row - h0 + step - 1
            flat += [0] * lead
            flat += x
            flat += [0] * (width - lead - len(x))
            flat.append(total)
        sums[first:last], dev[first:last], tops[first:last] = _window_sums(flat, middle_row)
        first = last
    bounds = sums + dev * np.array([-1.0, 1.0])[:, None, None]  # S~ -+ dev
    np.maximum(bounds, 0.0, out=bounds)
    bounds *= bounds
    pad = blocks * step - len(binoms)  # past the last n, a zero bound
    cm, ce = (np.concatenate((a, np.zeros(pad, a.dtype))) for a in rounded)
    ce -= np.arange(0, 2 * blocks * step, 2)
    bounds *= cm.reshape(blocks, step)[:, 1:]
    bounds *= _QUARTER_OUTWARD
    out = np.empty((2, blocks, step))
    out[:, :, 0] = exact
    np.ldexp(bounds, ce.reshape(blocks, step)[:, 1:] + 2 * tops[:, None], out=out[:, :, 1:])
    return out[0].reshape(-1)[: len(binoms)], out[1].reshape(-1)[: len(binoms)]


def quarter_columns(max_n: int) -> tuple[list[str], list[str]]:
    """(dj, childs) for n = 0..max_n: csvio.fmt of the DJ optimum C(n, k) S(k, n)^2 / 4^n and of childs_probability(n, k), k = n//4.

    S(k, n) = sum_i |K_i(k, n)|.  The binomials C(n, k) are carried along n
    by one exact multiply and divide each and rounded once to floats for both
    columns.  Every value comes with certified bounds (`_quarter_dj_bounds`,
    `_childs_float_bounds`, module docstring) and prints from them when both
    give the same 9 digits; otherwise it is computed exactly: the DJ value as
    `_dj_ratio` with S = abs_column_sum(k, n), the same float as
    float(dj_optimal_success_exact(n, k)), the Childs value as
    childs_probability(n, k).
    """
    check_size("max_n", max_n, 0)
    binoms = [1]  # C(n, n // 4)
    for n in range(1, max_n + 1):
        k = (n - 1) // 4  # C(n, k + 1) = C(n - 1, k) n / (k + 1) where n // 4 > k, else C(n, k) = C(n - 1, k) n / (n - k)
        binoms.append(binoms[-1] * n // (k + 1 if n // 4 > k else n - k))
    rounded = _frexp_ints(binoms)
    lo, hi = _quarter_dj_bounds(binoms, rounded)
    dj = _certified_strings(lo, hi, lambda n: _dj_ratio(binoms[n], abs_column_sum(n // 4, n), n))
    ns = np.arange(max_n + 1)
    _, lo, hi = _childs_float_bounds(rounded, ns // 4, ns, _power_table(max_n))
    return dj, _certified_strings(lo, hi, lambda n: childs_probability(n, n // 4))
