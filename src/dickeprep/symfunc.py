"""Symmetric Boolean functions and their reduced Walsh spectra.

An n-variable symmetric Boolean function is the (n+1)-bit simplified value
vector [f_0, ..., f_n], f_i being the output on inputs of Hamming weight i.
Its Walsh spectrum depends only on wt(omega), so it reduces to n+1 exact
integers rw_f(k) = sum_i (-1)^{f_i} K_i(k, n), returned as a plain tuple.
The mirror identity K_i(n-k, n) = (-1)^i K_i(k, n) lets one Krawtchouk column
serve both k and n-k, so whole spectra and profiles take only the columns
k >= n/2; a single spectrum value or optimal function uses the recurrence
column alone.  The palindrome K_{n-i}(k, n) = (-1)^k K_i(k, n) lets them
read only the half column i <= n//2: sums of |K_i| count each i < n/2
twice, and the signs of a spectrum fold once per column parity,
s_i + (-1)^k s_{n-i}, to weights 0 and +-2 (the middle row of even n keeps
s_{n/2}).

The DJ optimum p_dj(n, k) = C(n, k) S(k, n)^2 / 4^n, with
S(k, n) = sum_i |K_i(k, n)|, needs every entry's absolute value, which is
not linear in the column.  `quarter_slice` gives it at k = n//4 for every
n up to a bound: it carries that single column along n by the Pascal step
`krawtchouk.next_half_column` (one add per half-column entry, where a step
in k costs two), with C(n, k) from `quarter_binomials` (carried by one
exact multiply and divide, a list the caller shares with the Childs column),
and each value is that exact ratio, correctly rounded.

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
exact).  A rescale or a conversion from integers (`_frexp_ints`, the one
conversion of every float path here and in `symstate`) adds (n + 2) 2^-1074
for subnormal results, and so does every step.  Over a block of n0 + 1, ...,
n0 + r the recurrence is the sum F(n0 + j + 1) = sum_{t <= j} 2^(j - t) g_t
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

A spectrum needs only two folded dots per column, which are linear, so
`reduced_walsh_spectrum` steps L columns at once in lanes of one Python int
per row: row i holds sum_l K_i(c_l, n) 2^(B_{l+1} + ... + B_{L-1}) for L
columns c_l an even number apart, lane 0 in the top bits.  Rows are never
unpacked, only dots, and every dot is a spectrum value rw_f(c), so Parseval,
sum_k C(n, k) rw_f(k)^2 = 4^n, gives |rw_f(c)| <= 2^n / sqrt(C(n, c)), and
lane l takes B_l = n - floor(log4 C(n, c)) + 2 bits for c its column
farthest from n/2.  A dot is read from the step's own prefix sums
P = accumulate(R), which also give the next column P_i + P_{i-1}:
sum_i phi_i R_i = sum_i (phi_i - phi_{i+1}) P_i, one add per index where
the folded weights change.  L is at most about sqrt(n/6), the most whose
widths fit a 4096-bit row.

`dj_optimal_profile_strings` gives the 9-digit text of the whole profile,
the `curves` DJ column, from floats.  The orthonormal Krawtchouk basis
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
C(n, k) S(k, n)^2 / 4^n.  The same rule
(`_certified_strings`) prints the Childs column of `symstate`.  The bound
is about 75 to 600 times the observed error at n = 50 to 1000, and few
columns fall back: 0 of 176 at n = 350, 2 of 501 at n = 1000.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate
from math import comb
from operator import add, sub

import numpy as np

from .errors import check_index, check_size
from .krawtchouk import _half_column, abs_column_sum, column, half_abs_sum, next_half_column

__all__ = [
    "SymmetricBooleanFunction",
    "c_minima",
    "c_minima_bytes",
    "dj_optimal_profile_strings",
    "optimal_function",
    "quarter_binomials",
    "quarter_slice",
    "reduced_walsh_spectrum",
    "spectrum_value",
]


@dataclass(frozen=True)
class SymmetricBooleanFunction:
    """Simplified value vector of a symmetric Boolean function on n variables."""

    n: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        check_size("n", self.n, 0)
        if len(self.bits) != self.n + 1:
            raise ValueError(f"bits has length {len(self.bits)}, expected n+1={self.n + 1}")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must all be 0 or 1")

    @classmethod
    def from_value(cls, n: int, value: int) -> "SymmetricBooleanFunction":
        """Decode the integer whose bit i is f_i (f_0 least significant)."""
        if not 0 <= value < 1 << (n + 1):
            raise ValueError(f"value={value} out of range for n={n}")
        return cls(n=n, bits=tuple((value >> i) & 1 for i in range(n + 1)))

    @classmethod
    def from_hex(cls, n: int, code: str) -> "SymmetricBooleanFunction":
        """Decode the hex rendering of the bit string f_n f_{n-1} ... f_1 f_0."""
        if not re.fullmatch(r"[0-9A-Fa-f]+", code):
            raise ValueError(f"{code!r} is not a hex string")  # int() takes 0x3, +3, 3_0, " 3"
        return cls.from_value(n, int(code, 16))

    @property
    def value(self) -> int:
        return sum(b << i for i, b in enumerate(self.bits))

    def to_hex(self) -> str:
        """Uppercase hex of the bit string f_n ... f_0, no leading zeros."""
        return format(self.value, "X")

    def signs(self) -> tuple[int, ...]:
        """(-1)^{f_i} for each weight i."""
        return tuple(1 - 2 * b for b in self.bits)


def spectrum_value(f: SymmetricBooleanFunction, k: int) -> int:
    """rw_f(k) = sum_i (-1)^{f_i} K_i(k, n), exact."""
    return sum(s * v for s, v in zip(f.signs(), column(k, f.n)))


# Spectrum lanes: at most about sqrt(n / _LANE_DIVISOR), their widths summing to at most _ROW_BITS.
_ROW_BITS = 4096
_LANE_DIVISOR = 6


def _lane_layout(n: int, binomials: Sequence[int]) -> tuple[int, list[int]]:
    """(span, widths): the n//2 + 1 spectrum columns as len(widths) runs of `span`, stepped side by side.

    `binomials[i]` is +-C(n, i) for i <= n//2.  Lane l visits the columns
    n - l*span down to n - (l+1)*span + 1, and its width is
    n - floor(log4 C(n, c)) + 2 for c the one of those farthest from n/2,
    where C(n, c) is least.  The lane count is the largest, up to about
    sqrt(n/6), whose widths sum to at most 4096 bits, or 1; with more than
    one lane the span is even, so every lane has the same column parity.
    """
    m = n // 2 + 1
    for target in range(math.isqrt(n // _LANE_DIVISOR), 1, -1):
        span = -(-m // target)
        span += span & 1
        lanes = -(-m // span)
        # lane l's columns run from n - s down to n + 1 - s - span, s = l*span
        widths = [n + 2 - (abs(binomials[min(s, n + 1 - s - span)]).bit_length() - 1) // 2
                  for s in range(0, lanes * span, span)]
        if lanes == 1 or sum(widths) <= _ROW_BITS:
            return span, widths
    return m, [n + 2]


def _abel_groups(signs: list[int], parity: int) -> list[tuple[int, list[int]]]:
    """Pairs (d, indices): the folded half-column dot is sum over pairs of d * sum_{i in indices} P_i.

    The weights are phi_i = s_i + (-1)^parity s_{n-i} for i < n/2, then
    s_{n/2} for even n, and P_i = R_0 + ... + R_i, so
    sum_i phi_i R_i = sum_i (phi_i - phi_{i+1}) P_i (phi past the end is 0).
    Each nonzero difference d is grouped with the indices where it occurs.
    """
    n = len(signs) - 1
    sign = -1 if parity else 1
    weights = [signs[i] + sign * signs[n - i] for i in range((n + 1) // 2)]
    if n % 2 == 0:
        weights.append(signs[n // 2])
    groups: dict[int, list[int]] = {}
    for i, d in enumerate(map(sub, weights, weights[1:] + [0])):
        if d:
            groups.setdefault(d, []).append(i)
    return list(groups.items())


def reduced_walsh_spectrum(f: SymmetricBooleanFunction) -> tuple[int, ...]:
    """(rw_f(0), ..., rw_f(n)); Parseval: sum_k C(n,k) rw_f(k)^2 = 2^(2n).

    Column n-k, k <= n//2, gives rw_f(n-k) and also
    rw_f(k) = sum_i (-1)^i (-1)^{f_i} K_i(n-k, n).  Both run over the half
    column with the signs folded by the palindrome of column n-k (weights
    0 and +-2, and +-1 on the middle row of even n).

    Lane layout (`_lane_layout`): the columns n, n-1, ..., n - n//2 are cut
    into L runs of `span` columns, `span` even when L > 1, and lane l steps
    the run that starts at column n - l*span, seeded by the recurrence
    (`krawtchouk._half_column`).  The last run may end past column
    n - n//2; its extra columns are dropped.  Row i is one int,
    sum_l K_i(c_l, n) 2^(B_{l+1} + ... + B_{L-1}) for lane l at column c_l,
    B_l bits wide.  The top lane sets the length of each int.  Lane 0, the
    widest (its first column n takes B_0 = n + 2 bits), holds the top bits:
    its entries start at +-C(n, i), short at small i, so the ints are
    shorter on average than with a narrower lane on top (1097 against 1150
    bits at n = 290, 3464 against 3632 at n = 917).  The stepper keeps the
    prefix sums P = accumulate(R) of the rows, not the rows.  It reads both
    dots from them by Abel summation,
    sum_i phi_i R_i = sum_i (phi_i - phi_{i+1}) P_i, so a dot costs one add
    per index where its weights change, and steps every lane k -> k-1 by
    R'_i = P_i + P_{i-1}, accumulated as it is formed: two adds per row, one
    `accumulate(map(add, ...))` pass.  Both are linear, so one pass serves
    every lane; the even span gives all lanes one column parity, hence one
    pair of folded weights.

    Width bound: rows and prefix sums are never unpacked, only dots, and a
    dot is a spectrum value rw_f(c) or rw_f(n-c) at a column c of its lane.
    Parseval gives C(n, c) rw_f(c)^2 <= 4^n, so with 4^t <= C(n, c),
    |rw_f(c)| <= 2^(n-t), inside the [-2^(n-t+1), 2^(n-t+1)) of a signed
    lane of B_l = n - t + 2 bits; t is floor(log4 C(n, c)) at the visited
    column where C(n, c) is least, dropped columns included.  Each dot is
    unpacked once per lane after adding 2^(B_l - 1) to every lane, so a
    negative lane borrows nothing from the lane above it.
    """
    n = f.n
    signs = list(f.signs())
    mirrored = [-s if i & 1 else s for i, s in enumerate(signs)]
    groups = [(_abel_groups(signs, p), _abel_groups(mirrored, p)) for p in (0, 1)]

    m = n // 2 + 1
    first = _half_column(n, n)  # (-1)^i C(n, i): lane 0's seed and the binomials of the layout
    span, widths = _lane_layout(n, first)
    # (shift, mask, offset) of each lane, lane 0 on top; the bias adds every lane's offset
    shifts = list(accumulate(widths[:0:-1], initial=0))[::-1]
    fields = [(s, (1 << b) - 1, 1 << (b - 1)) for s, b in zip(shifts, widths)]
    bias = sum(offset << s for s, _, offset in fields)

    sums = [0] * m  # the packed rows of the seed columns, then their prefix sums
    for l in range(len(widths)):
        seed = _half_column(n - l * span, n) if l else first
        sums = [(r << widths[l]) + v for r, v in zip(sums, seed)]
    sums = list(accumulate(sums))

    direct_dots, mirror_dots = [], []
    for j in range(span):
        if j:  # the next column, R'_i = P_i + P_{i-1}, is kept only as its prefix sums
            sums = list(accumulate(map(add, sums, [0] + sums[:-1])))
        get = sums.__getitem__
        for dots, pairs in zip((direct_dots, mirror_dots), groups[(n - j) & 1]):
            dot = bias
            for d, indices in pairs:
                dot += d * sum(map(get, indices))
            dots.append(dot)

    def unpack(dots: list[int]) -> list[int]:
        """Every lane of every biased dot, lane-major: entry l*span + j is column n - l*span - j."""
        return [((d >> s) & mask) - offset for s, mask, offset in fields for d in dots]

    return tuple(unpack(mirror_dots)[:m] + unpack(direct_dots)[: n + 1 - m][::-1])


def optimal_function(n: int, w: int) -> SymmetricBooleanFunction:
    """The sign-rule function maximizing |rw_f(w)|.

    f_i = 0 where K_i(w, n) > 0 and 1 where K_i(w, n) < 0, which aligns every
    term of rw_f(w) so the spectrum value reaches sum_i |K_i(w, n)|.  Zero
    entries of the column leave f_i free; we fix those to 0 so the output is
    deterministic.
    """
    check_index("w", w, n)
    return SymmetricBooleanFunction(n=n, bits=tuple(1 if v < 0 else 0 for v in column(w, n)))


# c_minima's float filter (module docstring)
_U = 2.0**-53  # unit roundoff of float64
_RESEED_RATIO = 2.0**-24  # a candidate column whose error bound passes this share of its sum is rebuilt exactly
_BLOCK_STEPS = 32  # steps of n per block: one bound, prune and rescale pass each; rows of the sum buffer
_ROUND_UP = 1.0 + 2.0**-51  # lifts a computed bound past the rounding of its own arithmetic
_BOUND_MARGIN = 1.0 + 2.0**-40  # past the rounding of the few dozen float operations that form a bound
_SUBNORMAL = 2.0**-1074  # two roundings of a subnormal result, per entry
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
    m = max_n // 2 + 1
    return 8 * (m * (m + 1) + _buffer_rows(m) * (m + 1) + 10 * _BLOCK_STEPS * m)


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
        self._powers = np.ldexp(1.0, np.arange(-_POWER_CLIP, _POWER_CLIP + 1))  # 2^p, |p| <= _POWER_CLIP

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
        power += _POWER_CLIP
        np.take(self._powers, power, out=factor)
        lo *= factor
        hi *= factor
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
        """Rebuild each column ks[i] at n = ns[starts[i]] from the exact krawtchouk._half_column, at its scale
        2^-exps[k], and replay them all to the block's end in a copy of their rows; S(k, n) at each rebuild."""
        order = np.argsort(starts, kind="stable")
        ks, starts = ks[order].tolist(), starts[order].tolist()
        rows, out = np.zeros((len(ks), self.table.shape[1])), np.empty(len(ks))
        signs, rebuilt, done = self._signs[ks], {}, 0
        for j in range(starts[0], len(self.ns)):
            n, stepped = int(self.ns[j]), done
            while done < len(ks) and starts[done] == j:  # one exact column at a time
                half = _half_column(ks[done], n)
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

    The integer ratio is correctly rounded, then multiplied by the rounded
    sqrt(n), as `c_minima` defines each term.  The middle column k = n//2
    has S = 2^ceil(n/2), so the ratio is the same rational as C(n, k) / 4^k;
    elsewhere S is `s`, or abs_column_sum(k, n) when not given.
    """
    if k == n // 2:
        return binom / (1 << (2 * k)) * math.sqrt(n)
    if s is None:
        s = abs_column_sum(k, n)
    return (binom * s * s) / (1 << (2 * n)) * math.sqrt(n)


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


# dj_optimal_profile_strings' float basis (module docstring)
_BLOCK_ROWS = 32  # rows of U per block: one buffer of (_BLOCK_ROWS + 2) x (n//2 + 1) floats
_GAMMA_ROW = 5.01 * _U  # past gamma_5 = 5u / (1 - 5u), the rounding of one recurrence row
_OUTWARD = 1.0 + 2.0**-50  # past (1 + u)^4, the rounding of a square and its operands
_PRINTED = ".9g"  # csvio.fmt's format of a float


def _sqrt_ratios(values: list[int], n: int) -> np.ndarray:
    """sqrt(v / 2^n) for each positive int v, within 2u relative (a subnormal result within _SUBNORMAL)."""
    m, e = _frexp_ints(values)
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


def _dj_float_terms(n: int, binoms: Sequence[int]) -> _DjTerms:
    """Columns k of U streamed row by row through the three-term recurrence, each from u_0 = 1
    and rescaled by powers of two at block ends, and the terms of their bound (module docstring).

    binoms is the binomial half row (C(n, 0), ..., C(n, n//2)).
    """
    h = n // 2
    ks = np.arange(h + 1)
    lam = (n - 2 * ks).astype(float)
    alpha = np.sqrt((ks * (n - ks + 1)).astype(float))  # sqrt(i (n - i + 1)), the u_{i-1} coefficient
    beta = np.sqrt(((ks + 1) * (n - ks)).astype(float))  # sqrt((i + 1) (n - i)), the u_{i+1} coefficient
    mult = np.full(h + 1, 2.0)  # rows i < n/2 stand for rows i and n - i of the full column
    if n % 2 == 0:
        mult[h] = 1.0
    weights = mult * _sqrt_ratios(binoms, n)  # the column U[:, 0], folded
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


def _dj_float_bounds(n: int, binoms: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) for k <= n//2, with lo[k] <= C(n, k) S(k, n)^2 / 4^n <= hi[k] certified.

    binoms is the binomial half row (C(n, 0), ..., C(n, n//2)).  The terms
    come from `_dj_float_terms`; the bound is in the module docstring.  A
    non-finite entry of lo or hi certifies nothing.
    """
    d = _dj_float_terms(n, binoms)
    with np.errstate(all="ignore"):  # a non-finite bound certifies nothing
        # Davis-Kahan, sin <= |X u - lam u| / (2 |u|): a-priori rows i < h (twice), then the closure
        sine = d.row + (d.floor + d.closure) / (2 * np.sqrt(d.nu * (1.0 - d.rel)))
        eps = (math.sqrt(2) * sine + d.weights + d.sums) * _BOUND_MARGIN
        lo = np.square(np.maximum(d.tau - eps, 0.0)) * (2.0 - _OUTWARD)
        hi = np.square(d.tau + eps) * _OUTWARD
    return lo, hi


def _certified_strings(lo: np.ndarray, hi: np.ndarray, exact) -> list[str]:
    """format(x_j, ".9g") for values x_j certified to lie in [lo[j], hi[j]].

    The text comes from the bounds when both print alike (Ziv, module
    docstring), and otherwise, or when a bound is not finite, from the
    float exact(j).
    """
    out = []
    for j, (low, high) in enumerate(zip(lo.tolist(), hi.tolist())):
        text = format(low, _PRINTED)
        if not math.isfinite(high) or text != format(high, _PRINTED):
            text = format(exact(j), _PRINTED)
        out.append(text)
    return out


def dj_optimal_profile_strings(n: int, binoms: Sequence[int]) -> list[str]:
    """csvio.fmt(p) for p = C(n, w) S(w, n)^2 / 4^n, w = 0..n, the DJ optimum rounded once, from certified floats.

    S(w, n) = sum_i |K_i(w, n)| is the same for w and n - w.  Each value
    comes with certified bounds (`_dj_float_bounds`, module docstring) and
    prints from them when both format to the same 9 digits; otherwise it is
    computed exactly, the integer ratio (C(n, k) S^2) / 4^n with
    S = abs_column_sum(k, n), correctly rounded.  Memory is O(n).
    binoms is the binomial half row (C(n, 0), ..., C(n, n//2)), which a
    caller shares with symstate.childs_profile_strings.
    """
    check_size("n", n, 0)
    lo, hi = _dj_float_bounds(n, binoms)

    def exact(k: int) -> float:
        s = abs_column_sum(k, n)
        return (binoms[k] * s * s) / (1 << (2 * n))

    half = _certified_strings(lo, hi, exact)
    return half + half[: n - n // 2][::-1]


def quarter_binomials(max_n: int) -> list[int]:
    """[C(n, n // 4) for n in 0..max_n], each from the last by one exact multiply and divide."""
    out = [1]
    for n in range(1, max_n + 1):
        k = (n - 1) // 4  # C(n, k + 1) = C(n - 1, k) n / (k + 1), C(n, k) = C(n - 1, k) n / (n - k)
        out.append(out[-1] * n // (k + 1 if n // 4 > k else n - k))
    return out


def quarter_slice(max_n: int, binoms: Sequence[int]) -> list[float]:
    """C(n, k) S(k, n)^2 / 4^n at k = n // 4, correctly rounded, for n = 0..max_n, one carried column.

    Column k = n//4 goes from n to n+1 by the Pascal step (1+z), or by
    (1-z) to column k+1 where (n+1)//4 > k, with C(n, k) from binoms, the
    list quarter_binomials(max_n), which a caller shares with
    symstate.childs_quarter_slice_strings.  Each value is the same correctly
    rounded ratio as float(symstate.dj_optimal_success_exact(n, n // 4)).
    """
    check_size("max_n", max_n, 0)
    out, half = [], [1]  # column 0 at n = 0
    for n, binom in enumerate(binoms):
        if n:
            k = (n - 1) // 4
            half = next_half_column(half, k, n - 1, n // 4 > k)
        s = half_abs_sum(half, n)
        out.append((binom * s * s) / (1 << (2 * n)))
    return out
