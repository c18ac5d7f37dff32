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

The profile needs every entry's absolute value, which is not linear in the
column, so it walks the columns one at a time with the additive stepper
`krawtchouk.descending_columns`.  Sweeps over n walk along n instead:
`quarter_slice` carries the single column k = n//4 and `c_minima` each
column k from n = 2k up, by the Pascal step `krawtchouk.next_half_column`
(one add per half-column entry, where a step in k costs two), with
C(n, k) carried by one exact multiply and divide.  Each keeps one column
live, and each value is the same correctly rounded ratio as the per-n
profile's.

A spectrum needs only two folded dots per column, which are linear, so
`reduced_walsh_spectrum` steps L columns at once in lanes of one Python int
per row: row i holds
sum_l K_i(c_l, n) 2^((n+3) l) for L columns c_l an even number apart.
Every packed value fits its lane: |K_i(k, n)| <= C(n, i), the step's
partial sums are entries of column k-1, and |folded dot| <= sum_i
|K_i(k, n)| <= 2^n, so n+3 bits hold every value with a sign margin.  L is
about sqrt(n/6), capped so a packed row is at most 4096 bits.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import accumulate
from operator import add

from .krawtchouk import _half_column, column, descending_columns, half_abs_sum, next_half_column

__all__ = [
    "SymmetricBooleanFunction",
    "c_minima",
    "c_of_n",
    "c_profile",
    "dj_optimal_profile",
    "optimal_function",
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
        if self.n < 0:
            raise ValueError(f"n={self.n} must be non-negative")
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


# Spectrum lanes: about sqrt(n / _LANE_DIVISOR), at most _ROW_BITS bits per packed row.
_ROW_BITS = 4096
_LANE_DIVISOR = 6


def _lane_layout(n: int) -> tuple[int, int]:
    """(lanes, span): the n//2 + 1 spectrum columns as runs of `span`, stepped side by side.

    About sqrt(n/6) lanes of n+3 bits, at most 4096 bits in all; with more
    than one lane the span is even, so every lane has the same column parity.
    """
    m = n // 2 + 1
    lanes = max(1, min(math.isqrt(n // _LANE_DIVISOR), _ROW_BITS // (n + 3)))
    span = -(-m // lanes)
    if lanes > 1:
        span += span & 1
    return -(-m // span), span


def _fold_selectors(signs: list[int], parity: int) -> tuple[list[int], list[int]]:
    """Indices i < n/2 where s_i + (-1)^parity s_{n-i} is +2, and where it is -2."""
    n = len(signs) - 1
    sign = -1 if parity else 1
    folded = [signs[i] + sign * signs[n - i] for i in range((n + 1) // 2)]
    return [i for i, w in enumerate(folded) if w > 0], [i for i, w in enumerate(folded) if w < 0]


def reduced_walsh_spectrum(f: SymmetricBooleanFunction) -> tuple[int, ...]:
    """(rw_f(0), ..., rw_f(n)); Parseval: sum_k C(n,k) rw_f(k)^2 = 2^(2n).

    Column n-k, k <= n//2, gives rw_f(n-k) and also
    rw_f(k) = sum_i (-1)^i (-1)^{f_i} K_i(n-k, n).  Both run over the half
    column with the signs folded by the palindrome of column n-k, so each
    is a sum of selected rows, doubled, plus the middle row of even n: no
    multiplies.

    Lane layout (`_lane_layout`): the columns n, n-1, ..., n - n//2 are cut
    into L runs of `span` columns, `span` even when L > 1, and lane l steps
    the run that starts at column n - l*span, seeded by the recurrence
    (`krawtchouk._half_column`).  The last run may end past column
    n - n//2; its extra columns are dropped.  Row i is one int,
    sum_l K_i(n - l*span - j, n) 2^(B l) at step j, with B = n + 3.  One
    `accumulate(map(add, ...))` pass steps every lane k -> k-1, and the
    selected-row sums dot every lane, because both are linear; the even span
    gives all lanes one column parity, hence one pair of folded selectors.

    Width bound: |K_i(k, n)| <= C(n, i), and the step's partial sums are
    entries of column k-1, so a packed row stays within its L*B bits; a
    folded dot is at most sum_i |K_i(k, n)| <= 2^n in absolute value, inside
    the [-2^(n+2), 2^(n+2)) that a signed B-bit lane holds.  Each dot is
    unpacked once per lane after adding 2^(B-1) to every lane, so a negative
    lane borrows nothing from the lane above it.
    """
    n = f.n
    signs = list(f.signs())
    mirrored = [-s if i & 1 else s for i, s in enumerate(signs)]
    selectors = [(_fold_selectors(signs, p), _fold_selectors(mirrored, p)) for p in (0, 1)]
    middle = (signs[n // 2], mirrored[n // 2]) if n % 2 == 0 else (0, 0)

    m = n // 2 + 1
    lanes, span = _lane_layout(n)
    width = n + 3
    offset = 1 << (width - 1)
    mask = (1 << width) - 1
    shifts = range(0, width * lanes, width)
    bias = sum(offset << s for s in shifts)

    rows = [0] * m
    for l in reversed(range(lanes)):
        rows = [(r << width) + v for r, v in zip(rows, _half_column(n - l * span, n))]

    direct_dots, mirror_dots = [], []
    for j in range(span):
        if j:
            rows = list(accumulate(map(add, rows, [0] + rows[:-1])))
        row = rows.__getitem__
        for dots, (plus, minus), mid in zip((direct_dots, mirror_dots), selectors[(n - j) & 1], middle):
            dot = 2 * (sum(map(row, plus)) - sum(map(row, minus))) + mid * rows[-1]
            dots.append(dot + bias)

    def unpack(dots: list[int]) -> list[int]:
        """Every lane of every biased dot, lane-major: entry l*span + j is column n - l*span - j."""
        return [((d >> s) & mask) - offset for s in shifts for d in dots]

    return tuple(unpack(mirror_dots)[:m] + unpack(direct_dots)[: n + 1 - m][::-1])


def optimal_function(n: int, w: int) -> SymmetricBooleanFunction:
    """The sign-rule function maximizing |rw_f(w)|.

    f_i = 0 where K_i(w, n) > 0 and 1 where K_i(w, n) < 0, which aligns every
    term of rw_f(w) so the spectrum value reaches sum_i |K_i(w, n)|.  Zero
    entries of the column leave f_i free; we fix those to 0 so the output is
    deterministic.
    """
    if not 0 <= w <= n:
        raise ValueError(f"w={w} out of range [0, {n}]")
    return SymmetricBooleanFunction(n=n, bits=tuple(1 if v < 0 else 0 for v in column(w, n)))


def dj_optimal_profile(n: int) -> list[float]:
    """C(n,w) rw_f(w)^2 / 2^(2n) for the per-w sign-rule optimal f, all w.

    rw_f(w) = sum_i |K_i(w, n)| is the same for w and n-w (mirror symmetry),
    so only the columns w >= n/2 are stepped through, each as a half column.
    Each value is one exact integer ratio, correctly rounded by CPython's
    big-int true division, so it equals
    float(symstate.dj_optimal_success_exact(n, w)) bit for bit.
    """
    if n < 0:
        raise ValueError(f"n={n} must be non-negative")
    out = [0.0] * (n + 1)
    denom = 1 << (2 * n)
    for k, binom, half in zip(range(n // 2 + 1), column(0, n), descending_columns(n)):
        s = half_abs_sum(half, n)
        out[k] = out[n - k] = (binom * s * s) / denom
    return out


def c_profile(n: int) -> list[float]:
    """dj_optimal_profile(n) scaled by sqrt(n): the c(n) terms for all w."""
    if n < 1:
        raise ValueError(f"n={n} must be positive")
    scale = math.sqrt(n)
    return [p * scale for p in dj_optimal_profile(n)]


def c_of_n(n: int) -> float:
    """min_w C(n,w) rw_f(w)^2 sqrt(n) / 2^(2n) over the sign-rule functions."""
    return min(c_profile(n))


def c_minima(max_n: int) -> list[tuple[float, int]]:
    """(c(n), w_min(n)) for n = 1..max_n: min(c_profile(n)) and its first index.

    Each column k <= max_n//2 is carried along n = 2k..max_n by the Pascal
    step (1+z), one add per half-column entry, with C(n, k) by one exact
    multiply and divide; column k at n = 2k comes from column k-1 at
    n = 2k-2 by (1-z), then (1+z).  Only one carried column is live at a
    time.  Every term is the same float as in c_profile, and the profile is
    symmetric in w <-> n-w, so a strict `<` over ascending k keeps the first
    minimum, as `profile.index` does.
    """
    if max_n < 1:
        raise ValueError(f"max_n={max_n} must be positive")
    cs, w_mins = [math.inf] * (max_n + 1), [0] * (max_n + 1)
    denoms = [1 << (2 * n) for n in range(max_n + 1)]
    scales = [math.sqrt(n) for n in range(max_n + 1)]
    seed, seed_binom = [1], 1  # column 0 at n = 0
    for k in range(max_n // 2 + 1):
        if k:
            seed = next_half_column(next_half_column(seed, k - 1, 2 * k - 2, down=True), k, 2 * k - 1)
            seed_binom = seed_binom * (2 * k) * (2 * k - 1) // (k * k)
        half, binom = seed, seed_binom
        for n in range(max(2 * k, 1), max_n + 1):
            if n > 2 * k:
                half = next_half_column(half, k, n - 1)
                binom = binom * n // (n - k)
            s = half_abs_sum(half, n)
            c = (binom * s * s) / denoms[n] * scales[n]
            if c < cs[n]:
                cs[n], w_mins[n] = c, k
    return list(zip(cs[1:], w_mins[1:]))


def quarter_slice(max_n: int) -> list[float]:
    """dj_optimal_profile(n)[n // 4] for n = 0..max_n, one carried column.

    Column k = n//4 goes from n to n+1 by the Pascal step (1+z), or by
    (1-z) to column k+1 where (n+1)//4 > k, with C(n, k) carried by one
    exact multiply and divide.  Each value is the same correctly rounded
    ratio as float(symstate.dj_optimal_success_exact(n, n // 4)).
    """
    if max_n < 0:
        raise ValueError(f"max_n={max_n} must be non-negative")
    out = [1.0]
    k, half, binom = 0, [1], 1  # column 0 at n = 0
    for n in range(1, max_n + 1):
        down = n // 4 > k
        half = next_half_column(half, k, n - 1, down)
        if down:
            k += 1
            binom = binom * n // k
        else:
            binom = binom * n // (n - k)
        s = half_abs_sum(half, n)
        out.append((binom * s * s) / (1 << (2 * n)))
    return out
