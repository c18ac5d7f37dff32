"""Symmetric Boolean functions and their reduced Walsh spectra.

An n-variable symmetric Boolean function is the (n+1)-bit simplified value
vector [f_0, ..., f_n], f_i being the output on inputs of Hamming weight i.
Its Walsh spectrum depends only on wt(omega), so it reduces to n+1 exact
integers rw_f(k) = sum_i (-1)^{f_i} K_i(k, n), returned as a plain tuple.
The mirror identity K_i(n-k, n) = (-1)^i K_i(k, n) lets one Krawtchouk column
serve both k and n-k, so a whole spectrum takes only the columns k >= n/2;
a single spectrum value or optimal function uses the recurrence column
alone.  The palindrome K_{n-i}(k, n) = (-1)^k K_i(k, n) lets a spectrum
read only the half column i <= n//2: its signs fold once per column parity,
s_i + (-1)^k s_{n-i}, to weights 0 and +-2 (the middle row of even n keeps
s_{n/2}).  Everything here is exact integers; the probabilities built on
these columns, and their floats, are in `symstate`.

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
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, compress, repeat
from operator import add, lshift, sub

from .errors import check_index, check_size
from .krawtchouk import column, half_column

__all__ = [
    "SymmetricBooleanFunction",
    "optimal_function",
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
        check_size("n", n, 0)
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
    h = (n + 1) // 2
    tail = signs[: n - h : -1]  # s_n, s_{n-1}, ..., s_{n+1-h}
    weights = list(map(sub if parity else add, signs[:h], tail))
    if n % 2 == 0:
        weights.append(signs[h])
    diffs = list(map(sub, weights, chain(weights[1:], (0,))))
    groups: dict[int, list[int]] = {}
    for i, d in compress(enumerate(diffs), diffs):
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
    the run that starts at column n - l*span, seeded by
    `krawtchouk.half_column` (lane 0's seed, column n, is the signed
    binomial row, which also sizes the lanes).  The last run may end past column
    n - n//2; its extra columns are dropped.  Row i is one int,
    sum_l K_i(c_l, n) 2^(B_{l+1} + ... + B_{L-1}) for lane l at column c_l,
    B_l bits wide.  The top lane sets the length of each int.  Lane 0, the
    widest (its first column n takes B_0 = n + 2 bits), holds the top bits:
    its entries start at +-C(n, i), short at small i, so the ints are
    shorter on average than with a narrower lane on top (1097 against 1150
    bits at n = 290, 3464 against 3632 at n = 917).  The seeds are packed
    one lane at a time, each row shifted and added in one `map` pass.  The
    stepper keeps the prefix sums P = accumulate(R) of the rows, not the
    rows.  It reads both dots from them by Abel summation,
    sum_i phi_i R_i = sum_i (phi_i - phi_{i+1}) P_i, so a dot costs one add
    per index where its weights change (`_abel_groups` lists only those),
    and steps every lane k -> k-1 by R'_i = P_i + P_{i-1}, accumulated as it
    is formed: two adds per row, one `accumulate(map(add, P, chain((0,), P)))`
    pass, which reads P shifted by one without copying it.  Both are linear,
    so one pass serves every lane; the even span gives all lanes one column
    parity, hence one pair of folded weights.

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
    first = half_column(n, n)  # (-1)^i C(n, i): lane 0's seed and the binomials of the layout
    span, widths = _lane_layout(n, first)
    # (shift, mask, offset) of each lane, lane 0 on top; the bias adds every lane's offset
    shifts = list(accumulate(widths[:0:-1], initial=0))[::-1]
    fields = [(s, (1 << b) - 1, 1 << (b - 1)) for s, b in zip(shifts, widths)]
    bias = sum(offset << s for s, _, offset in fields)

    sums = first  # the packed rows of the seed columns, then their prefix sums
    for l in range(1, len(widths)):
        sums = list(map(add, map(lshift, sums, repeat(widths[l])), half_column(n - l * span, n)))
    sums = list(accumulate(sums))

    direct_dots, mirror_dots = [], []
    for j in range(span):
        if j:  # the next column, R'_i = P_i + P_{i-1}, is kept only as its prefix sums
            sums = list(accumulate(map(add, sums, chain((0,), sums))))
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
