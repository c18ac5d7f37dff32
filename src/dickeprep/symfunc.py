"""Symmetric Boolean functions and their reduced Walsh spectra.

An n-variable symmetric Boolean function is the (n+1)-bit simplified value
vector [f_0, ..., f_n], f_i being the output on inputs of Hamming weight i.
Its Walsh spectrum depends only on wt(omega), so it reduces to n+1 exact
integers rw_f(k) = sum_i (-1)^{f_i} K_i(k, n), returned as a plain tuple.
The mirror identity K_i(n-k, n) = (-1)^i K_i(k, n) lets one Krawtchouk column
serve both k and n-k, so whole spectra and profiles take only the columns
k >= n/2 from the additive stepper `krawtchouk.descending_columns`; a single
spectrum value or optimal function uses the recurrence column alone.  The
palindrome K_{n-i}(k, n) = (-1)^k K_i(k, n) lets them read only the half
column i <= n//2: sums of |K_i| count each i < n/2 twice, and the signs of a
spectrum fold once per column parity, s_i + (-1)^k s_{n-i}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from .krawtchouk import column, descending_columns, half_abs_sum

__all__ = [
    "SymmetricBooleanFunction",
    "c_of_n",
    "c_profile",
    "dj_optimal_profile",
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


def _fold(signs: list[int], k: int) -> list[int]:
    """Weights on the half column: s_i + (-1)^k s_{n-i} for i < n/2, then s_{n/2} for even n."""
    n = len(signs) - 1
    sign = -1 if k & 1 else 1
    folded = [signs[i] + sign * signs[n - i] for i in range((n + 1) // 2)]
    return (folded + [signs[n // 2]]) if n % 2 == 0 else folded


def reduced_walsh_spectrum(f: SymmetricBooleanFunction) -> tuple[int, ...]:
    """(rw_f(0), ..., rw_f(n)); Parseval: sum_k C(n,k) rw_f(k)^2 = 2^(2n).

    Column n-k gives rw_f(n-k) and also rw_f(k) = sum_i (-1)^i (-1)^{f_i} K_i(n-k, n).
    Both sums run over the half column, with the signs folded by the
    palindrome of column n-k.
    """
    n = f.n
    signs = list(f.signs())
    mirrored = [-s if i & 1 else s for i, s in enumerate(signs)]
    folds = [(_fold(signs, p), _fold(mirrored, p)) for p in (0, 1)]
    out = [0] * (n + 1)
    for k, half in zip(range(n // 2 + 1), descending_columns(n)):
        direct, mirror = folds[(n - k) & 1]
        out[n - k] = sum(map(mul, direct, half))
        out[k] = sum(map(mul, mirror, half))
    return tuple(out)


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
