"""Exact integer Krawtchouk polynomials K_i(k, n).

K_i(k, n) = sum_j (-1)^j C(k, j) C(n-k, i-j).  Everything here is plain
Python integers: columns at n = 1000 hold values around 2^995, far past any
fixed-width type, and the consumers (Walsh spectra, probability ratios) need
them exact.  Point queries use the defining sum; whole columns use the
three-term recurrence

    (i+1) K_{i+1}(k, n) = (n-2k) K_i(k, n) - (n-i+1) K_{i-1}(k, n)

which costs O(n) per column (the K_{i-1} term is absent at i = 0, matching
the defining sum).  A column is the plain tuple (K_0(k, n), ..., K_n(k, n));
the matrix is the tuple of its rows, assembled from independently computed
columns.
"""

from __future__ import annotations

from math import comb

__all__ = [
    "abs_column_sum",
    "column",
    "krawtchouk",
    "matrix",
]


def _check_index(name: str, value: int, n: int) -> None:
    if not 0 <= value <= n:
        raise ValueError(f"{name}={value} out of range [0, {n}]")


def krawtchouk(i: int, k: int, n: int) -> int:
    """K_i(k, n) by the defining binomial sum, exact."""
    if n < 0:
        raise ValueError(f"n={n} must be non-negative")
    _check_index("i", i, n)
    _check_index("k", k, n)
    lo = max(0, i - (n - k))
    hi = min(i, k)
    total = 0
    for j in range(lo, hi + 1):
        term = comb(k, j) * comb(n - k, i - j)
        total += -term if j & 1 else term
    return total


def column(k: int, n: int) -> tuple[int, ...]:
    """Column k of the Krawtchouk matrix, (K_0(k, n), ..., K_n(k, n)), via the recurrence."""
    if n < 0:
        raise ValueError(f"n={n} must be non-negative")
    _check_index("k", k, n)
    vals = [0] * (n + 1)
    vals[0] = 1
    if n >= 1:
        vals[1] = n - 2 * k
    for i in range(1, n):
        vals[i + 1] = ((n - 2 * k) * vals[i] - (n - i + 1) * vals[i - 1]) // (i + 1)
    return tuple(vals)


def matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """The exact (n+1) x (n+1) Krawtchouk matrix as rows: entry [i][k] = K_i(k, n)."""
    if n < 0:
        raise ValueError(f"n={n} must be non-negative")
    return tuple(zip(*(column(k, n) for k in range(n + 1))))


def abs_column_sum(k: int, n: int) -> int:
    """sum_i |K_i(k, n)|, exact.

    At k = floor(n/2) or ceil(n/2) this equals 2^ceil(n/2); it is also the
    peak reduced-Walsh value attainable at weight k by any symmetric Boolean
    function.
    """
    return sum(abs(v) for v in column(k, n))
