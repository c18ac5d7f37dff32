"""Exact integer Krawtchouk polynomials K_i(k, n).

K_i(k, n) = sum_j (-1)^j C(k, j) C(n-k, i-j).  Everything here is plain
Python integers: columns at n = 1000 hold values around 2^995, far past any
fixed-width type, and the consumers (Walsh spectra, probability ratios) need
them exact.  A column is the plain tuple (K_0(k, n), ..., K_n(k, n)).

Point queries -- one entry, or one column -- use the defining sum and the
three-term recurrence

    (i+1) K_{i+1}(k, n) = (n-2k) K_i(k, n) - (n-i+1) K_{i-1}(k, n)

which costs O(n) multiplies and exact divides per column (the K_{i-1} term
is absent at i = 0, matching the defining sum).

Whole columns use the generating function
G_k(z) = sum_i K_i(k, n) z^i = (1-z)^k (1+z)^(n-k), so
G_{k-1} = G_k (1+z)/(1-z): multiplying by 1+z adds each entry to its
predecessor, dividing by 1-z takes prefix sums.  `descending_columns` starts
from column n and steps down with additions only; the mirror identity
K_i(n-k, n) = (-1)^i K_i(k, n) gives column n-k from column k, so a
consumer of all columns steps through the upper half only.

Columns 0 and n are the signed binomial rows: G_0(z) = (1+z)^n gives
K_i(0, n) = C(n, i), and K_i(n, n) = (-1)^i C(n, i) (MacWilliams & Sloane,
The Theory of Error-Correcting Codes, ch. 5).  `half_column` builds them by
C(n, i+1) = C(n, i) (n-i) / (i+1), one multiply and one exact divide per
entry (the sign flips each step for column n), where the recurrence takes
two multiplies.  Every consumer of a whole row of binomials -- the parity
outcome weights C(n, k) a_k^2, the DJ profile, the stepper's seed, the
spectrum's top lane -- takes it from here instead of one `math.comb` call
per entry.

Each column is also a palindrome up to sign: z^n G_k(1/z) = (-1)^k G_k(z),
so K_{n-i}(k, n) = (-1)^k K_i(k, n).  Entries i <= n//2 therefore fix the
whole column, and both the recurrence and the additive step only read
entries at or below the one they produce.  `column` runs the recurrence to
n//2 and fills the rest by the palindrome; `descending_columns` yields only
the half columns (K_0(k, n), ..., K_{n//2}(k, n)), which `full_column`
completes.  With the mirror, a consumer of the whole matrix computes a
quarter of it.

A column also steps in n: G_k^(n+1) = G_k^(n) (1+z), one add per
half-column entry (`next_half_column`; for odd n the half column first
gains K_{n//2+1}(k, n) = (-1)^k K_{n//2}(k, n) from the palindrome).
`symstate.c_minima` grows its binomial half rows this way.

`dump_rows` gives the matrix as the rows of the `krawtchouk` dump,
"i,K_i(0, n),...,K_i(n, n)", one row per item, which the writer sends on
as it comes.  Only the quarter block i, k <= n/2 goes through `str`
(taken, by the mirror, from the half columns k >= n/2 that the stepper
yields), and only its texts are held, never the dump's: the mirror fills
out rows i <= n/2 with the same texts reversed, signs flipped at odd i, and
the palindrome gives row n-i from row i with signs flipped at odd k.  A
sign flip adds or drops a leading "-" (a zero stays "0").
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate
from math import comb
from operator import add, mul

from .errors import check_index, check_size

__all__ = [
    "abs_column_sum",
    "column",
    "columns",
    "dump_rows",
    "krawtchouk",
    "matrix",
]


def krawtchouk(i: int, k: int, n: int) -> int:
    """K_i(k, n) by the defining binomial sum, exact."""
    check_index("i", i, n)
    check_index("k", k, n)
    lo = max(0, i - (n - k))
    hi = min(i, k)
    total = 0
    for j in range(lo, hi + 1):
        term = comb(k, j) * comb(n - k, i - j)
        total += -term if j & 1 else term
    return total


def half_column(k: int, n: int) -> list[int]:
    """(K_0(k, n), ..., K_{n//2}(k, n)).

    Columns 0 and n, the binomial row C(n, i) and its signed form, take one
    multiply and one exact divide per entry; the others take the three-term
    recurrence.
    """
    check_index("k", k, n)
    h = n // 2
    vals = [1] * (h + 1)
    if k == 0 or k == n:
        # K_{i+1} = K_i (n - i) / (i + 1) at k = 0 and K_i (i - n) / (i + 1) at k = n, exact
        v = 1
        for i, m in enumerate(range(-n, h - n) if k else range(n, n - h, -1), 1):
            v = v * m // i
            vals[i] = v
        return vals
    lam = n - 2 * k
    prev, v = 1, lam
    vals[1] = v  # 0 < k < n, so h >= 1
    for i, m in zip(range(2, h + 1), range(n, n - h + 1, -1)):  # m = n - i + 2
        prev, v = v, (lam * v - m * prev) // i
        vals[i] = v
    return vals


def full_column(half: list[int], k: int, n: int) -> list[int]:
    """Column k from its entries i <= n//2, by K_{n-i}(k, n) = (-1)^k K_i(k, n)."""
    tail = half[: n + 1 - len(half)][::-1]
    return half + (tail if k % 2 == 0 else [-v for v in tail])


def column(k: int, n: int) -> tuple[int, ...]:
    """Column k of the Krawtchouk matrix, (K_0(k, n), ..., K_n(k, n)).

    `half_column` gives entries i <= n//2, the palindrome the rest.
    """
    return tuple(full_column(half_column(k, n), k, n))


def descending_columns(n: int) -> Iterator[list[int]]:
    """Yield the half column (K_0(k, n), ..., K_{n//2}(k, n)) for k = n, n-1, ..., 0.

    K_i(k-1, n) = sum_{j<=i} (K_j(k, n) + K_{j-1}(k, n)) reads only entries
    j <= i, so the truncated step is exact, by additions only.  Only the
    current half column is kept (the caller must not modify it), so a caller
    that stops early pays only for the columns it took.
    """
    col = half_column(n, n)
    yield col
    for _ in range(n):
        col = list(accumulate(map(add, col, [0] + col[:-1])))
        yield col


def next_half_column(half: list[int], k: int, n: int) -> list[int]:
    """Half column k at n+1 from half column k at n.

    G_k^(n+1) = G_k^(n) (1+z), so entry i is K_i(k, n) + K_{i-1}(k, n): one
    add per entry.  For odd n the half column grows by one entry, whose input
    K_{n//2+1}(k, n) = (-1)^k K_{n//2}(k, n) comes from the palindrome, so it
    is 2 K_{n//2}(k, n) or 0.
    """
    out = [half[0], *map(add, half[1:], half)]
    if n & 1:
        out.append(0 if k & 1 else 2 * half[-1])
    return out


def columns(n: int) -> list[list[int]]:
    """The exact Krawtchouk matrix as its n+1 columns: entry [k][i] = K_i(k, n)."""
    check_size("n", n, 0)
    alt = [-1 if i & 1 else 1 for i in range(n + 1)]
    cols: list[list[int]] = [[]] * (n + 1)
    for k, half in zip(range(n // 2 + 1), descending_columns(n)):
        col = full_column(half, n - k, n)
        cols[n - k] = col
        cols[k] = list(map(mul, alt, col))
    return cols


def dump_rows(n: int) -> Iterator[str]:
    """The rows "i,K_i(0, n),...,K_i(n, n)" for i = 0..n, one item each, ended by a newline.

    Each K_i(k, n) of the quarter block i, k <= n/2 goes through `str`
    once, before the first row; the mirror and the palindrome give every
    other entry by adding or dropping a leading "-".
    """
    check_size("n", n, 0)
    h = n // 2
    # column j of the block is K_i(n - j, n) for i <= h, the half column the stepper yields
    quarter = list(zip(*[list(map(str, half)) for _, half in zip(range(h + 1), descending_columns(n))]))
    return _rows(n, quarter)


def _rows(n: int, quarter: list[tuple[str, ...]]) -> Iterator[str]:
    """The dump rows, each ended by a newline, from quarter[j][m] = K_j(n - m, n) = (-1)^j K_j(m, n).

    Rows j <= n/2 come first, then rows n - j.  The negated texts of an odd
    row j are held from row j to row n - j, to be made only once.
    """
    h = n // 2
    held = {}
    for j, pos in enumerate(quarter):
        if j & 1:
            held[j] = _negated(pos)
        # k <= h from K_j(k, n) = (-1)^j K_j(n - k, n), k > h from pos itself
        yield ",".join([str(j), *(held[j] if j & 1 else pos), *pos[:n - h][::-1]]) + "\n"
    for j in range(n - h - 1, -1, -1):  # row n - j: K_{n-j}(k, n) = (-1)^k K_j(k, n)
        pos = quarter[j]
        neg = held.pop(j) if j & 1 else _negated(pos)
        row = [str(n - j), *(neg if j & 1 else pos), *pos[:n - h][::-1]]
        flipped = [str(n - j), *(pos if j & 1 else neg), *neg[:n - h][::-1]]  # -K_j(k, n)
        flipped[1::2] = row[1::2]  # even k keep the sign of row j
        yield ",".join(flipped) + "\n"


def _negated(texts: tuple[str, ...]) -> list[str]:
    """The texts of -v for the texts of ints v: a leading "-" added or dropped, "0" kept."""
    return [t[1:] if t[0] == "-" else t if t == "0" else "-" + t for t in texts]


def matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """The exact (n+1) x (n+1) Krawtchouk matrix as rows: entry [i][k] = K_i(k, n)."""
    return tuple(zip(*columns(n)))


def half_abs_sum(half: list[int], n: int) -> int:
    """sum_i |K_i(k, n)| from the half column: twice each i < n/2, plus the middle."""
    total = 2 * sum(map(abs, half))
    return total - abs(half[-1]) if n % 2 == 0 else total


def abs_column_sum(k: int, n: int) -> int:
    """sum_i |K_i(k, n)|, exact.

    At k = floor(n/2) or ceil(n/2) this equals 2^ceil(n/2); it is also the
    peak reduced-Walsh value attainable at weight k by any symmetric Boolean
    function.
    """
    return half_abs_sum(half_column(k, n), n)
