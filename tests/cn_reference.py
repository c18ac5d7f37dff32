"""The carried exact columns, every term evaluated, the reference that symstate.c_minima is checked against."""

import math

from dickeprep.krawtchouk import half_abs_sum, half_column, next_half_column


def c_minima(max_n: int) -> list[tuple[float, int]]:
    """(c(n), w_min(n)) for n = 1..max_n: min_k c_k(n) and its first index, every term evaluated.

    c_k(n) = (C(n, k) S(k, n)^2) / 4^n * sqrt(n), S(k, n) = sum_i |K_i(k, n)|:
    the integer ratio correctly rounded, times the rounded sqrt(n).

    Each column k <= max_n//2 is carried along n = 2k..max_n by the Pascal
    step (1+z), one add per half-column entry, with C(n, k) by one exact
    multiply and divide; column k at n = 2k is the exact half_column.  Only
    one carried column is live at a time.  The terms are symmetric in
    k <-> n-k, so a strict `<` over ascending k <= n//2 keeps the first
    minimum over all k.
    """
    if max_n < 1:
        raise ValueError(f"max_n={max_n} must be positive")
    cs, w_mins = [math.inf] * (max_n + 1), [0] * (max_n + 1)
    denoms = [1 << (2 * n) for n in range(max_n + 1)]
    scales = [math.sqrt(n) for n in range(max_n + 1)]
    seed_binom = 1  # C(0, 0)
    for k in range(max_n // 2 + 1):
        if k:
            seed_binom = seed_binom * (2 * k) * (2 * k - 1) // (k * k)
        half, binom = half_column(k, 2 * k), seed_binom
        for n in range(max(2 * k, 1), max_n + 1):
            if n > 2 * k:
                half = next_half_column(half, k, n - 1)
                binom = binom * n // (n - k)
            s = half_abs_sum(half, n)
            c = (binom * s * s) / denoms[n] * scales[n]
            if c < cs[n]:
                cs[n], w_mins[n] = c, k
    return list(zip(cs[1:], w_mins[1:]))
