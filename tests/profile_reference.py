"""The exact DJ profile, every value one integer ratio.

The reference that the DJ columns of symstate.curves_columns and symstate.quarter_columns are checked against.
"""

from dickeprep.krawtchouk import column, descending_columns, half_abs_sum


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
