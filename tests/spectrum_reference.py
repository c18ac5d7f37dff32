"""The literal per-column spectrum loop, the reference that symfunc.reduced_walsh_spectrum is checked against."""

from operator import mul

from dickeprep.krawtchouk import descending_columns


def _fold(signs: list[int], k: int) -> list[int]:
    """Weights on the half column: s_i + (-1)^k s_{n-i} for i < n/2, then s_{n/2} for even n."""
    n = len(signs) - 1
    sign = -1 if k & 1 else 1
    folded = [signs[i] + sign * signs[n - i] for i in range((n + 1) // 2)]
    return (folded + [signs[n // 2]]) if n % 2 == 0 else folded


def reduced_walsh_spectrum(f) -> tuple[int, ...]:
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
