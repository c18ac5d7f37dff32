"""References that the search kernel is checked against: the complex closed form
of the bias spectrum with its fold to real coefficients, the literal
golden-section refinement that exhaustive_search's Newton refinement
replaced, and the one-function scan of the grid's cos/sin table that
optimize_r replaced."""

import math
from functools import lru_cache
from math import comb

import numpy as np

from dickeprep.krawtchouk import columns
from dickeprep.search import _basis, _bracket, _grid, _refine, _spectrum, _theta, _waves

_R_TOL = 1e-8  # golden-section refinement stops at this bracket width in r
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@lru_cache(maxsize=8)
def _krawtchouk_floats(n: int) -> np.ndarray:
    """K[l, i] = K_i(l, n), each exact integer rounded once."""
    return np.array(columns(n), dtype=float)


def biased_amplitude_spectrum(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The biased-DJ inner sums T_i at weight k as a complex Fourier series.

    T[i](theta) = Re sum_l C[i, l] e^{-i theta lam_l}, sin^2(theta) = r/n,
    with lam = -n, -n+2, ..., n; column j holds (-i)^{k+i} K_i(j, n) K_j(k, n)
    / 2^{3n/2}, so the column at -lam is the exact conjugate of that at lam.
    """
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range [0, {n}]")
    K = _krawtchouk_floats(n)
    phase = np.array([1, -1j, -1, 1j])[(k + np.arange(n + 1)) % 4]
    C_t = (K * 2.0 ** -n) * (K[k] * 2.0 ** (-0.5 * n))[:, None] * phase
    return np.arange(-n, n + 1, 2), np.ascontiguousarray(C_t.T)


def fold(lam: np.ndarray, C: np.ndarray,
         signs: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies l >= 0 and per-row real coefficients [a_l | b_l] of (lam, C):
    amp = sum_l a_l cos(l theta) + b_l sin(l theta).

    One row per row of signs (a function's (-1)^{f_i}), or without signs one
    per weight i.  The column at -l is the conjugate of the one at l, so
    l > 0 counts twice."""
    up = lam >= 0
    A = C[:, up] if signs is None else signs @ C[:, up]
    twice = np.where(lam[up] > 0, 2.0, 1.0)
    return lam[up], np.hstack([A.real * twice, A.imag * twice])


def candidates(n: int, w: int) -> np.ndarray:
    """The sign-rule candidates of exhaustive_search: grid sign patterns, f_n = 0."""
    lam, coef = fold(*biased_amplitude_spectrum(n, w))
    negative = (coef @ _waves(_theta(n, _grid(n)), lam).T < 0).astype(np.int64)  # T_i(r_g) < 0
    values = (negative << np.arange(n + 1, dtype=np.int64)[:, None]).sum(axis=0)
    return np.unique(np.where(values >> n, values ^ ((1 << (n + 1)) - 1), values))


def optimize_batch(n: int, w: int, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row global max of p(r) on [0, n]: grid scan + golden-section refine."""
    grid = _grid(n)
    lam, coef = fold(*biased_amplitude_spectrum(n, w), signs)
    scale = comb(n, w)

    def probability(rs: np.ndarray) -> np.ndarray:  # each function at its own r
        amp = (coef * _waves(_theta(n, rs), lam)).sum(axis=1)
        return scale * amp * amp

    P = scale * (coef @ _waves(_theta(n, grid), lam).T) ** 2  # (F, G)
    best = P.argmax(axis=1)  # leftmost max on ties
    lo = grid[np.maximum(best - 1, 0)]
    hi = grid[np.minimum(best + 1, grid.size - 1)]
    while float(np.max(hi - lo)) > _R_TOL:
        c = hi - _INVPHI * (hi - lo)
        d = lo + _INVPHI * (hi - lo)
        pc = probability(c)
        pd = probability(d)
        move_lo = pd > pc
        lo = np.where(move_lo, c, lo)
        hi = np.where(move_lo, hi, d)
    r = 0.5 * (lo + hi)
    return r, probability(r)


@lru_cache(maxsize=8)
def table_basis(n: int):
    """(search._basis(n), the grid table) as search._cells(n) holds them, built
    and held here so the search cache is left alone."""
    basis = _basis(n)
    return basis, _waves(basis.theta, basis.lam)


def table_batch(n: int, w: int, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (r, p) of exhaustive_search's scan and refinement, one row per
    row of signs: the argmax of p over the grid table (ties keep the
    leftmost), then _refine from there on the table's bracket rows."""
    basis, table = table_basis(n)
    coef = signs @ _spectrum(n, w, basis)
    at = _bracket((comb(n, w) * (coef @ table.T) ** 2).argmax(axis=1))
    return _refine(n, w, basis, coef, at, table[at])


def table_amps(n: int, w: int, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One function's [a_l | b_l] and its amp at the 512 grid points from the
    (G, 2L) cos/sin table, as optimize_r scanned them before the Horner scan."""
    basis, table = table_basis(n)
    coef = signs @ _spectrum(n, w, basis)
    return coef, coef @ table.T


def table_fit(n: int, w: int, signs: np.ndarray) -> tuple[float, float]:
    """optimize_r by the table scan: the argmax of p over the grid table (ties
    keep the leftmost by rounding), then the refinement from that grid point."""
    r, p = table_batch(n, w, signs[None, :])
    return float(r[0]), float(p[0])
