"""The literal golden-section refinement, the reference that search._optimize_batch is checked against."""

import math
from math import comb

import numpy as np

from dickeprep.search import _fold, _grid, _waves
from dickeprep.symstate import biased_amplitude_spectrum

_R_TOL = 1e-8  # golden-section refinement stops at this bracket width in r
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def candidates(n: int, w: int) -> np.ndarray:
    """The sign-rule candidates of exhaustive_search: grid sign patterns, f_n = 0."""
    lam, coef = _fold(*biased_amplitude_spectrum(n, w), np.eye(n + 1))
    negative = (coef @ _waves(n, lam, _grid(n)).T < 0).astype(np.int64)  # T_i(r_g) < 0
    values = (negative << np.arange(n + 1, dtype=np.int64)[:, None]).sum(axis=0)
    return np.unique(np.where(values >> n, values ^ ((1 << (n + 1)) - 1), values))


def optimize_batch(n: int, w: int, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row global max of p(r) on [0, n]: grid scan + golden-section refine."""
    grid = _grid(n)
    lam, coef = _fold(*biased_amplitude_spectrum(n, w), signs)
    scale = comb(n, w)

    def probability(rs: np.ndarray) -> np.ndarray:  # each function at its own r
        amp = (coef * _waves(n, lam, rs)).sum(axis=1)
        return scale * amp * amp

    P = scale * (coef @ _waves(n, lam, grid).T) ** 2  # (F, G)
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
