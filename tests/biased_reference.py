"""The literal log-space biased-DJ table, the reference that symstate.biased_dj_state is checked against."""

import math

import numpy as np

from dickeprep.krawtchouk import column


def _masked_log(x: np.ndarray) -> np.ndarray:
    # log with -inf replaced by a huge negative finite value so that
    # d * log(0) evaluates to 0 when d == 0 and underflows to exp(..) = 0
    # when d > 0, implementing the 0^0 = 1 convention without warnings.
    with np.errstate(divide="ignore"):
        out = np.log(x)
    return np.where(np.isneginf(out), -1e12, out)


def biased_amplitude_table(n: int, k: int, rhos: np.ndarray) -> np.ndarray:
    """Function-independent inner sums of the biased-DJ amplitude at weight k.

    Returns T of shape (n+1, len(rhos)) with
      T[i, g] = 2^{-n/2} sum_j (-1)^j C(k,j) C(n-k,i-j)
                (1-rho_g)^{(n-d)/2} rho_g^{d/2},   d = i+k-2j,
    so the amplitude for a function f is sum_i (-1)^{f_i} T[i].  Logs of the
    exact binomials keep every term finite at any n.
    """
    rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
    if np.any(rhos < 0.0) or np.any(rhos > 1.0):
        raise ValueError("rho values must lie in [0, 1]")
    lr = _masked_log(rhos)
    with np.errstate(divide="ignore"):
        l1r = np.log1p(-rhos)
    l1r = np.where(np.isneginf(l1r), -1e12, l1r)
    log_ck = list(map(math.log, column(0, k)))
    log_cnk = list(map(math.log, column(0, n - k)))
    half_log = 0.5 * n * math.log(2.0)

    T = np.zeros((n + 1, rhos.shape[0]))
    for i in range(n + 1):
        j_lo = max(0, i - (n - k))
        j_hi = min(i, k)
        if j_lo > j_hi:
            continue
        js = np.arange(j_lo, j_hi + 1)
        d = (i + k - 2 * js)[:, None].astype(float)
        base = np.array([log_ck[j] + log_cnk[i - j] for j in js])[:, None] - half_log
        logw = 0.5 * d * lr[None, :] + 0.5 * (n - d) * l1r[None, :]
        terms = np.exp(base + logw)
        terms[js % 2 == 1] *= -1.0
        T[i] = terms.sum(axis=0)
    return T


def biased_amplitudes(signs: np.ndarray, rho: float) -> np.ndarray:
    """The biased-DJ amplitudes a_0..a_n from one table per weight, as synthesis once computed them."""
    n = len(signs) - 1
    return np.array([signs @ biased_amplitude_table(n, k, np.array([rho]))[:, 0]
                     for k in range(n + 1)])
