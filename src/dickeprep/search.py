"""Offline (f, r) search for the biased-DJ preparation.

For a target (n, w) the search finds the symmetric Boolean function f and the
bias r in [0, n] that maximize the success probability
p(f, r) = C(n,w) amp(f, r, w)^2 over all 2^(n+1) functions, without scanning
them.  The amplitude is linear in the per-weight signs, amp = sum_i
(-1)^{f_i} T_i(r) with T independent of f, so at a fixed r the best function
is the sign rule f_i = [T_i(r) < 0] and max_f |amp| = ||T(r)||_1 (the paper's
DJ argument, applied at every bias).  The sign patterns at the points of
the r grid, linspace(0, n, 512), are the candidates; each is then maximized
over r by the same grid, whose best point brackets the maximum between its
neighbours, followed by Newton's method in theta inside that bracket, run
until its step is a few ulps of theta.  The grid is fixed, because the bound
MAX_EXHAUSTIVE_N below was checked with exactly this grid.
The winning (f, r, p) records form a small database (JSON lines) that the
actual state-preparation run would consult.  For every w and every
n <= MAX_EXHAUSTIVE_N = 48 the result reaches the maximum over theta of
C(n,w) ||T||_1^2 to 2e-15, and up to n = 13 it equals the full scan's; at
n = 52 the grid first misses a sign pattern, so larger n is refused.

The kernel uses that each weight's inner sum T_i is an exact trigonometric
polynomial in theta, sin^2(theta) = r/n, with integer frequencies, whose
coefficients are products of two Krawtchouk numbers (_spectrum).  The
terms at frequencies +-l are conjugate, so the spectrum is built directly
in real form, a cosine and a sine coefficient per frequency l >= 0.  So one
small matrix product per (n, w) and batch of functions gives every
function's Fourier coefficients; the grid is then one more matrix product.
The derivatives of amp are closed-form in the same coefficients, so each
Newton step on p'(theta) = 2 C(n,w) amp amp' costs one cos/sin evaluation
per coefficient, and three or four steps reach the maximum.  Everything
that does not depend on w forms one basis per n (_basis): the float
Krawtchouk rows behind the coefficients, scaled and unscaled, their signs
(-1)^l, the frequencies and their squares, the four phase-sign rows, and the
r grid with its theta.  exhaustive_search, which visits one n at many w,
reads its per-n state from an LRU cache of 8 sizes (_cells): the basis and
the grid table, the cosines and sines at the grid theta, shared by every w
at that n.  So a search cell does only per-weight work, and the bracket of
every grid point is a gather from the grid theta and the table.  Its
n <= MAX_EXHAUSTIVE_N bounds the cache at 1.79 MiB, and every float of its
records is the same whether or not the state was cached.  optimize_r, one
call per (f, w), builds the basis alone, without the table, and leaves the
cache alone.  It finds its one function's grid maximum by Horner's rule on
amp(theta) = Re(e^{i lam_0 theta} sum_l (a_l - i b_l) z^l), z = e^{2i theta}
at the grid angles: L passes of one multiply and one add over the grid, in
place of 512 L cosines and sines.  Its values lie within a stated rounding
bound epsilon of the table's (see optimize_r), and the grid maximum is the
leftmost point whose |amp| lies within 2 epsilon of the largest, so ties
keep the leftmost point under rounding too.  The sign-rule function f_i =
[K_i(w, n) < 0] has p(f, r) = p(f, n - r) for even w, and for odd w when
no K_i(w, n) is zero (then mirror f is f or its complement); of its two
equal mirror peaks the left one is refined.  For odd w with a zero
K_i(w, n) (at even n, K_{n/2}(w, n) = 0) the two peaks differ and the
higher one, which may lie right of n/2, is refined.  From the grid maximum
on, both refine with one _refine: exhaustive_search
gathers each candidate's bracket rows from the table, optimize_r computes
its one row's with _waves, the same bits.  Newton's control runs per row on
Python floats, and each step evaluates the rows still live in one pass of
19 numpy calls, so a row's bits do not depend on its batch.  A
function and its complement have exactly negated coefficients, so they tie
bit for bit and only the member with f_n = 0 is kept.  Mirror pairs also
tie exactly: p(f, r) = p(mirror f, n - r) with mirror f_i = f_{n-i}
(complemented when that sets f_n), but the computed values differ by
rounding, so the winner is relabelled to the member with the lower
(function value, r).
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
from dataclasses import dataclass
from itertools import islice
from json.encoder import encode_basestring_ascii
from math import comb
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ResourceLimitError, check_index, check_size
from .krawtchouk import column, descending_columns
from .symfunc import SymmetricBooleanFunction
from .symstate import childs_probability

__all__ = [
    "MAX_EXHAUSTIVE_N",
    "RecordStore",
    "SearchRecord",
    "childs_record",
    "dj_record",
    "exhaustive_search",
    "optimize_r",
    "table_one",
]

MAX_EXHAUSTIVE_N = 48
_GRID_POINTS = 512  # r grid of every maximization, see _grid
# sizes _cells keeps; only exhaustive_search reads it, so n <= 48 and an entry
# is at most 2 x 25 x 49 Krawtchouk floats, 4 x 49 phase signs, 3 x 25 row
# signs and frequencies, 2 x 512 grid points and a 512 x 50 table:
# 8 x (2 x 25 x 49 + 4 x 49 + 3 x 25 + 2 x 512 + 512 x 50) x 8 B = 1.79 MiB
_BASIS_CACHE = 8
# Newton stops at a step of a few ulps of theta in [0, pi/2]; absolute, so
# bisection toward a root near theta = 0 does not run down into denormals
_THETA_STEP = 4.0 * float(np.spacing(np.pi / 2))
# a stored p may pass 1 by this much: exhaustive_search's largest p at n <= 48,
# every w, is 1 + 2^-51 (n = 3, w = 0)
_P_SLACK = 4 * 2.0**-52


@dataclass(frozen=True)
class SearchRecord:
    """One database row: best bias r and probability for (n, w) and method."""

    n: int
    w: int
    f_hex: str
    r: float
    probability: float
    method: str = "biased"

    def to_json(self) -> str:
        """json.dumps of the fields with sorted keys, the same text built directly."""
        return (f'{{"f_hex": {_json(self.f_hex)}, "method": {_json(self.method)}, '
                f'"n": {_json(self.n)}, "probability": {_json(self.probability)}, '
                f'"r": {_json(self.r)}, "w": {_json(self.w)}}}')

    @classmethod
    def from_json(cls, line: str) -> "SearchRecord":
        return cls(**json.loads(line))


def _json(value: object) -> str:
    """`value` as json.dumps writes it: str, int and finite float without its per-call encoder."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int or (kind is float and math.isfinite(value)):
        return repr(value)
    return json.dumps(value)  # NaN, Infinity, subclasses


def _sign_rows(n: int, values: np.ndarray) -> np.ndarray:
    bits = (values[:, None] >> np.arange(n + 1)[None, :]) & 1
    return 1.0 - 2.0 * bits


def _grid(n: int) -> np.ndarray:
    """The r grid: sign patterns are collected and maxima bracketed on it."""
    return np.linspace(0.0, float(n), _GRID_POINTS)


def _theta(n: int, rs: np.ndarray) -> np.ndarray:
    """The angle of bias r: sin^2(theta) = r/n (0 at n = 0, which has no bias layer)."""
    return np.arcsin(np.sqrt(rs / max(n, 1)))


def _waves(theta: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """[cos(lam theta), sin(lam theta)] per angle theta: (*theta.shape, 2L), row-major."""
    phase = theta[..., None] * lam
    out = np.empty((*theta.shape, 2 * lam.size))
    np.cos(phase, out=out[..., :lam.size])
    np.sin(phase, out=out[..., lam.size:])
    return out


class _Basis(NamedTuple):
    """The per-n state of the kernel, every array read-only (see _basis)."""

    K: np.ndarray  # (L, n+1): K_i(l, n) at l = ceil(n/2) + j
    K_scaled: np.ndarray  # K * 2^-n
    alt: np.ndarray  # (L,): (-1)^l of the same rows
    lam: np.ndarray  # (L,): their frequencies 2l - n, integers
    lam2: np.ndarray  # lam * lam
    phase_signs: np.ndarray  # (4, n+1, 1): row q, entry i is Re (-i)^{q+i}
    grid: np.ndarray  # (G,): the r grid
    theta: np.ndarray  # (G,): _theta on the grid


def _basis(n: int) -> _Basis:
    """Every part of a search at n that does not depend on w, read-only.

    K[j, i] = K_i(l, n) at l = ceil(n/2) + j: the rows l >= n/2 of
    np.array(krawtchouk.columns(n), dtype=float) bit for bit, the only rows
    a spectrum reads.  Only the columns i <= n//2 -- the first half columns
    descending_columns yields -- are converted from exact integers; the
    palindrome K_{n-i}(l, n) = (-1)^l K_i(l, n) fills in the rest by exact
    sign flips, and `+ 0.0` turns a negated zero back into the +0.0 the
    conversion gives.  From n = 1030 the conversion raises OverflowError.
    Next to K it holds what _spectrum, _refine and _slopes would otherwise
    recompute per call, each by the same formula: K 2^-n, the row signs
    (-1)^l, the frequencies lam = 2l - n and lam^2, the phase-sign rows
    Re (-i)^{q+i} of the four classes q = w mod 4 (the sine signs of w are
    the cosine signs of w + 1), the grid and its theta, computed once.
    """
    h = n // 2
    quarter = np.array(list(islice(descending_columns(n), h + 1)), dtype=float)[::-1]
    alt = 1.0 - 2.0 * (np.arange(n - h, n + 1) & 1)  # (-1)^l
    K = np.empty((h + 1, n + 1))
    K[:, :h + 1] = quarter
    K[:, h + 1:] = quarter[:, :n - h][:, ::-1] * alt[:, None] + 0.0
    lam = np.arange(n - 2 * h, n + 1, 2)
    phase = (np.arange(4)[:, None] + np.arange(n + 1)) % 4
    grid = _grid(n)
    basis = _Basis(K=K, K_scaled=K * 2.0 ** -n, alt=alt, lam=lam, lam2=lam * lam,
                   phase_signs=np.array([1.0, 0.0, -1.0, 0.0])[phase, None],
                   grid=grid, theta=_theta(n, grid))
    for a in basis:
        a.flags.writeable = False
    return basis


@functools.lru_cache(maxsize=_BASIS_CACHE)
def _cells(n: int) -> tuple[_Basis, np.ndarray]:
    """exhaustive_search's per-n state: _basis(n) and the grid table, _waves
    at its theta, (G, 2L), read-only.  From n = 1030 _basis raises
    OverflowError, and the cache keeps no entry then."""
    basis = _basis(n)
    table = _waves(basis.theta, basis.lam)
    table.flags.writeable = False
    return basis, table


def _spectrum(n: int, w: int, basis: _Basis) -> np.ndarray:
    """Exact Fourier form of the biased-DJ inner sums T_i(theta) at weight w.

    With sin^2(theta) = r/n the bias layer is B = R(theta) Z, and on the
    symmetric subspace R(theta)^{(x)n} = S exp(-i theta X) S^-1, where
    S = diag(i^m) and X = sum_q X_q.  There H^{(x)n} is the orthonormal
    Krawtchouk matrix and HXH = Z, so with C(n,l) K_w(l) = C(n,w) K_l(w):
      T_i(theta) = Re sum_l (-i)^{w+i} K_i(l, n) K_l(w, n) 2^{-3n/2} e^{-i theta (2l - n)}.
    The terms at l and n - l are conjugates (K_i(n-l) = (-1)^i K_i(l)
    and K_{n-l}(w) = (-1)^w K_l(w)), so T_i is real and the rows l >= n/2
    give it: the frequency lam = 2l - n >= 0 counts twice where lam > 0, and
    the phase (-i)^{w+i} is 1, -i, -1 or i, so each row i has a cosine or
    a sine part only.  Returns T of shape (n+1, 2L), at the frequencies
    lam = n % 2, ..., n of the basis, with
      T_i(theta) = sum_l T[i, l] cos(lam_l theta) + T[i, L+l] sin(lam_l theta).
    Scaled as K_i(l)/2^n times K_l(w)/2^{n/2}, each entry is within a few
    ulps and exact zeros stay 0; from n = 1030 the floats overflow
    (OverflowError, raised by _basis).

    `basis` is _basis(n), which does not depend on w: exhaustive_search
    passes the one _cells holds, so each further w at the same n costs a
    few (n+1)^2/2 elementwise products, and optimize_r builds its own.
    """
    check_index("w", w, n)
    h = n // 2
    # K_l(w, n) for l >= n/2: row w, or (-1)^l K_l(n - w, n) from row n - w
    if w >= n - h:
        K_w = basis.K[w - n + h, n - h:]
    else:
        K_w = basis.K[h - w, n - h:] * basis.alt
    M = basis.K_scaled * (K_w * 2.0 ** (-0.5 * n))[:, None]  # M[j, i] at frequency lam_j
    M[1 - n % 2:] *= 2.0  # every frequency but lam = 0
    # (-i)^{w+i} = cos sign + i sin sign.  T stays column-major, the transpose
    # of M: a row-major copy changes how BLAS rounds the products with it,
    # which moves 41 of the 1128 records at n <= 48 by an ulp and relabels two
    # exact ties at n = 43
    T = np.empty((2 * (h + 1), n + 1)).T
    np.multiply(M.T, basis.phase_signs[w % 4], out=T[:, :h + 1])
    np.multiply(M.T, basis.phase_signs[(w + 1) % 4], out=T[:, h + 1:])
    return T


def _mirror(n: int, value: int) -> int:
    """Value of f_i -> f_{n-i}, complemented when that sets f_n."""
    m = int(format(value, f"0{n + 1}b")[::-1], 2)
    return m ^ ((1 << (n + 1)) - 1) if m >> n else m


def _slopes(basis: _Basis, coef: np.ndarray, c: np.ndarray,
            s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """h = amp amp' and h' = amp'^2 + amp amp'' at each row's own theta.

    c, s = cos(l theta), sin(l theta) at the folded frequencies, one row per
    coefficient row, with any leading axes: amp = sum a c + b s,
    amp' = sum l (b c - a s) and amp'' = -sum l^2 (a c + b s).  Negated
    coefficients give the same h and h' bit for bit.
    """
    L = basis.lam.size
    a, b = coef[:, :L], coef[:, L:]
    even = a * c + b * s
    amp = even.sum(axis=-1)
    d1 = ((b * c - a * s) * basis.lam).sum(axis=-1)
    d2 = -(even * basis.lam2).sum(axis=-1)
    return amp * d1, d1 * d1 + amp * d2


def _bracket(best: np.ndarray) -> np.ndarray:
    """Grid indices of each row's bracket ends lo and hi, then of its start `best`: (3, F).

    An end that ties the refined point keeps its exact r, so the ends come first.
    """
    return np.minimum(np.maximum(best + np.array([[-1], [1], [0]]), 0), _GRID_POINTS - 1)


def _refine(n: int, w: int, basis: _Basis, coef: np.ndarray, at: np.ndarray,
            waves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row global max of p(r) on [0, n] from each row's grid maximum.

    coef holds each row's [a_l | b_l], at is _bracket of the rows' grid
    maxima, and waves (3, F, 2L), which is overwritten, holds _waves at the
    theta of those grid points: the grid table's rows, bit for bit, whether
    gathered or computed.  p rises from the start toward one bracket end;
    only where h = amp amp' changes sign between the two is there a maximum
    inside, the root of h, found by Newton safeguarded with bisection
    (rtsafe, Numerical Recipes 9.4) until a step is _THETA_STEP or less.
    Each row's control runs on Python floats, whose + - * /, abs and
    comparisons are float64's; each step evaluates h and h' of the rows
    still live in one _slopes call, on their rows of coef.  Every reduction
    is along a row, so a row's bits do not depend on the batch it is in.
    p at the result is then compared with p at both bracket ends, so an
    endpoint maximum is kept.
    """
    L = basis.lam.size
    hs, dhs = _slopes(basis, coef, waves[..., :L], waves[..., L:])
    (h_lo, h_hi, h), dh = hs.tolist(), dhs[2].tolist()
    # the rows where h changes sign from the start toward the end p rises to,
    # each with its theta, h, h', bracket [a, b] with h(a) > 0 > h(b) and last
    # two steps
    newton = {}
    for i, (lo, hi, t) in enumerate(zip(*basis.theta[at].tolist())):
        far, h_far = (hi, h_hi[i]) if h[i] > 0 else (lo, h_lo[i])
        if (h[i] > 0 and h_far < 0) or (h[i] < 0 and h_far > 0):
            a, b = min(t, far), max(t, far)
            newton[i] = (t, h[i], dh[i], a, b, b - a, b - a)
    live = list(newton)
    sub = coef if len(live) == len(coef) else coef[live]  # live rows, copied once rows drop
    while live:
        still = []
        for i in live:
            t, h, dh, a, b, dx, dx_old = newton[i]
            step = h / (dh if dh < 0 else -1.0)
            nt = t - step
            # bisect where Newton leaves the bracket, runs downhill in p (h' >= 0)
            # or does not halve the step before last
            if dh >= 0 or nt < a or nt > b or 2.0 * abs(step) > dx_old:
                nt = 0.5 * (a + b)
            dx_old, dx = dx, abs(nt - t)
            newton[i] = (nt, h, dh, a, b, dx, dx_old)
            if dx > _THETA_STEP:  # a NaN step stops too
                still.append(i)
        if not still:
            break
        if len(still) < len(live):
            sub = coef[still]
        live = still
        phase = np.multiply.outer([newton[i][0] for i in live], basis.lam)
        hs, dhs = _slopes(basis, sub, np.cos(phase), np.sin(phase))
        for i, h, dh in zip(live, hs.tolist(), dhs.tolist()):
            t, _, _, a, b, dx, dx_old = newton[i]
            newton[i] = (t, h, dh, t if h > 0 else a, t if h < 0 else b, dx, dx_old)
    rs = basis.grid[at]
    # sin of an array of theta, whose ** 2 is np.square
    rs[2, list(newton)] = n * np.sin([row[0] for row in newton.values()]) ** 2
    waves[2] = _waves(_theta(n, rs[2]), basis.lam)  # the start's waves make way for the result's
    amp = (coef * waves).sum(axis=-1)
    ps = comb(n, w) * amp * amp  # each function at its own r
    pick = ps.argmax(axis=0)
    each = np.arange(at.shape[1])
    return rs[pick, each], ps[pick, each]


def _scan_bound(n: int, coef: np.ndarray) -> float:
    """epsilon of _grid_amps: 6 (n + 2) u sum_l (|a_l| + |b_l|), u = 2^-53 (see optimize_r)."""
    return 6.0 * (n + 2) * 2.0 ** -53 * float(np.abs(coef).sum())


def _grid_amps(basis: _Basis, coef: np.ndarray) -> np.ndarray:
    """amp at every grid theta for one row coef = [a_l | b_l], by Horner.

    amp(theta) = sum_l a_l cos(lam_l theta) + b_l sin(lam_l theta)
    = Re(e^{i lam_0 theta} sum_l (a_l - i b_l) z^l) with z = e^{2i theta},
    since lam_l = lam_0 + 2l.  The sum is L passes of one multiply and one
    add over the grid; the complex accumulator stays here, and the result
    is its real part.
    """
    L = basis.lam.size
    c = coef[:L] - 1j * coef[L:]
    z = np.exp(2j * basis.theta)
    acc = np.full(z.size, c[-1])
    for cl in c[-2::-1]:
        np.multiply(acc, z, out=acc)
        np.add(acc, cl, out=acc)
    if basis.lam[0]:  # odd n: lam_0 = 1
        acc *= np.exp(1j * basis.theta)
    return acc.real.copy()


def optimize_r(f: SymmetricBooleanFunction, w: int) -> tuple[float, float]:
    """Best bias for one function: argmax_r p(r) over [0, n] and the value.

    The grid maximum of |amp| is found without the grid's cos/sin table:
    _grid_amps evaluates amp at the 512 grid angles by Horner in
    z = e^{2i theta}.  To first order in u = 2^-53 its value lies within
    (3n + 5) u S of the exact amp at the grid theta, and the table's within
    (2.58n + 3) u S, where S = sum_l (|a_l| + |b_l|) (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3 and 5: L - 1 complex multiplies
    of error <= sqrt(2) gamma_2 and adds of error <= u, e^{2i theta} within
    2u; the table's arguments lam theta carry n (pi/2) u, its dot products
    gamma_{2L}).  epsilon = 6 (n + 2) u S (_scan_bound) bounds the sum, so
    the two scans differ by at most epsilon, and two grid points of one
    exact |amp| by at most 2 epsilon.  The grid maximum is the leftmost
    point whose |amp| lies within 2 epsilon of the largest, so ties keep the
    leftmost point under rounding too: where p(f, r) = p(f, n - r), as for
    the sign-rule f at even w, or at odd w with no zero K_i(w, n), the left
    one of its two equal mirror peaks, r <= n/2, is refined, where the table
    scan let rounding choose.  Where a zero K_i(w, n) breaks the mirror (odd
    w; at even n, K_{n/2}(w, n) = 0) the higher peak is refined: (n, w) =
    (2, 1) gives r = 1 + 1/sqrt(2), p = 1 - 2e-16.  A lead of more
    than 4 epsilon over the table's runner-up makes both scans pick the same
    point, and then (r, p) is bit for bit the table scan's.  From the grid
    maximum on, _refine refines the one row as it refines a batch of
    exhaustive_search, whose rows' bits do not depend on the batch: Newton's
    method in theta inside the bracket of that grid point, and a bracket end
    at least as high is returned instead, so an endpoint maximum is kept.
    Its bracket rows are _waves at the grid theta, the table's rows bit for
    bit.  One call reads one basis once, so it builds its own, without the
    table, and caches nothing.
    """
    check_size("n", f.n, 1)
    check_index("w", w, f.n)
    basis = _basis(f.n)
    coef = np.array([f.signs()], dtype=float) @ _spectrum(f.n, w, basis)
    amp = np.abs(_grid_amps(basis, coef[0]))
    at = _bracket(np.argmax(amp >= amp.max() - 2.0 * _scan_bound(f.n, coef)))
    r, p = _refine(f.n, w, basis, coef, at, _waves(basis.theta[at], basis.lam))
    return float(r[0]), float(p[0])


def _better(a: tuple[float, int, float], b: tuple[float, int, float]) -> bool:
    """Tie-break: higher p, then lower function value, then lower r."""
    return (-a[0], a[1], a[2]) < (-b[0], b[1], b[2])


def _check_bound(n: int) -> None:
    if n > MAX_EXHAUSTIVE_N:
        raise ResourceLimitError(
            f"n={n} exceeds the search bound {MAX_EXHAUSTIVE_N}; past it the "
            "grid sign patterns are not known to reach the optimum"
        )


def exhaustive_search(n: int, w: int) -> SearchRecord:
    """Best (f, r) over all 2^(n+1) symmetric functions at weight w.

    Candidates are the sign-rule functions f_i = [T_i(r) < 0] at the grid
    biases, from one spectrum of (n, w) on the cached state of n (_cells),
    whose grid table serves the collection and the scan.  The best grid
    point of each candidate (ties keep the leftmost) is the argmax of p over
    the table, one matrix product for all of them, and _refine takes each
    from there, with its bracket rows gathered from the table; the highest
    p wins, then the lowest function value, and the winner is relabelled to
    the lower (value, r) member of its mirror pair.
    """
    _check_bound(n)
    check_size("n", n, 1)
    check_index("w", w, n)
    basis, table = _cells(n)
    T = _spectrum(n, w, basis)
    negative = (T @ table.T < 0).astype(np.int64)  # T_i(r_g) < 0
    values = (negative << np.arange(n + 1, dtype=np.int64)[:, None]).sum(axis=0)
    # f and its complement tie bit for bit; keep the member with f_n = 0, once
    values = np.sort(np.where(values >> n, values ^ ((1 << (n + 1)) - 1), values))
    values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    coef = _sign_rows(n, values) @ T  # each candidate's [a_l | b_l]
    at = _bracket((comb(n, w) * (coef @ table.T) ** 2).argmax(axis=1))  # leftmost max on ties
    r, p = _refine(n, w, basis, coef, at, table[at])
    idx = int(np.argmax(p))  # values ascend, so ties keep the lowest value
    value, r_best = min(
        (int(values[idx]), float(r[idx])),
        (_mirror(n, int(values[idx])), n - float(r[idx])),
    )
    return SearchRecord(
        n=n, w=w, f_hex=format(value, "X"), r=r_best, probability=float(p[idx]), method="biased"
    )


def dj_record(n: int, w: int) -> SearchRecord:
    """Unbiased-DJ baseline row: the sign-rule function at bias n/2.

    One exact column K(w, n) gives both: the function optimal_function(n, w),
    f_i = [K_i(w, n) < 0], and p = dj_optimal_success_exact(n, w) =
    C(n,w) S^2 / 2^(2n) with S = sum_i |K_i(w, n)|, as one correctly rounded
    big-int division, the same float as that of the reduced Fraction.
    """
    check_index("w", w, n)
    col = column(w, n)
    value = sum(1 << i for i, v in enumerate(col) if v < 0)
    s = sum(map(abs, col))
    return SearchRecord(
        n=n,
        w=w,
        f_hex=format(value, "X"),
        r=n / 2.0,
        probability=(comb(n, w) * s * s) / (1 << (2 * n)),
        method="dj",
    )


def childs_record(n: int, w: int) -> SearchRecord:
    """Plain biased-Hadamard baseline row (bias fixed at r = w, no function)."""
    return SearchRecord(
        n=n, w=w, f_hex="", r=float(w), probability=childs_probability(n, w), method="childs"
    )


def table_one(ns: Iterable[int], *, store: "RecordStore | None" = None) -> list[SearchRecord]:
    """Three rows per (n, w), 1 <= w <= n-1: biased search, DJ, baseline.

    With a store, previously computed biased records are reused and fresh
    ones appended, matching the offline-database workflow.  An n past
    MAX_EXHAUSTIVE_N is refused before any search or store access.
    """
    ns = list(ns)
    for n in ns:
        _check_bound(n)
    index = store.index() if store is not None else {}
    rows: list[SearchRecord] = []
    for n in ns:
        for w in range(1, n):
            biased = index.get((n, w))
            if biased is None:
                biased = exhaustive_search(n, w)
                if store is not None:
                    store.append(biased)
            rows.append(biased)
            rows.append(dj_record(n, w))
            rows.append(childs_record(n, w))
    return rows


class RecordStore:
    """Append-only JSON-lines database of SearchRecords with an in-memory index."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def append(self, record: SearchRecord) -> None:
        """Add the record's line, creating the file: one os.write on an O_APPEND descriptor."""
        line = (record.to_json() + "\n").encode("utf-8")
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            while line:  # a regular file takes the whole line; this only guards a short write
                line = line[os.write(fd, line):]
        finally:
            os.close(fd)

    def records(self) -> Iterator[SearchRecord]:
        return (rec for _, rec in self._numbered())

    def _numbered(self) -> Iterator[tuple[int, SearchRecord]]:
        """(line number, record) for each non-blank line of the file."""
        if not self.path.exists():
            return
        with open(self.path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                line = line.strip()
                if line:
                    try:
                        rec = SearchRecord.from_json(line)
                    except (ValueError, TypeError) as exc:  # not JSON, or not the record's fields
                        raise ValueError(f"{self.path} line {number}: not a search record: {exc}") from None
                    yield number, rec

    def index(self) -> dict[tuple[int, int], SearchRecord]:
        """Rebuild the (n, w) -> best biased record lookup from the file.

        Baseline rows (method "dj" or "childs") are not search results and
        are left out, so they never stand in for a biased record.  A biased
        record that no search can have written raises ValueError naming its
        line (`_record_problem`).
        """
        best: dict[tuple[int, int], SearchRecord] = {}
        for number, rec in self._numbered():
            if rec.method != "biased":
                continue
            problem = _record_problem(rec)
            if problem:
                raise ValueError(f"{self.path} line {number}: impossible search record: {problem}")
            key = (rec.n, rec.w)
            cur = best.get(key)
            if cur is None or _better(_rank(rec), _rank(cur)):
                best[key] = rec
        return best


def _record_problem(rec: SearchRecord) -> str | None:
    """What makes a biased record impossible, or None.

    n and w are ints, 1 <= n and 0 <= w <= n; f_hex is the uppercase hex,
    without leading zeros, of a value below 2^(n+1); r is an int or float
    in [0, n] and p one in [0, 1 + _P_SLACK] (NaN and infinities fail the
    comparisons).  Whether p is the probability of (f, r) is not checked.
    """
    n, w, f_hex, r, p = rec.n, rec.w, rec.f_hex, rec.r, rec.probability
    if type(n) is not int or n < 1:
        return f"n={n!r} is not a positive int"
    if type(w) is not int or not 0 <= w <= n:
        return f"w={w!r} is not an int in [0, {n}]"
    if (type(f_hex) is not str or not re.fullmatch(r"0|[1-9A-F][0-9A-F]*", f_hex)
            or int(f_hex, 16).bit_length() > n + 1):
        return f"f_hex={f_hex!r} is not the uppercase hex of a value below 2^{n + 1}"
    if type(r) not in (int, float) or not 0 <= r <= n:
        return f"r={r!r} is not in [0, {n}]"
    if type(p) not in (int, float) or not 0 <= p <= 1 + _P_SLACK:
        return f"probability={p!r} is not in [0, 1]"
    return None


def _rank(rec: SearchRecord) -> tuple[float, int, float]:
    return rec.probability, int(rec.f_hex, 16), rec.r
