"""Offline (f, r) search for the biased-DJ preparation.

For a target (n, w) the search finds the symmetric Boolean function f and the
bias r in [0, n] that maximize the success probability
p(f, r) = C(n,w) amp(f, r, w)^2 over all 2^(n+1) functions, without scanning
them.  The amplitude is linear in the per-weight signs, amp = sum_i
(-1)^{f_i} T_i(r) with T independent of f, so at a fixed r the best function
is the sign rule f_i = [T_i(r) < 0] and max_f |amp| = ||T(r)||_1 (the paper's
DJ argument, applied at every bias).  The sign patterns at the points of
the r grid, linspace(0, n, 512), are the candidates; each is then maximized
over r by the same grid followed by golden-section refinement down to a
bracket of 1e-8 in r.  Both values are fixed, because the bound
MAX_EXHAUSTIVE_N below was checked with exactly these.
The winning (f, r, p) records form a small database (JSON lines) that the
actual state-preparation run would consult.  For every w and every
n <= MAX_EXHAUSTIVE_N = 48 the result reaches the maximum over theta of
C(n,w) ||T||_1^2 to 2e-15, and up to n = 13 it equals the full scan's; at
n = 52 the grid first misses a sign pattern, so larger n is refused.

The kernel uses that each weight's inner sum T_i is an exact trigonometric
polynomial in theta, sin^2(theta) = r/n, with integer frequencies
(symstate.biased_amplitude_spectrum).  So one small matrix product per
(n, w) and batch of functions gives every function's Fourier coefficients;
the grid is then one more matrix product, and each golden-section probe
costs one cos/sin evaluation per coefficient.  A function and its
complement have exactly negated coefficients, so they tie bit for bit and
only the member with f_n = 0 is kept.  Mirror pairs also tie exactly:
p(f, r) = p(mirror f, n - r) with mirror f_i = f_{n-i} (complemented when
that sets f_n), but the computed values differ by rounding, so the winner is
relabelled to the member with the lower (function value, r).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from math import comb
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import ResourceLimitError
from .symfunc import SymmetricBooleanFunction, optimal_function
from .symstate import biased_amplitude_spectrum, childs_probability, dj_success_exact

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
_R_TOL = 1e-8  # golden-section refinement stops at this bracket width in r
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "SearchRecord":
        return cls(**json.loads(line))


def _sign_rows(n: int, values: np.ndarray) -> np.ndarray:
    bits = (values[:, None] >> np.arange(n + 1)[None, :]) & 1
    return 1.0 - 2.0 * bits


def _grid(n: int) -> np.ndarray:
    """The r grid: sign patterns are collected and maxima bracketed on it."""
    return np.linspace(0.0, float(n), _GRID_POINTS)


def _waves(n: int, lam: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """[cos(lam theta), sin(lam theta)] per bias r, with sin^2(theta) = r/n."""
    phase = np.arcsin(np.sqrt(rs / n))[:, None] * lam[None, :]
    return np.hstack([np.cos(phase), np.sin(phase)])


def _fold(n: int, w: int, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies lam >= 0 and per-row coefficients: amp = coef . _waves(theta)."""
    lam, C = biased_amplitude_spectrum(n, w)
    A = signs @ C  # per-function Fourier coefficients, amp_f = Re sum A e^{-i theta lam}
    # fold each pair +-l onto l >= 0 (lam ascends, so A[:, ::-1] is at -lam),
    # which halves the cos/sin evaluations
    up = lam >= 0
    mirror = A[:, ::-1][:, up]
    coef = np.hstack([
        A[:, up].real + np.where(lam[up] > 0, mirror.real, 0.0),
        A[:, up].imag - mirror.imag,
    ])
    return lam[up], coef


def _mirror(n: int, value: int) -> int:
    """Value of f_i -> f_{n-i}, complemented when that sets f_n."""
    m = int(format(value, f"0{n + 1}b")[::-1], 2)
    return m ^ ((1 << (n + 1)) - 1) if m >> n else m


def _optimize_batch(n: int, w: int, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row global max of p(r) on [0, n]: grid scan + golden-section refine."""
    grid = _grid(n)
    lam, coef = _fold(n, w, signs)
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


def optimize_r(f: SymmetricBooleanFunction, w: int) -> tuple[float, float]:
    """Best bias for one function: argmax_r p(r) over [0, n] and the value.

    The r grid (ties keep the leftmost point), then golden-section
    refinement of the winning bracket.
    """
    if f.n < 1:
        raise ValueError(f"n={f.n} must be positive")
    if not 0 <= w <= f.n:
        raise ValueError(f"w={w} out of range [0, {f.n}]")
    r, p = _optimize_batch(f.n, w, np.array([f.signs()], dtype=float))
    return float(r[0]), float(p[0])


def _better(a: tuple[float, int, float], b: tuple[float, int, float]) -> bool:
    """Tie-break: higher p, then lower function value, then lower r."""
    return (-a[0], a[1], a[2]) < (-b[0], b[1], b[2])


def exhaustive_search(n: int, w: int) -> SearchRecord:
    """Best (f, r) over all 2^(n+1) symmetric functions at weight w.

    Candidates are the sign-rule functions f_i = [T_i(r) < 0] at the grid
    biases, each refined over r from the same grid; the highest p wins, then
    the lowest function value, and the winner is relabelled to the lower
    (value, r) member of its mirror pair.
    """
    if n > MAX_EXHAUSTIVE_N:
        raise ResourceLimitError(
            f"n={n} exceeds the search bound {MAX_EXHAUSTIVE_N}; past it the "
            "grid sign patterns are not known to reach the optimum"
        )
    if n < 1:
        raise ValueError(f"n={n} must be positive")
    if not 0 <= w <= n:
        raise ValueError(f"w={w} out of range [0, {n}]")
    lam, coef = _fold(n, w, np.eye(n + 1))
    negative = (coef @ _waves(n, lam, _grid(n)).T < 0).astype(np.int64)  # T_i(r_g) < 0
    values = (negative << np.arange(n + 1, dtype=np.int64)[:, None]).sum(axis=0)
    # f and its complement tie bit for bit; keep the member with f_n = 0
    values = np.unique(np.where(values >> n, values ^ ((1 << (n + 1)) - 1), values))
    r, p = _optimize_batch(n, w, _sign_rows(n, values))
    idx = int(np.argmax(p))  # values ascend, so ties keep the lowest value
    value, r_best = min(
        (int(values[idx]), float(r[idx])),
        (_mirror(n, int(values[idx])), n - float(r[idx])),
    )
    f_hex = SymmetricBooleanFunction.from_value(n, value).to_hex()
    return SearchRecord(
        n=n, w=w, f_hex=f_hex, r=r_best, probability=float(p[idx]), method="biased"
    )


def dj_record(n: int, w: int) -> SearchRecord:
    """Unbiased-DJ baseline row: the sign-rule function at bias n/2."""
    f = optimal_function(n, w)
    p = dj_success_exact(f, w)
    return SearchRecord(
        n=n,
        w=w,
        f_hex=f.to_hex(),
        r=n / 2.0,
        probability=p.numerator / p.denominator,
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
    ones appended, matching the offline-database workflow.
    """
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
        line = record.to_json() + "\n"
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line)
            fh.flush()

    def records(self) -> Iterator[SearchRecord]:
        if not self.path.exists():
            return
        with open(self.path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    yield SearchRecord.from_json(line)

    def index(self) -> dict[tuple[int, int], SearchRecord]:
        """Rebuild the (n, w) -> best biased record lookup from the file.

        Baseline rows (method "dj" or "childs") are not search results and
        are left out, so they never stand in for a biased record.
        """
        best: dict[tuple[int, int], SearchRecord] = {}
        for rec in self.records():
            if rec.method != "biased":
                continue
            key = (rec.n, rec.w)
            cur = best.get(key)
            if cur is None or _better(_rank(rec), _rank(cur)):
                best[key] = rec
        return best


def _rank(rec: SearchRecord) -> tuple[float, int, float]:
    value = int(rec.f_hex, 16) if rec.f_hex else (1 << 62)
    return rec.probability, value, rec.r
