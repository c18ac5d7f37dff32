"""Offline exhaustive (f, r) search for the biased-DJ preparation.

For a target (n, w), every one of the 2^(n+1) symmetric Boolean functions is
scanned; for each f the success probability p(r) = C(n,w) amp(f, r, w)^2 is
maximized over the bias r in [0, n] by a dense grid followed by golden-section
refinement.  The winning (f, r, p) records form a small database (JSON lines)
that the actual state-preparation run would consult.

The kernel exploits that the amplitude is linear in the per-weight signs
(-1)^{f_i}, and that each weight's inner sum is an exact trigonometric
polynomial in theta, sin^2(theta) = r/n, with integer frequencies
(symstate.biased_amplitude_spectrum).  So one small matrix product per
(n, w) and batch of functions gives every function's Fourier coefficients;
the 512-point grid is then one more matrix product, and each golden-section
probe costs one cos/sin evaluation per coefficient, with no per-weight table.
A function and its complement have exactly negated coefficients, so they
get bit-identical probabilities and the lowest-value tie-break is exact.
"""

from __future__ import annotations

import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor
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

MAX_EXHAUSTIVE_N = 12
_CHUNK = 1024  # functions per scan chunk; fixed so results never depend on jobs
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


def _waves(n: int, lam: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """[cos(lam theta), sin(lam theta)] per bias r, with sin^2(theta) = r/n."""
    phase = np.arcsin(np.sqrt(rs / n))[:, None] * lam[None, :]
    return np.hstack([np.cos(phase), np.sin(phase)])


def _optimize_batch(
    n: int,
    w: int,
    signs: np.ndarray,
    grid: np.ndarray,
    r_tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row global max of p(r) on [0, n]: grid scan + golden-section refine."""
    lam, C = biased_amplitude_spectrum(n, w)
    A = signs @ C  # per-function Fourier coefficients, amp_f = Re sum A e^{-i theta lam}
    # fold each pair +-l onto l >= 0 (lam ascends, so A[:, ::-1] is at -lam):
    # amp_f(theta) = coef[f] . _waves(theta), half the cos/sin evaluations
    up = lam >= 0
    mirror = A[:, ::-1][:, up]
    coef = np.hstack([
        A[:, up].real + np.where(lam[up] > 0, mirror.real, 0.0),
        A[:, up].imag - mirror.imag,
    ])
    lam = lam[up]
    scale = comb(n, w)

    def probability(rs: np.ndarray) -> np.ndarray:  # each function at its own r
        amp = (coef * _waves(n, lam, rs)).sum(axis=1)
        return scale * amp * amp

    P = scale * (coef @ _waves(n, lam, grid).T) ** 2  # (F, G)
    best = P.argmax(axis=1)  # leftmost max on ties
    lo = grid[np.maximum(best - 1, 0)]
    hi = grid[np.minimum(best + 1, grid.size - 1)]
    while float(np.max(hi - lo)) > r_tol:
        c = hi - _INVPHI * (hi - lo)
        d = lo + _INVPHI * (hi - lo)
        pc = probability(c)
        pd = probability(d)
        move_lo = pd > pc
        lo = np.where(move_lo, c, lo)
        hi = np.where(move_lo, hi, d)
    r = 0.5 * (lo + hi)
    return r, probability(r)


def optimize_r(
    f: SymmetricBooleanFunction,
    w: int,
    *,
    grid_points: int = 512,
    r_tol: float = 1e-8,
) -> tuple[float, float]:
    """Best bias for one function: argmax_r p(r) over [0, n] and the value.

    Dense grid of `grid_points` values (ties keep the leftmost point), then
    golden-section refinement of the winning bracket down to r_tol.
    """
    if not 0 <= w <= f.n:
        raise ValueError(f"w={w} out of range [0, {f.n}]")
    if grid_points < 2:
        raise ValueError(f"grid_points={grid_points} must be at least 2")
    signs = np.array([f.signs()], dtype=float)
    grid = np.linspace(0.0, float(f.n), grid_points)
    r, p = _optimize_batch(f.n, w, signs, grid, r_tol)
    return float(r[0]), float(p[0])


def _scan_chunk(
    n: int,
    w: int,
    start: int,
    stop: int,
    grid: np.ndarray,
    r_tol: float,
) -> tuple[float, int, float]:
    """Best (p, f_value, r) over function values [start, stop)."""
    values = np.arange(start, stop, dtype=np.int64)
    signs = _sign_rows(n, values)
    r, p = _optimize_batch(n, w, signs, grid, r_tol)
    top = float(p.max())
    idx = int(np.nonzero(p == top)[0][0])  # lowest function value on exact ties
    return top, int(values[idx]), float(r[idx])


def _better(a: tuple[float, int, float], b: tuple[float, int, float]) -> bool:
    """Tie-break: higher p, then lower function value, then lower r."""
    return (-a[0], a[1], a[2]) < (-b[0], b[1], b[2])


def exhaustive_search(
    n: int,
    w: int,
    *,
    grid_points: int = 512,
    r_tol: float = 1e-8,
    jobs: int = 1,
    max_n: int | None = None,
) -> SearchRecord:
    """Scan all 2^(n+1) symmetric functions for the best (f, r) at weight w."""
    bound = MAX_EXHAUSTIVE_N if max_n is None else max_n
    if n > bound:
        raise ResourceLimitError(
            f"n={n} exceeds the exhaustive-scan bound {bound}; "
            "raise it with max_n (CLI: --max-n) if you really mean it"
        )
    if not 0 <= w <= n:
        raise ValueError(f"w={w} out of range [0, {n}]")
    if grid_points < 2:
        raise ValueError(f"grid_points={grid_points} must be at least 2")
    grid = np.linspace(0.0, float(n), grid_points)
    total = 1 << (n + 1)
    spans = [(s, min(s + _CHUNK, total)) for s in range(0, total, _CHUNK)]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(
                pool.map(lambda span: _scan_chunk(n, w, *span, grid, r_tol), spans)
            )
    else:
        results = [_scan_chunk(n, w, *span, grid, r_tol) for span in spans]
    best = results[0]
    for cand in results[1:]:  # chunk order is fixed, so the merge is deterministic
        if _better(cand, best):
            best = cand
    p, value, r = best
    f_hex = SymmetricBooleanFunction.from_value(n, value).to_hex()
    return SearchRecord(n=n, w=w, f_hex=f_hex, r=r, probability=p, method="biased")


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


def table_one(
    ns: Iterable[int],
    *,
    grid_points: int = 512,
    jobs: int = 1,
    max_n: int | None = None,
    store: "RecordStore | None" = None,
) -> list[SearchRecord]:
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
                biased = exhaustive_search(
                    n, w, grid_points=grid_points, jobs=jobs, max_n=max_n
                )
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
        self._lock = threading.Lock()

    def append(self, record: SearchRecord) -> None:
        line = record.to_json() + "\n"
        with self._lock:
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
        """Rebuild the (n, w) -> best-record lookup from the file."""
        best: dict[tuple[int, int], SearchRecord] = {}
        for rec in self.records():
            key = (rec.n, rec.w)
            cur = best.get(key)
            if cur is None or _better(_rank(rec), _rank(cur)):
                best[key] = rec
        return best


def _rank(rec: SearchRecord) -> tuple[float, int, float]:
    value = int(rec.f_hex, 16) if rec.f_hex else (1 << 62)
    return rec.probability, value, rec.r
