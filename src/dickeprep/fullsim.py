"""Dense 2^n state-vector oracle for small n.

Ground truth for every symmetric-subspace claim: tensor-product layers of the
(biased) Hadamard, the phase oracle (-1)^{f(x)}, dense Grover oracle and
diffusion, and weight-grouped readout.  Basis convention: bit b of the integer
index is qubit x_{b+1}, so the weight of the index equals wt(x).

Every operator here is a real orthogonal matrix, so a state is 2^n float64
amplitudes, and construction is capped at MAX_QUBITS = 16 qubits (8 B per
amplitude, 512 KiB a state).  A dense state counts as symmetric
when every amplitude lies within 1e-10 of its weight class's mean.

Both dense kernels are arranged for few numpy calls on long 1-D runs, and
give the same bits as the direct forms they replaced.  A tensor layer is n
constant-geometry passes (M. C. Pease, J. ACM 15 (1968) 252): the pairs of
the lowest qubit are the even and odd entries, and writing their two
outputs to the lower and upper half of a second buffer moves that qubit to
the top, so the passes visit qubits 0, 1, ..., n-1 in turn, with the same
products and sums per amplitude as a per-qubit loop over strided views;
a column of the matrix broadcast against the even (odd) entries writes both
halves in one call.  The weight readout gathers the amplitudes by weight
once, with a stable sort, so every class is a contiguous slice in index
order: its mean is the same pairwise sum as over a boolean-mask copy, and
one maximum.reduceat gives every deviation exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ResourceLimitError, StateError, check_bias, check_index, check_size
from .symfunc import SymmetricBooleanFunction
from .symstate import SymmetricState

__all__ = [
    "FullState",
    "MAX_QUBITS",
    "WeightProfile",
    "apply_layer",
    "apply_phase_oracle",
    "biased_dj_output",
    "diffuse_about",
    "flip_weight",
    "from_symmetric",
    "to_symmetric",
    "weight_profile",
    "weights",
    "zero_state",
]

MAX_QUBITS = 16  # the dense-simulation cap
_SYMMETRY_TOL = 1e-10  # largest intra-class deviation of a symmetric state


@dataclass(frozen=True, eq=False)
class FullState:
    """Dense n-qubit state: amps[x] indexed by the integer basis string x."""

    n: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps)
        if amps.dtype.kind == "c":  # casting would drop the imaginary parts
            raise TypeError("amps must be real: every dense operator here is a real matrix")
        amps = np.array(amps, dtype=float)  # one copy
        if amps.shape != (1 << self.n,):
            raise ValueError(f"amps has shape {amps.shape}, expected ({1 << self.n},)")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    def norm(self) -> float:
        return float(np.sum(self.amps * self.amps))


def _check_cap(n: int) -> None:
    if n > MAX_QUBITS:
        raise ResourceLimitError(f"n={n} exceeds the dense-simulation cap {MAX_QUBITS}")


def zero_state(n: int) -> FullState:
    """|0...0> on n qubits, subject to the qubit cap."""
    check_size("n", n, 1)
    _check_cap(n)
    amps = np.zeros(1 << n)
    amps[0] = 1.0
    return FullState(n=n, amps=amps)


@lru_cache(maxsize=32)
def weights(n: int) -> np.ndarray:
    """wt(x) for every basis index x in [0, 2^n), subject to the qubit cap."""
    check_size("n", n, 0)
    _check_cap(n)
    out = np.zeros(1, dtype=np.int64)
    for _ in range(n):  # setting the next bit up adds 1 to every weight so far
        out = np.concatenate((out, out + 1))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def _weight_classes(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Basis indices sorted stably by weight, and each class's start and size.

    Read-only; holds one int64 permutation of 2^n entries (128 KiB at n = 14).
    """
    wt = weights(n)
    order = np.argsort(wt, kind="stable")
    counts = np.bincount(wt, minlength=n + 1)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    for a in (order, starts, counts):
        a.flags.writeable = False
    return order, starts, counts


def _bias_matrix(rho: float) -> np.ndarray:
    return np.array(
        [
            [math.sqrt(1.0 - rho), math.sqrt(rho)],
            [math.sqrt(rho), -math.sqrt(1.0 - rho)],
        ]
    )


def _layer(amps: np.ndarray, n: int, m: np.ndarray) -> np.ndarray:
    """The 2x2 matrix m on every qubit of amps, into a new array.

    Constant-geometry form (Pease 1968): each of the n passes reads the
    pairs of the current lowest qubit as the even and odd entries of the
    source and writes m00 x0 + m01 x1 to the lower half of the other buffer,
    m10 x0 + m11 x1 to the upper half.  That moves the lowest qubit to the
    top, so pass q acts on qubit q and after n passes the order is restored.
    Every amplitude gets the same products and sums, in the same qubit
    order, as a per-qubit loop over (2^(n-q-1), 2, 2^q) views, so the result
    equals that loop's bit for bit.  Each pass is three ufunc calls: a
    column of m broadcast against the even (odd) entries fills both halves
    at once, into one ping-pong pair of buffers and one temporary.
    """
    col0, col1 = m[:, :1], m[:, 1:]
    shape = (2, 1 << (n - 1))
    bufs = (np.empty(shape), np.empty(shape))
    tmp = np.empty(shape)
    src = amps
    for q in range(n):
        dst = bufs[q & 1]
        np.multiply(col0, src[0::2], out=dst)
        np.multiply(col1, src[1::2], out=tmp)
        np.add(dst, tmp, out=dst)
        src = dst.reshape(-1)
    return src


def apply_layer(s: FullState, r: float) -> FullState:
    """B_{r,n} on every qubit; r = n/2 is exactly the Hadamard layer."""
    check_size("n", s.n, 1)
    return FullState(n=s.n, amps=_layer(s.amps, s.n, _bias_matrix(check_bias(r, s.n))))


def apply_phase_oracle(s: FullState, f: SymmetricBooleanFunction) -> FullState:
    """amp_x -> (-1)^{f(wt(x))} amp_x (the auxiliary-qubit form folded into a phase)."""
    if f.n != s.n:
        raise ValueError(f"function n={f.n} does not match state n={s.n}")
    bits = np.array(f.bits, dtype=np.int64)
    sign = 1.0 - 2.0 * bits[weights(s.n)]
    return FullState(n=s.n, amps=s.amps * sign)


def flip_weight(s: FullState, w: int) -> FullState:
    """Grover oracle O_g: negate every amplitude of Hamming weight w."""
    check_index("w", w, s.n)
    sign = np.where(weights(s.n) == w, -1.0, 1.0)
    return FullState(n=s.n, amps=s.amps * sign)


def diffuse_about(s: FullState, psi: FullState) -> FullState:
    """(2|psi><psi| - I) applied to s."""
    if s.n != psi.n:
        raise ValueError(f"state n={s.n} and psi n={psi.n} differ")
    overlap = np.vdot(psi.amps, s.amps)
    return FullState(n=s.n, amps=2.0 * overlap * psi.amps - s.amps)


def biased_dj_output(f: SymmetricBooleanFunction, r: float) -> FullState:
    """B_{r,n} U_f H^n |0..0>: Hadamard layer, phase oracle, bias layer (DJ at r = n/2).

    Bit for bit apply_layer(apply_phase_oracle(apply_layer(zero_state(n), n/2), f), r).
    The Hadamard layer's passes multiply the one nonzero entry of each pair
    by s = sqrt(1/2) and add a zero, so H^n |0..0> is the constant
    fl(...fl(s s)... s) of n factors; the oracle flips its sign by weight;
    the bias layer is apply_layer's kernel.  n, the qubit cap and r are
    checked before any 2^n array.
    """
    n = f.n
    check_size("n", n, 1)
    _check_cap(n)
    rho = check_bias(r, n)
    s = math.sqrt(0.5)
    c = 1.0
    for _ in range(n):
        c *= s
    phased = np.where(np.array(f.bits, dtype=bool), -c, c)[weights(n)]
    return FullState(n=n, amps=_layer(phased, n, _bias_matrix(rho)))


@dataclass(frozen=True)
class WeightProfile:
    """Per-weight readout: class amplitude, intra-class spread, symmetry flag."""

    n: int
    amplitudes: tuple[float, ...]
    deviations: tuple[float, ...]

    @property
    def symmetric(self) -> bool:
        return max(self.deviations) <= _SYMMETRY_TOL

    @property
    def max_deviation(self) -> float:
        return max(self.deviations)


def weight_profile(s: FullState) -> WeightProfile:
    """Group amplitudes by Hamming weight and report the common value per class.

    The class amplitude is the mean over its basis strings; the deviation is
    the largest distance of any member from that mean.  A state is symmetric
    when every deviation is within 1e-10.

    One stable gather by weight (_weight_classes) lays each class out as a
    contiguous slice holding the members of a boolean-mask copy in the same
    order, so each mean is the same pairwise sum; the deviations are one
    maximum.reduceat over all classes, which is exact.  A mean is the
    pairwise np.add.reduce over the slice divided by its size, which is
    what ndarray.mean computes, without its per-call dispatch.
    """
    order, starts, counts = _weight_classes(s.n)
    grouped = s.amps[order]
    means = np.array([np.add.reduce(grouped[a:a + c]) / c
                      for a, c in zip(starts.tolist(), counts.tolist())])
    deviations = np.maximum.reduceat(np.abs(grouped - np.repeat(means, counts)), starts)
    return WeightProfile(n=s.n, amplitudes=tuple(means.tolist()),
                         deviations=tuple(deviations.tolist()))


def from_symmetric(state: SymmetricState) -> FullState:
    """Expand a symmetric state to its dense 2^n vector."""
    _check_cap(state.n)
    return FullState(n=state.n, amps=state.amps[weights(state.n)])


def to_symmetric(s: FullState) -> SymmetricState:
    """Collapse a dense state to weight amplitudes; reject non-symmetric input."""
    profile = weight_profile(s)
    if not profile.symmetric:
        raise StateError(
            f"state is not symmetric: max intra-class deviation {profile.max_deviation:.3g}"
        )
    return SymmetricState(n=s.n, amps=np.array(profile.amplitudes))
