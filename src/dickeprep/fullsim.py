"""Dense 2^n state-vector oracle for small n.

Ground truth for every symmetric-subspace claim: tensor-product layers of the
(biased) Hadamard, the phase oracle (-1)^{f(x)}, dense Grover oracle and
diffusion, and weight-grouped readout.  Basis convention: bit b of the integer
index is qubit x_{b+1}, so the weight of the index equals wt(x).

Memory is 2^n complex amplitudes, so construction is capped (default 14
qubits, overridable only through DICKEPREP_FULLSIM_MAX_QUBITS).  A dense
state counts as symmetric when every amplitude lies within 1e-10 of its
weight class's mean.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ResourceLimitError, StateError
from .symfunc import SymmetricBooleanFunction
from .symstate import SymmetricState

__all__ = [
    "DEFAULT_MAX_QUBITS",
    "FullState",
    "MAX_QUBITS_ENV",
    "WeightProfile",
    "apply_layer",
    "apply_phase_oracle",
    "biased_dj_output",
    "diffuse_about",
    "flip_weight",
    "from_symmetric",
    "max_qubits",
    "to_symmetric",
    "weight_profile",
    "weights",
    "zero_state",
]

DEFAULT_MAX_QUBITS = 14
MAX_QUBITS_ENV = "DICKEPREP_FULLSIM_MAX_QUBITS"
_SYMMETRY_TOL = 1e-10  # largest intra-class deviation of a symmetric state


def max_qubits() -> int:
    """Configured dense-simulation cap (environment override or default)."""
    raw = os.environ.get(MAX_QUBITS_ENV)
    if raw is None:
        return DEFAULT_MAX_QUBITS
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{MAX_QUBITS_ENV}={raw!r} is not an integer") from exc


@dataclass(frozen=True, eq=False)
class FullState:
    """Dense n-qubit state: amps[x] indexed by the integer basis string x."""

    n: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (1 << self.n,):
            raise ValueError(f"amps has shape {amps.shape}, expected ({1 << self.n},)")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    def norm(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))


def _check_cap(n: int) -> None:
    limit = max_qubits()
    if n > limit:
        raise ResourceLimitError(
            f"n={n} exceeds the dense-simulation cap {limit} (raise it via {MAX_QUBITS_ENV})"
        )


def zero_state(n: int) -> FullState:
    """|0...0> on n qubits, subject to the qubit cap."""
    if n < 1:
        raise ValueError(f"n={n} must be positive")
    _check_cap(n)
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    return FullState(n=n, amps=amps)


@lru_cache(maxsize=32)
def weights(n: int) -> np.ndarray:
    """wt(x) for every basis index x in [0, 2^n)."""
    out = np.zeros(1, dtype=np.int64)
    for _ in range(n):  # setting the next bit up adds 1 to every weight so far
        out = np.concatenate((out, out + 1))
    out.flags.writeable = False
    return out


def _bias_matrix(rho: float) -> np.ndarray:
    return np.array(
        [
            [math.sqrt(1.0 - rho), math.sqrt(rho)],
            [math.sqrt(rho), -math.sqrt(1.0 - rho)],
        ],
        dtype=complex,
    )


def apply_layer(s: FullState, r: float) -> FullState:
    """B_{r,n} on every qubit; r = n/2 is exactly the Hadamard layer."""
    if not 0.0 <= r <= s.n:
        raise ValueError(f"r={r} out of range [0, {s.n}]")
    m = _bias_matrix(r / s.n)
    amps = s.amps
    for q in range(s.n):
        block = amps.reshape(1 << (s.n - q - 1), 2, 1 << q)
        new0 = m[0, 0] * block[:, 0, :] + m[0, 1] * block[:, 1, :]
        new1 = m[1, 0] * block[:, 0, :] + m[1, 1] * block[:, 1, :]
        amps = np.stack([new0, new1], axis=1).reshape(-1)
    return FullState(n=s.n, amps=amps)


def apply_phase_oracle(s: FullState, f: SymmetricBooleanFunction) -> FullState:
    """amp_x -> (-1)^{f(wt(x))} amp_x (the auxiliary-qubit form folded into a phase)."""
    if f.n != s.n:
        raise ValueError(f"function n={f.n} does not match state n={s.n}")
    bits = np.array(f.bits, dtype=np.int64)
    sign = 1.0 - 2.0 * bits[weights(s.n)]
    return FullState(n=s.n, amps=s.amps * sign)


def flip_weight(s: FullState, w: int) -> FullState:
    """Grover oracle O_g: negate every amplitude of Hamming weight w."""
    if not 0 <= w <= s.n:
        raise ValueError(f"w={w} out of range [0, {s.n}]")
    sign = np.where(weights(s.n) == w, -1.0, 1.0)
    return FullState(n=s.n, amps=s.amps * sign)


def diffuse_about(s: FullState, psi: FullState) -> FullState:
    """(2|psi><psi| - I) applied to s."""
    if s.n != psi.n:
        raise ValueError(f"state n={s.n} and psi n={psi.n} differ")
    overlap = np.vdot(psi.amps, s.amps)
    return FullState(n=s.n, amps=2.0 * overlap * psi.amps - s.amps)


def biased_dj_output(f: SymmetricBooleanFunction, r: float) -> FullState:
    """B_{r,n} U_f H^n |0..0>: Hadamard layer, phase oracle, bias layer (DJ at r = n/2)."""
    s = zero_state(f.n)
    s = apply_layer(s, f.n / 2.0)
    s = apply_phase_oracle(s, f)
    return apply_layer(s, r)


@dataclass(frozen=True)
class WeightProfile:
    """Per-weight readout: class amplitude, intra-class spread, symmetry flag."""

    n: int
    amplitudes: tuple[complex, ...]
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
    """
    wt = weights(s.n)
    amplitudes = []
    deviations = []
    for k in range(s.n + 1):
        cls = s.amps[wt == k]
        mean = complex(cls.mean())
        amplitudes.append(mean)
        deviations.append(float(np.max(np.abs(cls - mean))))
    return WeightProfile(n=s.n, amplitudes=tuple(amplitudes), deviations=tuple(deviations))


def from_symmetric(state: SymmetricState) -> FullState:
    """Expand a symmetric state to its dense 2^n vector."""
    _check_cap(state.n)
    amps = np.asarray(state.amps, dtype=complex)[weights(state.n)]
    return FullState(n=state.n, amps=amps)


def to_symmetric(s: FullState) -> SymmetricState:
    """Collapse a dense state to weight amplitudes; reject non-symmetric input."""
    profile = weight_profile(s)
    if not profile.symmetric:
        raise StateError(
            f"state is not symmetric: max intra-class deviation {profile.max_deviation:.3g}"
        )
    return SymmetricState(n=s.n, amps=np.array([a.real for a in profile.amplitudes]))
