"""Grover amplitude amplification restricted to the symmetric subspace.

The oracle flips the sign of every weight-w basis state (a_w -> -a_w); the
diffusion reflects about the initial state |Psi>.  The dynamics stay in the
2-D span of the target axis and |Psi>, so t steps are one rotation
(Boyer, Brassard, Hoyer, Tapp, Fortschr. Phys. 46 (1998) 493): with
sin(theta) the initial success amplitude and phi = (2t+1) theta,
  a_w -> a_w sin(phi) / sin(theta),
  a_k -> a_k cos(phi) / cos(theta)   for every k != w,
and the success probability is exactly sin^2(phi).  The off-target factor
equals (-1)^t sin((2t+1) psi) / sin(psi) with psi = pi/2 - theta, so it is
bounded by 2t+1 and stays finite for a Dicke input (cos(theta) = 0).  The
rotation holds only for a unit vector, so planning first runs the 1e-8
norm gate of parity measurement and raises StateError past it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UnreachableTargetError
from .krawtchouk import column
from .symstate import SymmetricState, _outcome_distribution, success_probability

__all__ = [
    "GroverPlan",
    "amplify",
    "grover_step",
    "plan_amplification",
    "recommended_iterations",
]


@dataclass(frozen=True)
class GroverPlan:
    """Amplification schedule: theta = arcsin of the initial success amplitude."""

    theta: float
    t: int


def grover_step(s: SymmetricState, initial: SymmetricState, w: int) -> SymmetricState:
    """One application of (2|Psi><Psi| - I) O_g with |Psi> = initial.

    The literal step that amplify's closed form is checked against: flip
    a_w, then map a to 2 <Psi, a>_C Psi - a with <x, y>_C = sum_k C(n,k) x_k y_k.
    """
    if s.n != initial.n:
        raise ValueError(f"state n={s.n} and initial n={initial.n} differ")
    if not 0 <= w <= s.n:
        raise ValueError(f"w={w} out of range [0, {s.n}]")
    a = s.amps.copy()
    a[w] = -a[w]
    psi = initial.amps
    overlap = sum(c * x * y for c, x, y in zip(column(0, s.n), psi.tolist(), a.tolist()))
    return SymmetricState(n=s.n, amps=2.0 * overlap * psi - a)


def recommended_iterations(theta: float) -> int:
    """Iteration count with (2t+1) theta closest to pi/2, never below 0.

    Nearest integer to (pi/(2 theta) - 1)/2; among the two neighbors the one
    maximizing sin^2((2t+1) theta) wins, so an initial probability above 1/2
    yields t = 0 rather than an overshooting flip.
    """
    if not 0.0 < theta <= math.pi / 2:
        raise ValueError(f"theta={theta} out of range (0, pi/2]")
    x = (math.pi / (2.0 * theta) - 1.0) / 2.0
    lo = max(0, math.floor(x))
    candidates = (lo, lo + 1)
    return min(candidates, key=lambda t: (-math.sin((2 * t + 1) * theta) ** 2, t))


def plan_amplification(initial: SymmetricState, w: int) -> GroverPlan:
    """Plan with theta from the actual state and the recommended t.

    Raises StateError when the state is not a unit vector within NORM_ATOL.
    """
    _outcome_distribution(initial)  # the norm gate of parity measurement
    p = success_probability(initial, w)
    if p <= 0.0:
        raise UnreachableTargetError(f"target weight {w} has zero amplitude")
    theta = math.asin(min(1.0, math.sqrt(p)))
    return GroverPlan(theta=theta, t=recommended_iterations(theta))


def amplify(initial: SymmetricState, w: int, t: int | None = None) -> SymmetricState:
    """t Grover steps on the initial state as one rotation (t=None: recommended count)."""
    if t is not None and t < 0:
        raise ValueError(f"t={t} must be non-negative")
    plan = plan_amplification(initial, w)
    if t is None:
        t = plan.t
    m = 2 * t + 1
    psi = math.pi / 2 - plan.theta
    off = (-1) ** t * (math.sin(m * psi) / math.sin(psi) if psi > 0.0 else m)
    amps = initial.amps * off
    amps[w] = initial.amps[w] * math.sin(m * plan.theta) / math.sin(plan.theta)
    return SymmetricState(n=initial.n, amps=amps)
