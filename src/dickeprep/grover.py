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
norm gate of the input's distribution and raises StateError past it.  In
floats the angles (2t+1) theta and (2t+1) psi each carry an error of about
(2t+1) eps, so at large t the result drifts off unit norm; amplify gates
its result too, and sampling reuses that gate.  From (2t+1) theta = 2^52
rad on, the ulp of the phase is 1 rad, so it has no correct bits left, and
amplify refuses such a t before it rotates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UnreachableTargetError, check_size
from .symstate import SymmetricState, success_probability

__all__ = [
    "GroverPlan",
    "amplify",
    "plan_amplification",
    "recommended_iterations",
]

# amplify refuses a phase (2t+1) theta at or past this many radians
MAX_PHASE = 2.0**52


@dataclass(frozen=True)
class GroverPlan:
    """Amplification schedule: theta = arcsin of the initial success amplitude."""

    theta: float
    t: int


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
    initial.distribution  # the norm gate of parity measurement
    p = success_probability(initial, w)
    if p <= 0.0:
        raise UnreachableTargetError(f"target weight {w} has zero amplitude")
    theta = math.asin(min(1.0, math.sqrt(p)))
    return GroverPlan(theta=theta, t=recommended_iterations(theta))


def amplify(initial: SymmetricState, w: int, t: int | None = None) -> SymmetricState:
    """t Grover steps on the initial state as one rotation (t=None: recommended count).

    Raises StateError when the input, or the rotated result, is not a unit
    vector within NORM_ATOL, and ValueError when (2t+1) theta reaches
    MAX_PHASE = 2^52 rad, where the phase has no correct bits.
    """
    if t is not None:
        check_size("t", t, 0)
    plan = plan_amplification(initial, w)
    if t is None:
        t = plan.t
    m = 2 * t + 1
    if m >= MAX_PHASE / plan.theta:  # exact int-float comparison at any t
        raise ValueError(
            f"t={t} puts the Grover phase (2t+1) theta past 2^52 rad "
            f"(theta = {plan.theta:.6g}), where it has no correct bits"
        )
    psi = math.pi / 2 - plan.theta
    off = (-1) ** t * (math.sin(m * psi) / math.sin(psi) if psi > 0.0 else m)
    amps = initial.amps * off
    amps[w] = initial.amps[w] * math.sin(m * plan.theta) / math.sin(plan.theta)
    out = SymmetricState(n=initial.n, amps=amps)
    out.distribution  # the float rotation is off unit norm at large t
    return out
