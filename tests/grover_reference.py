"""The literal Grover step, the reference that grover.amplify's closed form is checked against."""

from dickeprep.krawtchouk import column
from dickeprep.symstate import SymmetricState


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
