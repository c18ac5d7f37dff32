"""The literal parity sampler, the reference that symstate.parity_sample is checked against."""

import numpy as np

from dickeprep.symstate import SymmetricState


def parity_sample(s: SymmetricState, trials: int, rng: np.random.Generator) -> np.ndarray:
    """Vector of `trials` independent parity-measurement outcomes."""
    if trials < 0:
        raise ValueError(f"trials={trials} must be non-negative")
    return rng.choice(s.n + 1, size=trials, p=s.distribution)


def parity_measure(s: SymmetricState, rng: np.random.Generator) -> int:
    """Sample one parity-measurement outcome; result k collapses s to |D^n_k>."""
    return int(rng.choice(s.n + 1, p=s.distribution))
