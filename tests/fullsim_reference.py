"""The literal per-qubit layer and mask-per-class readout, the references that fullsim.apply_layer and fullsim.weight_profile are checked against."""

import numpy as np

from dickeprep.fullsim import FullState, WeightProfile, _bias_matrix, weights


def apply_layer(amps: np.ndarray, n: int, r: float) -> np.ndarray:
    """B_{r,n} on every qubit of a float or complex amplitude vector, in its dtype.

    r = n/2 is exactly the Hadamard layer.  On a complex vector the bias
    matrix is complex too, so this is the literal complex pipeline.
    """
    if not 0.0 <= r <= n:
        raise ValueError(f"r={r} out of range [0, {n}]")
    m = _bias_matrix(r / n).astype(amps.dtype)
    for q in range(n):
        block = amps.reshape(1 << (n - q - 1), 2, 1 << q)
        new0 = m[0, 0] * block[:, 0, :] + m[0, 1] * block[:, 1, :]
        new1 = m[1, 0] * block[:, 0, :] + m[1, 1] * block[:, 1, :]
        amps = np.stack([new0, new1], axis=1).reshape(-1)
    return amps


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
        mean = float(cls.mean())
        amplitudes.append(mean)
        deviations.append(float(np.max(np.abs(cls - mean))))
    return WeightProfile(n=s.n, amplitudes=tuple(amplitudes), deviations=tuple(deviations))
