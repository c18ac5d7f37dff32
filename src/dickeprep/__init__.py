"""Workbench for preparing arbitrary Dicke states |D^n_w>.

Builds the special symmetric Boolean functions whose Walsh spectra peak at a
chosen Hamming weight, synthesizes the corresponding symmetric states through
Deutsch-Jozsa and biased-Hadamard operators, and drives parity measurement and
Grover amplification on top -- all in the (n+1)-amplitude symmetric-subspace
representation, with a dense 2^n simulator as ground truth at small n.
"""

__version__ = "0.1.0"

from . import errors, krawtchouk, symfunc, symstate, grover, fullsim, search
