"""Workbench for preparing arbitrary Dicke states |D^n_w>.

Builds the special symmetric Boolean functions whose Walsh spectra peak at a
chosen Hamming weight, synthesizes the corresponding symmetric states through
Deutsch-Jozsa and biased-Hadamard operators, and drives parity measurement and
Grover amplification on top -- all in the (n+1)-amplitude symmetric-subspace
representation, with a dense 2^n simulator as ground truth at small n.
"""

__version__ = "0.1.0"

from .errors import ResourceLimitError, StateError, UnreachableTargetError
from .krawtchouk import (
    abs_column_sum,
    column,
    krawtchouk,
    matrix,
)
from .symfunc import (
    SymmetricBooleanFunction,
    c_of_n,
    c_profile,
    dj_optimal_profile,
    optimal_function,
    reduced_walsh_spectrum,
    spectrum_value,
)
from .symstate import (
    SymmetricState,
    biased_dj_state,
    childs_probability,
    childs_state,
    dicke,
    dj_optimal_success_exact,
    dj_state,
    dj_success_exact,
    parity_measure,
    parity_sample,
    repetitions_until_success,
    success_probability,
)
from .grover import GroverPlan, amplify, plan_amplification, recommended_iterations
from .fullsim import FullState, WeightProfile, weight_profile, zero_state
from .search import RecordStore, SearchRecord, exhaustive_search, optimize_r, table_one

__all__ = [
    "FullState",
    "GroverPlan",
    "RecordStore",
    "ResourceLimitError",
    "SearchRecord",
    "StateError",
    "SymmetricBooleanFunction",
    "SymmetricState",
    "UnreachableTargetError",
    "WeightProfile",
    "abs_column_sum",
    "amplify",
    "biased_dj_state",
    "c_of_n",
    "c_profile",
    "childs_probability",
    "childs_state",
    "column",
    "dicke",
    "dj_optimal_profile",
    "dj_optimal_success_exact",
    "dj_state",
    "dj_success_exact",
    "exhaustive_search",
    "krawtchouk",
    "matrix",
    "optimal_function",
    "optimize_r",
    "parity_measure",
    "parity_sample",
    "plan_amplification",
    "recommended_iterations",
    "reduced_walsh_spectrum",
    "repetitions_until_success",
    "spectrum_value",
    "success_probability",
    "table_one",
    "weight_profile",
    "zero_state",
]
