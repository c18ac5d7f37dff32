import math
from math import comb

import numpy as np
import pytest

from dickeprep import fullsim
from dickeprep.errors import ResourceLimitError, StateError
from dickeprep.symfunc import SymmetricBooleanFunction, optimal_function
from dickeprep.symstate import biased_dj_state, dicke, dj_state


def random_function(n, rng):
    return SymmetricBooleanFunction.from_value(n, int(rng.integers(0, 1 << (n + 1))))


class TestZeroState:
    def test_basic(self):
        s = fullsim.zero_state(3)
        assert s.amps[0] == 1.0
        assert s.norm() == pytest.approx(1.0, abs=0)

    def test_cap(self):
        with pytest.raises(ResourceLimitError, match="cap"):
            fullsim.zero_state(fullsim.DEFAULT_MAX_QUBITS + 1)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(fullsim.MAX_QUBITS_ENV, "4")
        with pytest.raises(ResourceLimitError):
            fullsim.zero_state(5)
        monkeypatch.setenv(fullsim.MAX_QUBITS_ENV, "16")
        assert fullsim.zero_state(16).n == 16
        monkeypatch.setenv(fullsim.MAX_QUBITS_ENV, "junk")
        with pytest.raises(ValueError, match=fullsim.MAX_QUBITS_ENV):
            fullsim.zero_state(3)


class TestApplyLayer:
    def test_hadamard_layer(self):
        n = 5
        s = fullsim.apply_layer(fullsim.zero_state(n), n / 2.0)
        assert np.max(np.abs(s.amps - 2.0 ** (-n / 2))) < 1e-14

    def test_two_qubit_explicit(self):
        s = fullsim.apply_layer(fullsim.zero_state(2), 0.5)
        a, b = math.sqrt(0.75), math.sqrt(0.25)
        assert np.max(np.abs(s.amps - np.array([a * a, a * b, a * b, b * b]))) < 1e-15

    def test_biased_readout_is_binomial(self):
        n, w = 6, 2
        s = fullsim.apply_layer(fullsim.zero_state(n), float(w))
        rho = w / n
        wt = fullsim.weights(n)
        for k in range(n + 1):
            prob = float(np.sum(np.abs(s.amps[wt == k]) ** 2))
            assert prob == pytest.approx(comb(n, k) * rho**k * (1 - rho) ** (n - k), abs=1e-12)

    def test_unitarity(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(1, 10))
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            amps /= np.linalg.norm(amps)
            s = fullsim.FullState(n=n, amps=amps)
            out = fullsim.apply_layer(s, float(rng.uniform(0, n)))
            assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError, match="r="):
            fullsim.apply_layer(fullsim.zero_state(3), 3.5)


class TestPhaseOracle:
    def test_constant_functions(self):
        n = 4
        s = fullsim.apply_layer(fullsim.zero_state(n), n / 2.0)
        zero = SymmetricBooleanFunction(n=n, bits=(0,) * (n + 1))
        assert np.array_equal(fullsim.apply_phase_oracle(s, zero).amps, s.amps)
        one = SymmetricBooleanFunction(n=n, bits=(1,) * (n + 1))
        assert np.array_equal(fullsim.apply_phase_oracle(s, one).amps, -s.amps)

    def test_dj_pipeline_worked_example(self):
        out = fullsim.dj_output(optimal_function(6, 2))
        wt = fullsim.weights(6)
        assert np.max(np.abs(out.amps[wt == 2] - 3 / 16)) < 1e-14

    def test_mismatched_n(self):
        with pytest.raises(ValueError, match="n="):
            fullsim.apply_phase_oracle(fullsim.zero_state(3), optimal_function(4, 1))


class TestWeightProfile:
    def test_dj_outputs_symmetric(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 11))
            profile = fullsim.weight_profile(fullsim.dj_output(random_function(n, rng)))
            assert profile.symmetric
            assert profile.max_deviation <= 1e-10

    def test_biased_outputs_symmetric(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            f = random_function(n, rng)
            r = float(rng.uniform(0, n))
            profile = fullsim.weight_profile(fullsim.biased_dj_output(f, r))
            assert profile.symmetric

    def test_flags_non_symmetric(self):
        n = 3
        amps = np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)
        amps[1] = -amps[1]  # break one weight-1 member
        profile = fullsim.weight_profile(fullsim.FullState(n=n, amps=amps))
        assert not profile.symmetric
        assert profile.deviations[1] > 1e-3
        with pytest.raises(StateError, match="not symmetric"):
            fullsim.to_symmetric(fullsim.FullState(n=n, amps=amps))


class TestAgainstCompactRepresentation:
    def test_biased_pipeline_matches_weight_formula(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            n = int(rng.integers(1, 11))
            f = random_function(n, rng)
            r = float(rng.uniform(0, n))
            dense = fullsim.to_symmetric(fullsim.biased_dj_output(f, r))
            compact = biased_dj_state(f, r)
            assert np.max(np.abs(dense.amps - compact.amps)) < 1e-10

    def test_round_trip_expansion(self):
        s = dj_state(optimal_function(7, 3))
        back = fullsim.to_symmetric(fullsim.from_symmetric(s))
        assert np.max(np.abs(back.amps - s.amps)) < 1e-14

    def test_dicke_expansion(self):
        dense = fullsim.from_symmetric(dicke(5, 2))
        wt = fullsim.weights(5)
        assert np.max(np.abs(dense.amps[wt == 2] - 1 / math.sqrt(10))) < 1e-14
        assert np.max(np.abs(dense.amps[wt != 2])) == 0.0
