import math
from math import comb

import numpy as np
import pytest

from dickeprep import fullsim
from dickeprep.errors import ResourceLimitError, StateError
from dickeprep.symfunc import SymmetricBooleanFunction, optimal_function
from dickeprep.symstate import SymmetricState, biased_dj_state, dicke, dj_state

import fullsim_reference


def random_function(n, rng):
    return SymmetricBooleanFunction.from_value(n, int(rng.integers(0, 1 << (n + 1))))


class TestZeroState:
    def test_basic(self):
        s = fullsim.zero_state(3)
        assert s.amps[0] == 1.0
        assert s.norm() == pytest.approx(1.0, abs=0)

    def test_cap(self):
        assert fullsim.MAX_QUBITS == 16
        assert fullsim.zero_state(16).n == 16
        with pytest.raises(ResourceLimitError, match="n=17 exceeds the dense-simulation cap 16"):
            fullsim.zero_state(17)

    def test_cap_patched(self, monkeypatch):
        monkeypatch.setattr(fullsim, "MAX_QUBITS", 4)
        with pytest.raises(ResourceLimitError):
            fullsim.zero_state(5)
        assert fullsim.zero_state(4).n == 4

    def test_environment_ignored(self, monkeypatch):
        # the cap is a constant: no environment variable raises it or breaks it
        monkeypatch.setenv("DICKEPREP_FULLSIM_MAX_QUBITS", "20")
        with pytest.raises(ResourceLimitError, match="cap 16"):
            fullsim.zero_state(17)
        monkeypatch.setenv("DICKEPREP_FULLSIM_MAX_QUBITS", "junk")
        assert fullsim.zero_state(3).n == 3


class TestWeights:
    def test_popcount(self):
        for n in range(13):
            wt = fullsim.weights(n)
            assert wt.dtype == np.int64
            assert wt.tolist() == [bin(x).count("1") for x in range(1 << n)]

    def test_size_checked_before_the_build(self):
        # a negative n is not [0], and past the cap the 2^n build is refused, not started
        for bad in (-1, -40):
            with pytest.raises(ValueError, match=f"n={bad} must be non-negative"):
                fullsim.weights(bad)
        for big in (fullsim.MAX_QUBITS + 1, 40):
            with pytest.raises(ResourceLimitError, match="cap 16"):
                fullsim.weights(big)
        assert len(fullsim.weights(fullsim.MAX_QUBITS)) == 1 << fullsim.MAX_QUBITS

    def test_cached_read_only(self):
        wt = fullsim.weights(7)
        assert fullsim.weights(7) is wt
        with pytest.raises(ValueError):
            wt[0] = 1


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
            amps = rng.normal(size=1 << n)
            amps /= np.linalg.norm(amps)
            s = fullsim.FullState(n=n, amps=amps)
            out = fullsim.apply_layer(s, float(rng.uniform(0, n)))
            assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError, match="r="):
            fullsim.apply_layer(fullsim.zero_state(3), 3.5)

    def test_zero_qubits_refused(self):
        # from_symmetric builds a 0-qubit state; the layer refuses it as zero_state(0) does
        s = fullsim.from_symmetric(SymmetricState(n=0, amps=np.array([1.0])))
        assert s.n == 0
        with pytest.raises(ValueError, match="^n=0 must be positive$"):
            fullsim.zero_state(0)
        with pytest.raises(ValueError, match="^n=0 must be positive$"):
            fullsim.apply_layer(s, 0.0)


class TestPhaseOracle:
    def test_constant_functions(self):
        n = 4
        s = fullsim.apply_layer(fullsim.zero_state(n), n / 2.0)
        zero = SymmetricBooleanFunction(n=n, bits=(0,) * (n + 1))
        assert np.array_equal(fullsim.apply_phase_oracle(s, zero).amps, s.amps)
        one = SymmetricBooleanFunction(n=n, bits=(1,) * (n + 1))
        assert np.array_equal(fullsim.apply_phase_oracle(s, one).amps, -s.amps)

    def test_dj_pipeline_worked_example(self):
        out = fullsim.biased_dj_output(optimal_function(6, 2), 3.0)
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
            profile = fullsim.weight_profile(fullsim.biased_dj_output(random_function(n, rng), n / 2))
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
        amps = np.full(1 << n, 2.0 ** (-n / 2))
        amps[1] = -amps[1]  # break one weight-1 member
        profile = fullsim.weight_profile(fullsim.FullState(n=n, amps=amps))
        assert not profile.symmetric
        assert profile.deviations[1] > 1e-3
        with pytest.raises(StateError, match="not symmetric"):
            fullsim.to_symmetric(fullsim.FullState(n=n, amps=amps))


def bits(values):
    """Exact bit patterns of a float array (or tuple) as int64."""
    return np.asarray(values).view(np.int64)


def exactness_cases():
    """(state, r) for n = 1-14: zero state, Hadamard-then-phase outputs and
    those outputs times per-amplitude factors in (-1, 1), at r in {0, n/2, n, 2 seeded}."""
    rng = np.random.default_rng(20)
    for n in range(1, 15):
        zero = fullsim.zero_state(n)
        oracle = fullsim.apply_phase_oracle(fullsim.apply_layer(zero, n / 2.0),
                                            random_function(n, rng))
        factors = rng.uniform(-1.0, 1.0, 1 << n)
        phased = fullsim.FullState(n=n, amps=oracle.amps * factors)
        rs = [0.0, n / 2.0, float(n), *rng.uniform(0, n, 2).tolist()]
        for s in (zero, oracle, phased):
            for r in rs:
                yield s, r


def assert_same_profile(s):
    new, old = fullsim.weight_profile(s), fullsim_reference.weight_profile(s)
    assert np.array_equal(bits(new.amplitudes), bits(old.amplitudes))
    assert np.array_equal(bits(new.deviations), bits(old.deviations))
    assert new == old


class TestAgainstReferenceKernels:
    """The constant-geometry layer and the one-gather readout equal the
    per-qubit loop and the mask-per-class readout bit for bit."""

    def test_layer_bit_for_bit(self):
        count = 0
        for s, r in exactness_cases():
            new, old = fullsim.apply_layer(s, r), fullsim_reference.apply_layer(s.amps, s.n, r)
            assert np.array_equal(bits(new.amps), bits(old)), (s.n, r)
            count += 1
        assert count == 14 * 3 * 5

    def test_profile_bit_for_bit(self):
        for s, r in exactness_cases():
            assert_same_profile(fullsim.apply_layer(s, r))

    def test_profile_symmetric_and_not(self):
        rng = np.random.default_rng(21)
        for n in (1, 2, 5, 9, 12):
            f = random_function(n, rng)
            symmetric = fullsim.biased_dj_output(f, float(rng.uniform(0, n)))
            flipped = fullsim.flip_weight(symmetric, n // 2)
            amps = rng.normal(size=1 << n)
            psi = fullsim.FullState(n=n, amps=amps / np.linalg.norm(amps))
            diffused = fullsim.diffuse_about(flipped, psi)
            for s in (symmetric, flipped, diffused, fullsim.flip_weight(diffused, 0)):
                assert_same_profile(s)
            assert fullsim.weight_profile(flipped).symmetric
            assert n == 1 or not fullsim.weight_profile(diffused).symmetric

    def test_class_cache_read_only(self):
        order, starts, counts = fullsim._weight_classes(6)
        assert fullsim._weight_classes(6)[0] is order
        assert counts.tolist() == [comb(6, k) for k in range(7)]
        assert starts.tolist() == [sum(counts[:k]) for k in range(7)]
        # stable: each class lists its indices in ascending order, as a mask does
        wt = fullsim.weights(6)
        for k, (a, c) in enumerate(zip(starts, counts)):
            assert order[a:a + c].tolist() == np.flatnonzero(wt == k).tolist()
        for a in (order, starts, counts):
            with pytest.raises(ValueError):
                a[0] = 1


def literal_biased_dj(f, r):
    """Hadamard layer on |0..0>, phase oracle, bias layer: the complex per-qubit pipeline."""
    n = f.n
    zero = np.zeros(1 << n, dtype=complex)
    zero[0] = 1.0
    s = fullsim_reference.apply_layer(zero, n, n / 2.0)
    s = s * (1.0 - 2.0 * np.array(f.bits, dtype=float)[fullsim.weights(n)])
    return fullsim_reference.apply_layer(s, n, r)


class TestBiasedOutputInRealArithmetic:
    """biased_dj_output runs on float64 and equals the real parts of the
    literal complex pipeline bit for bit, whose imaginary parts are all +0.0."""

    @staticmethod
    def assert_literal(f, r):
        out = fullsim.biased_dj_output(f, r)
        literal = literal_biased_dj(f, r)
        assert out.amps.dtype == np.float64
        assert np.array_equal(bits(out.amps), bits(literal.real)), (f.n, r)
        assert not bits(literal.imag).any()  # every imaginary part is +0.0

    def test_bit_for_bit(self):
        rng = np.random.default_rng(22)
        count = 0
        for n in range(1, 15):
            f = random_function(n, rng)
            for r in (0.0, n / 2.0, float(n), *rng.uniform(0, n, 2).tolist()):
                self.assert_literal(f, r)
                count += 1
        assert count == 14 * 5

    def test_bit_for_bit_above_default_cap(self):
        # n = 16, the cap, above the 14 qubits of the other cases
        rng = np.random.default_rng(23)
        f = random_function(16, rng)
        for r in (0.0, 8.0, 16.0, *rng.uniform(0, 16, 2).tolist()):
            self.assert_literal(f, r)

    def test_arguments_checked_before_any_dense_work(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"weights({n}) read before the argument checks")

        monkeypatch.setattr(fullsim, "weights", refuse)
        with pytest.raises(ValueError, match="n=0 must be positive"):
            fullsim.biased_dj_output(SymmetricBooleanFunction(n=0, bits=(0,)), 0.0)
        n = fullsim.MAX_QUBITS + 1
        with pytest.raises(ResourceLimitError, match="cap"):
            fullsim.biased_dj_output(SymmetricBooleanFunction.from_value(n, 1), 1.0)
        for r in (-0.5, 3.5, math.nan):
            with pytest.raises(ValueError, match=r"out of range \[0, 3\]"):
                fullsim.biased_dj_output(SymmetricBooleanFunction.from_value(3, 5), r)

    def test_layer_real_coefficients_equal_complex_ones(self):
        # the float64 layer gives the real parts of the literal complex layer,
        # complex bias matrix included, and that layer keeps +0.0 imaginary parts
        for s, r in exactness_cases():
            new = fullsim.apply_layer(s, r)
            old = fullsim_reference.apply_layer(s.amps.astype(complex), s.n, r)
            assert np.array_equal(bits(new.amps), bits(old.real)), (s.n, r)
            assert not bits(old.imag).any(), (s.n, r)

    def test_complex_amplitudes_refused(self):
        # a cast would drop the imaginary parts, with only a ComplexWarning
        for amps in (np.full(4, 0.5 + 0.0j), [0.5j, 0.5, 0.5, 0.5]):
            with pytest.raises(TypeError, match="must be real"):
                fullsim.FullState(n=2, amps=amps)
        assert fullsim.FullState(n=2, amps=[1, 0, 0, 0]).amps.dtype == np.float64


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
