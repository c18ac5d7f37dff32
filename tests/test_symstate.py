import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from dickeprep import fullsim, symstate
from dickeprep.errors import StateError, UnreachableTargetError
from dickeprep.krawtchouk import abs_column_sum
from dickeprep.symfunc import (
    SymmetricBooleanFunction,
    dj_optimal_profile,
    optimal_function,
    spectrum_value,
)
from dickeprep.symstate import (
    SymmetricState,
    biased_amplitude_spectrum,
    biased_amplitude_table,
    biased_dj_state,
    childs_probability,
    childs_probability_exact,
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


def random_function(n, rng):
    return SymmetricBooleanFunction.from_value(n, int(rng.integers(0, 1 << (n + 1))))


class TestSymmetricState:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SymmetricState(n=3, amps=np.zeros(3))

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="n=-1"):
            SymmetricState(n=-1, amps=[])

    def test_dicke(self):
        s = dicke(6, 2)
        assert abs(s.probabilities.sum() - 1.0) <= 1e-10
        assert success_probability(s, 2) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError, match="w="):
            dicke(4, 5)

    def test_amps_read_only(self):
        s = dicke(4, 1)
        with pytest.raises(ValueError):
            s.amps[0] = 1.0


class TestDJState:
    def test_worked_example(self):
        s = dj_state(optimal_function(6, 2))
        assert s.amps[2] == pytest.approx(3 / 16, abs=0)
        assert abs(s.probabilities.sum() - 1.0) <= 1e-10

    def test_constant_function(self):
        f = SymmetricBooleanFunction(n=5, bits=(0,) * 6)
        s = dj_state(f)
        assert s.amps[0] == 1.0
        assert np.all(s.amps[1:] == 0.0)

    def test_against_dense_oracle(self):
        f = SymmetricBooleanFunction(n=4, bits=(0, 1, 0, 0, 1))
        expected = fullsim.to_symmetric(fullsim.dj_output(f))
        assert np.max(np.abs(dj_state(f).amps - expected.amps)) < 1e-14

    def test_normalization_random(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 13))
            s = dj_state(random_function(n, rng))
            assert abs(s.probabilities.sum() - 1.0) <= 1e-10

    def test_matches_spectrum_values_bitwise(self):
        rng = np.random.default_rng(41)
        for n in range(1, 41):  # even n: the mirror pairs k, n-k meet at k = n/2
            for _ in range(3):
                f = random_function(n, rng)
                expected = [spectrum_value(f, k) / 2**n for k in range(n + 1)]
                assert dj_state(f).amps.tolist() == expected


class TestSuccessProbability:
    def test_worked_example(self):
        s = dj_state(optimal_function(6, 2))
        assert success_probability(s, 2) == pytest.approx(135 / 256, abs=0)

    def test_exact_rational(self):
        assert dj_success_exact(optimal_function(6, 2), 2) == Fraction(135, 256)

    def test_table_row(self):
        s = dj_state(optimal_function(4, 1))
        assert success_probability(s, 1) == pytest.approx(0.5625, abs=1e-12)

    def test_optimal_closed_form(self):
        for n in range(1, 25):
            for w in range(n + 1):
                assert dj_success_exact(optimal_function(n, w), w) == dj_optimal_success_exact(n, w)

    @pytest.mark.parametrize("n", [1, 2, 3, 61, 999, 1000])
    def test_optimal_profile_bitwise(self, n):
        profile = dj_optimal_profile(n)
        assert len(profile) == n + 1
        for w in range(n + 1):
            assert profile[w] == float(dj_optimal_success_exact(n, w)), w

    def test_mirror_symmetry_exact(self):
        for n in range(1, 30):
            for w in range(n // 2 + 1):
                assert dj_optimal_success_exact(n, w) == dj_optimal_success_exact(n, n - w)

    def test_domain_error(self):
        with pytest.raises(ValueError, match="w="):
            success_probability(dicke(4, 1), 5)


class TestChilds:
    def test_values(self):
        assert childs_probability(4, 2) == pytest.approx(0.375, abs=0)
        assert childs_probability(9, 1) == pytest.approx(0.389744, abs=1e-6)
        assert childs_probability(7, 0) == 1.0
        assert childs_probability(7, 7) == 1.0

    def test_exact_form(self):
        assert childs_probability_exact(4, 2) == Fraction(3, 8)
        assert childs_probability_exact(6, 3) == Fraction(20, 64)

    def test_float_matches_exact(self):
        for n in [*range(0, 81), 999]:
            for w in range(n + 1):
                assert childs_probability(n, w) == float(childs_probability_exact(n, w)), (n, w)

    def test_state_matches_probability(self):
        for n, w in ((4, 2), (9, 4), (11, 0), (11, 11)):
            s = childs_state(n, w)
            assert abs(s.probabilities.sum() - 1.0) <= 1e-12
            assert success_probability(s, w) == pytest.approx(childs_probability(n, w), rel=1e-12)

    def test_baseline_band_and_fact1_floor(self):
        # Both preparations stay an order sqrt(n) above zero: probability
        # >= 0.5 sqrt(2/(pi n)) for every weight, n <= 300.  The scaled DJ
        # figure C(n,w) rw^2 sqrt(n)/2^(2n) stays above 0.75 except the lone
        # n=2, w=1 point, where it is exactly sqrt(2)/2.
        for n in range(1, 301):
            band = 0.5 * math.sqrt(2.0 / (math.pi * n))
            sums = {k: abs_column_sum(k, n) for k in range(n // 2 + 1)}
            for w in range(n + 1):
                s = sums[min(w, n - w)]
                dj = comb(n, w) * s * s / (1 << (2 * n))
                figure = dj * math.sqrt(n)
                assert dj >= band, (n, w)
                assert childs_probability(n, w) >= band, (n, w)
                if (n, w) == (2, 1):
                    assert figure == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
                else:
                    assert figure >= 0.75, (n, w)


class TestBiasedDJ:
    def test_reduces_to_dj_at_half(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            n = int(rng.integers(1, 11))
            f = random_function(n, rng)
            b = biased_dj_state(f, n / 2.0)
            assert np.max(np.abs(b.amps - dj_state(f).amps)) < 1e-12

    def test_table_point(self):
        f = SymmetricBooleanFunction.from_hex(4, "02")
        s = biased_dj_state(f, 0.298698)
        assert success_probability(s, 2) == pytest.approx(0.981763, abs=1e-4)

    def test_against_dense_oracle(self):
        f = SymmetricBooleanFunction(n=4, bits=(0, 1, 0, 0, 1))
        expected = fullsim.to_symmetric(fullsim.biased_dj_output(f, 1.3))
        got = biased_dj_state(f, 1.3)
        assert np.max(np.abs(got.amps - expected.amps)) < 1e-12

    def test_normalization_random(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(1, 11))
            f = random_function(n, rng)
            r = float(rng.uniform(0.0, n))
            assert abs(biased_dj_state(f, r).probabilities.sum() - 1.0) <= 1e-10

    def test_endpoint_biases(self):
        # r = 0 and r = n are valid (0^0 = 1 convention)
        f = optimal_function(5, 2)
        for r in (0.0, 5.0):
            s = biased_dj_state(f, r)
            assert abs(s.probabilities.sum() - 1.0) <= 1e-10

    def test_norm_gate(self, monkeypatch):
        # a synthesized state off unit norm is refused, not returned
        table = symstate.biased_amplitude_table
        monkeypatch.setattr(symstate, "biased_amplitude_table",
                            lambda n, k, rhos: 1.0001 * table(n, k, rhos))
        with pytest.raises(StateError, match="state norm"):
            biased_dj_state(optimal_function(6, 2), 1.7)

    def test_bias_domain_error(self):
        f = optimal_function(4, 1)
        with pytest.raises(ValueError, match="r="):
            biased_dj_state(f, 4.5)
        with pytest.raises(ValueError, match="r="):
            biased_dj_state(f, -0.1)


class TestBiasedAmplitudeSpectrum:
    def test_matches_table(self):
        # T[i](theta) = Re sum_l C[i, l] e^{-i theta lam_l}, sin^2(theta) = rho
        rng = np.random.default_rng(37)
        for n in range(31):
            rhos = np.concatenate([[0.0, 1.0], rng.random(3)])
            theta = np.arcsin(np.sqrt(rhos))
            for k in range(n + 1):
                lam, C = biased_amplitude_spectrum(n, k)
                got = (C @ np.exp(-1j * np.outer(lam, theta))).real
                assert np.max(np.abs(got - biased_amplitude_table(n, k, rhos))) <= 1e-13

    def test_frequencies_are_exact_integers(self):
        for n in (0, 1, 6, 33, 64):
            lam, C = biased_amplitude_spectrum(n, n // 3)
            assert lam.dtype.kind == "i"
            assert lam.tolist() == list(range(-n, n + 1, 2))
            assert C.shape == (n + 1, n + 1)

    def test_weight_domain_error(self):
        with pytest.raises(ValueError, match="k="):
            biased_amplitude_spectrum(4, 5)


class TestParityMeasurement:
    def test_dicke_is_deterministic(self):
        rng = np.random.default_rng(1)
        s = dicke(7, 3)
        assert all(parity_measure(s, rng) == 3 for _ in range(20))

    def test_uniform_state_histogram(self):
        n = 4
        s = SymmetricState(n=n, amps=np.full(n + 1, 2.0 ** (-n / 2)))
        expected = np.array([comb(n, k) for k in range(n + 1)]) / 2**n
        rng = np.random.default_rng(42)
        counts = np.bincount(parity_sample(s, 200_000, rng), minlength=n + 1)
        assert np.max(np.abs(counts / 200_000 - expected)) < 5e-3

    def test_example_frequency(self):
        s = dj_state(optimal_function(6, 2))
        rng = np.random.default_rng(7)
        outcomes = parity_sample(s, 100_000, rng)
        assert np.mean(outcomes == 2) == pytest.approx(135 / 256, abs=5e-3)

    def test_probabilities_sum(self):
        s = dj_state(optimal_function(9, 4))
        assert s.probabilities.sum() == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def comb_loop_probabilities(s):
        """The former row source: one math.comb call per weight."""
        return np.array([comb(s.n, k) * float(a) * float(a) for k, a in enumerate(s.amps)])

    def test_probabilities_match_comb_loop_bitwise(self):
        rng = np.random.default_rng(10)
        for n in list(range(0, 65)) + [1029]:
            states = [dicke(n, n // 3), dj_state(optimal_function(n, n // 3))]
            if n:
                states.append(childs_state(n, n // 2))
            for scale in (2.0 ** (-n / 2), 1e-150, 1e-300):  # the first gives norms near 1
                states.append(SymmetricState(n=n, amps=rng.normal(size=n + 1) * scale))
            for s in states:
                got = s.probabilities
                assert got.tobytes() == self.comb_loop_probabilities(s).tobytes(), n

    def test_probabilities_past_float_range_raise(self):
        # C(1030, 515) > 2^1024: the float conversion must raise, never give inf or NaN
        s = SymmetricState(n=1030, amps=np.full(1031, 1e-160))
        with pytest.raises(OverflowError):
            s.probabilities
        with pytest.raises(OverflowError):
            parity_sample(s, 10, np.random.default_rng(0))

    def test_outcome_arrays_cached_read_only(self):
        s = dj_state(optimal_function(9, 4))
        assert s.probabilities is s.probabilities
        assert s.distribution is s.distribution
        for arr in (s.probabilities, s.distribution):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert s.distribution.tobytes() == (s.probabilities / s.probabilities.sum()).tobytes()

    def test_failing_gate_raises_on_every_access(self):
        junk = SymmetricState(n=3, amps=np.array([0.5, 0.1, 0.0, 0.0]))
        for _ in range(3):
            with pytest.raises(StateError, match="state norm"):
                junk.distribution

    def test_unnormalized_rejected(self):
        junk = SymmetricState(n=3, amps=np.array([0.5, 0.1, 0.0, 0.0]))
        rng = np.random.default_rng(0)
        with pytest.raises(StateError):
            parity_measure(junk, rng)
        with pytest.raises(StateError):
            parity_sample(junk, 10, rng)


class TestRepetitions:
    def test_certain_success(self):
        rng = np.random.default_rng(3)
        s = dicke(5, 2)
        assert all(repetitions_until_success(s, 2, rng) == 1 for _ in range(10))

    def test_example_mean(self):
        s = dj_state(optimal_function(6, 2))
        rng = np.random.default_rng(12)
        reps = [repetitions_until_success(s, 2, rng) for _ in range(100_000)]
        assert np.mean(reps) == pytest.approx(256 / 135, abs=0.02)

    def test_geometric_identity_random(self):
        rng = np.random.default_rng(100)
        for _ in range(20):
            n = int(rng.integers(2, 11))
            f = random_function(n, rng)
            s = dj_state(f)
            p = s.probabilities
            w = int(np.argmax(p))  # guarantees p > 0
            mean = np.mean([repetitions_until_success(s, w, rng) for _ in range(40_000)])
            assert mean * p[w] == pytest.approx(1.0, abs=0.02)

    def test_unreachable_target(self):
        s = dicke(5, 2)
        rng = np.random.default_rng(0)
        with pytest.raises(UnreachableTargetError):
            repetitions_until_success(s, 3, rng)
