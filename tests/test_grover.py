import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from dickeprep import fullsim
from dickeprep.errors import StateError, UnreachableTargetError
from dickeprep.grover import amplify, plan_amplification, recommended_iterations
from dickeprep.symfunc import optimal_function
from dickeprep.symstate import (
    SymmetricState,
    childs_probability_exact,
    childs_state,
    dicke,
    dj_optimal_success_exact,
    dj_state,
    parity_sample,
    repetitions_until_success,
    success_probability,
)

from grover_reference import grover_step


def random_symmetric_state(n, rng):
    amps = rng.normal(size=n + 1)
    norm = math.sqrt(sum(comb(n, k) * a * a for k, a in enumerate(amps)))
    return SymmetricState(n=n, amps=amps / norm)


class TestGroverStep:
    def test_target_axis_is_fixed(self):
        s = dicke(6, 2)
        out = grover_step(s, s, 2)
        assert np.max(np.abs(np.abs(out.amps) - s.amps)) < 1e-12

    def test_one_step_closed_form(self):
        s = dj_state(optimal_function(6, 2))
        out = grover_step(s, s, 2)
        theta = math.asin(math.sqrt(135 / 256))
        assert success_probability(out, 2) == pytest.approx(math.sin(3 * theta) ** 2, abs=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(1, 14))
            s = random_symmetric_state(n, rng)
            init = random_symmetric_state(n, rng)
            out = grover_step(s, init, int(rng.integers(0, n + 1)))
            assert abs(out.probabilities.sum() - 1.0) <= 1e-12

    def test_matches_dense_simulation(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = 8
            s = random_symmetric_state(n, rng)
            init = random_symmetric_state(n, rng)
            w = int(rng.integers(0, n + 1))
            compact = grover_step(s, init, w)
            dense = fullsim.diffuse_about(
                fullsim.flip_weight(fullsim.from_symmetric(s), w),
                fullsim.from_symmetric(init),
            )
            expected = fullsim.to_symmetric(dense)
            assert np.max(np.abs(compact.amps - expected.amps)) < 1e-10

    def test_mismatched_n(self):
        with pytest.raises(ValueError, match="n="):
            grover_step(dicke(4, 1), dicke(5, 1), 1)


class TestRecommendedIterations:
    def test_already_at_target(self):
        assert recommended_iterations(math.pi / 2) == 0

    def test_overshoot_guard(self):
        # initial probability above 1/2: one flip overshoots, stay at 0.
        # (Larger t can sneak closer to odd multiples of pi/2 by wrapping,
        # e.g. sin^2(5 theta) here; the schedule targets pi/2 itself.)
        theta = math.asin(math.sqrt(135 / 256))
        t = recommended_iterations(theta)
        assert t == 0
        assert math.sin(theta) ** 2 > math.sin(3 * theta) ** 2

    def test_small_probability(self):
        # frozen from the closed form: p = 0.01 gives t = 7 and sin^2(15 theta)
        theta = math.asin(math.sqrt(0.01))
        t = recommended_iterations(theta)
        assert t == 7
        assert math.sin(15 * theta) ** 2 == pytest.approx(0.9953444003575992, abs=1e-12)

    def test_always_argmax_of_neighbors(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            theta = float(rng.uniform(1e-3, math.pi / 2))
            t = recommended_iterations(theta)
            val = math.sin((2 * t + 1) * theta) ** 2
            for other in (t - 1, t + 1):
                if other >= 0:
                    assert val >= math.sin((2 * other + 1) * theta) ** 2 - 1e-15

    def test_domain(self):
        with pytest.raises(ValueError, match="theta"):
            recommended_iterations(0.0)
        with pytest.raises(ValueError, match="theta"):
            recommended_iterations(2.0)


class TestAmplify:
    def test_zero_iterations(self):
        s = dj_state(optimal_function(6, 2))
        out = amplify(s, 2, 0)
        assert np.array_equal(out.amps, s.amps)

    def test_plan_invariants(self):
        s = dj_state(optimal_function(8, 3))
        plan = plan_amplification(s, 3)
        assert math.sin(plan.theta) ** 2 == pytest.approx(success_probability(s, 3), abs=1e-12)
        assert plan.t == recommended_iterations(plan.theta)

    def test_recommended_large_case(self):
        # frozen from the closed form: p0 = 0.125275, t = 2, sin^2(5 theta)
        s = dj_state(optimal_function(100, 25))
        plan = plan_amplification(s, 25)
        assert plan.t == 2
        out = amplify(s, 25)
        expected = math.sin(5 * plan.theta) ** 2
        assert success_probability(out, 25) == pytest.approx(expected, abs=1e-10)
        assert success_probability(out, 25) == pytest.approx(0.9443642327775194, abs=1e-9)

    def test_closed_form_random(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            n = int(rng.integers(1, 21))
            s = random_symmetric_state(n, rng)
            w = int(np.argmax(np.abs(s.amps)))
            t = int(rng.integers(0, 11))
            p0 = success_probability(s, w)
            theta = math.asin(min(1.0, math.sqrt(p0)))
            out = amplify(s, w, t)
            assert success_probability(out, w) == pytest.approx(
                math.sin((2 * t + 1) * theta) ** 2, abs=1e-10
            )

    def test_matches_iterated_steps(self):
        # random unit states with both signs of a_w, and states with p0 near 1,
        # where the off-target factor approaches (-1)^t (2t+1): p0 = 1 - 1e-12,
        # and a_0 = 1e-9 beside a_3 = 1/sqrt(20), whose float p0 is exactly 1
        # (theta = pi/2, psi = 0)
        rng = np.random.default_rng(91)
        cases = []
        for _ in range(20):
            n = int(rng.integers(1, 21))
            s = random_symmetric_state(n, rng)
            w = int(rng.integers(0, n + 1))
            flipped = s.amps.copy()
            flipped[w] = -flipped[w]
            cases += [(s, w), (SymmetricState(n=n, amps=flipped), w)]
        near = np.zeros(7)
        near[2] = math.sqrt((1.0 - 1e-12) / comb(6, 2))
        near[5] = math.sqrt(1e-12 / comb(6, 5))
        at_one = np.zeros(7)
        at_one[0] = 1e-9
        at_one[3] = 1.0 / math.sqrt(comb(6, 3))
        cases += [(SymmetricState(n=6, amps=near), 2), (SymmetricState(n=6, amps=at_one), 3)]
        for s, w in cases:
            state = s
            for t in range(11):
                out = amplify(s, w, t)
                assert not np.any(np.isnan(out.amps))
                assert np.max(np.abs(out.amps - state.amps)) <= 1e-12, (s.n, w, t)
                state = grover_step(state, s, w)

    def test_matches_dense_steps(self):
        rng = np.random.default_rng(13)
        n = 8
        for _ in range(5):
            s = random_symmetric_state(n, rng)
            w = int(rng.integers(0, n + 1))
            initial = dense = fullsim.from_symmetric(s)
            for t in range(6):
                expected = fullsim.to_symmetric(dense)
                assert np.max(np.abs(amplify(s, w, t).amps - expected.amps)) < 1e-10, (w, t)
                dense = fullsim.diffuse_about(fullsim.flip_weight(dense, w), initial)

    def test_dicke_input(self):
        # p0 = 1: cos(theta) = 0, and every step maps |D> to -|D>
        for n, w in ((1, 1), (6, 2), (9, 0), (9, 9)):
            d = dicke(n, w)
            for t in range(4):
                out = amplify(d, w, t)
                assert not np.any(np.isnan(out.amps))
                assert np.max(np.abs(out.amps - (-1) ** t * d.amps)) <= 1e-12

    def test_cost_independent_of_t(self):
        # one rotation, so a million steps cost one O(n) pass; the float angle
        # (2t+1) theta carries a rounding error of about (2t+1) eps
        s = dj_state(optimal_function(40, 10))
        theta = plan_amplification(s, 10).theta
        t = 10**6
        out = amplify(s, 10, t)
        tol = (2 * t + 1) * 1e-15
        assert out.probabilities.sum() == pytest.approx(1.0, abs=tol)
        assert success_probability(out, 10) == pytest.approx(
            math.sin((2 * t + 1) * theta) ** 2, abs=tol
        )

    def test_result_off_unit_norm_refused(self):
        # at t = 1e14 the float angles drift apart and the result has norm
        # 1.00095, where the exact success is sin^2(k pi) = 0 (theta = pi/3)
        s = dj_state(optimal_function(3, 1))
        with pytest.raises(StateError, match="state norm 1.00095"):
            amplify(s, 1, 10**14)

    def test_norm_gate(self):
        s = SymmetricState(n=2, amps=[1.0, 1.0, 1.0])
        with pytest.raises(StateError, match="norm"):
            plan_amplification(s, 1)
        with pytest.raises(StateError, match="norm"):
            amplify(s, 1)
        with pytest.raises(StateError, match="norm"):
            amplify(s, 1, 2)

    def test_norm_gate_refuses_nan(self):
        # a NaN norm fails every comparison, so the gate must test for a pass
        s = SymmetricState(n=2, amps=[math.nan] * 3)
        rng = np.random.default_rng(0)
        with pytest.raises(StateError, match="norm"):
            plan_amplification(s, 1)
        with pytest.raises(StateError, match="norm"):
            amplify(s, 1)
        with pytest.raises(StateError, match="norm"):
            parity_sample(s, 10, rng)
        with pytest.raises(StateError, match="norm"):
            repetitions_until_success(s, 1, rng)

    def test_scaling_law(self):
        # t ~ n^(1/4): the ratio t / n^(1/4) stays within a narrow band
        ratios = []
        ts = []
        for n in (16, 81, 256, 625):
            s = dj_state(optimal_function(n, n // 4))
            plan = plan_amplification(s, n // 4)
            ts.append(plan.t)
            ratios.append(plan.t / n**0.25)
        assert ts == sorted(ts)
        assert max(ratios) / min(ratios) < 1.5

    def test_negative_iterations(self):
        with pytest.raises(ValueError, match="t="):
            amplify(dicke(5, 2), 2, -1)

    def test_unreachable(self):
        with pytest.raises(UnreachableTargetError):
            amplify(dicke(5, 2), 3, 1)
        with pytest.raises(UnreachableTargetError):
            plan_amplification(dicke(5, 2), 3)


def exact_success_curve(p, t_max):
    """[sin^2((2t+1) theta) for t = 0..t_max] as Fractions, from sin^2(theta) = p.

    p_t = p V_t^2 with V_-1 = -1, V_0 = 1, V_{m+1} = (2 - 4p) V_m - V_{m-1}:
    V_t = sin((2t+1) theta) / sin(theta) is a polynomial in p.
    """
    prev, cur = Fraction(-1), Fraction(1)
    curve = []
    for _ in range(t_max + 1):
        curve.append(p * cur * cur)
        prev, cur = cur, (2 - 4 * p) * cur - prev
    return curve


class TestExactOracle:
    """amplify against exact rationals for the DJ optimum and the Childs baseline."""

    @staticmethod
    def cases():
        for n in (10, 57, 200, 1029):
            for w in (1, n // 4, n // 2):
                yield n, w, "dj", dj_state(optimal_function(n, w)), dj_optimal_success_exact(n, w)
                yield n, w, "childs", childs_state(n, w), childs_probability_exact(n, w)

    def test_success_and_plan_match_exact(self):
        # worst measured gap 2.6e-14 (childs, n = 1029)
        for n, w, method, state, p in self.cases():
            planned = plan_amplification(state, w).t
            curve = exact_success_curve(p, 2 * planned + 1)
            for t in (0, planned, 2 * planned + 1):
                got = success_probability(amplify(state, w, t), w)
                assert abs(got - float(curve[t])) <= 1e-13, (n, w, method, t)
            first_lobe = curve[: planned + 2]
            assert max(range(planned + 2), key=first_lobe.__getitem__) == planned, (n, w, method)

    def test_later_lobe_can_beat_plan(self):
        # the plan targets the first peak of sin^2((2t+1) theta) only: at
        # (57, 1) the DJ optimum has p = 0.288, t = 0, yet t = 2 reaches 0.642
        curve = exact_success_curve(dj_optimal_success_exact(57, 1), 2)
        assert plan_amplification(dj_state(optimal_function(57, 1)), 1).t == 0
        assert float(curve[2] - curve[0]) == pytest.approx(0.354, abs=1e-3)
