"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints one [criterion N] PASS line on success (run with -s to see
them); a failing criterion fails its test.  Run:

    pytest tests/test_acceptance.py -v -s
"""

import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from dickeprep import fullsim
from dickeprep.grover import amplify
from dickeprep.krawtchouk import abs_column_sum, matrix
from dickeprep.search import exhaustive_search, optimize_r
from dickeprep.symfunc import SymmetricBooleanFunction, c_of_n, optimal_function
from dickeprep.symstate import (
    SymmetricState,
    biased_dj_state,
    childs_probability_exact,
    dj_state,
    dj_success_exact,
    parity_sample,
    repetitions_until_success,
    success_probability,
)

from grover_reference import grover_step
from test_krawtchouk import MATRIX_N5, MATRIX_N6, run_identity_sweep


def ok(num, detail):
    print(f"\n[criterion {num}] PASS - {detail}")


def random_function(n, rng):
    return SymmetricBooleanFunction.from_value(n, int(rng.integers(0, 1 << (n + 1))))


def test_criterion_1_printed_matrices():
    assert matrix(5) == MATRIX_N5
    assert matrix(6) == MATRIX_N6
    ok(1, "Krawtchouk matrices for n=5 and n=6 match the reference values exactly")


def test_criterion_2_identities_to_64():
    run_identity_sweep(64)
    ok(2, "all seven Krawtchouk identities hold exactly for every (i, k) with n <= 64")


def test_criterion_3_middle_column_sums_to_200():
    for n in range(1, 201):
        expected = 1 << ((n + 1) // 2)
        assert abs_column_sum(n // 2, n) == expected
        assert abs_column_sum((n + 1) // 2, n) == expected
    ok(3, "abs column sum at the middle weights equals 2^ceil(n/2) for n <= 200")


def test_criterion_4_worked_example_chain():
    f = optimal_function(6, 2)
    assert f.bits == (0, 0, 1, 1, 1, 0, 0)
    from dickeprep.symfunc import spectrum_value

    assert spectrum_value(f, 2) == 12
    assert dj_success_exact(f, 2) == Fraction(135, 256)
    assert success_probability(dj_state(f), 2) == 0.52734375
    ok(4, "optimal f(6,2), rw=12, and the exact 135/256 success probability")


def test_criterion_5_c_n_landmarks():
    c999 = c_of_n(999)
    c1000 = c_of_n(1000)
    assert c999 == pytest.approx(1.24793, abs=1e-4)
    assert c1000 == pytest.approx(0.797685, abs=1e-5)
    ok(5, f"c(999) = {c999:.6f} and c(1000) = {c1000:.6f}")


# Frozen reference values for n = 4..9, w = 1..n-1: best biased (p, f hex, r),
# the unbiased-DJ probability, and the plain biased-Hadamard baseline.
TABLE_BIASED = {
    (4, 1): (0.833609, "01", 0.468136), (4, 2): (0.981763, "02", 0.298698), (4, 3): (0.833609, "05", 0.468136),
    (5, 1): (0.748304, "03", 1.42458), (5, 2): (0.92852, "02", 0.313077), (5, 3): (0.92852, "05", 0.313077), (5, 4): (0.748304, "16", 3.57542),
    (6, 1): (0.730278, "03", 1.48129), (6, 2): (0.823495, "02", 0.357282), (6, 3): (0.954987, "05", 0.277975),
    (6, 4): (0.823495, "0A", 0.357282), (6, 5): (0.730278, "29", 4.51871),
    (7, 1): (0.704306, "07", 2.44507), (7, 2): (0.754753, "60", 5.93733), (7, 3): (0.907588, "05", 0.27984),
    (7, 4): (0.907588, "0A", 0.27984), (7, 5): (0.754753, "53", 5.93733), (7, 6): (0.704306, "4A", 2.44507),
    (8, 1): (0.698181, "3F", 5.51859), (8, 2): (0.710643, "C0", 6.91248), (8, 3): (0.813922, "BF", 7.69903),
    (8, 4): (0.92625, "A0", 7.74472), (8, 5): (0.813922, "AF", 7.69903), (8, 6): (0.710643, "AC", 6.91248), (8, 7): (0.698181, "AD", 5.51859),
    (9, 1): (0.684842, "0F", 3.4566), (9, 2): (0.651002, "180", 7.86171), (9, 3): (0.76886, "0D", 0.858163),
    (9, 4): (0.884277, "140", 8.7469), (9, 5): (0.884277, "15F", 8.7469), (9, 6): (0.76886, "6A", 0.858153),
    (9, 7): (0.651002, "153", 7.86171), (9, 8): (0.684842, "16A", 3.4566),
}
TABLE_DJ = {
    4: (0.5625, 0.375, 0.5625),
    5: (0.703125, 0.625, 0.625, 0.703125),
    6: (0.585938, 0.527344, 0.3125, 0.527344, 0.585938),
    7: (0.683594, 0.512695, 0.546875, 0.546875, 0.512695, 0.683594),
    8: (0.598145, 0.553711, 0.413574, 0.273438, 0.413574, 0.553711, 0.598145),
    9: (0.672913, 0.430664, 0.415283, 0.492188, 0.492188, 0.415283, 0.430664, 0.672913),
}
TABLE_CHILDS = {
    4: (0.421875, 0.375, 0.421875),
    5: (0.4096, 0.3456, 0.3456, 0.4096),
    6: (0.401878, 0.329218, 0.3125, 0.329218, 0.401878),
    7: (0.396569, 0.318745, 0.293755, 0.293755, 0.318745, 0.396569),
    8: (0.392696, 0.311462, 0.281632, 0.273438, 0.281632, 0.311462, 0.392696),
    9: (0.389744, 0.306102, 0.273129, 0.260182, 0.260182, 0.273129, 0.306102, 0.389744),
}


def test_criterion_6_table_reproduction():
    for n in range(4, 10):
        for w in range(1, n):
            p_ref, f_ref, r_ref = TABLE_BIASED[(n, w)]
            # the exhaustive scan attains the reference probability (the
            # winning hex may be a tied mirror partner, so compare by p)
            rec = exhaustive_search(n, w)
            assert rec.probability == pytest.approx(p_ref, abs=1e-4), (n, w)
            # the reference (f, r) pair itself: optimizing that f recovers
            # the reference bias and probability
            f = SymmetricBooleanFunction.from_hex(n, f_ref)
            r_opt, p_opt = optimize_r(f, w)
            assert r_opt == pytest.approx(r_ref, abs=1e-2), (n, w)
            assert p_opt == pytest.approx(p_ref, abs=1e-4), (n, w)
            # baseline rows
            dj = dj_success_exact(optimal_function(n, w), w)
            assert dj.numerator / dj.denominator == pytest.approx(TABLE_DJ[n][w - 1], abs=1e-6)
            ch = childs_probability_exact(n, w)
            assert ch.numerator / ch.denominator == pytest.approx(TABLE_CHILDS[n][w - 1], abs=1e-6)
    ok(6, "all biased/DJ/baseline values for n = 4..9 at their tolerances")


def test_criterion_7_compact_vs_dense():
    rng = np.random.default_rng(1234)
    worst_state = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 11))
        f = random_function(n, rng)
        r = float(rng.uniform(0.0, n))
        dense = fullsim.weight_profile(fullsim.biased_dj_output(f, r))
        assert dense.symmetric
        compact = biased_dj_state(f, r)
        dev = max(
            abs(dense.amplitudes[k] - compact.amps[k]) for k in range(n + 1)
        )
        worst_state = max(worst_state, dev)
        assert dev < 1e-10, (n, f.to_hex(), r)
    worst_grover = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 11))
        amps = rng.normal(size=n + 1)
        amps /= math.sqrt(sum(comb(n, k) * a * a for k, a in enumerate(amps)))
        s = SymmetricState(n=n, amps=amps)
        amps2 = rng.normal(size=n + 1)
        amps2 /= math.sqrt(sum(comb(n, k) * a * a for k, a in enumerate(amps2)))
        init = SymmetricState(n=n, amps=amps2)
        w = int(rng.integers(0, n + 1))
        compact = grover_step(s, init, w)
        dense = fullsim.to_symmetric(
            fullsim.diffuse_about(
                fullsim.flip_weight(fullsim.from_symmetric(s), w),
                fullsim.from_symmetric(init),
            )
        )
        dev = float(np.max(np.abs(compact.amps - dense.amps)))
        worst_grover = max(worst_grover, dev)
        assert dev < 1e-10
    ok(7, f"dense agreement: biased states {worst_state:.2e}, Grover steps {worst_grover:.2e}")


def test_criterion_8_grover_closed_form():
    rng = np.random.default_rng(4321)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 21))
        amps = rng.normal(size=n + 1)
        amps /= math.sqrt(sum(comb(n, k) * a * a for k, a in enumerate(amps)))
        s = SymmetricState(n=n, amps=amps)
        w = int(np.argmax(np.abs(s.amps)))
        t = int(rng.integers(0, 11))
        theta = math.asin(min(1.0, math.sqrt(success_probability(s, w))))
        iterated = s
        for _ in range(t):
            iterated = grover_step(iterated, s, w)
        simulated = success_probability(iterated, w)
        closed = math.sin((2 * t + 1) * theta) ** 2
        rotated = amplify(s, w, t)
        gap = max(
            abs(simulated - closed),
            abs(success_probability(rotated, w) - closed),
            float(np.max(np.abs(rotated.amps - iterated.amps))),
        )
        worst = max(worst, gap)
        assert gap < 1e-10
    ok(8, f"t literal Grover steps equal sin^2((2t+1) theta) and amplify, worst gap {worst:.2e}")


def test_criterion_9_dominance_curves():
    # exact integer cross-comparison: C(n,w) cancels, so
    # DJ >= baseline  <=>  S_w^2 n^n >= 4^n w^w (n-w)^(n-w)
    for n in (999, 1000):
        n_pow = n**n
        four_pow = 4**n
        sums = {k: abs_column_sum(k, n) for k in range(n // 2 + 1)}
        for w in range(1, n):
            s = sums[min(w, n - w)]
            lhs = s * s * n_pow
            rhs = four_pow * w**w * (n - w) ** (n - w)
            if n == 1000 and w == 500:
                assert lhs == rhs
                dj = comb(n, w) * s * s / (1 << (2 * n))
                ch = childs_probability_exact(n, w)
                assert dj == pytest.approx(ch.numerator / ch.denominator, abs=1e-9)
            else:
                assert lhs > rhs, (n, w)
    for n in range(4, 1001):
        w = n // 4
        s = abs_column_sum(min(w, n - w), n)
        assert s * s * n**n >= 4**n * w**w * (n - w) ** (n - w), n
    ok(9, "DJ >= baseline at n=999/1000 (equality only at w=500, n=1000) and at w=n//4 up to n=1000")


def test_criterion_10_statistics():
    trials = 100_000
    rng = np.random.default_rng(20240915)
    for state in (dj_state(optimal_function(6, 2)), dj_state(optimal_function(9, 4))):
        outcomes = parity_sample(state, trials, rng)
        probs = state.probabilities
        for k in range(state.n + 1):
            freq = float(np.mean(outcomes == k))
            sigma = math.sqrt(probs[k] * (1.0 - probs[k]) / trials)
            assert abs(freq - probs[k]) <= 3.0 * sigma + 1e-12, k
    s = dj_state(optimal_function(6, 2))
    p = success_probability(s, 2)
    reps = [repetitions_until_success(s, 2, rng) for _ in range(trials)]
    product = float(np.mean(reps)) * p
    assert 0.98 <= product <= 1.02
    ok(10, f"parity frequencies within 3 sigma; mean repetitions x p = {product:.4f}")
