import ast
import inspect
import math
import tracemalloc
from fractions import Fraction
from math import comb
from operator import mul

import numpy as np
import pytest

from dickeprep import cli, csvio, fullsim, search, symstate
from dickeprep.errors import ResourceLimitError, StateError, UnreachableTargetError
from dickeprep.grover import amplify, plan_amplification
from dickeprep.krawtchouk import abs_column_sum, column, columns
from dickeprep.symfunc import (
    SymmetricBooleanFunction,
    optimal_function,
    reduced_walsh_spectrum,
    spectrum_value,
)
from dickeprep.symstate import (
    SymmetricState,
    biased_dj_state,
    childs_probability,
    childs_probability_exact,
    childs_state,
    curves_columns,
    dicke,
    dj_optimal_success_exact,
    dj_state,
    dj_success_exact,
    parity_measure,
    parity_sample,
    quarter_columns,
    repetitions_until_success,
    success_probability,
)

import certified_reference
import sampler_reference
import search_reference
from biased_reference import biased_amplitude_table, biased_amplitudes
from csv_reference import read_csv
from profile_reference import dj_optimal_profile


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
        expected = fullsim.to_symmetric(fullsim.biased_dj_output(f, 2.0))
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

    @pytest.mark.parametrize("n", [1, 2, 300, 1021, 1022, 1023, 1029])
    def test_amplitudes_are_the_correctly_rounded_ratios(self, n):
        # one conversion of the whole spectrum at n <= 1022, one division per entry past it
        for w in sorted({0, 1, n // 3, n // 2, n}):
            f = optimal_function(n, w)
            expected = np.array([rw / 2**n for rw in reduced_walsh_spectrum(f)])
            assert dj_state(f).amps.tobytes() == expected.tobytes(), w


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


@pytest.mark.parametrize("fn", [optimal_function, dicke, childs_probability, childs_probability_exact,
                                childs_state, dj_optimal_success_exact])
@pytest.mark.parametrize("n,w", [(-1, 0), (-2, -1), (-1, 3)])
def test_negative_n_named_before_w(fn, n, w):
    with pytest.raises(ValueError, match=rf"^n={n} must be non-negative$"):
        fn(n, w)


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
        # past the float range of C(n, n//2) from n = 1030, at sampled w and at the quarter point
        for n in (1029, 1030, 2000):
            for w in sorted({*range(0, n + 1, 23), 1, n // 4, n // 2, n - 1, n}):
                assert childs_probability(n, w) == float(childs_probability_exact(n, w)), (n, w)

    def test_dj_equals_childs_at_half_weight(self):
        # G_{n/2}(z) = (1 - z^2)^(n/2) gives S(n/2, n) = 2^(n/2): both are C(n, n/2) / 2^n
        for n in range(0, 401, 2):
            expected = Fraction(comb(n, n // 2), 1 << n)
            assert dj_optimal_success_exact(n, n // 2) == childs_probability_exact(n, n // 2) == expected, n

    def test_dj_at_least_childs(self):
        # equal at w = 0, n (both 1) and at w = n/2, and nowhere else
        for n in range(201):
            for w in range(n + 1):
                dj, childs = dj_optimal_success_exact(n, w), childs_probability_exact(n, w)
                assert dj >= childs, (n, w)
                assert (dj == childs) == (w in (0, n) or 2 * w == n), (n, w)

    def test_state_matches_probability(self):
        for n, w in ((0, 0), (4, 2), (9, 4), (11, 0), (11, 11)):
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


_U = Fraction(1, 1 << 53)


def gamma(k):
    """gamma_k = k u / (1 - k u) (Higham, Accuracy and Stability, Lemma 3.1)."""
    return k * _U / (1 - k * _U)


def childs_ratio(n, w):
    """childs_probability_exact(n, w) as an unreduced (numerator, denominator)."""
    return comb(n, w) * w**w * (n - w) ** (n - w), n**n


def half_row(n):
    """The binomial half row (C(n, 0), ..., C(n, n//2)) that curves_columns passes to the float paths."""
    return column(0, n)[: n // 2 + 1]


def childs_strings(n):
    """The printed Childs profile at n, from childs_probability per w."""
    return [csvio.fmt(childs_probability(n, w)) for w in range(n + 1)]


def quarter_strings(max_n):
    """The printed Childs quarter slice n = 0..max_n, from childs_probability per n."""
    return [csvio.fmt(childs_probability(n, n // 4)) for n in range(max_n + 1)]


def childs_bounds(n):
    """symstate._childs_float_bounds over the profile k <= n//2 at n."""
    ws = np.arange(n // 2 + 1)
    return symstate._childs_float_bounds(symstate._frexp_ints(half_row(n)), ws, n, symstate._power_table(n))


def quarter_row(max_n):
    """[C(n, n // 4) for n = 0..max_n], exact."""
    return [comb(n, n // 4) for n in range(max_n + 1)]


def quarter_bounds(max_n):
    """symstate._childs_float_bounds over the quarter slice n = 0..max_n."""
    ns = np.arange(max_n + 1)
    return symstate._childs_float_bounds(symstate._frexp_ints(quarter_row(max_n)), ns // 4, ns,
                                        symstate._power_table(max_n))


def inside(lo, hi, num, den):
    """Whether lo <= num / den <= hi, in integers."""
    a, b = float(lo).as_integer_ratio()
    c, d = float(hi).as_integer_ratio()
    return a * den <= num * b and num * d <= c * den


class TestCertifiedChildsStrings:
    """The Childs column of curves_columns and quarter_columns from certified floats."""

    def test_power_table_within_gamma(self):
        m, e = symstate._power_table(3000)
        assert m.shape == e.shape == (3001,)
        assert ((0.5 <= m) & (m < 1.0)).all()
        for v in range(3001):
            got, exact = Fraction(float(m[v])) * 2 ** int(e[v]), v**v  # 0**0 = 1
            assert abs(got - exact) <= gamma(max(v - 1, 0)) * exact, v

    @pytest.mark.parametrize("ns", [range(161), (350, 1000, 1030, 2000)])
    def test_bounds_contain_exact_value(self, ns):
        for n in ns:
            _, lo, hi = childs_bounds(n)
            assert lo.shape == hi.shape == (n // 2 + 1,)
            for w in range(n // 2 + 1):
                assert inside(lo[w], hi[w], *childs_ratio(n, w)), (n, w)

    def test_quarter_bounds_contain_exact_value(self):
        # C(n, n // 4) passes 2^1024 from n = 1270
        _, lo, hi = quarter_bounds(1300)
        for n in range(1301):
            assert inside(lo[n], hi[n], *childs_ratio(n, n // 4)), n

    def test_bounds_cover_every_rounding(self):
        # p~ = C V[w] V[n - w] / V[n] with 0 < w < n rounds C once, V[v] v - 1 times
        # (test_power_table_within_gamma), and makes two products and a division:
        # 1 + (w - 1) + (n - w - 1) + (n - 1) + 3 = 2n + 1 roundings, so each end of [lo, hi] must
        # reach p~ / (1 +- gamma_(2n+1)) whatever the roundings did; at w = 0 and n, p~ = 1 exactly.
        cases = [(n, w, p[w], lo[w], hi[w]) for n in [*range(1, 161), 1030, 2000]
                 for p, lo, hi in [childs_bounds(n)] for w in range(n // 2 + 1)]
        p, lo, hi = quarter_bounds(1300)
        cases += [(n, n // 4, p[n], lo[n], hi[n]) for n in range(1301)]
        for n, w, approx, low, high in cases:
            if w in (0, n):
                assert approx == 1.0 and low <= 1.0 <= high, (n, w)
                continue
            g = gamma(1 + (w - 1) + (n - w - 1) + (n - 1) + 3)
            approx = Fraction(float(approx))
            assert Fraction(float(low)) <= approx / (1 + g) and approx / (1 - g) <= Fraction(float(high)), (n, w)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 40, 161, 350, 1030])
    def test_same_strings_as_exact_profile(self, n):
        assert curves_columns(n)[1] == childs_strings(n)

    def test_quarter_slice_same_strings(self):
        assert quarter_columns(1300)[1] == quarter_strings(1300)
        assert quarter_columns(0)[1] == ["1"]

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 40, 161, 350])
    def test_widened_bounds_fall_back_to_same_strings(self, n, monkeypatch):
        calls = []
        real_probability, real_bounds = symstate.childs_probability, symstate._childs_float_bounds

        def widened(*args):
            p, lo, hi = real_bounds(*args)
            return p, lo * 0.5, hi * 2.0

        def counted(m, w):
            calls.append(w)
            return real_probability(m, w)

        monkeypatch.setattr(symstate, "_childs_float_bounds", widened)
        monkeypatch.setattr(symstate, "childs_probability", counted)
        assert curves_columns(n)[1] == childs_strings(n)
        assert calls == list(range(n // 2 + 1))
        calls.clear()
        assert quarter_columns(n)[1] == quarter_strings(n)
        assert calls == [m // 4 for m in range(n + 1)]

    def test_non_finite_bounds_fall_back(self, monkeypatch):
        real_bounds = symstate._childs_float_bounds
        for bad in (math.nan, math.inf):
            def broken(*args):
                p = real_bounds(*args)[0]
                return p, np.full_like(p, bad), np.full_like(p, bad)

            monkeypatch.setattr(symstate, "_childs_float_bounds", broken)
            assert curves_columns(30)[1] == childs_strings(30)
            assert quarter_columns(30)[1] == quarter_strings(30)

    @pytest.mark.parametrize("n", [1000, 4000])
    def test_few_exact_fallbacks(self, n):
        # at most 1 % of the n//2 + 1 columns (5 at n = 1000, 20 at n = 4000)
        _, lo, hi = childs_bounds(n)
        fallbacks = sum(csvio.fmt(a) != csvio.fmt(b) for a, b in zip(lo.tolist(), hi.tolist()))
        assert np.isfinite(hi).all()
        assert fallbacks <= (n // 2 + 1) // 100

    def test_domain(self):
        with pytest.raises(ValueError, match="n="):
            curves_columns(-1)
        with pytest.raises(ValueError, match="max_n="):
            quarter_columns(-1)


def quarter_dj_strings(max_n):
    """The printed DJ quarter slice n = 0..max_n, from dj_optimal_success_exact per n."""
    return [csvio.fmt(float(dj_optimal_success_exact(n, n // 4))) for n in range(max_n + 1)]


def dj_ratio(n, w):
    """The DJ optimum C(n, w) S(w, n)^2 / 4^n as an unreduced (numerator, denominator)."""
    s = abs_column_sum(w, n)
    return comb(n, w) * s * s, 1 << (2 * n)


_STEP = symstate._QUARTER_STEP  # n per float block of the quarter DJ column


class TestCertifiedQuarterDJ:
    """The DJ column of quarter_columns from float blocks between exact anchors."""

    @staticmethod
    def window_row(xs, h0, middle_row):
        """One row of symstate._window_sums' flat input: the entries xs = X_0, X_1, ... placed for h0, then sum |X_l|."""
        step = symstate._QUARTER_STEP
        lead = middle_row - h0 + step - 1
        return [0] * lead + xs + [0] * (middle_row + step // 2 - 1 + step - lead - len(xs)) + [sum(map(abs, xs))]

    @staticmethod
    def window_sums_exact(xs, h0):
        """S_1 .. S_B of symstate._window_sums for the entries xs (zero past them), exactly.

        kappa_j = (1 + z)^a (1 - z)^b, a = j - j//4 and b = j//4, multiplied out term by term.
        """
        out = []
        for j in range(1, symstate._QUARTER_STEP):
            a, b = j - j // 4, j // 4
            kappa = [sum((-1) ** s * comb(b, s) * comb(a, t - s) for s in range(max(0, t - a), min(b, t) + 1))
                     for t in range(j + 1)]
            ys = [sum(c * xs[i - t] for t, c in enumerate(kappa) if 0 <= i - t < len(xs))
                  for i in range(h0 + symstate._QUARTER_STEP // 2)]
            out.append(sum((2 if 2 * (i - h0) < j else 1 if 2 * (i - h0) == j else 0) * abs(y)
                           for i, y in enumerate(ys)))
        return out

    @staticmethod
    def rounding_down_entries(count):
        """Entries X_0 = 2^59, X_r = 2^60 + d_r - X_(r-1), each within 2^14 of 2^59, whose windows against
        kappa_1 = 1 + z are y_r = 2^60 + d_r, with d_r a multiple of 2^8 (an ulp of 2^60) chosen so that adding
        y_r to the running float sum of y_0 .. y_(r-1) rounds down by as much as it can."""
        xs, p = [1 << 59], 2.0**59
        for _ in range(1, count):
            y = max(range(1 << 60, (1 << 60) + (1 << 14), 1 << 8), key=lambda y: Fraction(p) + y - Fraction(p + y))
            xs.append(y - xs[-1])
            p += y
        return xs

    @pytest.mark.parametrize("flush_exp", [symstate._FLUSH_EXP, -20])
    def test_window_sums_within_dev(self, flush_exp, monkeypatch):
        monkeypatch.setattr(symstate, "_FLUSH_EXP", flush_exp)
        step = symstate._QUARTER_STEP
        tail = step // 2 - 1
        middle_row = step  # the batch's largest anchor is n0 = 2 step
        cases = [(list(column(n0 // 4, n0)[: n0 // 2 + tail + 1]), n0 // 2) for n0 in (0, step, 2 * step)]
        # windows that cancel against kappa_47 = (1 + z)^36 (1 - z)^11: X = (1 + z)^-36 truncated, so the
        # products are about |kappa_47|_1 times S_47 and their rounding is the inner-product term's
        cases.append(([(-1) ** i * comb(35 + i, i) for i in range(middle_row + tail + 1)], middle_row))
        # entries 2^-60 of the largest, flushed at the coarse threshold
        cases.append(([1 << (60 * (i % 2)) for i in range(middle_row + tail + 1)], middle_row))
        # many rows of equal magnitude and no cancellation against kappa_1, summed so that every add rounds
        # down: at j = 1 the error of S~ is about 4 times the windows' and flushed entries' terms, and only the
        # abs-sum term (rows + 3) 1.01 u S~ covers it
        cases.append((self.rounding_down_entries(middle_row + tail + 1), middle_row))
        flat = [v for xs, h0 in cases for v in self.window_row(xs, h0, middle_row)]
        sums, dev, top = symstate._window_sums(flat, middle_row)
        for a, (xs, h0) in enumerate(cases):
            for j, s in enumerate(self.window_sums_exact(xs, h0)):
                assert abs(Fraction(float(sums[a, j])) - Fraction(s, 2 ** int(top[a]))) <= Fraction(float(dev[a, j])), (a, j + 1)

    @pytest.mark.parametrize("flush_exp", [symstate._FLUSH_EXP, -20])
    @pytest.mark.parametrize("ns", [range(1301), range(2040, 2101)], ids=["to1300", "2040-2100"])
    def test_bounds_contain_exact_value(self, ns, flush_exp, monkeypatch):
        # from the anchor n0 = 1728 on, the smallest entries are flushed; a coarse flush threshold
        # flushes entries at every size, so that its term of the bound has to carry them
        monkeypatch.setattr(symstate, "_FLUSH_EXP", flush_exp)
        binoms = quarter_row(ns[-1])
        lo, hi = symstate._quarter_dj_bounds(binoms, symstate._frexp_ints(binoms))
        assert lo.shape == hi.shape == (ns[-1] + 1,)
        for n in ns:
            num, den = dj_ratio(n, n // 4)
            if n % symstate._QUARTER_STEP == 0:  # an anchor: the exact value, correctly rounded
                assert lo[n] == hi[n] == num / den, n
            else:
                assert inside(lo[n], hi[n], num, den), n

    @pytest.mark.parametrize("max_ns", [
        # just below, on and just past the first two anchors after n = 0 at _QUARTER_STEP as set, the least --max-n 4
        (0, 1, 4, _STEP - 1, _STEP, _STEP + 1, 2 * _STEP - 1, 2 * _STEP, 2 * _STEP + 1),
        # every max_n up to 80, the small sweeps that an exact path once served, now from the float blocks
        range(81),
    ], ids=["as-set", "floats-everywhere"])
    def test_same_strings_at_block_edges(self, max_ns):
        want = quarter_dj_strings(3 * _STEP)
        for max_n in max_ns:
            assert quarter_columns(max_n)[0] == want[: max_n + 1], max_n

    def test_widened_bounds_fall_back_to_same_strings(self, monkeypatch):
        calls = []
        real_sum, real_bounds = symstate.abs_column_sum, symstate._quarter_dj_bounds

        def widened(*args):
            lo, hi = real_bounds(*args)
            return lo * 0.5, hi * 2.0

        want = quarter_dj_strings(200)
        monkeypatch.setattr(symstate, "_quarter_dj_bounds", widened)
        monkeypatch.setattr(symstate, "abs_column_sum", lambda k, n: calls.append(n) or real_sum(k, n))
        assert quarter_columns(200)[0] == want
        assert calls == list(range(201))

    def test_few_exact_fallbacks(self, monkeypatch):
        calls = []
        real_sum = symstate.abs_column_sum
        monkeypatch.setattr(symstate, "abs_column_sum", lambda k, n: calls.append(n) or real_sum(k, n))
        quarter_columns(2100)
        # p at n = 8, 9 and 11 (567/1024 = 0.5537109375, ...) lies on a 9-digit rounding boundary,
        # which no interval of nonzero width settles
        assert calls == [8, 9, 11]


def adversarial_bounds(seed):
    """(lo, hi) pairs that probe the 9-digit rounding cells of the certified columns.

    Intervals that straddle a 9-digit half-way point or sit one ulp from it,
    exact half-way floats, values just below and above powers of ten (and
    those rounding up to one), lo == hi, lo = 0, subnormal lo, hi = inf or
    nan, bounds 600 decades apart, and relative widths from 0 to 1e-6.
    """
    rng = np.random.default_rng(seed)
    up, down = (lambda x: np.nextafter(x, math.inf)), (lambda x: np.nextafter(x, -math.inf))
    widths = [0.0, 2.0**-53, 1e-15, 1e-13, 1e-11, 1e-10, 1e-9, 5e-9, 1e-8, 1e-7, 1e-6, *rng.uniform(0, 1e-6, 8)]
    pairs = []

    def around(x):
        # x itself, its neighbours, and widths on either side of it
        pairs.extend([(x, x), (down(x), x), (x, up(x)), (down(x), up(x)), (down(x), down(x)), (up(x), up(x))])
        pairs.extend((x * (1 - w), x) for w in widths[1:])
        pairs.extend((x, x * (1 + w)) for w in widths[1:])
        pairs.extend((x * (1 - w), x * (1 + w)) for w in widths[1:])

    for _ in range(60):  # near half-way points m.5 of random 9-digit m at random decades
        m, d = int(rng.integers(10**8, 10**9)), int(rng.integers(-300, 300))
        around(float(f"{m}.5e{d - 8}"))
    # exact half-way floats: m + 1/2, (10 m + 5) 10^j, and dyadics with 10 significant digits
    for m in rng.integers(10**8, 10**9, 20).tolist():
        around(m + 0.5)
        around(float((10 * m + 5) * 10 ** int(rng.integers(0, 6))))
    for x in (2.0**-13, 2.0**-14, 3 * 2.0**-14, 123456789.5, 999999999.5, 100000000.5):
        around(x)
    for d in [*range(-323, 309, 7), -308, -307, -1, 0, 1, 308]:  # powers of ten, and values rounding to them
        around(float(f"1e{d}"))
        if d < 308:
            around(float(f"9.999999995e{d}"))
            around(float(f"9.9999999949e{d}"))
    for x in 10.0 ** rng.uniform(-320, 300, 200):  # random values at every width
        around(float(x))
    tiny = 5e-324
    pairs += [(0.0, 0.0), (0.0, tiny), (0.0, 1e-300), (0.0, 0.5), (0.0, 1.9), (0.0, 1e300), (-0.0, 0.0)]
    pairs += [(tiny, tiny), (tiny, 2 * tiny), (1e-310, 1e-310), (2.2250738585072014e-308 / 3, 1e-308), (1e-320, 1e-319)]
    pairs += [(lo, bad) for lo in (0.0, tiny, 0.25, 1e300, 1.7e308) for bad in (math.inf, math.nan)]
    pairs += [(math.nan, math.nan), (math.nan, 0.5), (math.inf, math.inf), (1e-300, 1e300), (1.7e308, 1.7976931348623157e308)]
    lo, hi = np.array(pairs).T
    return lo, hi


class TestCertifiedStrings:
    """symstate._certified_strings: the numeric pre-test against the two-format rule alone."""

    @pytest.mark.parametrize("seed", [0, 1, 2026])
    def test_same_texts_and_exact_calls_as_two_format_rule(self, seed):
        lo, hi = adversarial_bounds(seed)
        calls = {"new": [], "reference": []}

        def exact(side):
            def value(j):
                calls[side].append(j)
                return float(j) + 0.125  # unlike any bound's text
            return value

        got = symstate._certified_strings(lo, hi, exact("new"))
        want = certified_reference.certified_strings(lo, hi, exact("reference"))
        assert got == want
        assert calls["new"] == calls["reference"]
        # the set probes both sides: a tenth or more of the values print from their bounds, a tenth or more exactly
        assert len(lo) // 10 < len(calls["new"]) < len(lo) * 9 // 10

    def test_pretest_uses_only_basic_operations(self):
        # products, comparisons, rint and table lookups: no transcendental ufunc, whose bits follow numpy's SIMD dispatch
        tree = ast.parse(inspect.getsource(symstate._certified_strings))
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not names & {"log", "log10", "log2", "log1p", "exp", "exp2", "expm1", "power", "float_power"}
        assert not [node for node in ast.walk(tree) if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)]

    def test_real_columns_same_as_two_format_rule(self):
        for n in (1, 40, 350, 1000, 2000):
            rounded = symstate._frexp_ints(symstate.half_column(0, n))
            bounds = [symstate._dj_float_bounds(n, rounded),
                      symstate._childs_float_bounds(rounded, np.arange(n // 2 + 1), n, symstate._power_table(n))[1:]]
            for lo, hi in bounds:
                calls = []
                got = symstate._certified_strings(lo, hi, lambda j: calls.append(j) or 0.5)
                want_calls = []
                assert got == certified_reference.certified_strings(lo, hi, lambda j: want_calls.append(j) or 0.5)
                assert calls == want_calls


class TestPaperColumns:
    """curves_columns and quarter_columns against the exact references, each value rounded once."""

    @pytest.mark.parametrize("n", [1, 2, 12, 95])
    def test_curves_columns_are_the_exact_references(self, n):
        dj = [csvio.fmt(float(dj_optimal_success_exact(n, w))) for w in range(n + 1)]
        childs = [csvio.fmt(float(childs_probability_exact(n, w))) for w in range(n + 1)]
        assert curves_columns(n) == (dj, childs)

    @pytest.mark.parametrize("n", [0, 1, 95, 1300])
    def test_binomials_rounded_once(self, n, monkeypatch):
        # the DJ and the Childs bounds of each column pair share one rounding of its C(n, k) list
        calls = []
        real = symstate._frexp_ints
        monkeypatch.setattr(symstate, "_frexp_ints", lambda values: calls.append(list(values)) or real(values))
        curves_columns(n)
        assert calls.count(list(half_row(n))) == 1
        calls.clear()
        quarter_columns(n)
        assert calls.count(quarter_row(n)) == 1

    @pytest.mark.parametrize("max_n", [4, 159])
    def test_quarter_columns_are_the_exact_references(self, max_n):
        ns = range(max_n + 1)
        dj = [csvio.fmt(float(dj_optimal_success_exact(n, n // 4))) for n in ns]
        childs = [csvio.fmt(float(childs_probability_exact(n, n // 4))) for n in ns]
        assert quarter_columns(max_n) == (dj, childs)


class TestBiasedDJ:
    def test_reduces_to_dj_at_half(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            n = int(rng.integers(1, 41))
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
        # r = 0 and r = n are valid (0^0 = 1 convention) and exact: the bias
        # layer is Z at r = 0, so a_k = (-1)^k s_k 2^{-n/2}, and X at r = n,
        # so a_k = s_{n-k} 2^{-n/2}.  n = 0 has no qubit to bias: a_0 = s_0
        f = optimal_function(5, 2)
        for r in (0.0, 5.0):
            s = biased_dj_state(f, r)
            assert abs(s.probabilities.sum() - 1.0) <= 1e-10
        rng = np.random.default_rng(47)
        for n in range(41):
            f = random_function(n, rng)
            s = np.array(f.signs(), dtype=float)
            alt = (-1.0) ** np.arange(n + 1)
            assert np.array_equal(biased_dj_state(f, 0.0).amps, alt * s * 2.0 ** (-n / 2))
            assert np.array_equal(biased_dj_state(f, float(n)).amps, s[::-1] * 2.0 ** (-n / 2))

    def test_matches_log_space_reference(self):
        # every weight, n <= 30, against the per-weight log-space table
        rng = np.random.default_rng(43)
        for n in range(1, 31):
            for r in (0.0, float(n), *rng.uniform(0.0, n, 2)):
                f = random_function(n, rng)
                expected = biased_amplitudes(np.array(f.signs(), dtype=float), r / n)
                got = biased_dj_state(f, r).amps
                assert np.max(np.abs(got - expected)) <= 1e-13, (n, r)

    def test_norm_gate(self, monkeypatch):
        # a synthesized state off unit norm is refused, not returned
        rows = symstate._power_rows
        monkeypatch.setattr(symstate, "_power_rows", lambda a, b, n: 1.0001 * rows(a, b, n))
        with pytest.raises(StateError, match="state norm"):
            biased_dj_state(optimal_function(6, 2), 1.7)

    def test_bias_domain_error(self):
        f = optimal_function(4, 1)
        with pytest.raises(ValueError, match="r="):
            biased_dj_state(f, 4.5)
        with pytest.raises(ValueError, match="r="):
            biased_dj_state(f, -0.1)


def pythagorean_rows(n, a, c):
    """Integer coefficients of (a - b z)^k (b + a z)^(n-k), k = 0..n, b^2 = c^2 - a^2.

    At the bias rho = (a/c)^2, u = b/c and v = a/c, so the biased-DJ
    generating function at weight k is this row over 2^{n/2} c^n.  Row k+1
    is row k divided exactly by (b + a z) and multiplied by (a - b z).
    """
    b = math.isqrt(c * c - a * a)
    g = [comb(n, i) * b ** (n - i) * a**i for i in range(n + 1)]
    rows = [g]
    for _ in range(n):
        q = [0]
        for x in g[:-1]:
            q.append((x - a * q[-1]) // b)
        q.append(0)
        g = [a * hi - b * lo for lo, hi in zip(q, q[1:])]
        rows.append(g)
    return rows


def exact_biased_probabilities(f, rows, c):
    """C(n,k) a_k^2 of biased_dj_state(f, n (a/c)^2), each an exact rational, as floats.

    rows is pythagorean_rows(f.n, a, c).
    """
    n = f.n
    den = (1 << n) * c ** (2 * n)
    return np.array([comb(n, k) * sum(map(mul, f.signs(), row)) ** 2 / den
                     for k, row in enumerate(rows)])


def surd_biased_probabilities(f, p, q):
    """C(n,k) a_k^2 of biased_dj_state(f, n p / q), each exact (P + Q sqrt(D)) / (2^n q^n) rounded to a float.

    With rho = p/q, u^2 = (q - p)/q and v^2 = p/q, the term of [z^i] in
    (v - u z)^k (u + v z)^(n-k) with j factors -u z is
    (-1)^j C(k, j) C(n-k, i-j) u^(n-d) v^d, d = k + i - 2j, and
    (2q)^(n/2) u^(n-d) v^d 2^(-n/2) = (q - p)^((n-d)/2) p^(d/2): an integer
    times one of two roots, 1 and sqrt(D) at even n, sqrt(q - p) and sqrt(p)
    at odd n, D = p (q - p).  So a_k (2q)^(n/2) = A x + B y with integers A, B,
    and C(n,k) a_k^2 (2q)^n = C(n,k) (P + Q sqrt(D)).  Q sqrt(D) is taken
    from math.isqrt at 2^-256, so each value is within 2^-256 C(n,k) / (2q)^n
    of exact before its one rounding.
    """
    n, signs = f.n, f.signs()
    d_root, scale = p * (q - p), 256
    x2, y2 = (1, d_root) if n % 2 == 0 else (q - p, p)  # the squares of the two roots
    out = []
    for k in range(n + 1):
        ab = [0, 0]  # A, B
        for i, s in enumerate(signs):
            for j in range(max(0, i - (n - k)), min(i, k) + 1):
                d = k + i - 2 * j
                term = (-1) ** j * comb(k, j) * comb(n - k, i - j) * (q - p) ** ((n - d) // 2) * p ** (d // 2)
                ab[d % 2] += s * term  # odd d: sqrt(D) at even n, sqrt(p) at odd n
        a, b = ab
        big_p, big_q = a * a * x2 + b * b * y2, 2 * a * b
        surd = math.isqrt(big_q * big_q * d_root << (2 * scale))
        num = (big_p << scale) + (surd if big_q >= 0 else -surd)
        out.append(comb(n, k) * num / ((2 * q) ** n << scale))
    return np.array(out)


class TestBiasedExactOracle:
    # Pythagorean biases rho = (a/c)^2 make every C(n,k) a_k^2 rational
    BIASES = ((3, 5), (5, 13))  # r = 9n/25 and r = 25n/169

    def test_rows_match_polynomial_product(self):
        for a, c in self.BIASES:
            b = math.isqrt(c * c - a * a)
            for n in range(8):
                for k, row in enumerate(pythagorean_rows(n, a, c)):
                    g = [0] * (n + 1)
                    for j in range(k + 1):
                        for m in range(n - k + 1):
                            g[j + m] += comb(k, j) * a ** (k - j) * (-b) ** j \
                                * comb(n - k, m) * b ** (n - k - m) * a**m
                    assert row == g, (a, c, n, k)

    @pytest.mark.parametrize("n, tol", [(25, 1e-13), (50, 1e-9)])
    def test_every_weight_against_exact(self, n, tol):
        for a, c in self.BIASES:
            rows = pythagorean_rows(n, a, c)
            for w in range(1, n):
                f = optimal_function(n, w)
                p = biased_dj_state(f, a * a * n / (c * c)).probabilities
                assert np.max(np.abs(p - exact_biased_probabilities(f, rows, c))) <= tol, (a, c, w)

    def test_surd_oracle_matches_pythagorean(self):
        # at rho = 9/25, D = 144 is a square, so both oracles round the same exact rational once
        for n in (7, 8, 25):
            f = optimal_function(n, n // 4)
            assert np.array_equal(surd_biased_probabilities(f, 9, 25),
                                  exact_biased_probabilities(f, pythagorean_rows(n, 3, 5), 5)), n

    @pytest.mark.parametrize("n, w, r, tol", [(20, 5, 5, 1e-14), (30, 9, 9, 2e-13), (40, 10, 10, 2e-12)])
    def test_every_weight_at_surd_bias(self, n, w, r, tol):
        # rho = 1/4 and 3/10, where sqrt(rho (1 - rho)) is irrational; the largest errors seen are
        # 3.1e-15, 4.4e-14 and 4.5e-13, and each tol is 3 to 5 times that
        rho = Fraction(r, n)
        f = optimal_function(n, w)
        p = biased_dj_state(f, r).probabilities
        assert np.max(np.abs(p - surd_biased_probabilities(f, rho.numerator, rho.denominator))) <= tol

    def test_passing_states_near_exact(self):
        # The gate bounds the norm, not each weight: a state that passes can
        # still be off by several 1e-6 in one weight.  The worst on this grid,
        # and over every (n, w) with 26 <= n <= 100, is 6.0e-6 at
        # (89, 28, r = 9n/25), whose norm misses 1 by 8.9e-9.
        for a, c in self.BIASES:
            for n in range(26, 101, 3):
                rows = pythagorean_rows(n, a, c)
                for w in range(1, n, 3):
                    f = optimal_function(n, w)
                    try:
                        p = biased_dj_state(f, a * a * n / (c * c)).probabilities
                    except StateError:
                        continue
                    err = np.max(np.abs(p - exact_biased_probabilities(f, rows, c)))
                    assert err <= 1e-5, (a, c, n, w)


class TestBiasedAmplitudeSpectrum:
    """The real Fourier form of the biased-DJ inner sums T_i(k) that the
    search builds per (n, k): a cosine and a sine part per frequency."""

    def test_matches_table(self):
        rng = np.random.default_rng(37)
        for n in range(31):
            rhos = np.concatenate([[0.0, 1.0], rng.random(3)])
            theta = np.arcsin(np.sqrt(rhos))  # sin^2(theta) = rho
            basis = search._basis(n)
            for k in range(n + 1):
                coef = search._spectrum(n, k, basis)
                phase = np.outer(basis.lam, theta)
                got = coef @ np.vstack([np.cos(phase), np.sin(phase)])
                assert np.max(np.abs(got - biased_amplitude_table(n, k, rhos))) <= 1e-13

    def test_frequencies_are_exact_integers(self):
        for n in (0, 1, 6, 33, 64):
            basis, waves = search._cells(n)
            lam, coef = basis.lam, search._spectrum(n, n // 3, basis)
            assert lam.dtype.kind == "i"
            assert lam.tolist() == list(range(n % 2, n + 1, 2))
            assert coef.shape == (n + 1, 2 * lam.size)
            assert waves.shape == (search._GRID_POINTS, 2 * lam.size)

    @pytest.mark.parametrize("n", [12, 48, 64, 100, 300])
    def test_matches_exact_closed_form(self, n):
        # at lam = 2l - n >= 0 the term is (-i)^{k+i} K_i(l, n) K_l(k, n) / 2^{3n/2},
        # a rational for even n, counted twice for lam > 0; the phase puts it in
        # the cosine part for even k + i and in the sine part for odd k + i
        K = columns(n)  # K[l][i] = K_i(l, n)
        scale = 1 << (3 * n // 2)
        basis = search._basis(n)
        lam = basis.lam
        for k in (1, n // 4, n // 2):
            coef = search._spectrum(n, k, basis)
            a, b = coef[:, :lam.size], coef[:, lam.size:]
            for i in range(n + 1):
                m = (k + i) % 4
                sign = -1 if m in (1, 2) else 1  # (-i)^m is 1, -i, -1, i
                part, zero = (a[i], b[i]) if m % 2 == 0 else (b[i], a[i])
                assert not zero.any()
                for j, freq in enumerate(lam.tolist()):
                    l = (n + freq) // 2
                    exact = Fraction(sign * (2 if freq else 1) * K[l][i] * K[k][l], scale)
                    got = float(part[j])
                    if exact == 0:
                        assert got == 0.0, (k, i, l)
                    else:
                        ulps = abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact)))
                        assert ulps <= 4, (k, i, l, float(ulps))

    def test_negative_frequencies_are_exact_conjugates(self):
        # the complex closed form that the real one folds: its column at -lam
        # is the exact conjugate of that at lam, so only lam >= 0 is kept
        for n in (1, 2, 12, 33, 100):
            basis = search._basis(n)
            for k in (0, 1, n // 3, n // 2, n):
                lam, C = search_reference.biased_amplitude_spectrum(n, k)
                assert np.array_equal(C[:, ::-1], C.conj())
                assert np.array_equal(search_reference.fold(lam, C)[1], search._spectrum(n, k, basis))

    def test_float_range(self):
        # Krawtchouk entries pass the float range at n = 1030
        coef = search._spectrum(1029, 514, search._basis(1029))
        assert np.isfinite(coef).all()
        with pytest.raises(OverflowError):
            search._basis(1030)

    def test_weight_domain_error(self):
        with pytest.raises(ValueError, match="w="):
            search._spectrum(4, 5, search._basis(4))


class TestKrawtchoukFloats:
    """The float Krawtchouk rows of the search's per-n basis."""

    @pytest.mark.parametrize("n", [*range(71), 301, 1029])
    def test_quarter_build_is_the_conversion_bit_for_bit(self, n):
        # the rows l >= n/2; int64 views tell +0.0 from -0.0
        got = search._basis(n).K
        want = np.array(columns(n), dtype=float)[(n + 1) // 2:]
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_cached_matrix_is_read_only(self):
        K = search._cells(5)[0].K
        with pytest.raises(ValueError):
            K[0, 0] = 2.0
        assert search._cells(5)[0].K[0, 0] == 1.0  # K_0(3, 5)

    def test_cache_bound(self):
        # at most 8 entries, each of n <= 48, the sizes exhaustive_search takes:
        # a basis, with two Krawtchouk blocks (K and K 2^-n), the phase signs,
        # the row signs, frequencies and their squares, the grid and its theta,
        # and the grid table:
        # 8 x (2 x 25 x 49 + 4 x 49 + 3 x 25 + 2 x 512 + 512 x 50) x 8 B = 1.79 MiB
        cache = search._cells
        assert cache.cache_info().maxsize == search._BASIS_CACHE == 8
        assert search.MAX_EXHAUSTIVE_N == 48
        basis, table = cache(48)
        largest = sum(a.nbytes for a in basis) + table.nbytes
        assert 8 * largest == 8 * (2 * 25 * 49 + 4 * 49 + 3 * 25 + 2 * 512 + 512 * 50) * 8 < 1.8 * 2**20
        cache.cache_clear()
        with pytest.raises(ResourceLimitError):
            search.exhaustive_search(49, 3)
        assert cache.cache_info().currsize == 0
        for n in range(40, 49):
            search.exhaustive_search(n, 3)
        assert cache.cache_info().currsize == 8


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

    def test_binomial_row_cached_read_only(self):
        for n in [*range(65), 1029]:
            row = symstate._binomial_row(n)
            assert row.tobytes() == np.array(column(0, n), dtype=float).tobytes(), n
            assert symstate._binomial_row(n) is row
            with pytest.raises(ValueError):
                row[0] = 2.0
        assert symstate._binomial_row.cache_info().currsize <= symstate._BINOMIAL_ROWS
        with pytest.raises(OverflowError):
            symstate._binomial_row(1030)
        assert symstate._binomial_row(1029) is row  # the failed size cached nothing

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

    def test_failing_gate_prints_total_and_miss(self):
        # a miss of 3.5e-7 rounds to "1" at 6 digits; the repr and the miss show it
        total = 1.0 - 3.5e-7
        off = SymmetricState(n=1, amps=np.array([math.sqrt(total), 0.0]))
        with pytest.raises(StateError) as info:
            off.distribution
        assert str(info.value) == "state norm 0.9999996500000001 is not 1 within 1e-08: it misses by 3.5e-07"
        nan = SymmetricState(n=1, amps=np.array([math.nan, 0.0]))
        with pytest.raises(StateError, match=r"^state norm nan is not 1 within 1e-08: it misses by nan$"):
            nan.distribution

    def test_unnormalized_rejected(self):
        junk = SymmetricState(n=3, amps=np.array([0.5, 0.1, 0.0, 0.0]))
        rng = np.random.default_rng(0)
        with pytest.raises(StateError):
            parity_measure(junk, rng)
        with pytest.raises(StateError):
            parity_sample(junk, 10, rng)


def sampler_states(n):
    """Dicke, Childs (endpoints too), DJ, biased-DJ and Grover-amplified states at n."""
    w = n // 4
    f = optimal_function(n, w)
    states = [dicke(n, n // 2), dj_state(f)]
    if n:
        states += [childs_state(n, 0), childs_state(n, n // 3), childs_state(n, n),
                   amplify(states[1], w)]
    if 1 <= n <= 40:
        states.append(biased_dj_state(f, n / 3))
    return states


def two_boundary_state():
    """n = 2 with law (0.3, 5e-4, 0.6995): cdf 0.3 and 0.3005 share a bucket at G = 16 and G = 1024.

    A one-trial draw has G = 16 buckets, a draw of 1024 trials or more has
    G = 1024; the two cdf values fall in [4/16, 5/16) and in
    [307/1024, 308/1024).  Weight 1 owns [0.3, 0.3005), which lies inside
    that one bucket at either G, so the guide table never answers 1: every 1
    drawn comes from the binary-search fallback.
    """
    return SymmetricState(n=2, amps=np.sqrt([0.3, 5e-4 / 2, 0.6995]))


class TestSamplerExactness:
    """parity_sample and parity_measure against Generator.choice (sampler_reference)."""

    # 1023-1025 straddle the 1024-bucket floor of the guide table
    TRIALS = (0, 1, 2, 1000, 1023, 1024, 1025, 20_000)

    def assert_same_draw(self, s, trials, seed, bit_generator=np.random.PCG64):
        rng, ref_rng = (np.random.Generator(bit_generator(seed)) for _ in range(2))
        got = parity_sample(s, trials, rng)
        want = sampler_reference.parity_sample(s, trials, ref_rng)
        assert got.dtype == want.dtype and got.shape == want.shape == (trials,)
        assert np.array_equal(got, want), (s.n, trials, seed)
        assert rng.random() == ref_rng.random(), (s.n, trials, seed)  # same stream position

    @pytest.mark.parametrize("ns, seeds", [
        (range(0, 41), range(5)),
        # 4(n+1) crosses the 1024-bucket floor between n = 254 and 256
        ((64, 129, 254, 255, 256, 300, 1028, 1029), range(3)),
    ])
    def test_samples_match_choice(self, ns, seeds):
        for n in ns:
            for s in sampler_states(n):
                for seed in seeds:
                    for trials in self.TRIALS:
                        self.assert_same_draw(s, trials, seed)

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937,
                                               np.random.Philox, np.random.SFC64])
    def test_guide_sizes_match_choice_on_every_generator(self, bit_generator):
        # trial counts and sizes on both sides of the 1024-bucket floor
        for n in (0, 2, 22, 254, 255, 256):
            for s in sampler_states(n) + [two_boundary_state()]:
                for trials in self.TRIALS:
                    self.assert_same_draw(s, trials, n, bit_generator)

    def test_fallback_search(self):
        s = two_boundary_state()
        cdf = s.distribution.cumsum() / s.distribution.sum()
        assert np.floor(cdf[0] * 1024) == np.floor(cdf[1] * 1024) == 307
        for seed in range(5):
            assert (parity_sample(s, 20_000, np.random.default_rng(seed)) == 1).any(), seed
            self.assert_same_draw(s, 20_000, seed)

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937,
                                               np.random.Philox, np.random.SFC64])
    def test_blocks_continue_one_stream(self, bit_generator):
        # more trials than one block of uniforms, ending inside a block
        trials = 2 * symstate._BLOCK + 3
        for s in (two_boundary_state(), amplify(dj_state(optimal_function(300, 75)), 75)):
            self.assert_same_draw(s, trials, 11, bit_generator)

    def test_measure_matches_choice(self):
        for n in (0, 1, 6, 40, 254, 255, 256, 1029):
            for s in sampler_states(n) + [two_boundary_state()]:
                rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
                got = [parity_measure(s, rng) for _ in range(50)]
                want = [sampler_reference.parity_measure(s, ref_rng) for _ in range(50)]
                assert got == want and all(type(k) is int for k in got), n
                assert rng.random() == ref_rng.random()

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trials=-1"):
            parity_sample(dicke(3, 1), -1, np.random.default_rng(0))

    def test_peak_memory_per_trial(self):
        # Generator.choice holds two 8-byte arrays per trial (uniforms and
        # outcomes).  The bound is those 16 B per trial plus 1 MiB of slack for
        # the guide table and one block's scratch; the draw itself keeps only
        # the 8-byte outcome array per trial.
        trials = 10**6
        s = amplify(dj_state(optimal_function(300, 75)), 75)
        s.distribution
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            base = tracemalloc.get_traced_memory()[0]
            outcomes = parity_sample(s, trials, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert outcomes.nbytes == 8 * trials
        assert peak <= 16 * trials + (1 << 20), peak


def bernstein_halfwidth(trials, p, delta):
    """t with P(|Bin(trials, p) - trials p| >= t) <= delta, by Bernstein's inequality.

    P(|X - Np| >= t) <= 2 exp(-t^2 / (2 (Np(1-p) + t/3))); this t makes the
    right side equal delta.
    """
    log_term = math.log(2 / delta)
    return log_term / 3 + math.sqrt(log_term**2 / 9 + 2 * log_term * trials * p * (1 - p))


def grover_law(law, w, t):
    """Exact outcome law after t Grover steps toward w, from the exact law `law`, rounded once.

    With p = law[w] the target holds p_t = p V_t^2 (V_-1 = -1, V_0 = 1,
    V_{m+1} = (2 - 4p) V_m - V_{m-1}), and every other weight is scaled by
    (1 - p_t) / (1 - p).
    """
    p = law[w]
    prev, cur = Fraction(-1), Fraction(1)
    for _ in range(t):
        prev, cur = cur, (2 - 4 * p) * cur - prev
    p_t = p * cur * cur
    scale = (1 - p_t) / (1 - p) if p < 1 else 0  # p = 1: every other weight is 0
    return [float(p_t if k == w else q * scale) for k, q in enumerate(law)]


def dj_law(f, w, t=0):
    """Exact outcome law of amplify(dj_state(f), w, t): p_k = C(n,k) rw_k^2 / 4^n, then Grover."""
    law = [Fraction(comb(f.n, k) * rw * rw, 4**f.n) for k, rw in enumerate(reduced_walsh_spectrum(f))]
    return grover_law(law, w, t)


def childs_law(n, w, t=0):
    """Exact outcome law of amplify(childs_state(n, w), w, t): C(n,k) w^k (n-w)^(n-k) / n^n, then Grover."""
    law = [Fraction(comb(n, k) * w**k * (n - w) ** (n - k), n**n) for k in range(n + 1)]
    return grover_law(law, w, t)


def simulate_counts(path, argv, trials, seed):
    """The count column of `dickeprep simulate *argv --trials trials --seed seed`, read from its CSV."""
    assert cli.main(["simulate", *argv, "--trials", str(trials), "--seed", str(seed), "--out", str(path)]) == 0
    _, header, rows = read_csv(path)
    counts = [int(row[header.index("count")]) for row in rows]
    assert sum(counts) == trials
    return counts


class TestParityCounts:
    """Parity-measurement counts against the exact outcome law, per weight.

    Two samplers are checked: parity_sample's outcomes, counted by bincount,
    and the count column of `simulate --trials` for the cases the CLI
    reaches (amplified DJ and Childs states, and a biased state with given
    --f and --r).  Each count is Binomial(TRIALS, p_k) for a correct
    sampler.  A weight fails when its count is off by more than the
    Bernstein half-width at delta = ALPHA / (number of counts checked), so
    by the union bound correct samplers fail this test with probability at
    most ALPHA over the choice of seeds.  Weights of exact probability 0 must
    never be drawn.
    """

    TRIALS = 100_000
    ALPHA = 1e-6

    @staticmethod
    def cases():
        """(state, its exact law, the simulate argv that prepares it, or None)."""
        yield dicke(12, 5), [float(k == 5) for k in range(13)], None
        for n, w in ((6, 2), (20, 5), (64, 16), (300, 75)):
            f = optimal_function(n, w)
            t = plan_amplification(dj_state(f), w).t
            yield dj_state(f), dj_law(f, w), None
            yield (amplify(dj_state(f), w, t), dj_law(f, w, t),
                   ("--n", str(n), "--w", str(w), "--method", "dj", "--grover"))
        for n, w in ((30, 0), (30, 7), (30, 30), (200, 50)):
            t = plan_amplification(childs_state(n, w), w).t
            yield childs_state(n, w), childs_law(n, w), None
            yield (amplify(childs_state(n, w), w, t), childs_law(n, w, t),
                   ("--n", str(n), "--w", str(w), "--method", "childs", "--grover"))
        a, c = 3, 5  # r = 9n/25, where the biased law is rational
        f = optimal_function(25, 6)
        yield (biased_dj_state(f, a * a * 25 / (c * c)),
               exact_biased_probabilities(f, pythagorean_rows(25, a, c), c),
               ("--n", "25", "--w", "6", "--method", "biased", "--f", f.to_hex(), "--r", "9"))

    def test_counts_within_binomial_bound(self, tmp_path):
        cases = list(self.cases())
        delta = self.ALPHA / sum(len(law) * (1 if argv is None else 2) for _, law, argv in cases)
        csv = tmp_path / "counts.csv"
        for seed, (s, law, argv) in enumerate(cases):
            outcomes = parity_sample(s, self.TRIALS, np.random.default_rng(seed))
            samples = {"parity_sample": np.bincount(outcomes, minlength=s.n + 1)}
            if argv is not None:
                samples["simulate"] = simulate_counts(csv, argv, self.TRIALS, seed)
            for sampler, counts in samples.items():
                for k, (count, p) in enumerate(zip(counts, law, strict=True)):
                    if p == 0.0:
                        assert count == 0, (sampler, s.n, k)
                    else:
                        assert abs(count - self.TRIALS * p) <= bernstein_halfwidth(self.TRIALS, p, delta), (
                            sampler, s.n, k)


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
