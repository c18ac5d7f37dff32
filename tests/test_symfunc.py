import math
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from dickeprep import symstate
from dickeprep.csvio import fmt
from dickeprep.krawtchouk import (
    abs_column_sum,
    column,
    columns,
    descending_columns,
    half_abs_sum,
    half_column,
    matrix,
    next_half_column,
)
from dickeprep.symfunc import (
    SymmetricBooleanFunction,
    _lane_layout,
    optimal_function,
    reduced_walsh_spectrum,
    spectrum_value,
)
from dickeprep.symstate import (
    _born_column,
    _FloatFilter,
    _dj_float_bounds,
    _frexp_ints,
    _sqrt_ratios,
    c_minima,
    c_minima_bytes,
    curves_columns,
    dj_optimal_success_exact,
    quarter_columns,
)

import cn_reference
from profile_reference import dj_optimal_profile
from spectrum_reference import reduced_walsh_spectrum as reference_spectrum


def naive_walsh(f, omega):
    """W_f(omega) straight from the definition, one point."""
    table = [f.bits[bin(x).count("1")] for x in range(1 << f.n)]
    return sum(
        (-1) ** (table[x] ^ (bin(x & omega).count("1") % 2)) for x in range(1 << f.n)
    )


def full_walsh_by_weight(f):
    """Brute-force oracle: expand the truth table over all 2^n inputs, run the
    full 2^n-point transform (butterfly), and check the spectrum really is
    constant on each weight class before grouping."""
    n = f.n
    a = np.array([(-1) ** f.bits[bin(x).count("1")] for x in range(1 << n)], dtype=np.int64)
    step = 1
    while step < a.size:
        block = a.reshape(-1, 2, step)
        a = np.stack([block[:, 0, :] + block[:, 1, :], block[:, 0, :] - block[:, 1, :]], axis=1)
        a = a.reshape(-1)
        step *= 2
    wt = np.array([bin(x).count("1") for x in range(1 << n)])
    by_weight = []
    for k in range(n + 1):
        cls = a[wt == k]
        assert np.all(cls == cls[0]), "spectrum not constant on a weight class"
        by_weight.append(int(cls[0]))
    return by_weight


def test_walsh_oracle_matches_definition():
    rng = np.random.default_rng(3)
    for n in range(1, 7):
        f = SymmetricBooleanFunction.from_value(n, int(rng.integers(0, 1 << (n + 1))))
        grouped = full_walsh_by_weight(f)
        for omega in range(1 << n):
            assert naive_walsh(f, omega) == grouped[bin(omega).count("1")]


class TestSymmetricBooleanFunction:
    def test_validation(self):
        with pytest.raises(ValueError):
            SymmetricBooleanFunction(n=3, bits=(0, 1, 0))
        with pytest.raises(ValueError):
            SymmetricBooleanFunction(n=2, bits=(0, 2, 0))

    def test_hex_convention(self):
        # bit string f_n ... f_1 f_0 read as an unsigned integer
        f = SymmetricBooleanFunction.from_hex(4, "02")
        assert f.bits == (0, 1, 0, 0, 0)
        assert SymmetricBooleanFunction(n=6, bits=(0, 0, 1, 1, 1, 0, 0)).to_hex() == "1C"
        assert SymmetricBooleanFunction.from_hex(4, "0").to_hex() == "0"
        assert SymmetricBooleanFunction.from_hex(8, "1f").to_hex() == "1F"

    def test_hex_round_trip(self):
        for n in range(0, 7):
            for value in range(1 << (n + 1)):
                f = SymmetricBooleanFunction.from_value(n, value)
                assert SymmetricBooleanFunction.from_hex(n, f.to_hex()) == f
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            f = SymmetricBooleanFunction.from_value(n, int(rng.integers(0, 1 << (n + 1))))
            assert SymmetricBooleanFunction.from_hex(n, f.to_hex()) == f

    def test_from_value_range(self):
        with pytest.raises(ValueError):
            SymmetricBooleanFunction.from_value(3, 16)
        with pytest.raises(ValueError):
            SymmetricBooleanFunction.from_hex(3, "-1")

    def test_negative_n_named(self):
        # checked before the range test, whose 1 << (n + 1) is a negative shift
        with pytest.raises(ValueError, match=r"^n=-2 must be non-negative$"):
            SymmetricBooleanFunction.from_value(-2, 0)
        with pytest.raises(ValueError, match=r"^n=-3 must be non-negative$"):
            SymmetricBooleanFunction.from_hex(-3, "0")

    @pytest.mark.parametrize("code", ["0x3", " 3 ", "3_0", "+3", "0X1f", "\u0663", ""])
    def test_hex_accepts_only_ascii_digits(self, code):
        # int(code, 16) takes every one of these but the empty string
        with pytest.raises(ValueError, match="not a hex string"):
            SymmetricBooleanFunction.from_hex(8, code)


class TestSpectrum:
    def test_worked_example(self):
        f = SymmetricBooleanFunction(n=6, bits=(0, 0, 1, 1, 1, 0, 0))
        assert reduced_walsh_spectrum(f)[2] == 12

    def test_constant_function(self):
        for n in (1, 4, 9):
            f = SymmetricBooleanFunction(n=n, bits=(0,) * (n + 1))
            values = reduced_walsh_spectrum(f)
            assert values[0] == 2**n
            assert all(v == 0 for v in values[1:])

    def test_against_full_transform(self):
        cases = [SymmetricBooleanFunction(n=4, bits=(0, 1, 0, 0, 1))]
        rng = np.random.default_rng(5)
        for n in range(1, 13):
            cases.append(SymmetricBooleanFunction.from_value(n, int(rng.integers(0, 1 << (n + 1)))))
        for f in cases:
            assert list(reduced_walsh_spectrum(f)) == full_walsh_by_weight(f)

    @pytest.mark.parametrize("n", [101, 300])
    def test_matches_spectrum_values(self, n):
        rng = np.random.default_rng(n)
        for _ in range(2):
            f = SymmetricBooleanFunction(n=n, bits=tuple(int(b) for b in rng.integers(0, 2, n + 1)))
            assert reduced_walsh_spectrum(f) == tuple(spectrum_value(f, k) for k in range(n + 1))

    def test_parseval_random(self):
        rng = np.random.default_rng(23)
        for n in range(1, 17):
            kmat = np.array(matrix(n), dtype=np.int64)  # |K| <= C(16,8)
            values = rng.integers(0, 1 << (n + 1), size=1000)
            bits = (values[:, None] >> np.arange(n + 1)[None, :]) & 1
            signs = (1 - 2 * bits).astype(np.int64)
            rw = signs @ kmat  # (1000, n+1)
            weights = np.array([comb(n, k) for k in range(n + 1)], dtype=np.int64)
            parseval = (weights[None, :] * rw * rw).sum(axis=1)
            assert np.all(parseval == 1 << (2 * n))


def _test_functions(n, rng):
    """A random f, the constant f, the parity f (f_i = i mod 2) and the sign-rule f at w = n//3."""
    return [
        SymmetricBooleanFunction(n=n, bits=tuple(int(b) for b in rng.integers(0, 2, n + 1))),
        SymmetricBooleanFunction(n=n, bits=(0,) * (n + 1)),
        SymmetricBooleanFunction(n=n, bits=tuple(i % 2 for i in range(n + 1))),
        optimal_function(n, n // 3),
    ]


class TestLanePackedSpectrum:
    """The lane-packed stepper against the literal per-column loop and exact identities."""

    def test_matches_reference(self):
        rng = np.random.default_rng(160)
        for n in range(161):
            for f in _test_functions(n, rng):
                assert reduced_walsh_spectrum(f) == reference_spectrum(f), n

    def test_matches_reference_where_lane_count_changes(self):
        # both sides of each change: 1 lane up to 10 at n = 600, and back down to 1 at n = 2566
        binomials, lanes, changes = [1], 1, []
        for n in range(1, 2600):
            binomials = next_half_column(binomials, 0, n - 1)
            count = len(_lane_layout(n, binomials)[1])
            if count != lanes:
                changes.append(n)
                lanes = count
        assert len(changes) == 18 and changes[-1] == 2566
        rng = np.random.default_rng(2566)
        for n in changes:
            for size in (n - 1, n):
                f = SymmetricBooleanFunction(n=size, bits=tuple(int(b) for b in rng.integers(0, 2, size + 1)))
                assert reduced_walsh_spectrum(f) == reference_spectrum(f), size

    def test_reference_range_covers_every_layout(self):
        # one lane, a full last lane and a partial last lane, each at both parities of n
        kinds = set()
        for n in range(161):
            span, widths = _lane_layout(n, column(0, n))
            lanes = len(widths)
            kind = "one" if lanes == 1 else "full" if lanes * span == n // 2 + 1 else "partial"
            kinds.add((n % 2, kind))
        assert kinds == {(p, kind) for p in (0, 1) for kind in ("one", "full", "partial")}

    def test_layout(self):
        # every visited column is checked below n = 1200, the lane ends past it
        binomials = [1]  # C(n, i) for i <= n//2, carried along n
        for n in range(5000):
            if n:
                binomials = next_half_column(binomials, 0, n - 1)
            span, widths = _lane_layout(n, binomials)
            lanes, m = len(widths), n // 2 + 1
            assert (lanes - 1) * span < m <= lanes * span, n
            assert lanes * span <= n + 1, n  # every lane steps through real columns
            assert lanes == 1 or span % 2 == 0, n
            assert lanes == 1 or sum(widths) <= 4096, n
            assert (lanes == 1) == (n < 24 or n >= 2566), n  # sqrt(n/6) < 2, or two lanes pass 4096 bits
            # |rw_f(c)| <= 2^n / sqrt(C(n, c)) < 2^(width - 1) at every column c of the lane
            for l, width in enumerate(widths):
                ends = (n - l * span, n + 1 - (l + 1) * span)
                for c in range(ends[1], ends[0] + 1) if n < 1200 else ends:
                    assert binomials[min(c, n - c)] << (2 * width - 2) > 1 << (2 * n), (n, l, c)

    @pytest.mark.parametrize("n", [301, 706, 1029, 1060, 2000])
    def test_extreme_values(self, n):
        # |rw| = 2^n, the largest value a lane holds, in the first lane's first column
        zero = (0,) * n
        constant = SymmetricBooleanFunction(n=n, bits=(0,) * (n + 1))
        parity = SymmetricBooleanFunction(n=n, bits=tuple(i % 2 for i in range(n + 1)))
        assert reduced_walsh_spectrum(constant) == (2**n,) + zero
        assert reduced_walsh_spectrum(parity) == zero + (2**n,)

    @pytest.mark.parametrize("n", [301, 706, 1029, 1060, 2000])
    def test_tightest_dots(self, n):
        # the sign-rule f at a lane's column farthest from n/2 makes the largest dot the lane
        # holds, |rw_f(c)| = sum_i |K_i(c, n)|; the last lane's may be a dropped column
        span, widths = _lane_layout(n, column(0, n))
        for l in range(len(widths)):
            top, bottom = n - l * span, n + 1 - (l + 1) * span
            far = top if top - n / 2 >= n / 2 - bottom else bottom
            f = optimal_function(n, far)
            rw = reduced_walsh_spectrum(f)
            assert abs(rw[far]) == abs_column_sum(far, n), (l, far)
            ks = {far, n - far, top, n - top, max(bottom, n - n // 2), n - max(bottom, n - n // 2)}
            assert [rw[k] for k in sorted(ks)] == [spectrum_value(f, k) for k in sorted(ks)], l

    @pytest.mark.parametrize("n", [255, 256, 257, 511, 512])
    def test_partial_last_lane_matches_reference(self, n):
        span, widths = _lane_layout(n, column(0, n))
        assert len(widths) > 1 and len(widths) * span > n // 2 + 1  # the last lane drops columns
        rng = np.random.default_rng(n)
        for _ in range(3):
            f = SymmetricBooleanFunction(n=n, bits=tuple(int(b) for b in rng.integers(0, 2, n + 1)))
            assert reduced_walsh_spectrum(f) == reference_spectrum(f)

    @pytest.mark.parametrize("n", [1029, 1060, 2000])
    def test_parseval_and_point_values(self, n):
        rng = np.random.default_rng(n)
        f = SymmetricBooleanFunction(n=n, bits=tuple(int(b) for b in rng.integers(0, 2, n + 1)))
        rw = reduced_walsh_spectrum(f)
        assert sum(b * v * v for b, v in zip(column(0, n), rw)) == 4**n
        span, widths = _lane_layout(n, column(0, n))
        edges = {0, n // 2, n - n // 2, n}
        edges |= {k for l in range(len(widths)) for k in (l * span, l * span + span - 1, n - l * span)}
        ks = sorted(k for k in edges | set(rng.integers(0, n + 1, 8).tolist()) if 0 <= k <= n)
        assert [rw[k] for k in ks] == [spectrum_value(f, k) for k in ks]


class TestOptimalFunction:
    def test_worked_example(self):
        assert optimal_function(6, 2).bits == (0, 0, 1, 1, 1, 0, 0)

    def test_trivial_weights(self):
        for n in (1, 5, 10):
            f = optimal_function(n, 0)
            assert f.bits == (0,) * (n + 1)
            assert spectrum_value(f, 0) == 2**n

    def test_peak_equals_abs_column_sum(self):
        for n in range(1, 30):
            for w in range(n + 1):
                f = optimal_function(n, w)
                assert spectrum_value(f, w) == abs_column_sum(w, n)

    def test_free_entries_at_zeros(self):
        # column 3 of the n=6 matrix vanishes at odd degrees; those f_i stay 0
        f = optimal_function(6, 3)
        assert spectrum_value(f, 3) == 8
        assert f.bits[1] == f.bits[3] == f.bits[5] == 0
        # exhaustive oracle: no symmetric function beats the sign rule
        best = max(
            abs(spectrum_value(SymmetricBooleanFunction.from_value(6, v), 3))
            for v in range(1 << 7)
        )
        assert best == 8

    def test_optimality_exhaustive(self):
        for n in range(1, 11):
            kmat = np.array(matrix(n), dtype=np.int64)
            values = np.arange(1 << (n + 1))
            bits = (values[:, None] >> np.arange(n + 1)[None, :]) & 1
            signs = (1 - 2 * bits).astype(np.int64)
            rw = signs @ kmat
            for w in range(n + 1):
                assert int(np.abs(rw[:, w]).max()) == abs_column_sum(w, n)

    def test_domain_error(self):
        with pytest.raises(ValueError, match="w="):
            optimal_function(5, 6)


def c_term(k, n):
    """c_k(n) = (C(n, k) S(k, n)^2) / 4^n * sqrt(n), from the exact column sum."""
    s = abs_column_sum(k, n)
    return comb(n, k) * s * s / 4**n * math.sqrt(n)


class TestCofN:
    """cn_reference.c_minima, the exact c(n) that symstate.c_minima is checked against."""

    def test_trivial(self):
        assert cn_reference.c_minima(1) == [(1.0, 0)]

    def test_small_values(self):
        # frozen from exact integer ratios
        rows = cn_reference.c_minima(4)
        assert rows[1][0] == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
        assert rows[3][0] == pytest.approx(0.75, abs=1e-15)

    def test_profile_mirror(self):
        # the terms are symmetric in k <-> n-k, and the first minimum lies in the lower half
        rows = cn_reference.c_minima(13)
        for n in (3, 8, 13):
            c, w = rows[n - 1]
            assert w <= n // 2
            assert c == c_term(w, n) == c_term(n - w, n)

    def test_domain(self):
        with pytest.raises(ValueError, match="max_n="):
            cn_reference.c_minima(0)

    def test_profile_term(self):
        # odd n = 5: the least term is the first of the mirror pair k = 2, 3
        c, w = cn_reference.c_minima(5)[4]
        assert w == 2
        assert c == c_term(2, 5) == c_term(3, 5)


class TestCarriedColumns:
    """The sweeps that carry one column along n give the per-n references bit for bit."""

    def test_c_minima_match_profile_min_and_index(self):
        ref = []
        for n in range(1, 121):
            terms = [c_term(k, n) for k in range(n + 1)]
            ref.append((min(terms), terms.index(min(terms))))
        assert cn_reference.c_minima(120) == c_minima(120) == ref
        # each N ends the walk at a different seed column and parity
        for max_n in range(1, 41):
            assert cn_reference.c_minima(max_n) == c_minima(max_n) == ref[:max_n], max_n

    def test_c_minima_domain(self):
        with pytest.raises(ValueError, match="max_n="):
            c_minima(0)

    def test_quarter_slice_matches_exact_optimum(self):
        got, _ = quarter_columns(400)
        assert got == [fmt(float(dj_optimal_success_exact(n, n // 4))) for n in range(401)]
        assert quarter_columns(0)[0] == ["1"]
        assert quarter_columns(9)[0] == got[:10]

    def test_quarter_binomials_exact(self):
        # the carried C(n, n // 4) passes 2^1024 from n = 1270: both columns stay exact past it
        dj, childs = quarter_columns(1300)
        assert dj == [fmt(float(dj_optimal_success_exact(n, n // 4))) for n in range(1301)]
        assert childs[1260:] == [fmt(symstate.childs_probability(n, n // 4)) for n in range(1260, 1301)]

    def test_quarter_slice_matches_profile(self):
        got, _ = quarter_columns(100)
        assert got == [fmt(dj_optimal_profile(n)[n // 4]) for n in range(101)]
        with pytest.raises(ValueError, match="max_n="):
            quarter_columns(-1)


@pytest.fixture(scope="module")
def reference_rows():
    """cn_reference.c_minima(600): each row depends on n alone, so row n - 1 serves every max_n >= n."""
    return cn_reference.c_minima(600)


class TestFloatFilteredMinima:
    """c_minima's float filter against the exact reference, and its certificate against exact columns."""

    def test_small_max_n_match_reference(self):
        # both parities, and the block ends 32 and 64
        for max_n in range(1, 71):
            assert c_minima(max_n) == cn_reference.c_minima(max_n), max_n

    @pytest.mark.parametrize("max_n", [250, 401, 600])
    def test_large_max_n_match_reference(self, reference_rows, max_n):
        assert c_minima(max_n) == reference_rows[:max_n]

    @staticmethod
    def check_certificate(max_n):
        """lo <= c_k(n) <= hi and the terms it rests on against exact columns, at every n <= max_n and k."""
        u = Fraction(1, 1 << 53)
        floats = _FloatFilter(max_n)
        while floats.n < max_n:
            floats.advance()
            exact = {n: [sum(map(abs, col)) for col in columns(n)[: n // 2 + 1]] for n in floats.ns.tolist()}
            for stage in ("stepped", "filtered"):
                if stage == "filtered":
                    floats.candidates()  # may rebuild some columns from a row of the block on
                for j, n in enumerate(floats.ns.tolist()):
                    for k, total in enumerate(exact[n]):
                        s = Fraction(floats.sums[j, k])
                        scaled = Fraction(total, 1 << int(floats.exps[k]))
                        assert abs(scaled - s) <= Fraction(floats.err[j, k]) + (n + 8) * u * s, (n, k, stage)
                        binom = Fraction(floats.binoms[j, k]) * 2 ** int(floats.binom_exps[k])
                        assert abs(binom - comb(n, k)) <= (2 * (n - 2 * k) + 1) * Fraction(101, 100) * u * comb(n, k)
                        # lo <= C(n, k) S^2 sqrt(n) / 4^n <= hi, squared to stay rational
                        c_squared = Fraction(comb(n, k) * total * total, 1 << (2 * n)) ** 2 * n
                        assert Fraction(floats.lo[j, k]) ** 2 <= c_squared <= Fraction(floats.hi[j, k]) ** 2, (n, k)

    def test_certificate_against_exact_columns(self):
        # every n of each block, the block ends and mid-block n alike
        self.check_certificate(200)

    def test_certificate_with_mid_block_rebuilds(self, monkeypatch):
        monkeypatch.setattr(symstate, "_RESEED_RATIO", 2.0**-50)  # rebuilds nearly every kept column
        self.check_certificate(200)

    def test_mid_block_rebuilds_give_same_rows(self, reference_rows, monkeypatch):
        monkeypatch.setattr(symstate, "_RESEED_RATIO", 2.0**-50)  # rebuilds nearly every kept column
        rows = []
        real = _FloatFilter._reseed

        def watched(self, ks, starts):
            rows.extend(starts.tolist())
            return real(self, ks, starts)

        monkeypatch.setattr(_FloatFilter, "_reseed", watched)
        assert c_minima(300) == reference_rows[:300]
        assert any(0 < j < symstate._BLOCK_STEPS - 1 for j in rows)

    def test_born_column_is_the_binomial_half_row(self):
        # (1 - z)^h (1 + z)^h = (1 - z^2)^h
        for h in range(301):
            assert _born_column(half_column(0, h), h) == half_column(h, 2 * h), h

    def test_reseeding_off_gives_same_rows(self, reference_rows, monkeypatch):
        counts = []
        real = symstate._c_term

        def counted(*args):
            counts[-1] += 1
            return real(*args)

        monkeypatch.setattr(symstate, "_c_term", counted)
        for ratio in (symstate._RESEED_RATIO, math.inf):
            monkeypatch.setattr(symstate, "_RESEED_RATIO", ratio)
            counts.append(0)
            assert c_minima(400) == reference_rows[:400], ratio
        # more exact terms without reseeding, the same bytes
        assert 400 <= counts[0] < counts[1]

    def test_peak_memory_within_reported_bytes(self):
        # every array c_minima allocates is counted: no temporary as large as the table
        c_minima(40)  # lazy imports and caches outside the traced run
        tracemalloc.start()
        try:
            c_minima(600)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * c_minima_bytes(600)

    def test_frexp_ints_rounds_once_at_any_size(self):
        # m 2^e is v rounded once to 53 bits, ties to even; 2^1024 - 1 rounds up to 2^1024, past float()
        def rounded(v):
            drop = max(abs(v).bit_length() - 53, 0)
            q, r = divmod(abs(v), 1 << drop)
            q += 2 * r > 1 << drop or (2 * r == 1 << drop and q & 1)
            return Fraction(q << drop if v >= 0 else -(q << drop))

        big = (1 << 1100) + 1
        values = [0, 1, -1, 1 << 1023, (1 << 1024) - 1, 1 << 1024, big, -big]
        with pytest.raises(OverflowError):
            np.array([(1 << 1024) - 1], dtype=float)
        for case in [[v] for v in values] + [values, [1, 1 << 2000], [(1 << 60) + 1, -(1 << 2000) - 3]]:
            m, e = _frexp_ints(case)
            assert m.shape == e.shape == (len(case),) and e.dtype == np.int64, case
            for v, mantissa, exp in zip(case, m.tolist(), e.tolist()):
                assert mantissa == 0 if v == 0 else 0.5 <= abs(mantissa) < 1, v
                assert Fraction(mantissa) * Fraction(2) ** exp == rounded(v), v

    def test_integers_past_float_range_rounded_once(self):
        # the filter's born and rebuilt columns, values * 2^-top: past 1000 bits the conversion
        # divides exactly first; a subnormal result rounds once more
        def scaled(values, top):
            m, e = _frexp_ints(values)
            return np.ldexp(m, e - top)

        values = [3**700, -(5**430), 7 << 1100, (1 << 1050) + 1, 1, 0, -1]  # at most 1110 bits
        for top in (1110, 1200, 2100, 2300):
            got = scaled(values, top)
            for v, g in zip(values, got):
                exact = Fraction(v, 1 << top)
                if abs(exact) >= 2.0**-1022:
                    assert g == float(exact), (v, top)
                else:
                    assert abs(Fraction(g) - exact) <= Fraction(1, 1 << 1074), (v, top)
        assert list(scaled([5, -3, 1 << 900], 901)) == [5 * 2.0**-901, -3 * 2.0**-901, 0.5]

    def test_table_bytes(self):
        # the (m, m + 1) table, a buffer of whole rows (at most the table's, 32 or the rows of 32^3 entries),
        # and ten (32, m) block arrays
        assert [c_minima_bytes(n) for n in (1, 2, 3)] == [8 * (2 + 2 + 320), 8 * (6 + 6 + 640), 8 * (6 + 6 + 640)]
        assert c_minima_bytes(250) == 8 * (126 * 127 + 126 * 127 + 320 * 126)
        assert c_minima_bytes(600) == 8 * (301 * 302 + 108 * 302 + 320 * 301)
        assert c_minima_bytes(2895) == 8 * (1448 * 1449 + 32 * 1449 + 320 * 1448)

    def test_table_bytes_domain(self):
        # as c_minima: a non-positive max_n has no table, not a negative byte count
        for bad in (0, -1, -5):
            with pytest.raises(ValueError, match=f"max_n={bad} must be positive"):
                c_minima_bytes(bad)



def exact_dj_profile(n):
    """Fraction(C(n, k) S^2, 4^n) for k <= n//2, S = sum_i |K_i(k, n)| from column n - k by the mirror."""
    binoms = column(0, n)
    halves = descending_columns(n)
    return [Fraction(binoms[k] * half_abs_sum(half, n) ** 2, 1 << (2 * n))
            for k, half in zip(range(n // 2 + 1), halves)]


def exact_strings(n):
    return [fmt(p) for p in dj_optimal_profile(n)]


def half_row(n):
    """The binomial half row (C(n, 0), ..., C(n, n//2)) that curves_columns passes to the float paths."""
    return column(0, n)[: n // 2 + 1]


_ROOT_BITS = 200


def root(q):
    """floor(sqrt(q) 2^200) / 2^200 for a rational q >= 0: sqrt(q) lies in [root(q), root(q) + 2^-200)."""
    q = Fraction(q)
    return Fraction(math.isqrt((q.numerator << (2 * _ROOT_BITS)) // q.denominator), 1 << _ROOT_BITS)


_ROOT_SLACK = Fraction(1, 1 << _ROOT_BITS)


def enclosed_abs(terms, rest):
    """An upper bound on |sum_j c_j sqrt(a_j) + rest| for (a_j, c_j) in terms, a_j integer radicands.

    Equal radicands are summed first, so terms that cancel exactly leave no enclosure slack.
    """
    groups = {}
    for a, c in terms:
        groups[a] = groups.get(a, 0) + c
    slack = 0
    for a, c in groups.items():
        s = math.isqrt(a)
        if s * s == a:
            rest += s * c
        else:
            rest += root(a) * c
            slack += abs(c) * _ROOT_SLACK
    return abs(rest) + slack


class TestCertifiedDjStrings:
    """curves_columns' DJ column: the 9-digit text of dj_optimal_profile from certified floats."""

    @pytest.mark.parametrize("ns", [range(161), (255, 256, 350, 351, 1000)])
    def test_bounds_contain_exact_value(self, ns):
        for n in ns:
            lo, hi = _dj_float_bounds(n, _frexp_ints(half_row(n)))
            assert lo.shape == hi.shape == (n // 2 + 1,)
            for k, exact in enumerate(exact_dj_profile(n)):
                assert Fraction(lo[k]) <= exact <= Fraction(hi[k]), (n, k)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_each_term_covers_its_exact_counterpart(self, n, monkeypatch):
        # From the float rows the recurrence produced, in Fractions (square roots enclosed within
        # 2^-200): the residual X u~ - lam u~ of the rows i != n//2 and their mirrors against the
        # a-priori row term, that of the middle row(s) against the closure, |w~ - w| against the
        # weights term, and |tau~ - t / sqrt(nu)| with the exact sums of the float rows against the sums
        # term.  Then [lo, hi] must hold tau~ +- eps for eps the sum of the certified terms, so a bound
        # that drops one of them fails here although the others alone still cover the observed error.
        blocks, terms = [], []
        real_block, real_terms = symstate._recurrence_block, symstate._dj_float_terms

        def block(rows, top, i, *args):
            real_block(rows, top, i, *args)
            blocks.append(rows[2 : top + 2].copy())

        def captured(m, binoms):
            terms.append(real_terms(m, binoms))
            return terms[-1]

        monkeypatch.setattr(symstate, "_recurrence_block", block)
        monkeypatch.setattr(symstate, "_dj_float_terms", captured)
        binoms = half_row(n)
        lo, hi = _dj_float_bounds(n, _frexp_ints(binoms))
        (d,) = terms
        h = n // 2
        assert len(blocks) == min(h, 1)  # one block up to n = 40: no rescale between the captured rows
        half = np.vstack([np.ones(h + 1), *blocks])  # rows u_0..u_h of every column k <= n//2
        mirror = [min(i, n - i) for i in range(n + 1)]
        middle = {h, n - h}

        w_float = [Fraction(x) for x in _sqrt_ratios(_frexp_ints(binoms), n).tolist()]
        w_err = 0
        for i in mirror:
            w = root(Fraction(binoms[i], 1 << n))
            w_err += max(abs(w_float[i] - w), abs(w_float[i] - w - _ROOT_SLACK)) ** 2
        assert Fraction(d.weights) ** 2 >= w_err

        for k in range(h + 1):
            lam = n - 2 * k
            u = [Fraction(x) * (-1 if k % 2 and i > h else 1)
                 for i, x in zip(range(n + 1), (half[j, k] for j in mirror))]
            rows_sq = middle_sq = 0
            for i in range(n + 1):
                below = u[i - 1] if i > 0 else 0
                above = u[i + 1] if i < n else 0
                r = enclosed_abs([(i * (n - i + 1), below), ((i + 1) * (n - i), above)], -lam * u[i])
                if i in middle:
                    middle_sq += r * r
                else:
                    rows_sq += r * r
            nu = sum(x * x for x in u)
            t = sum(abs(x) * w_float[j] for x, j in zip(u, mirror))
            tau, sums = Fraction(d.tau[k]), Fraction(d.sums[k])
            nu_floor = Fraction(d.nu[k]) * (1 - Fraction(d.rel[k]))  # at the scale of the closure term

            assert (2 * Fraction(d.row[k])) ** 2 * nu >= rows_sq, (n, k)
            assert Fraction(d.closure[k]) ** 2 * nu >= middle_sq * nu_floor, (n, k)
            assert (tau - sums) ** 2 * nu <= t * t <= (tau + sums) ** 2 * nu, (n, k)

            sine = Fraction(d.row[k]) + (Fraction(d.floor) + Fraction(d.closure[k])) / (2 * (root(nu_floor) + _ROOT_SLACK))
            eps = root(2) * sine + Fraction(d.weights) + sums
            assert Fraction(lo[k]) <= max(tau - eps, 0) ** 2 and (tau + eps) ** 2 <= Fraction(hi[k]), (n, k)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 40, 161, 350])
    def test_widened_bounds_fall_back_to_same_strings(self, n, monkeypatch):
        calls = []
        real_sum, real_bounds = symstate.abs_column_sum, symstate._dj_float_bounds

        def widened(m, binoms):
            lo, hi = real_bounds(m, binoms)
            return lo * 0.5, hi * 2.0

        def counted(k, m):
            calls.append(k)
            return real_sum(k, m)

        monkeypatch.setattr(symstate, "_dj_float_bounds", widened)
        monkeypatch.setattr(symstate, "abs_column_sum", counted)
        assert curves_columns(n)[0] == exact_strings(n)
        assert calls == list(range(n // 2 + 1))

    def test_non_finite_bounds_fall_back(self, monkeypatch):
        real_bounds = symstate._dj_float_bounds
        for bad in (math.nan, math.inf):
            monkeypatch.setattr(symstate, "_dj_float_bounds",
                                lambda m, binoms: (np.full(m // 2 + 1, bad), np.full(m // 2 + 1, bad)))
            assert curves_columns(30)[0] == exact_strings(30)

    @pytest.mark.parametrize("n", [350, 1000])
    def test_few_exact_fallbacks(self, n):
        # bound: at most 2 % of the n//2 + 1 columns (3 at n = 350, 10 at n = 1000)
        lo, hi = _dj_float_bounds(n, _frexp_ints(half_row(n)))
        fallbacks = sum(fmt(a) != fmt(b) for a, b in zip(lo.tolist(), hi.tolist()))
        assert np.isfinite(hi).all()
        assert fallbacks <= (n // 2 + 1) // 50

    def test_weights_rounded_within_bound(self):
        # sqrt(v / 2^n) within 2u relative, or within 2^-1074 once it is subnormal
        for n in (0, 1, 30, 1022, 1023, 1030, 2000, 2047, 2200, 2300):
            values = list(column(0, n)[: n // 2 + 1])
            got = _sqrt_ratios(_frexp_ints(values), n)
            assert got.shape == (len(values),)
            for v, g in zip(values, got.tolist()):
                p = n // 2 + 1200  # floor(sqrt(v / 2^n) 2^p) from one integer square root
                root = Fraction(math.isqrt(v << (2 * p - n)), 1 << p)
                slack = Fraction(1, 1 << p) + (2 * Fraction(root) / (1 << 53) if g >= 2.0**-1022 else Fraction(1, 1 << 1074))
                assert abs(Fraction(g) - root) <= slack, (n, v)

    def test_domain(self):
        with pytest.raises(ValueError, match="n="):
            curves_columns(-1)
