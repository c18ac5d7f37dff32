import dataclasses
import hashlib
import json
import math
from itertools import islice
from math import comb

import numpy as np
import pytest

from dickeprep import fullsim, search
from dickeprep.errors import ResourceLimitError
from dickeprep.krawtchouk import column
from dickeprep.search import (
    RecordStore,
    SearchRecord,
    childs_record,
    dj_record,
    exhaustive_search,
    optimize_r,
    table_one,
)
from dickeprep.symfunc import SymmetricBooleanFunction, optimal_function
from dickeprep.symstate import (
    biased_dj_state,
    childs_probability,
    dj_optimal_success_exact,
    dj_state,
    success_probability,
)

import search_reference
from biased_reference import biased_amplitude_table


class TestOptimizeR:
    def test_reference_points(self):
        r, p = optimize_r(SymmetricBooleanFunction.from_hex(4, "02"), 2)
        assert r == pytest.approx(0.298698, abs=1e-2)
        assert p == pytest.approx(0.981763, abs=1e-4)
        r, p = optimize_r(SymmetricBooleanFunction.from_hex(5, "03"), 1)
        assert r == pytest.approx(1.42458, abs=1e-2)
        assert p == pytest.approx(0.748304, abs=1e-4)

    def test_beats_unbiased(self):
        # the optimum over r can only improve on the r = n/2 slice
        f = optimal_function(6, 2)
        unbiased = success_probability(dj_state(f), 2)
        _, p = optimize_r(f, 2)
        assert p >= unbiased - 1e-12

    def test_optimum_is_a_maximum_nearby(self):
        f = SymmetricBooleanFunction.from_hex(4, "02")
        r, p = optimize_r(f, 2)
        for dr in (-1e-4, 1e-4):
            assert p >= success_probability(biased_dj_state(f, r + dr), 2) - 1e-12

    def test_half_bias_reduction_point(self):
        # evaluating at r = n/2 only (no optimization) recovers the unbiased value
        f = optimal_function(6, 2)
        p_half = success_probability(biased_dj_state(f, 3.0), 2)
        assert p_half == pytest.approx(success_probability(dj_state(f), 2), abs=1e-12)

    def test_domain_errors(self):
        f = optimal_function(4, 1)
        with pytest.raises(ValueError, match="w="):
            optimize_r(f, 5)
        with pytest.raises(ValueError, match="n=0 must be positive"):
            optimize_r(SymmetricBooleanFunction.from_value(0, 0), 0)


class TestExhaustiveSearch:
    def test_reference_point(self):
        rec = exhaustive_search(4, 1)
        assert rec.probability == pytest.approx(0.833609, abs=1e-4)
        assert rec.method == "biased"

    def test_record_reproducible(self):
        rec = exhaustive_search(5, 2)
        f = SymmetricBooleanFunction.from_hex(5, rec.f_hex)
        p = success_probability(biased_dj_state(f, rec.r), 2)
        assert p == pytest.approx(rec.probability, abs=1e-9)

    def test_mirror_equality_and_dominance(self):
        # one scan per (n, w): probabilities agree at w and n-w, and the
        # optimized pair beats both the unbiased-DJ and plain-bias baselines
        for n in range(2, 10):
            recs = {w: exhaustive_search(n, w) for w in range(1, n)}
            for w in range(1, n):
                assert recs[w].probability == pytest.approx(
                    recs[n - w].probability, abs=1e-9
                )
                dj = success_probability(dj_state(optimal_function(n, w)), w)
                assert recs[w].probability >= dj - 1e-9
                assert recs[w].probability >= childs_probability(n, w) - 1e-9

    def test_deterministic_and_jobs_invariant(self):
        a = exhaustive_search(5, 2)
        b = exhaustive_search(5, 2)
        assert a == b

    def test_scan_bound(self):
        assert search.MAX_EXHAUSTIVE_N == 48
        with pytest.raises(ResourceLimitError, match="bound 48") as exc:
            exhaustive_search(49, 2)
        assert "max-n" not in str(exc.value)
        with pytest.raises(ValueError, match="w="):
            exhaustive_search(4, 5)
        with pytest.raises(ValueError, match="n=0"):
            exhaustive_search(0, 0)


def complement(f):
    return SymmetricBooleanFunction.from_value(f.n, f.value ^ ((1 << (f.n + 1)) - 1))


def mirror(f):
    # f_i -> f_{n-i}, complemented when that sets f_n (the member kept of a complement pair)
    g = SymmetricBooleanFunction(n=f.n, bits=f.bits[::-1])
    return complement(g) if g.bits[f.n] else g


def weight_polynomial(f, w):
    """Integers c_d with amp(f, r, w) = 2^(-n/2) sum_d c_d u^(n-d) v^d, u = sqrt(1 - r/n), v = sqrt(r/n).

    The coefficient of z^i in (v - u z)^w (u + v z)^(n-w), signed by f_i and
    summed over i.  r -> n - r swaps u and v, which reverses c, so p(f, r) =
    p(f, n - r) at every r exactly when c is its own reverse up to sign.
    """
    n = f.n
    c = [0] * (n + 1)
    for i, sign in enumerate(f.signs()):
        for j in range(max(0, i - (n - w)), min(i, w) + 1):
            c[i + w - 2 * j] += sign * (-1) ** j * comb(w, j) * comb(n - w, i - j)
    return c


def polynomial_probability(c, n, w, r):
    """C(n, w) amp^2 at bias r from weight_polynomial's c, its terms summed by fsum."""
    u, v = math.sqrt(1.0 - r / n), math.sqrt(r / n)
    amp = math.fsum(cd * u ** (n - d) * v ** d for d, cd in enumerate(c))
    return comb(n, w) * (amp * 2.0 ** (-n / 2)) ** 2


def brute_force(n, w):
    """Reference scan: every one of the 2^(n+1) functions through the batch kernel."""
    values = np.arange(1 << (n + 1), dtype=np.int64)
    r, p = search_reference.table_batch(n, w, search._sign_rows(n, values))
    idx = int(np.argmax(p))  # highest p, then lowest value
    return SymmetricBooleanFunction.from_value(n, int(values[idx])), float(r[idx]), float(p[idx])


class TestSignRuleSearch:
    def test_matches_brute_force(self):
        # same p as the full scan, and the winner is the canonical member,
        # lowest (value, r), of the scan winner's mirror pair (f, r) ~ (mirror f, n - r)
        for n in range(2, 11):
            for w in range(1, n):
                f, r, p = brute_force(n, w)
                rec = exhaustive_search(n, w)
                assert abs(rec.probability - p) <= 1e-12
                value, r_canon = min((f.value, r), (mirror(f).value, n - r))
                assert int(rec.f_hex, 16) == value
                assert rec.r == pytest.approx(r_canon, abs=1e-12)

    def test_reaches_envelope_up_to_bound(self):
        # max_f p = C(n,w) ||T(theta)||_1^2 at each theta; the search must reach
        # its maximum on a fine theta grid and beat the unbiased sign rule
        theta = np.linspace(0.0, np.pi / 2, 8001)
        for n in (12, 24, 36, 48):
            for w in (1, n // 4, n // 2, 3 * n // 4, n - 1):
                basis = search._basis(n)
                coef = search._spectrum(n, w, basis)
                phase = np.outer(basis.lam, theta)
                T = coef @ np.vstack([np.cos(phase), np.sin(phase)])
                envelope = comb(n, w) * float(np.max(np.abs(T).sum(axis=0))) ** 2
                p = exhaustive_search(n, w).probability
                assert p >= envelope - 1e-9
                assert p >= float(dj_optimal_success_exact(n, w))


class TestSpectralKernel:
    def test_winner_matches_dense_oracle(self):
        for n, w in ((4, 1), (6, 2), (7, 3), (9, 4), (10, 3), (6, 1), (11, 3)):
            rec = exhaustive_search(n, w)
            f = SymmetricBooleanFunction.from_hex(n, rec.f_hex)
            amp = fullsim.weight_profile(fullsim.biased_dj_output(f, rec.r)).amplitudes[w]
            assert abs(comb(n, w) * abs(amp) ** 2 - rec.probability) <= 1e-12

    def test_optimize_r_matches_table_at_returned_r(self):
        rng = np.random.default_rng(41)
        for n in (3, 8, 16, 24, 31, 40):
            for w in sorted({1, n // 4, n // 2, int(rng.integers(1, n))}):
                f = optimal_function(n, w)
                r, p = optimize_r(f, w)
                T = biased_amplitude_table(n, w, np.array([r / n]))
                amp = float(np.array(f.signs(), dtype=float) @ T[:, 0])
                assert abs(comb(n, w) * amp * amp - p) <= 1e-10

    def test_complement_is_bit_identical(self):
        # the complement's Fourier coefficients are exactly negated, so p and r
        # match bit for bit, alone and inside one scan batch
        for n, w in ((5, 2), (6, 1)):
            for value in range(1 << n):
                f = SymmetricBooleanFunction.from_value(n, value)
                assert optimize_r(f, w) == optimize_r(complement(f), w)
        n, w = 8, 3
        values = np.arange(1 << (n + 1), dtype=np.int64)
        r, p = search_reference.table_batch(n, w, search._sign_rows(n, values))
        assert np.array_equal(p, p[::-1]) and np.array_equal(r, r[::-1])

    def test_scan_tie_keeps_lower_complement(self):
        # the winner's complement ties it exactly, so the lower value, with
        # f_n = 0, wins
        for n, w in ((4, 1), (5, 2), (8, 3), (9, 6), (10, 3)):
            rec = exhaustive_search(n, w)
            f = SymmetricBooleanFunction.from_hex(n, rec.f_hex)
            assert f.bits[n] == 0


class TestNewtonRefinement:
    """Newton in theta against the literal golden-section loop it replaced."""

    def test_not_below_golden_reference(self):
        # every sign-rule candidate of every (n, w) up to n = 13, and a sample up to 48
        cells = [(n, w) for n in range(1, 14) for w in range(n + 1)]
        cells += [(n, w) for n in (17, 24, 31, 40, 48) for w in (1, n // 4, n // 2, n - 3)]
        for n, w in cells:
            signs = search._sign_rows(n, search_reference.candidates(n, w))
            _, p = search_reference.table_batch(n, w, signs)
            _, p_ref = search_reference.optimize_batch(n, w, signs)
            assert np.all(p >= p_ref - 2e-15), (n, w)

    def test_optimize_r_not_below_golden_reference(self):
        for n in range(16, 65):
            for w in sorted({1, n // 3, n // 2, n - 2}):
                f = optimal_function(n, w)
                _, p = optimize_r(f, w)
                _, p_ref = search_reference.optimize_batch(n, w, np.array([f.signs()], dtype=float))
                assert p >= p_ref[0] - 2e-15, (n, w)

    def test_mirror_weights_agree_in_r(self):
        # the optimum at n - w is the optimum at w, at r or at n - r; the golden
        # loop left them up to 6e-8 apart
        for n in range(1, 14):
            recs = [exhaustive_search(n, w) for w in range(n + 1)]
            for w in range(n + 1):
                r, r_mirror = recs[w].r, recs[n - w].r
                assert min(abs(r - r_mirror), abs(r - (n - r_mirror))) <= 1e-12, (n, w)

    def test_middle_weight_reaches_dj_to_ulps(self):
        # at w = n/2 the sign-rule function peaks at the r = 0 end, at p_dj;
        # the golden loop stopped about 1e-8 short
        for n in (16, 32):
            w = n // 2
            p_dj = float(dj_optimal_success_exact(n, w))
            _, p = optimize_r(optimal_function(n, w), w)
            assert abs(p - p_dj) <= 4 * np.spacing(p_dj)

    def test_endpoint_maxima_reach_dj(self):
        # endpoint maxima the golden loop lost, by up to 6e-2 at (52, 26)
        for n, w in ((52, 26), (56, 28), (60, 30), (63, 31), (63, 32), (64, 32)):
            _, p = optimize_r(optimal_function(n, w), w)
            assert p >= float(dj_optimal_success_exact(n, w)) - 1e-12, (n, w)

    def test_one_spectrum_per_search(self, monkeypatch):
        calls = []
        real = search._spectrum

        def counted(n, w, basis):
            calls.append((n, w))
            return real(n, w, basis)

        monkeypatch.setattr(search, "_spectrum", counted)
        exhaustive_search(9, 4)
        assert calls == [(9, 4)]


def _scan_cases(max_n, random_count, seed):
    """Every sign-rule fit (f, w) with n <= max_n, then seeded random (f, w) with n <= 40."""
    cases = [(optimal_function(n, w), w) for n in range(1, max_n + 1) for w in range(n + 1)]
    rng = np.random.default_rng(seed)
    for _ in range(random_count):
        n = int(rng.integers(1, 41))
        value = int(rng.integers(0, 1 << (n + 1), dtype=np.uint64))
        cases.append((SymmetricBooleanFunction.from_value(n, value), int(rng.integers(0, n + 1))))
    return sorted(cases, key=lambda case: case[0].n)


class TestHornerScan:
    """optimize_r's Horner scan of the grid against the table scan it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 47, 64, 301])
    def test_within_bound_of_table(self, n):
        # every grid value within epsilon of the table's, real, for sign-rule
        # and random functions
        rng = np.random.default_rng(n)
        basis = search._basis(n)
        weights = sorted({0, 1, n // 3, n // 2, n - 1, n, *rng.integers(0, n + 1, 4).tolist()})
        for w in weights:
            for f in (optimal_function(n, w),
                      SymmetricBooleanFunction(n=n, bits=tuple(rng.integers(0, 2, n + 1).tolist()))):
                coef, table = search_reference.table_amps(n, w, np.array(f.signs(), dtype=float))
                amps = search._grid_amps(basis, coef)
                assert amps.dtype == np.float64 and amps.shape == (search._GRID_POINTS,)
                assert np.max(np.abs(amps - table)) <= search._scan_bound(n, coef), (n, w)

    def test_table_fit_bit_for_bit_away_from_ties(self):
        # wherever the table's grid maximum beats the runner-up by more than
        # 2 epsilon the scans pick one grid point, so (r, p) is the same bits
        compared = 0
        for f, w in _scan_cases(64, 500, seed=39):
            n = f.n
            signs = np.array(f.signs(), dtype=float)
            coef, table = search_reference.table_amps(n, w, signs)
            top, runner_up = np.sort(np.abs(table))[:-3:-1]
            if top - runner_up > 2 * search._scan_bound(n, coef):
                r, p = optimize_r(f, w)
                assert type(r) is float and type(p) is float
                assert (r, p) == search_reference.table_fit(n, w, signs), (n, w, f.value)
                compared += 1
        assert compared > 800

    def test_mirror_tie_keeps_left_peak(self):
        # where a sign-rule f has p(f, r) = p(f, n - r) and its two mirror grid
        # peaks tie within 2 epsilon the left one is refined, and p stays
        # within the evaluation's rounding of the table scan's
        ties = 0
        for f, w in _scan_cases(64, 0, seed=0):
            n = f.n
            signs = np.array(f.signs(), dtype=float)
            coef, table = search_reference.table_amps(n, w, signs)
            amp = np.abs(table)
            g = int(np.argmax(amp))
            mirror = search._GRID_POINTS - 1 - g
            eps = search._scan_bound(n, coef)
            if abs(mirror - g) < 3 or amp[g] - amp[mirror] > 2 * eps:
                continue  # one peak: the centre's, or no tie
            r, p = optimize_r(f, w)
            _, p_table = search_reference.table_fit(n, w, signs)
            assert r <= n / 2, (n, w)
            assert abs(p - p_table) <= 4 * np.sqrt(comb(n, w) * p) * eps, (n, w)
            ties += 1
        assert ties > 100
        # the table scan returned r = 10.503 and 9.521 here
        for n, w, left in ((11, 5, 0.497), (13, 6, 3.479)):
            r, _ = optimize_r(optimal_function(n, w), w)
            assert r == pytest.approx(left, abs=1e-3)

    def test_sign_rule_mirror_identity_classes(self):
        # p(f, r) = p(f, n - r) at every r exactly when the weight polynomial is
        # its own reverse up to sign: for even w, and for odd w with no zero
        # K_i(w, n).  Elsewhere optimize_r returns the higher of the two peaks.
        right_peaks = 0
        for n in range(1, 17):
            for w in range(n + 1):
                f = optimal_function(n, w)
                c = weight_polynomial(f, w)
                mirrored = c[::-1] in (c, [-x for x in c])
                assert mirrored == (w % 2 == 0 or 0 not in column(w, n)), (n, w)
                r, p = optimize_r(f, w)
                # 1e-14: three times the largest rounding gap seen at n <= 16
                assert p >= polynomial_probability(c, n, w, n - r) - 1e-14, (n, w)
                if mirrored:
                    assert r <= n / 2 + 1e-9, (n, w)  # the left one of two equal peaks
                else:
                    right_peaks += r > n / 2
        assert right_peaks > 0
        r, p = optimize_r(optimal_function(2, 1), 1)
        assert r == pytest.approx(1 + 0.5 ** 0.5) and p == pytest.approx(1.0)
        assert polynomial_probability(weight_polynomial(optimal_function(2, 1), 1), 2, 1, 2 - r) < 1e-20
        r, _ = optimize_r(optimal_function(6, 3), 3)
        assert r == pytest.approx(0.248, abs=1e-3)

    def test_bracket_rows_are_the_table_rows(self):
        # without the table, optimize_r computes its bracket rows with _waves,
        # which is elementwise, so every row is the table's bit for bit
        for n in (1, 2, 7, 16, 33, 48, 64):
            _, table = search_reference.table_basis(n)
            basis = search._basis(n)
            assert not hasattr(basis, "waves")
            rows = np.vstack([search._waves(basis.theta[g:g + 1], basis.lam)
                              for g in range(search._GRID_POINTS)])
            assert np.array_equal(rows.view(np.int64), table.view(np.int64)), n


class TestOneRowRefinement:
    """One _refine serves exhaustive_search's batches and optimize_r's one row:
    a row's result does not depend on the batch it is refined in."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33, 48, 64])
    def test_every_start_matches_batch(self, n):
        # from every grid index, a one-row call as optimize_r makes it (bracket
        # rows computed with _waves on its own basis) returns the (r, p) of
        # that row in one batch of all 512 starts of all three functions,
        # interleaved, as exhaustive_search makes it (bracket rows gathered
        # from the table): bisection steps, endpoint maxima and rows where
        # Newton never runs, as float.hex
        rng = np.random.default_rng(n)
        cells, table = search_reference.table_basis(n)
        basis = search._basis(n)
        at = search._bracket(np.arange(search._GRID_POINTS))
        for w in sorted({0, 1, n // 3, n // 2, n}):
            functions = [optimal_function(n, w)] + [
                SymmetricBooleanFunction(n=n, bits=tuple(rng.integers(0, 2, n + 1).tolist()))
                for _ in range(2)
            ]
            signs = np.array([f.signs() for f in functions], dtype=float)
            coefs = signs @ search._spectrum(n, w, basis)
            # row 3 g + k: function k from grid index g
            rows_at = np.repeat(at, len(functions), axis=1)
            r, p = search._refine(n, w, cells, np.tile(coefs, (search._GRID_POINTS, 1)),
                                  rows_at, table[rows_at])
            want = [(x.hex(), y.hex()) for x, y in zip(r.tolist(), p.tolist())]
            got = []
            for g in range(search._GRID_POINTS):
                one = at[:, g:g + 1]
                waves = search._waves(basis.theta[one], basis.lam)
                for k in range(len(functions)):
                    r, p = search._refine(n, w, basis, coefs[k:k + 1], one, waves.copy())
                    got.append((float(r[0]).hex(), float(p[0]).hex()))
            assert got == want, (n, w, [f.value for f in functions])


class TestSearchDigests:
    """Every record and sign-rule fit in range, pinned byte for byte (sha256)."""

    def test_exhaustive_records(self):
        # each line as RecordStore.append writes it, n <= MAX_EXHAUSTIVE_N, every w
        digest = hashlib.sha256()
        for n in range(1, search.MAX_EXHAUSTIVE_N + 1):
            for w in range(n + 1):
                digest.update((exhaustive_search(n, w).to_json() + "\n").encode())
        assert digest.hexdigest() == (
            "d65f34e48b7867b1e6411e3c5b75568f57b74ed48d174060c54c06f6576cd78f")

    def test_sign_rule_fits(self):
        # the lines the CI thread-count step writes to fits1.txt
        digest = hashlib.sha256()
        for n in range(1, 65):
            for w in range(n + 1):
                r, p = optimize_r(optimal_function(n, w), w)
                digest.update(f"{n} {w} {r.hex()} {p.hex()}\n".encode())
        assert digest.hexdigest() == (
            "f4275bd74c6db2630595ec557146cb6d1b72cf8a42f9c082f030b4eac88bfe05")


def _evict_cells(keep: int):
    """Fill the per-n cache with other sizes, so that `keep` is not held."""
    for m in [m for m in range(30, 41) if m != keep][:search._BASIS_CACHE]:
        search._cells(m)


class TestSharedBasis:
    """exhaustive_search builds the w-independent state once per n (_cells),
    optimize_r builds its own basis per call; results do not depend on either."""

    CASES = [
        *((n, w, "cell") for n in (6, 11, 24, 48) for w in (1, n // 3, n // 2, n - 1)),
        *((n, w, "fit") for n in (16, 62) for w in (1, n // 4, n // 2, n - 1)),
    ]

    @staticmethod
    def _result(n, w, kind):
        if kind == "cell":
            return exhaustive_search(n, w)
        return optimize_r(optimal_function(n, w), w)

    def test_cold_warm_and_evicted_agree(self):
        for n, w, kind in self.CASES:
            search._cells.cache_clear()
            cold = self._result(n, w, kind)
            info = search._cells.cache_info()
            warm = self._result(n, w, kind)
            if kind == "cell":
                assert search._cells.cache_info().hits > info.hits
            else:
                assert search._cells.cache_info() == info
            _evict_cells(n)
            evicted = self._result(n, w, kind)
            assert cold == warm == evicted, (n, w, kind)

    def test_cached_waves_are_the_grid_waves(self):
        for n in (1, 6, 11, 48):
            waves = search._cells(n)[1]
            lam = np.arange(-n, n + 1, 2)
            grid = np.linspace(0.0, float(n), search._GRID_POINTS)
            assert np.array_equal(waves, search._waves(search._theta(n, grid), lam[lam >= 0]))
            with pytest.raises(ValueError):
                waves[0, 0] = 2.0

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 6, 11, 48, 64])
    def test_per_n_state_is_the_per_call_formulas(self, n):
        # each cached array is its old per-call formula bit for bit (int64
        # views tell +0.0 from -0.0), and read-only
        basis, table = search._cells(n)
        state = {**basis._asdict(), "waves": table}
        h = n // 2
        lam = np.arange(n - 2 * h, n + 1, 2)
        grid = np.linspace(0.0, float(n), search._GRID_POINTS)
        theta = np.arcsin(np.sqrt(grid / max(n, 1)))
        phase = theta[:, None] * lam[None, :]
        want = {
            "K_scaled": basis.K * 2.0 ** -n,
            "alt": 1.0 - 2.0 * (np.arange(n - h, n + 1) & 1),
            "lam": lam,
            "lam2": lam * lam,
            "grid": grid,
            "theta": theta,
            "waves": np.hstack([np.cos(phase), np.sin(phase)]),
        }
        for name, value in want.items():
            got = state[name]
            assert got.dtype == value.dtype and got.shape == value.shape, name
            assert np.array_equal(got.view(np.int64), value.view(np.int64)), name
        for w in range(n + 1):
            # the phase (-i)^{w+i} split into its cosine and sine signs per row i
            phase = (w + np.arange(n + 1)) % 4
            cos_sign = np.array([1.0, 0.0, -1.0, 0.0])[phase, None]
            sin_sign = np.array([0.0, -1.0, 0.0, 1.0])[phase, None]
            assert np.array_equal(basis.phase_signs[w % 4], cos_sign), w
            assert np.array_equal(basis.phase_signs[(w + 1) % 4], sin_sign), w
        for name, a in state.items():
            with pytest.raises(ValueError):
                a.flat[0] = 2.0
            assert not a.flags.writeable, name

    def test_cache_hit_recomputes_no_grid(self, monkeypatch):
        # a cell on a cached state computes neither the grid nor its theta:
        # its one _theta call is on the refined r, one entry per candidate
        search._cells(9)
        calls = []
        real_linspace, real_theta = np.linspace, search._theta

        def linspace(*args, **kwargs):
            calls.append("linspace")
            return real_linspace(*args, **kwargs)

        def theta(n, rs):
            calls.append(rs.size)
            return real_theta(n, rs)

        monkeypatch.setattr(np, "linspace", linspace)
        monkeypatch.setattr(search, "_theta", theta)
        for w in range(1, 9):
            hits = search._cells.cache_info().hits
            exhaustive_search(9, w)
            assert search._cells.cache_info().hits == hits + 1
        assert "linspace" not in calls and len(calls) == 8
        assert all(size < search._GRID_POINTS for size in calls)

    def test_cache_bound(self):
        # only exhaustive_search, n <= 48, fills the cache; optimize_r at any n
        # leaves it as it was.  The basis and the table at n = 48 hold
        # 29345 floats, 234760 B, so the 8 kept take 1.79 MiB (the byte bound:
        # TestKrawtchoukFloats in test_symstate)
        cache = search._cells
        basis, table = cache(48)
        assert sum(a.nbytes for a in basis) + table.nbytes == 29345 * 8
        cache.cache_clear()
        for n in range(41, 49):
            exhaustive_search(n, 3)
        info = cache.cache_info()
        assert info.currsize == search._BASIS_CACHE
        for n in (65, *range(40, 50)):
            optimize_r(optimal_function(n, 3), 3)
            assert cache.cache_info() == info, n
        hits = info.hits
        for n in range(41, 49):
            exhaustive_search(n, 5)
        assert cache.cache_info().hits == hits + 8

    def test_one_shot_fits_keep_the_cells_basis(self):
        # cells at n = 9 interleaved with one-shot fits at 25 other sizes: the
        # fits build their own bases, so the n = 9 state is built once
        cold = []
        for w in range(1, 9):
            search._cells.cache_clear()
            cold.append(exhaustive_search(9, w))
        search._cells.cache_clear()
        fits = iter(range(16, 41))
        warm = []
        for w in range(1, 9):
            warm.append(exhaustive_search(9, w))
            for m in islice(fits, 4):
                optimize_r(optimal_function(m, m // 3), m // 3)
        assert next(fits, None) is None
        info = search._cells.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 7, 1)
        assert warm == cold

    def test_waves_are_one_row_major_array(self):
        # cos and sin written into one (R, 2L) array: the hstack of the two, bit for bit
        rng = np.random.default_rng(5)
        for n in (0, 1, 6, 11, 48, 64, 301):
            lam = np.arange(n % 2, n + 1, 2)
            for rs in (search._grid(n), rng.random(7) * n, np.array([n / 2])):
                theta = search._theta(n, rs)
                waves = search._waves(theta, lam)
                phase = theta[:, None] * lam[None, :]
                want = np.hstack([np.cos(phase), np.sin(phase)])
                assert waves.flags.c_contiguous and waves.shape == want.shape
                assert np.array_equal(waves.view(np.int64), want.view(np.int64)), n

    def test_overflow_leaves_nothing_cached(self):
        # Krawtchouk entries pass the float range at n = 1030
        cache = search._cells
        cache.cache_clear()
        for build in (cache, lambda n: optimize_r(SymmetricBooleanFunction.from_value(n, 0), 1)):
            with pytest.raises(OverflowError):
                build(1030)
            assert cache.cache_info().currsize == 0


class TestRealSpectrum:
    """The real coefficients equal the fold of the complex closed form."""

    def test_equals_fold_of_complex_closed_form(self):
        for n in range(65):
            basis = search._basis(n)
            for k in range(n + 1):
                coef = search._spectrum(n, k, basis)
                lam_ref, coef_ref = search_reference.fold(
                    *search_reference.biased_amplitude_spectrum(n, k))
                assert np.array_equal(basis.lam, lam_ref), (n, k)
                assert np.array_equal(coef, coef_ref), (n, k)

    def test_exact_tie_cells_keep_their_records(self):
        # two candidates tie to an ulp at (43, 19) and at (43, 24), so the
        # rounding of signs @ T picks the stored function; a row-major T
        # stores 195555 and 32AAAA8 instead
        assert search._spectrum(43, 19, search._basis(43)).flags.f_contiguous
        assert exhaustive_search(43, 19).f_hex == "40000195555"
        assert exhaustive_search(43, 24).f_hex == "32AAAAA"


class TestBaselineRecords:
    def test_dj_record(self):
        rec = dj_record(6, 2)
        assert rec.method == "dj"
        assert rec.r == 3.0
        assert rec.probability == pytest.approx(0.527344, abs=1e-6)
        assert rec.f_hex == "1C"
        # everywhere: p from one column sum is the float of the reduced
        # Fraction, and f is the sign-rule function
        for n in range(2, 49):
            for w in range(1, n):
                rec = dj_record(n, w)
                assert rec.probability == float(dj_optimal_success_exact(n, w)), (n, w)
                assert rec.f_hex == optimal_function(n, w).to_hex(), (n, w)
        with pytest.raises(ValueError, match="w=7 out of range"):
            dj_record(6, 7)

    def test_childs_record(self):
        rec = childs_record(6, 3)
        assert rec.method == "childs"
        assert rec.f_hex == ""
        assert rec.probability == pytest.approx(0.3125, abs=0)


class TestTableOne:
    def test_layout_and_rows(self):
        rows = table_one([4])
        assert len(rows) == 9  # three weights x three methods
        assert [r.method for r in rows[:3]] == ["biased", "dj", "childs"]
        assert all(r.n == 4 for r in rows)

    def test_middle_weight_coincidence(self):
        rows = {(r.w, r.method): r for r in table_one([6])}
        assert rows[(3, "dj")].probability == pytest.approx(rows[(3, "childs")].probability, abs=1e-12)

    def test_store_reuse(self, tmp_path):
        store = RecordStore(tmp_path / "db.jsonl")
        first = table_one([4], store=store)
        text = (tmp_path / "db.jsonl").read_text()
        again = table_one([4], store=store)
        assert first == again
        # cached: no new biased records were appended on the second pass
        assert (tmp_path / "db.jsonl").read_text() == text

    def test_refuses_past_bound_before_work(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(search, "exhaustive_search", lambda n, w: calls.append((n, w)))
        store = RecordStore(tmp_path / "db.jsonl")
        with pytest.raises(ResourceLimitError, match="n=49 exceeds the search bound 48"):
            table_one(range(47, 50), store=store)
        assert calls == [] and not store.path.exists()

    def test_store_baseline_rows_are_not_reused(self, tmp_path):
        store = RecordStore(tmp_path / "db.jsonl")
        store.append(dj_record(6, 2))
        store.append(childs_record(6, 3))
        rows = table_one([6], store=store)
        assert [r.method for r in rows[::3]] == ["biased"] * 5
        assert rows[3] == exhaustive_search(6, 2)
        assert rows[6] == exhaustive_search(6, 3)
        # the searched records were stored, next to the baseline rows
        assert len(list(store.records())) == 2 + 5


class TestRecordStore:
    def test_round_trip(self, tmp_path):
        store = RecordStore(tmp_path / "records.jsonl")
        rec = SearchRecord(n=4, w=2, f_hex="8", r=3.7013, probability=0.981763)
        store.append(rec)
        store.append(SearchRecord(n=4, w=2, f_hex="2", r=0.2987, probability=0.981763))
        assert list(store.records())[0] == rec
        lines = (tmp_path / "records.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert set(json.loads(lines[0])) == {"n", "w", "f_hex", "r", "probability", "method"}

    def test_index_prefers_probability_then_value(self, tmp_path):
        store = RecordStore(tmp_path / "records.jsonl")
        store.append(SearchRecord(n=4, w=1, f_hex="A", r=1.0, probability=0.5))
        store.append(SearchRecord(n=4, w=1, f_hex="3", r=2.0, probability=0.7))
        store.append(SearchRecord(n=4, w=1, f_hex="B", r=0.5, probability=0.7))
        store.append(SearchRecord(n=4, w=2, f_hex="2", r=0.3, probability=0.9))
        index = store.index()
        assert index[(4, 1)].f_hex == "3"
        assert index[(4, 2)].probability == 0.9

    def test_index_accepts_every_searched_record(self, tmp_path):
        # p of exhaustive_search(3, 0) is 1 + 2^-51, inside the stated slack
        store = RecordStore(tmp_path / "records.jsonl")
        records = [exhaustive_search(n, w) for n in (1, 3, 6) for w in range(n + 1)]
        assert max(rec.probability for rec in records) == 1 + 2.0**-51
        for rec in records:
            store.append(rec)
        assert store.index() == {(rec.n, rec.w): rec for rec in records}

    def test_index_refuses_an_impossible_record_naming_its_line(self, tmp_path):
        store = RecordStore(tmp_path / "records.jsonl")
        store.append(dj_record(4, 2))  # baseline rows are not checked: index leaves them out
        store.append(SearchRecord(n=4, w=2, f_hex="8", r=3.7013, probability=0.981763))
        store.append(SearchRecord(n=4, w=2, f_hex="20", r=3.7013, probability=0.981763))
        with pytest.raises(ValueError, match=r"records\.jsonl line 3: .*f_hex='20'"):
            store.index()

    def test_json_matches_asdict(self):
        # to_json builds the text of json.dumps(..., sort_keys=True) itself:
        # records of each method and edge values
        records = [
            exhaustive_search(6, 2), dj_record(6, 2), childs_record(6, 3),
            SearchRecord(n=1, w=0, f_hex="", r=0.0, probability=5e-324, method="childs"),
            SearchRecord(n=7, w=3, f_hex="7F", r=7 / 2, probability=1.0, method="dj"),
            SearchRecord(n=48, w=47, f_hex="1C5", r=-0.0, probability=0.1 + 0.2, method="biasé ✓"),
            SearchRecord(n=2, w=1, f_hex="A\"\\\n", r=1e-300, probability=2.5e300, method=""),
            # types a hand-edited line reads back as: an int r, NaN and infinity
            SearchRecord(n=3, w=1, f_hex="3", r=3, probability=float("nan")),
            SearchRecord(n=3, w=1, f_hex="3", r=float("-inf"), probability=float("inf")),
        ]
        for rec in records:
            assert rec.to_json() == json.dumps(dataclasses.asdict(rec), sort_keys=True)

    def test_append_is_the_json_line(self, tmp_path):
        # a missing file is created; earlier lines are kept; each record adds
        # exactly its to_json() and a newline
        path = tmp_path / "db.jsonl"
        store = RecordStore(path)
        first = SearchRecord(n=4, w=2, f_hex="8", r=3.7013, probability=0.981763)
        store.append(first)
        assert path.read_bytes() == (first.to_json() + "\n").encode()
        path.write_bytes(path.read_bytes() + b"\n")  # a blank line, as a hand edit leaves
        before = path.read_bytes()
        second = SearchRecord(n=4, w=2, f_hex="", r=2.0, probability=0.5, method="childs é")
        store.append(second)
        assert path.read_bytes() == before + (second.to_json() + "\n").encode()
        assert list(store.records()) == [first, second]

    def test_missing_file_is_empty(self, tmp_path):
        store = RecordStore(tmp_path / "nope.jsonl")
        assert list(store.records()) == []
        assert store.index() == {}
