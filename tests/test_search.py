import json
from math import comb

import numpy as np
import pytest

from dickeprep import fullsim, search
from dickeprep.errors import ResourceLimitError
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
    biased_amplitude_spectrum,
    biased_amplitude_table,
    biased_dj_state,
    childs_probability,
    dj_optimal_success_exact,
    dj_state,
    success_probability,
)


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


def brute_force(n, w):
    """Reference scan: every one of the 2^(n+1) functions through the batch kernel."""
    values = np.arange(1 << (n + 1), dtype=np.int64)
    r, p = search._optimize_batch(n, w, search._sign_rows(n, values))
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
                lam, C = biased_amplitude_spectrum(n, w)
                T = (C @ np.exp(-1j * np.outer(lam, theta))).real
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
        r, p = search._optimize_batch(n, w, search._sign_rows(n, values))
        assert np.array_equal(p, p[::-1]) and np.array_equal(r, r[::-1])

    def test_scan_tie_keeps_lower_complement(self):
        # the winner's complement ties it exactly, so the lower value, with
        # f_n = 0, wins
        for n, w in ((4, 1), (5, 2), (8, 3), (9, 6), (10, 3)):
            rec = exhaustive_search(n, w)
            f = SymmetricBooleanFunction.from_hex(n, rec.f_hex)
            assert f.bits[n] == 0


class TestBaselineRecords:
    def test_dj_record(self):
        rec = dj_record(6, 2)
        assert rec.method == "dj"
        assert rec.r == 3.0
        assert rec.probability == pytest.approx(0.527344, abs=1e-6)
        assert rec.f_hex == "1C"

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

    def test_missing_file_is_empty(self, tmp_path):
        store = RecordStore(tmp_path / "nope.jsonl")
        assert list(store.records()) == []
        assert store.index() == {}
