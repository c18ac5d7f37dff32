import dataclasses
import hashlib
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import dickeprep
from dickeprep import cli, csvio, fullsim, symstate
from dickeprep.cli import main
from dickeprep.krawtchouk import abs_column_sum, column, columns, matrix
from dickeprep.search import RecordStore, SearchRecord
from dickeprep.symfunc import SymmetricBooleanFunction
from dickeprep.symstate import c_minima_bytes, dicke

from csv_reference import read_csv, render_per_value, written
from profile_reference import dj_optimal_profile


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def quarter_dj(max_n):
    """[dj_optimal_success_exact(n, n // 4) for n = 0..max_n] as floats, the exact DJ quarter slice."""
    return [float(symstate.dj_optimal_success_exact(n, n // 4)) for n in range(max_n + 1)]


def quarter_childs(max_n):
    """[childs_probability(n, n // 4) for n = 0..max_n], the exact Childs quarter slice."""
    return [symstate.childs_probability(n, n // 4) for n in range(max_n + 1)]


def column_int_bytes(n):
    """The exact-integer bound of krawtchouk --k and optfn at n: a half and a full column, each int at most 2^n."""
    return cli._int_bytes(n // 2 + 1 + n + 1, n + 1)


def simulate_counts(out):
    """The count column of a simulate report printed with its CSV."""
    lines = out.splitlines()
    rows = lines[lines.index("weight,count,frequency,analytic") + 1:]
    return [int(row.split(",")[1]) for row in rows]


class TestKrawtchoukCommand:
    def test_matrix_round_trip(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        code, _, _ = run(capsys, "krawtchouk", "--n", "6", "--out", str(path))
        assert code == 0
        meta, header, rows = read_csv(path)
        assert meta["command"] == "krawtchouk"
        assert header[0] == "i"
        entries = tuple(tuple(int(v) for v in row[1:]) for row in rows)
        assert entries == matrix(6)

    def test_matrix_same_bytes_as_csv_writer(self, capsys, tmp_path):
        for n in range(201):
            code, out, err = run(capsys, "krawtchouk", "--n", str(n))
            assert (code, err) == (0, "")
            header = ["i"] + [f"k{k}" for k in range(n + 1)]
            rows = [(i, *row) for i, row in enumerate(zip(*columns(n)))]
            assert out == render_per_value("krawtchouk", {"n": n}, header, rows), n
            if n in (0, 1, 2, 57, 200):
                path = tmp_path / "m.csv"
                assert run(capsys, "krawtchouk", "--n", str(n), "--out", str(path))[:2] == (0, "")
                assert path.read_bytes() == out.encode("utf-8")

    def test_text_limit_refused_before_work(self, capsys, monkeypatch):
        calls = []
        real = cli.dump_rows

        def watched(n):
            calls.append(n)
            assert n <= 100  # a refusal that failed must not run the work
            return real(n)

        monkeypatch.setattr(cli, "dump_rows", watched)
        # the bound's decimal text passes 4300 digits here
        for huge in (10**6, 10**4000):
            code, out, err = run(capsys, "krawtchouk", "--n", str(huge))
            assert code == 1 and out == "" and calls == []
            with cli._full_integers():
                expected = (f"error: --n {huge} needs up to {cli._krawtchouk_text_bytes(huge)} B of text, "
                            f"over the limit {cli.MAX_KRAWTCHOUK_TEXT_BYTES} B")
            assert err.splitlines() == [expected]
        assert cli._krawtchouk_text_bytes(1030) <= cli.MAX_KRAWTCHOUK_TEXT_BYTES < cli._krawtchouk_text_bytes(1031)
        # the bound holds: the text of every cell fits it
        for n in (0, 1, 9, 160):
            assert sum(len(str(v)) + 1 for col in columns(n) for v in col) <= cli._krawtchouk_text_bytes(n)
        # the bound itself is accepted (checked at a lowered bound); --k prints one column, within its own text bound
        monkeypatch.setattr(cli, "MAX_KRAWTCHOUK_TEXT_BYTES", cli._krawtchouk_text_bytes(5))
        code, out, _ = run(capsys, "krawtchouk", "--n", "5")
        assert code == 0 and len(out.splitlines()) == 8 and calls == [5]
        code, out, err = run(capsys, "krawtchouk", "--n", "6")
        assert code == 1 and out == "" and calls == [5]
        assert err.splitlines() == ["error: --n 6 needs up to 196 B of text, over the limit 144 B"]
        code, out, _ = run(capsys, "krawtchouk", "--n", "6", "--k", "2")
        assert code == 0 and len(out.splitlines()) == 9 and calls == [5]

    def test_column_limits_refused_before_work(self, capsys, monkeypatch):
        calls = []
        real = cli.column

        def watched(k, n):
            calls.append(n)
            assert n <= 100  # a refusal that failed must not run the work
            return real(k, n)

        monkeypatch.setattr(cli, "column", watched)
        # the half column and the full column, each int at most 2^n; the limit is that of curves --n 20000
        need = column_int_bytes
        huge = 10**6
        code, out, err = run(capsys, "krawtchouk", "--n", str(huge), "--k", "3")
        assert code == 1 and out == "" and calls == []
        assert err.splitlines() == [
            f"error: --n {huge} needs up to {need(huge)} B of exact integers, over the limit {cli.MAX_EXACT_INT_BYTES} B"
        ]
        assert need(16304) <= cli.MAX_EXACT_INT_BYTES < need(16305)
        # the text bound holds: every row of the column fits it
        for n in (0, 1, 9, 160, 1000):
            for k in (0, n // 3, n):
                rows = "".join(f"{i},{v}\n" for i, v in enumerate(column(k, n)))
                assert len(rows) <= cli._column_text_bytes(n), (n, k)
        # each bound itself is accepted (checked at a lowered bound)
        monkeypatch.setattr(cli, "MAX_EXACT_INT_BYTES", need(5))
        code, out, _ = run(capsys, "krawtchouk", "--n", "5", "--k", "2")
        assert code == 0 and len(out.splitlines()) == 8 and calls == [5]
        code, out, err = run(capsys, "krawtchouk", "--n", "6", "--k", "2")
        assert code == 1 and out == "" and calls == [5]
        assert err.splitlines() == [f"error: --n 6 needs up to {need(6)} B of exact integers, over the limit {need(5)} B"]
        monkeypatch.setattr(cli, "MAX_EXACT_INT_BYTES", need(100))
        monkeypatch.setattr(cli, "MAX_KRAWTCHOUK_TEXT_BYTES", cli._column_text_bytes(5))
        code, out, _ = run(capsys, "krawtchouk", "--n", "5", "--k", "2")
        assert code == 0 and calls == [5, 5]
        code, out, err = run(capsys, "krawtchouk", "--n", "6", "--k", "2")
        assert code == 1 and out == "" and calls == [5, 5]
        assert err.splitlines() == ["error: --n 6 --k 2 needs up to 49 B of text, over the limit 42 B"]

    def test_column_stdout(self, capsys):
        code, out, _ = run(capsys, "krawtchouk", "--n", "6", "--k", "2")
        assert code == 0
        values = [int(line.split(",")[1]) for line in out.splitlines()[2:]]
        assert values == [1, 2, -1, -4, -1, 2, 1]

    def test_bad_k(self, capsys):
        code, _, err = run(capsys, "krawtchouk", "--n", "4", "--k", "9")
        assert code == 1
        assert err.startswith("error:") and "--k" in err


class TestOptfnCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "optfn", "--n", "6", "--w", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "re_f = [0, 0, 1, 1, 1, 0, 0]"
        assert lines[1] == "hex = 1C"
        assert lines[2] == "rw_f(2) = 12"

    def test_bad_w(self, capsys):
        code, _, err = run(capsys, "optfn", "--n", "4", "--w", "7")
        assert code == 1
        assert "--w" in err

    def test_bad_n_named_before_w(self, capsys):
        code, out, err = run(capsys, "optfn", "--n", "-1", "--w", "0")
        assert (code, out, err.splitlines()) == (1, "", ["error: --n must be non-negative, got -1"])
        code, out, _ = run(capsys, "optfn", "--n", "0", "--w", "0")
        assert code == 0 and out.splitlines() == ["re_f = [0]", "hex = 0", "rw_f(0) = 1"]

    def test_exact_int_limit_refused_before_work(self, capsys, monkeypatch):
        calls = []
        real = cli.optimal_function

        def watched(n, w):
            calls.append(n)
            assert n <= 100  # a refusal that failed must not run the work
            return real(n, w)

        monkeypatch.setattr(cli, "optimal_function", watched)
        # the sign rule reads column w, and rw_f(w) sums it again: a half and a full column, as krawtchouk --k
        huge = 10**6
        code, out, err = run(capsys, "optfn", "--n", str(huge), "--w", "3")
        assert code == 1 and out == "" and calls == []
        assert err.splitlines() == [
            f"error: --n {huge} needs up to {column_int_bytes(huge)} B of exact integers, "
            f"over the limit {cli.MAX_EXACT_INT_BYTES} B"
        ]
        # the bound itself is accepted (checked at a lowered bound)
        monkeypatch.setattr(cli, "MAX_EXACT_INT_BYTES", column_int_bytes(5))
        code, out, _ = run(capsys, "optfn", "--n", "5", "--w", "2")
        assert code == 0 and len(out.splitlines()) == 3 and calls == [5]
        code, out, err = run(capsys, "optfn", "--n", "6", "--w", "2")
        assert code == 1 and out == "" and calls == [5]
        assert err.splitlines() == [
            f"error: --n 6 needs up to {column_int_bytes(6)} B of exact integers, over the limit {column_int_bytes(5)} B"
        ]

    def test_exact_integer_past_4300_digits(self, capsys):
        # rw_f(1) at n = 14400 has 4333 digits, past CPython's default text limit
        get_limit = getattr(sys, "get_int_max_str_digits", None)
        before = get_limit() if get_limit else None
        code, out, err = run(capsys, "optfn", "--n", "14400", "--w", "1")
        assert code == 0, err
        assert (get_limit() if get_limit else None) == before  # restored for the caller
        text = out.splitlines()[2].removeprefix("rw_f(1) = ")
        assert len(text) == 4333 and text.isdigit()
        # compared in 40-digit pieces, each within the default limit
        expected = abs_column_sum(1, 14400)
        pieces = [int(text[max(0, j - 40):j]) for j in range(len(text), 0, -40)]
        assert sum(p * 10 ** (40 * i) for i, p in enumerate(pieces)) == expected


class TestCnCommand:
    def test_figure_shape(self, capsys, tmp_path):
        path = tmp_path / "cn.csv"
        code, _, _ = run(capsys, "cn", "--max-n", "100", "--out", str(path))
        assert code == 0
        _, header, rows = read_csv(path)
        assert header == ["n", "c", "w_min"]
        assert len(rows) == 100
        cs = {int(r[0]): float(r[1]) for r in rows}
        # odd-n points sit above even-n points
        assert min(c for n, c in cs.items() if n % 2 == 1) > max(
            c for n, c in cs.items() if n % 2 == 0
        )
        assert cs[1] == 1.0

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "cn", "--max-n", "12", "--out", str(a))
        run(capsys, "cn", "--max-n", "12", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_table_limit_named_past_4300_digits(self, capsys):
        # the table's byte count passes CPython's default int-to-text limit
        huge = 10**3000
        code, out, err = run(capsys, "cn", "--max-n", str(huge))
        assert (code, out) == (1, "")
        with cli._full_integers():
            expected = (f"error: --max-n {huge} needs a {c_minima_bytes(huge)} B float table, "
                        f"over the limit {cli.MAX_CN_TABLE_BYTES} B")
        assert err.splitlines() == [expected]


def exact_int_limit_refused_before_work(capsys, monkeypatch, command, flag, columns, need, largest):
    """`command flag v` past MAX_EXACT_INT_BYTES exits 1 with one error line before `columns` runs.

    need(v) is the command's byte bound and largest the largest v the limit admits.
    """
    calls = []
    real = getattr(cli, columns)

    def watched(v):
        calls.append(v)
        assert v <= 100  # a refusal that failed must not run the work
        return real(v)

    monkeypatch.setattr(cli, columns, watched)
    huge = 10**12
    code, out, err = run(capsys, command, flag, str(huge))
    assert code == 1 and out == "" and calls == []
    assert err.splitlines() == [
        f"error: {flag} {huge} needs up to {need(huge)} B of exact integers, over the limit {cli.MAX_EXACT_INT_BYTES} B"
    ]
    assert need(largest) <= cli.MAX_EXACT_INT_BYTES < need(largest + 1)
    # the bound itself is accepted (checked at a lowered bound)
    monkeypatch.setattr(cli, "MAX_EXACT_INT_BYTES", need(5))
    code, out, _ = run(capsys, command, flag, "5")
    assert code == 0 and out.count("\n") > 2 and calls == [5]
    code, out, err = run(capsys, command, flag, "6")
    assert code == 1 and out == "" and calls == [5]
    assert err.splitlines() == [f"error: {flag} 6 needs up to {need(6)} B of exact integers, over the limit {need(5)} B"]


class TestCurvesCommand:
    def test_round_trip(self, capsys, tmp_path):
        path = tmp_path / "curves.csv"
        code, _, _ = run(capsys, "curves", "--n", "12", "--out", str(path))
        assert code == 0
        _, header, rows = read_csv(path)
        assert header == ["w", "dj_prob", "childs_prob"]
        assert len(rows) == 13
        assert float(rows[0][1]) == 1.0 and float(rows[0][2]) == 1.0
        # dominance on the interior
        assert all(float(r[1]) >= float(r[2]) - 1e-12 for r in rows)

    @staticmethod
    def exact_csv(n):
        """The curves CSV with both columns from exact floats: dj_optimal_profile and childs_probability per w."""
        childs = [symstate.childs_probability(n, w) for w in range(n + 1)]
        header = ["w", "dj_prob", "childs_prob"]
        return written("curves", {"n": n}, header,
                       csvio.column_rows(header, [range(n + 1), dj_optimal_profile(n), childs]))

    @pytest.mark.parametrize("n", [79, 80, 81, 95, 96, 97, 350, 527, 999, 1000, 1029, 1030, 1100, 2000, 2200, 4000])
    def test_same_bytes_as_exact_path(self, capsys, n):
        # C(n, n//2) leaves the float range from n = 1030, and U[0, 0] = 2^(-n/2) is subnormal past n = 2044
        code, out, err = run(capsys, "curves", "--n", str(n))
        assert (code, err) == (0, "")
        assert out == self.exact_csv(n)

    def test_float_path_builds_binomial_row_once(self, capsys, monkeypatch):
        from dickeprep import krawtchouk, symfunc

        rows = []
        real = krawtchouk.half_column

        def counted(k, n):
            if k == 0:
                rows.append(n)
            return real(k, n)

        # krawtchouk.column builds through its module's half_column; the others hold their own binding
        for module in (krawtchouk, cli, symfunc, symstate):
            if hasattr(module, "half_column"):
                monkeypatch.setattr(module, "half_column", counted)
        for n in (12, 196):
            rows.clear()
            _, out, _ = run(capsys, "curves", "--n", str(n))
            assert rows == [n]
            assert out == self.exact_csv(n)

    def test_exact_int_limit_refused_before_work(self, capsys, monkeypatch):
        # the binomial half row and one exact column, n//2 + 1 ints each, at most 2^n; the limit is that of
        # --n 20000, the largest run measured, which 20001 shares
        exact_int_limit_refused_before_work(capsys, monkeypatch, "curves", "--n", "curves_columns",
                                            lambda n: cli._int_bytes(2 * (n // 2 + 1), n + 1), 20001)

    def test_float_path_same_bytes_at_every_small_n(self, capsys):
        for n in range(1, 401):
            _, out, _ = run(capsys, "curves", "--n", str(n))
            assert out == self.exact_csv(n), n


class TestSweepQuarterCommand:
    def test_rows(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep-quarter", "--max-n", "40", "--out", str(path))
        assert code == 0
        _, header, rows = read_csv(path)
        assert header == ["n", "dj_prob", "childs_prob"]
        assert [int(r[0]) for r in rows] == list(range(4, 41))
        assert all(float(r[1]) >= float(r[2]) - 1e-12 for r in rows)

    @staticmethod
    def exact_csv(max_n, dj=None, childs=None):
        """The sweep-quarter CSV from exact floats: quarter_dj(max_n) and quarter_childs(max_n).

        dj and childs, when given, are longer such lists, of which the CSV takes the prefix.
        """
        dj = quarter_dj(max_n) if dj is None else dj[: max_n + 1]
        childs = quarter_childs(max_n) if childs is None else childs[: max_n + 1]
        header = ["n", "dj_prob", "childs_prob"]
        return written("sweep-quarter", {"max_n": max_n}, header,
                       csvio.column_rows(header, [range(4, max_n + 1), dj[4:], childs[4:]]))

    @pytest.mark.parametrize("max_n", [4, 159, 160, 161, 697, 1029, 1030, 1100])
    def test_same_bytes_as_exact_path(self, capsys, max_n):
        code, out, err = run(capsys, "sweep-quarter", "--max-n", str(max_n))
        assert (code, err) == (0, "")
        assert out == self.exact_csv(max_n)

    def test_exact_int_limit_refused_before_work(self, capsys, monkeypatch):
        # the max_n + 1 carried C(n, n//4) and the bytes of 2 (max_n + 1) + 2048 more ints, at most 2^max_n
        exact_int_limit_refused_before_work(capsys, monkeypatch, "sweep-quarter", "--max-n", "quarter_columns",
                                            lambda m: cli._int_bytes(3 * (m + 1) + 2048, m + 1), 11158)

    def test_float_path_same_bytes_at_every_small_n(self, capsys):
        dj, childs = quarter_dj(400), quarter_childs(400)  # each a prefix of the next
        for max_n in range(4, 401):
            _, out, _ = run(capsys, "sweep-quarter", "--max-n", str(max_n))
            assert out == self.exact_csv(max_n, dj, childs), max_n


class TestSimulateCommand:
    def test_analytic_worked_example(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "6", "--w", "2", "--method", "dj")
        assert code == 0
        assert "analytic probability = 0.52734375" in out
        assert "f = 1C" in out

    def test_histogram(self, capsys, tmp_path):
        path = tmp_path / "hist.csv"
        code, out, _ = run(
            capsys, "simulate", "--n", "6", "--w", "2", "--method", "dj",
            "--trials", "100000", "--seed", "7", "--out", str(path),
        )
        assert code == 0
        _, header, rows = read_csv(path)
        assert header == ["weight", "count", "frequency", "analytic"]
        freq2 = float(rows[2][2])
        assert freq2 == pytest.approx(0.52734375, abs=5e-3)
        assert sum(int(r[1]) for r in rows) == 100000

    def test_seeded_reruns_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--n", "5", "--w", "1", "--method", "biased",
                "--r", "1.42458", "--f", "03", "--trials", "5000", "--seed", "3"]
        run(capsys, *args, "--out", str(a))
        run(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_childs_method(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "9", "--w", "1", "--method", "childs")
        assert code == 0
        printed = float(out.split("analytic probability = ")[1].splitlines()[0])
        assert printed == pytest.approx(0.389744, abs=1e-6)

    def test_grover_report(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--n", "10", "--w", "2", "--method", "dj", "--grover"
        )
        assert code == 0
        for key in ("theta = ", "t = ", "probability before = ", "probability after = ",
                    "expected repetitions before = ", "expected repetitions after = "):
            assert key in out
        before = float(out.split("probability before = ")[1].splitlines()[0])
        after = float(out.split("probability after = ")[1].splitlines()[0])
        assert after >= before

    def test_grover_result_off_unit_norm_refused(self, capsys):
        code, out, err = run(capsys, "simulate", "--n", "3", "--w", "1", "--method", "dj",
                             "--grover", "--t", "100000000000000")
        assert code == 1 and "state norm" in err
        assert "probability after" not in out

    def test_each_state_weighed_once(self, capsys, monkeypatch):
        # one binomial row per n per process: the input, the amplified state,
        # amplify's re-plan, sampling, the CSV and the next request all read it
        rows = []

        def counting_column(k, n):
            rows.append((k, n))
            return column(k, n)

        monkeypatch.setattr(symstate, "column", counting_column)
        symstate._binomial_row.cache_clear()
        for method in ("dj", "childs"):
            code, _, _ = run(capsys, "simulate", "--n", "40", "--w", "9", "--method", method,
                             "--grover", "--trials", "100", "--seed", "1")
            assert code == 0
        assert rows == [(0, 40)]

    def test_trials_limit_refused_before_synthesis(self, capsys, monkeypatch):
        # Generator.multinomial takes the count as an int64, so 2^63 - 1 is the bound
        calls = []
        real = cli._simulate_state

        def watched(args):
            calls.append(args.trials)
            return real(args)

        monkeypatch.setattr(cli, "_simulate_state", watched)
        for bad in (str(2**63), "0"):
            code, out, err = run(capsys, "simulate", "--n", "5", "--w", "2", "--method", "dj",
                                 "--grover", "--trials", bad)
            assert code == 1 and out == "" and calls == []
            assert err.splitlines() == [f"error: --trials must be in [1, 2^63 - 1], got {bad}"]
        top = 2**63 - 1
        code, out, _ = run(capsys, "simulate", "--n", "5", "--w", "2", "--method", "dj",
                           "--trials", str(top), "--seed", "1")
        assert code == 0 and calls == [top]
        assert sum(simulate_counts(out)) == top

    def test_cn_table_limit_refused_before_work(self, capsys, monkeypatch):
        calls = []
        real = cli.c_minima

        def watched(max_n):
            calls.append(max_n)
            assert max_n <= 100  # a refusal that failed must not run the work
            return real(max_n)

        monkeypatch.setattr(cli, "c_minima", watched)
        huge = 10**12
        code, out, err = run(capsys, "cn", "--max-n", str(huge))
        assert code == 1 and out == "" and calls == []
        assert err.splitlines() == [
            f"error: --max-n {huge} needs a {c_minima_bytes(huge)} B float table, "
            f"over the limit {cli.MAX_CN_TABLE_BYTES} B"
        ]
        assert c_minima_bytes(2895) <= cli.MAX_CN_TABLE_BYTES < c_minima_bytes(2896)
        # the bound itself is accepted (checked at a lowered bound)
        monkeypatch.setattr(cli, "MAX_CN_TABLE_BYTES", c_minima_bytes(5))
        code, out, _ = run(capsys, "cn", "--max-n", "5")
        assert code == 0 and len(out.splitlines()) == 7 and calls == [5]
        code, out, err = run(capsys, "cn", "--max-n", "6")
        assert code == 1 and out == "" and calls == [5]
        assert err.splitlines() == ["error: --max-n 6 needs a 10560 B float table, over the limit 7872 B"]

    def test_binomials_past_float_range_refused_before_synthesis(self, capsys, monkeypatch):
        calls = []

        def watched(args):
            calls.append((args.n, args.w))
            return dicke(args.n, args.w), None  # a stand-in, not the requested state

        monkeypatch.setattr(cli, "_simulate_state", watched)
        row = "every C(n, k) must be a float, which holds only up to n = 1029"
        refused = [
            (("--n", "1100", "--w", "550", "--method", "dj", "--grover"),
             f"C(1100, 550) exceeds the float range: with --grover, {row}"),
            (("--n", "1030", "--w", "3", "--method", "childs", "--trials", "10"),
             f"C(1030, 515) exceeds the float range: with --trials, {row}"),
            (("--n", "1031", "--w", "3", "--method", "biased", "--grover", "--trials", "10"),
             f"C(1031, 515) exceeds the float range: with --method biased and --grover "
             f"and --trials, {row}"),
            (("--n", "2000", "--w", "500", "--method", "childs"),
             "C(2000, 500) exceeds the float range (about 1.8e308) "
             "of the success probability C(n, w) a_w^2"),
            (("--n", str(1 << 1024), "--w", "1", "--method", "dj"),
             f"C({1 << 1024}, 1) exceeds the float range (about 1.8e308) "
             f"of the success probability C(n, w) a_w^2"),
            (("--n", "1029", "--w", "514", "--method", "dj", "--grover", "--trials", "10",
              "--seed", "-1"),
             "--seed must be non-negative, got -1"),
            (("--n", "5", "--w", "2", "--method", "dj", "--seed", "3"),
             "--seed requires --trials"),
        ]
        for argv, message in refused:
            code, out, err = run(capsys, "simulate", *argv)
            assert (code, out, err.splitlines()) == (1, "", [f"error: {message}"]), argv
        assert calls == []
        # the row edge itself, and one C(n, w) far past it without the row
        for argv in (("--n", "1029", "--w", "514", "--method", "dj", "--grover", "--trials", "10"),
                     ("--n", "5000", "--w", "2", "--method", "dj"),
                     ("--n", "5000", "--w", "4998", "--method", "childs")):
            code, out, _ = run(capsys, "simulate", *argv)
            assert code == 0 and "analytic probability" in out, argv
        assert calls == [(1029, 514), (5000, 2), (5000, 4998)]

    def test_grover_phase_past_float_bits_refused(self, capsys):
        t = "100000000000000000000000"
        code, out, err = run(capsys, "simulate", "--n", "6", "--w", "2", "--method", "dj",
                             "--grover", "--t", t)
        assert code == 1 and out == ""
        assert err.splitlines() == [
            f"error: t={t} puts the Grover phase (2t+1) theta past 2^52 rad "
            f"(theta = 0.812756), where it has no correct bits"
        ]

    def test_flag_conflicts(self, capsys):
        code, _, err = run(capsys, "simulate", "--n", "4", "--w", "1",
                           "--method", "childs", "--r", "1.0")
        assert code == 1 and "--r" in err
        code, _, err = run(capsys, "simulate", "--n", "4", "--w", "1",
                           "--method", "dj", "--t", "2")
        assert code == 1 and "--grover" in err


class TestFullsimCommand:
    def test_round_trip_and_profile(self, capsys, tmp_path):
        path = tmp_path / "full.csv"
        code, _, _ = run(capsys, "fullsim", "--n", "4", "--f", "12", "--r", "1.3",
                         "--out", str(path))
        assert code == 0
        meta, header, rows = read_csv(path)
        assert header == ["x", "weight", "re", "im"]
        assert len(rows) == 16
        f = SymmetricBooleanFunction.from_hex(4, "12")
        expected = fullsim.biased_dj_output(f, 1.3)
        amps = np.zeros(16)
        for row in rows:
            amps[int(row[0], 2)] = float(row[2])
        assert np.max(np.abs(amps - expected.amps)) < 1e-9
        assert {row[3] for row in rows} == {"0"}  # the amplitudes are real
        assert "# symmetric True" in path.read_text()

    @pytest.mark.parametrize("n", range(1, 15))
    def test_same_bytes_as_csv_writer(self, capsys, tmp_path, n):
        # f = 0 at r = n / 2 leaves all but one amplitude exactly zero
        values = (0, int(np.random.default_rng(n).integers(1, 1 << (n + 1))))
        functions = [SymmetricBooleanFunction.from_value(n, value) for value in values]
        for f, r in product(functions, (0.0, n / 3, n / 2, float(n))):
            argv = ("fullsim", "--n", str(n), "--f", f.to_hex(), "--r", repr(r))
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            state = fullsim.biased_dj_output(f, r)
            profile = fullsim.weight_profile(state)
            rows = zip([format(x, f"0{n}b") for x in range(1 << n)], fullsim.weights(n).tolist(),
                       state.amps.tolist(), [0.0] * (1 << n))
            trailer = [f"weight {k} amplitude {csvio.fmt(profile.amplitudes[k])} "
                       f"deviation {csvio.fmt(profile.deviations[k])}" for k in range(n + 1)]
            trailer.append(f"symmetric {profile.symmetric}")
            params = {"n": n, "f": f.to_hex(), "r": r}
            expected = render_per_value("fullsim", params, ["x", "weight", "re", "im"], rows, trailer)
            assert out == expected, (n, r)
            path = tmp_path / "full.csv"
            assert run(capsys, *argv, "--out", str(path))[:2] == (0, "")
            assert path.read_bytes() == out.encode("utf-8")

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ("fullsim", "--n", "6", "--f", "2A", "--r", "2.5")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        path = tmp_path / "full.csv"
        code, _, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0
        assert path.read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize("f_hex", ["0x3", " 3 ", "3_0", "+3", "0X1f", "\u0663"])
    def test_rejects_non_hex_function(self, capsys, f_hex):
        code, out, err = run(capsys, "fullsim", "--n", "4", "--f", f_hex, "--r", "1.3")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: --f: ") and "not a hex string" in err

    def test_cap_respected(self, capsys, monkeypatch):
        monkeypatch.setattr(fullsim, "MAX_QUBITS", 3)
        code, _, err = run(capsys, "fullsim", "--n", "4", "--f", "0")
        assert code == 1
        assert "cap" in err

    def test_cap_ignores_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("DICKEPREP_FULLSIM_MAX_QUBITS", "20")
        code, out, err = run(capsys, "fullsim", "--n", "17", "--f", "0")
        assert (code, out) == (1, "")
        assert err == "error: n=17 exceeds the dense-simulation cap 16\n"


def _straddle():
    """p and the next float up, which print differently: they straddle a 9-digit half-way point."""
    p = float("0.1234567885")
    if csvio.fmt(p) == "0.123456789":
        p = np.nextafter(p, 0.0)
    q = np.nextafter(p, 1.0)
    assert (csvio.fmt(p), csvio.fmt(q)) == ("0.123456788", "0.123456789")
    return float(p), float(q)


def _crafted(n, classes, seed=0):
    """2^n amplitudes, one seeded value per weight class but in the classes that `classes` lists.

    classes maps a weight to the values its members take, in index order,
    repeated as needed.
    """
    rng = np.random.default_rng(seed)
    amps = rng.uniform(-1.0, 1.0, n + 1)[fullsim.weights(n)]
    for w, values in classes.items():
        members = np.flatnonzero(fullsim.weights(n) == w)
        amps[members] = np.resize(np.array(values, dtype=float), members.size)
    return amps


P, Q = _straddle()
CLASS_RULE_CASES = {  # name -> (n, amps)
    "one ulp apart across a half-way point": (3, _crafted(3, {1: [P, Q, P]})),
    "negative, one ulp apart across a half-way point": (4, _crafted(4, {2: [-Q, -P]})),
    "+0.0 and -0.0": (3, _crafted(3, {2: [0.0, -0.0, 0.0]})),
    "-0.0 and +0.0, every other class zero too": (2, np.array([1.0, -0.0, 0.0, -0.0])),
    "min 0.0, max above 0": (3, _crafted(3, {1: [0.0, 0.25, 5e-324]})),
    "min below 0, max -0.0": (3, _crafted(3, {2: [-0.25, -0.0]})),
    "a nan beside ones": (3, _crafted(3, {1: [1.0, float("nan")]})),
    "n = 1": (1, np.array([0.6, -0.8])),
    "n = 1, signed zeros": (1, np.array([-0.0, 0.0])),
    "n = 16, one-text classes only": (16, fullsim.biased_dj_output(
        SymmetricBooleanFunction.from_hex(16, "1A5B5"), 7.3).amps),
    "n = 16, a straddle and a zero class": (16, _crafted(16, {1: [Q, P, P], 16: [-0.0]}, seed=16)),
    "n = 16, f = 0 at r = 8": (16, fullsim.biased_dj_output(SymmetricBooleanFunction.from_value(16, 0), 8.0).amps),
}


@pytest.mark.parametrize("name", sorted(CLASS_RULE_CASES))
def test_fullsim_rows_class_rule(name):
    # every row against csv.writer over per-value fmt, whichever texts its class takes
    n, amps = CLASS_RULE_CASES[name]
    header = ["x", "weight", "re", "im"]
    got = written("fullsim", {"n": n}, header, cli._fullsim_rows(n, amps))
    rows = zip([format(x, f"0{n}b") for x in range(1 << n)], fullsim.weights(n).tolist(),
               amps.tolist(), [0.0] * (1 << n))
    assert got == render_per_value("fullsim", {"n": n}, header, rows)


class TestSearchCommand:
    def test_appends_records(self, capsys, tmp_path):
        db = tmp_path / "db.jsonl"
        code, out, _ = run(capsys, "search", "--n", "4", "--w", "2", "--db", str(db))
        assert code == 0
        recs = list(RecordStore(db).records())
        assert len(recs) == 1
        assert recs[0].probability == pytest.approx(0.981763, abs=1e-4)
        assert out.strip() == recs[0].to_json()

    def test_all_w(self, capsys, tmp_path):
        db = tmp_path / "db.jsonl"
        code, _, _ = run(capsys, "search", "--n", "4", "--all-w", "--db", str(db))
        assert code == 0
        assert len(list(RecordStore(db).records())) == 3

    def test_large_n_within_bound(self, capsys, tmp_path):
        db = tmp_path / "db.jsonl"
        code, out, _ = run(capsys, "search", "--n", "40", "--w", "10", "--db", str(db))
        assert code == 0
        assert SearchRecord.from_json(out.strip()).n == 40

    def test_scan_knobs_are_gone(self, capsys, tmp_path):
        db = str(tmp_path / "db.jsonl")
        for argv in (["search", "--n", "4", "--w", "2", "--db", db],
                     ["table1", "--from", "4", "--to", "4"]):
            for knob in (["--jobs", "2"], ["--max-n", "20"], ["--grid", "64"]):
                with pytest.raises(SystemExit):
                    main(argv + knob)

    def test_requires_target(self, capsys, tmp_path):
        code, _, err = run(capsys, "search", "--n", "4", "--db", str(tmp_path / "x"))
        assert code == 1 and "--w" in err and "--all-w" in err

    def test_w_and_all_w_refused_together(self, capsys, tmp_path):
        db = tmp_path / "db.jsonl"
        code, out, err = run(capsys, "search", "--n", "6", "--w", "2", "--all-w", "--db", str(db))
        assert (code, out, err.splitlines()) == (1, "", ["error: --w and --all-w exclude each other"])
        assert not db.exists()


class TestTable1Command:
    def test_csv_and_db_cache(self, capsys, tmp_path):
        db = tmp_path / "db.jsonl"
        out1 = tmp_path / "t1.csv"
        code, _, _ = run(capsys, "table1", "--from", "4", "--to", "5",
                         "--db", str(db), "--out", str(out1))
        assert code == 0
        _, header, rows = read_csv(out1)
        assert header == ["n", "w", "method", "f_hex", "r", "probability"]
        assert len(rows) == 3 * (3 + 4)
        by_key = {(int(r[0]), int(r[1]), r[2]): r for r in rows}
        assert float(by_key[(4, 2, "biased")][5]) == pytest.approx(0.981763, abs=1e-4)
        assert float(by_key[(4, 2, "dj")][5]) == pytest.approx(0.375, abs=1e-6)
        assert float(by_key[(4, 2, "childs")][5]) == pytest.approx(0.375, abs=1e-6)
        # second run feeds off the database and emits identical bytes
        db_text = db.read_text()
        out2 = tmp_path / "t2.csv"
        run(capsys, "table1", "--from", "4", "--to", "5", "--db", str(db),
            "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()
        assert db.read_text() == db_text

    def test_rows_parse_as_records(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        run(capsys, "table1", "--from", "4", "--to", "4", "--out", str(out))
        _, _, rows = read_csv(out)
        recs = [
            SearchRecord(n=int(r[0]), w=int(r[1]), method=r[2], f_hex=r[3],
                         r=float(r[4]), probability=float(r[5]))
            for r in rows
        ]
        assert {rec.method for rec in recs} == {"biased", "dj", "childs"}
        assert all(0.0 <= rec.probability <= 1.0 for rec in recs)

    def test_meta_line(self, capsys):
        code, out, _ = run(capsys, "table1", "--from", "3", "--to", "3")
        assert code == 0
        assert out.splitlines()[0] == (
            f"# dickeprep {dickeprep.__version__} command=table1 from=3 to=3"
        )

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "table1", "--from", "5", "--to", "4")
        assert code == 1 and "--from" in err

    def test_record_needing_quotes_refused_before_output(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "table1", "--from", "3", "--to", "3", "--db", "bad.jsonl")[0] == 0
        lines = Path("bad.jsonl").read_text(encoding="utf-8").splitlines()
        edited = SearchRecord.from_json(lines[0])
        assert edited.method == "biased"
        lines[0] = dataclasses.replace(edited, f_hex="A,B").to_json()
        Path("bad.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "table1", "--from", "3", "--to", "3", "--db", "bad.jsonl", "--out", "t.csv")
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: bad.jsonl line 1: impossible search record: "
                                    "f_hex='A,B' is not the uppercase hex of a value below 2^4"]
        assert not Path("t.csv").exists() and not Path("t.csv.tmp").exists()

    @pytest.mark.parametrize("edit, named", [
        ({"f_hex": "ZZ", "probability": 7.5}, "f_hex='ZZ'"),  # printed as 3,1,biased,ZZ,0.35644419,7.5 before
        ({"probability": 7.5}, "probability=7.5"),
        ({"f_hex": "a"}, "f_hex='a'"),
        ({"f_hex": "01"}, "f_hex='01'"),
        ({"f_hex": "10"}, "f_hex='10'"),  # 16 needs n + 2 bits
        ({"f_hex": ""}, "f_hex=''"),
        ({"probability": -0.5}, "probability=-0.5"),
        ({"probability": 1.000000000000001}, "probability=1.000000000000001"),
        ({"probability": float("nan")}, "probability=nan"),
        ({"r": -0.25}, "r=-0.25"),
        ({"r": 3.5}, "r=3.5"),
        ({"r": float("inf")}, "r=inf"),
        ({"w": 4}, "w=4"),
        ({"n": 0}, "n=0"),
    ])
    def test_impossible_record_refused_before_output(self, capsys, tmp_path, monkeypatch, edit, named):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "table1", "--from", "3", "--to", "4", "--db", "bad.jsonl")[0] == 0
        lines = Path("bad.jsonl").read_text(encoding="utf-8").splitlines()
        lines[1] = dataclasses.replace(SearchRecord.from_json(lines[1]), **edit).to_json()  # n = 3, w = 2
        Path("bad.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "table1", "--from", "3", "--to", "4", "--db", "bad.jsonl", "--out", "t.csv")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: bad.jsonl line 2: impossible search record: {named} ")
        assert not Path("t.csv").exists() and not Path("t.csv.tmp").exists()

    def test_line_that_is_no_record_named(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("bad.jsonl").write_text('\n{"f_hex": "1", "method": "biased"}\n', encoding="utf-8")
        code, out, err = run(capsys, "table1", "--from", "3", "--to", "3", "--db", "bad.jsonl")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: bad.jsonl line 2: not a search record: ")

    def test_past_search_bound_refused_before_work(self, capsys, tmp_path):
        db = tmp_path / "t.jsonl"
        db.write_text("")
        code, out, err = run(capsys, "table1", "--from", "47", "--to", "49", "--db", str(db))
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error: n=49 exceeds the search bound 48; past it the grid sign patterns "
            "are not known to reach the optimum"
        ]
        assert db.read_text() == ""


class TestOutputDigests:
    """The reproduction CSVs are pinned byte for byte (sha256 of stdout)."""

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (("krawtchouk", "--n", "9"),
             "3c44704f4cf2658cf9f7fb34cd33845b7570ce53e975d721c656ee7a97b7ef9b"),
            (("krawtchouk", "--n", "8", "--k", "3"),
             "6d3d3035f8b061efb0f30f38df4995bae7e413e2e07f6b5f0852714a24de74f1"),
            (("cn", "--max-n", "40"),
             "256028537bca4faa316cf4a68f25e7b1a5d46ecd21cdf2b3bddb139963aa4cae"),
            (("curves", "--n", "61"),
             "81c4cae78c9fb41078d6791daea03c5b25c8a47095d28d486139fcd45caf56ee"),
            (("sweep-quarter", "--max-n", "64"),
             "503b5495b58af8e2b5d0148e2c4039c37187f77bec4d84697f9d233d1b176f02"),
            (("simulate", "--n", "5", "--w", "1", "--method", "biased", "--r", "1.42458",
              "--f", "03", "--trials", "5000", "--seed", "3"),
             "d9bc164d1adc97d97eb82fd1c0063d41c8c9ce15a2d13ffffb35aac763fa12ba"),
            (("table1", "--from", "3", "--to", "7"),
             "5741c7bfc028524bc5473792716aa9b9bee3a453ba5e9a859e08e039f6ff9e06"),
            # long enough that whole columns come from the additive stepper
            (("curves", "--n", "999"),
             "351e3a2d47e4390d0471e99a281a511d99c4802737de0549cc0a17268b100e22"),
            (("cn", "--max-n", "120"),
             "10bd240ff6d6ea7345371429584e3a3e6efe93f007b7a606c998d736cc95f579"),
            (("krawtchouk", "--n", "40"),
             "a4640fe8d1ce901d590cf2cbafdd078cbe6c2098539ca9022870543218c2af0d"),
            (("sweep-quarter", "--max-n", "300"),
             "4f1d0678ab36479fa2430411d11bfb527c20863a017d3441db5f235d0cc31de3"),
            # columns from the half-column palindrome, and per-column CSV formatting
            (("fullsim", "--n", "10", "--f", "2A5", "--r", "3.25"),
             "3e95b1dd5c6335d0dc72e91e82eb32e23e6f2e660c7ec56abd1a975f4e1e57d5"),
            # odd n: no middle row
            (("krawtchouk", "--n", "41"),
             "a2264ad9478b9c6a499488b3ca7f851673cd06b0541dca2095a3d8e14e00d1c0"),
            (("cn", "--max-n", "81"),
             "c547354f0a588c3faa767eb956d6b67f0294bf2c5762a67a8f3994d03c07fa1f"),
            # Grover amplification, at the recommended t and at an explicit --t
            (("simulate", "--n", "300", "--w", "80", "--method", "dj", "--grover",
              "--trials", "20000", "--seed", "5"),
             "6f7135791b69dd0c8f71219e4b8cdf34b03d7907ee2273bc9764eb2c68a1da2f"),
            (("simulate", "--n", "300", "--w", "80", "--method", "childs", "--grover",
              "--trials", "20000", "--seed", "5"),
             "c20831b59e338de79cb3b1939446786d972e693e52b1a40e5044e74da79db422"),
            (("simulate", "--n", "24", "--w", "11", "--method", "biased", "--grover",
              "--trials", "20000", "--seed", "5"),
             "45ed51053e5ef98f92d289265f5f8b312bd087eb4fa07cf051acb014fc7bd182"),
            (("simulate", "--n", "100", "--w", "25", "--method", "dj", "--grover", "--t", "7",
              "--trials", "20000", "--seed", "5"),
             "ba5d410ce0554e142a5fabb805f3937fcc3e13e0365d4fd53259388423088326"),
            # the largest n whose binomials fit a float
            (("simulate", "--n", "1029", "--w", "300", "--method", "dj", "--grover",
              "--trials", "20000", "--seed", "5"),
             "23a7f77ec16d01006e27097fa09de3d324f8e1e79b6910eb19bcfd348688fa6e"),
            (("simulate", "--n", "1029", "--w", "300", "--method", "childs", "--grover",
              "--trials", "20000", "--seed", "5"),
             "55424daeba0d2cbec4659a807e645a3597ffd39da871de30876c5e7bf5c09a13"),
            # the largest dumps: few distinct amplitudes among 2^14 rows, big-int columns
            (("fullsim", "--n", "14", "--f", "2A5B", "--r", "5.3"),
             "c058e8149c96a046c94cacf81106d6ec7592a1e370fbf47245e74b14c1949603"),
            (("krawtchouk", "--n", "160"),
             "5a8e5c824b803d9c40cfae3b6b1f2eb7e39cd85537d488b63d6a237c8d213aab"),
            # even n, several spectrum lanes and the folded middle row
            (("simulate", "--n", "706", "--w", "92", "--method", "dj", "--grover",
              "--trials", "20000", "--seed", "5"),
             "eddf1d1f0699a6e354ffd090468062eabca1c4ecbd391baf5bb01e3d4deab6a1"),
            # the Newton-refined search through n = 11
            (("table1", "--from", "8", "--to", "11"),
             "b1d7105ad8d3a6b8707c20d56a3caedd6b8396fbe35da18e7a0c4da507519618"),
            # columns carried along n: the largest benchmark sizes
            (("cn", "--max-n", "250"),
             "6f5f9efe5377da1d715e735d689aacccbdc44b68a41b08bec79963479a7d101f"),
            (("sweep-quarter", "--max-n", "800"),
             "44c8df3394d7f6757614762809c3459c1c7368d83fc3d3b41f283ef2c0e19299"),
            # the smallest palindrome and mirror edge of the dump
            (("krawtchouk", "--n", "1"),
             "113b446998022b215ad83d3551840184c972d539910d82cfbf45f46d17f0008f"),
            # c(n) past the float filter's reseeding of candidate columns
            (("cn", "--max-n", "600"),
             "e2ea6d4189dcdca78fed42fb5ad6c9d3c3b0b9cbfb63a819ef3a11ecec606656"),
            # odd n, odd w: the direct dot reads the odd columns and the mirror dot the even
            # ones, the other way round from n = 1029, w = 300
            (("simulate", "--n", "1027", "--w", "301", "--method", "dj", "--grover",
              "--trials", "20000", "--seed", "5"),
             "f844f725f78f13d9bee90384a925b69e85a60cab61b76a3f93beb1aa3aa6929f"),
            # C(n, n // 4) past the float range from n = 1270; from the DJ anchor at n = 1728
            # on, the anchors' smallest entries are flushed
            (("sweep-quarter", "--max-n", "1300"),
             "658e63e08a9843c7a3c6fd5f07a7f1d30557480bc258f57946af4f442c5f8a30"),
            (("sweep-quarter", "--max-n", "2500"),
             "a3b7cf02f1f707db1ea0403c1c780de5f82af4a9a15dd8e44a1e83f10cbf3108"),
        ],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_search_all_w_digest(self, capsys, tmp_path):
        # every w after the first reads the per-n basis cached by the one before
        code, out, _ = run(capsys, "search", "--n", "40", "--all-w", "--db", str(tmp_path / "db.jsonl"))
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "c41c50c97e45e625584dcd55b4c95fae2fa9cc12cf6ed60150dbf7710951c3d5")


class TestHarness:
    def test_module_entry_point(self):
        # the subprocess imports the same dickeprep as this test run
        root = str(Path(dickeprep.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "dickeprep.cli", "optfn", "--n", "6", "--w", "2"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "hex = 1C" in proc.stdout

    def test_unallocatable_trials_refused_in_one_line(self):
        # 10^11 outcomes would need 745 GiB, but the counts are one multinomial
        # draw, so the run fits under a 4 GiB address-space cap.  Past int64,
        # the count numpy takes, the request is refused in one line.
        resource = pytest.importorskip("resource")

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

        root = str(Path(dickeprep.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))

        def simulate(trials):
            return subprocess.run(
                [sys.executable, "-m", "dickeprep.cli", "simulate", "--n", "5", "--w", "2",
                 "--method", "dj", "--trials", str(trials), "--seed", "1"],
                capture_output=True, text=True, env=env, preexec_fn=cap_address_space,
            )

        proc = simulate(10**11)
        assert proc.returncode == 0 and proc.stderr == ""
        assert sum(simulate_counts(proc.stdout)) == 10**11
        proc = simulate(2**63)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.splitlines() == [f"error: --trials must be in [1, 2^63 - 1], got {2**63}"]

    @pytest.mark.parametrize("argv", [
        ["krawtchouk", "--n", "abc"],
        ["simulate", "--n", "6", "--w", "2", "--method", "dj", "--trials", "1e3"],
        ["search", "--n", "4", "--w", "2"],  # no --db
    ])
    def test_parse_error_exits_2_with_usage(self, capsys, argv):
        # argparse's convention, apart from the exit 1 of a refused value
        with pytest.raises(SystemExit) as info:
            main(argv)
        out, err = capsys.readouterr()
        assert info.value.code == 2 and out == ""
        lines = err.splitlines()
        assert lines[0].startswith(f"usage: dickeprep {argv[0]} ")
        assert lines[-1].startswith(f"dickeprep {argv[0]}: error: ")

    def test_simulate_failure_prints_nothing(self, capsys, tmp_path):
        # the report lines are held until the CSV is written
        target = tmp_path / "missing-dir" / "hist.csv"
        code, out, err = run(capsys, "simulate", "--n", "5", "--w", "2", "--method", "dj",
                             "--grover", "--trials", "100", "--seed", "1", "--out", str(target))
        assert code == 1 and err.startswith("error:")
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_failure_leaves_no_partial_file(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "out.csv"
        code, _, err = run(capsys, "cn", "--max-n", "5", "--out", str(target))
        assert code == 1 and err.startswith("error:")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []
