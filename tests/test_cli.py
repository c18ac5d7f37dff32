import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dickeprep
from dickeprep import csvio, fullsim, symstate
from dickeprep.cli import main
from dickeprep.krawtchouk import column, matrix
from dickeprep.search import RecordStore, SearchRecord
from dickeprep.symfunc import SymmetricBooleanFunction


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestKrawtchoukCommand:
    def test_matrix_round_trip(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        code, _, _ = run(capsys, "krawtchouk", "--n", "6", "--out", str(path))
        assert code == 0
        meta, header, rows = csvio.read_csv(path)
        assert meta["command"] == "krawtchouk"
        assert header[0] == "i"
        entries = tuple(tuple(int(v) for v in row[1:]) for row in rows)
        assert entries == matrix(6)

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


class TestCnCommand:
    def test_figure_shape(self, capsys, tmp_path):
        path = tmp_path / "cn.csv"
        code, _, _ = run(capsys, "cn", "--max-n", "100", "--out", str(path))
        assert code == 0
        _, header, rows = csvio.read_csv(path)
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


class TestCurvesCommand:
    def test_round_trip(self, capsys, tmp_path):
        path = tmp_path / "curves.csv"
        code, _, _ = run(capsys, "curves", "--n", "12", "--out", str(path))
        assert code == 0
        _, header, rows = csvio.read_csv(path)
        assert header == ["w", "dj_prob", "childs_prob"]
        assert len(rows) == 13
        assert float(rows[0][1]) == 1.0 and float(rows[0][2]) == 1.0
        # dominance on the interior
        assert all(float(r[1]) >= float(r[2]) - 1e-12 for r in rows)


class TestSweepQuarterCommand:
    def test_rows(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep-quarter", "--max-n", "40", "--out", str(path))
        assert code == 0
        _, header, rows = csvio.read_csv(path)
        assert header == ["n", "dj_prob", "childs_prob"]
        assert [int(r[0]) for r in rows] == list(range(4, 41))
        assert all(float(r[1]) >= float(r[2]) - 1e-12 for r in rows)


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
        _, header, rows = csvio.read_csv(path)
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
        # one binomial row for the input, one for the amplified state: amplify's
        # re-plan, sampling and the CSV reuse the rows and gates of those two
        rows = []

        def counting_column(k, n):
            rows.append((k, n))
            return column(k, n)

        monkeypatch.setattr(symstate, "column", counting_column)
        for method in ("dj", "childs"):
            rows.clear()
            code, _, _ = run(capsys, "simulate", "--n", "40", "--w", "9", "--method", method,
                             "--grover", "--trials", "100", "--seed", "1")
            assert code == 0
            assert rows == [(0, 40), (0, 40)], method

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
        meta, header, rows = csvio.read_csv(path)
        assert header == ["x", "weight", "re", "im"]
        assert len(rows) == 16
        f = SymmetricBooleanFunction.from_hex(4, "12")
        expected = fullsim.biased_dj_output(f, 1.3)
        amps = np.zeros(16, dtype=complex)
        for row in rows:
            amps[int(row[0], 2)] = float(row[2]) + 1j * float(row[3])
        assert np.max(np.abs(amps - expected.amps)) < 1e-9
        assert "# symmetric True" in path.read_text()

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ("fullsim", "--n", "6", "--f", "2A", "--r", "2.5")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        path = tmp_path / "full.csv"
        code, _, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0
        assert path.read_bytes() == out.encode("utf-8")

    def test_cap_respected(self, capsys, monkeypatch):
        monkeypatch.setenv(fullsim.MAX_QUBITS_ENV, "3")
        code, _, err = run(capsys, "fullsim", "--n", "4", "--f", "0")
        assert code == 1
        assert "cap" in err


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


class TestTable1Command:
    def test_csv_and_db_cache(self, capsys, tmp_path):
        db = tmp_path / "db.jsonl"
        out1 = tmp_path / "t1.csv"
        code, _, _ = run(capsys, "table1", "--from", "4", "--to", "5",
                         "--db", str(db), "--out", str(out1))
        assert code == 0
        _, header, rows = csvio.read_csv(out1)
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
        _, _, rows = csvio.read_csv(out)
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
             "d93ef5e832b1bcb1c7f85db03df9276276f2928dcfed55df801c8679ceb56af8"),
            (("table1", "--from", "3", "--to", "7"),
             "fc59bb9ac5c0f3f467c1f72d38be49f4ca608df954812fe1f1f3cc303ee7f036"),
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
             "0ff2509612f068a06382a71129b7c3636d9acb47b51badd278d2c2f77d0bbcfa"),
            # odd n: no middle row
            (("krawtchouk", "--n", "41"),
             "a2264ad9478b9c6a499488b3ca7f851673cd06b0541dca2095a3d8e14e00d1c0"),
            (("cn", "--max-n", "81"),
             "c547354f0a588c3faa767eb956d6b67f0294bf2c5762a67a8f3994d03c07fa1f"),
            # Grover amplification, at the recommended t and at an explicit --t
            (("simulate", "--n", "300", "--w", "80", "--method", "dj", "--grover",
              "--trials", "20000", "--seed", "5"),
             "35c27ac6859dee70b75f3328b2a7c4914adf65e0a415caea993a9d26f7409fa3"),
            (("simulate", "--n", "300", "--w", "80", "--method", "childs", "--grover",
              "--trials", "20000", "--seed", "5"),
             "630359c46eac99e79646913013538223c3fcd3d8f3c068f591b0e5bc45357171"),
            (("simulate", "--n", "24", "--w", "11", "--method", "biased", "--grover",
              "--trials", "20000", "--seed", "5"),
             "b74bf89aab5c532a6eddcff9616861e14df513ecdfd480f0f2cfba1f173a0042"),
            (("simulate", "--n", "100", "--w", "25", "--method", "dj", "--grover", "--t", "7",
              "--trials", "20000", "--seed", "5"),
             "d1a8d93d34acdbc95ef762717ec713bb84f074f16511fbed8b6591a3f8bc3808"),
            # the largest n whose binomials fit a float
            (("simulate", "--n", "1029", "--w", "300", "--method", "dj", "--grover",
              "--trials", "20000", "--seed", "5"),
             "f3fc5d3b2f02f41e512fad8cdca445370ebbb4e2d3397ac313381fe9471cc427"),
            (("simulate", "--n", "1029", "--w", "300", "--method", "childs", "--grover",
              "--trials", "20000", "--seed", "5"),
             "d67f65f9d5dc2562ecac93fe258103210fc4b5668c54fce9b10b79895bc76a41"),
            # the largest dumps: few distinct amplitudes among 2^14 rows, big-int columns
            (("fullsim", "--n", "14", "--f", "2A5B", "--r", "5.3"),
             "7eeb1c16b685e82dc1c30af303a7188edfb3550589eff9e749f855fce5cff7d3"),
            (("krawtchouk", "--n", "160"),
             "5a8e5c824b803d9c40cfae3b6b1f2eb7e39cd85537d488b63d6a237c8d213aab"),
        ],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


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

    def test_failure_leaves_no_partial_file(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "out.csv"
        code, _, err = run(capsys, "cn", "--max-n", "5", "--out", str(target))
        assert code == 1 and err.startswith("error:")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []
