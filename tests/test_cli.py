"""End-to-end checks of the command line interface through main()."""

import json

import pytest

from howe5 import tables
from howe5.cli import build_parser, main


class TestBundledTables:
    def test_row_counts(self):
        assert len(tables.load_table(1)) == 3
        assert len(tables.load_table(2)) == 19
        assert len(tables.load_table(3)) == 3

    def test_rows_are_params(self):
        params = tables.load_table(1)[0]
        assert params.mod.p == 499
        assert params.row() == (499, 47, 436, 2, 1, 10, 55, 92, 84, 36, 275)

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            tables.load_table(4)

    def test_parse_errors_name_the_source_line(self):
        with pytest.raises(ValueError, match=r"x\.csv:1"):
            tables.parse_rows("p,alpha1,nope\n1,2,3\n", "x.csv")
        good_header = "p,alpha1,alpha2,a1,a2,a3,a4,a5,a6,b5,b6"
        with pytest.raises(ValueError, match=r"x\.csv:2"):
            tables.parse_rows(good_header + "\n11,4,z,5,3,10,7,6,8,9,2\n", "x.csv")


class TestVerifyTables:
    def test_all_tables_pass(self, capsys):
        assert main(["verify-tables"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 25
        assert "FAIL" not in out

    def test_direct_oracle_rows(self, capsys):
        """Every table-2 row and the p = 37 table-3 row are small enough for
        a direct count next to the lifted one."""
        assert main(["verify-tables", "2"]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if l.startswith("  p=")]
        assert len(rows) == 19
        assert all("direct = " in l for l in rows)
        assert main(["verify-tables", "3"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [l for l in rows if "direct = " in l] == [
            "  p=37: #C(F_p^3) lifted = 52904, direct = 52904, bound = 52904 -> PASS"]

    def test_single_table(self, capsys):
        assert main(["verify-tables", "1"]) == 0
        out = capsys.readouterr().out
        assert "p=499" in out and "p=11 " not in out

    def test_corrupt_data_fails(self, tmp_path, capsys):
        bad = tmp_path / "t1.csv"
        # genuine header, wrong alpha on the first row
        src = tables.EXPECTED_HEADER
        bad.write_text(",".join(src) + "\n499,95,436,2,1,10,55,92,84,36,275\n")
        rc = main(["verify-tables", "1", "--data", str(bad)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_data_dir(self):
        assert main(["verify-tables", "1", "--data", "/nonexistent/dir"]) == 2


class TestDecompose:
    ARGS = ["decompose", "--p", "11", "--alpha1", "4", "--alpha2", "6",
            "--a", "5,3,10,7,6,8", "--b", "9,2"]

    def test_text_output(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "p = 11" in out
        assert "cross-ratios: a = 3 b = 10 c = 5" in out
        assert "maximal over F_p^2:" in out and "yes" in out

    def test_json_output_shape(self, capsys):
        assert main(self.ARGS + ["--json", "--ext", "2"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["p"] == 11
        assert d["factors"] == [{"theta": 8, "lambda": 6}, {"theta": 8, "lambda": 2},
                                {"theta": 8, "lambda": 2}, {"theta": 8, "lambda": 10},
                                {"theta": 3, "lambda": 10}]
        assert d["counts"]["2"]["C"] == 232
        assert d["verdicts"]["maximal_fp2"] is True

    def test_from_json_round_trip(self, tmp_path, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        blob = capsys.readouterr().out
        f = tmp_path / "params.json"
        f.write_text(blob)
        assert main(["decompose", "--from-json", str(f), "--json"]) == 0
        again = json.loads(capsys.readouterr().out)
        assert again["verdicts"] == json.loads(blob)["verdicts"]

    def test_invalid_params_exit_1(self, capsys):
        rc = main(["decompose", "--p", "11", "--alpha1", "1", "--alpha2", "1",
                   "--a", "0,1,2,3,5,6", "--b", "8,9"])
        assert rc == 1
        assert "not a nonzero square" in capsys.readouterr().err

    def test_cubic_extension_past_the_cap(self, capsys):
        # 499^3 is over the direct-count cap; the counts are lifted
        argv = ["decompose", "--p", "499", "--alpha1", "47", "--alpha2", "436",
                "--a", "2,1,10,55,92,84", "--b", "36,275", "--json", "--ext", "3"]
        assert main(argv) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["counts"]["3"]["q"] == 499 ** 3

    def test_missing_flags_usage_error(self, capsys):
        rc = main(["decompose", "--p", "11"])
        assert rc == 2

    def test_bad_ext_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + ["--ext", "4"])
        assert exc.value.code == 2


class TestCount:
    def test_legendre_style(self, capsys):
        assert main(["count", "--p", "11", "--theta", "8", "--lambda", "6"]) == 0
        assert "12" in capsys.readouterr().out

    def test_legendre_extension(self, capsys):
        assert main(["count", "--p", "11", "--theta", "8", "--lambda", "6",
                     "--ext", "2"]) == 0
        assert "144" in capsys.readouterr().out

    def test_general_style(self, capsys):
        assert main(["count", "--p", "11", "--alpha", "4",
                     "--roots", "5,3,10,7,6,8"]) == 0
        assert "12" in capsys.readouterr().out

    def test_mixed_styles_rejected(self):
        rc = main(["count", "--p", "11", "--theta", "8", "--lambda", "6",
                   "--alpha", "4", "--roots", "0,1,2"])
        assert rc == 2

    def test_no_curve_given(self):
        assert main(["count", "--p", "11"]) == 2

    def test_genus2_over_cap_fails(self, capsys):
        rc = main(["count", "--p", "3307", "--alpha", "1",
                   "--roots", "0,1,2,3,4,5", "--ext", "2"])
        assert rc == 1
        assert "cap" in capsys.readouterr().err.lower()

    def test_genus1_over_cap_lifts(self, capsys):
        # 3307^2 is over the cap, but a genus-1 count lifts from F_p
        rc = main(["count", "--p", "3307", "--theta", "5", "--lambda", "17",
                   "--ext", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recovered from" in out


class TestSearchCommand:
    def test_bad_floor_is_usage_error(self, capsys):
        rc = main(["search", "--target", "serre-fp", "--p-min", "5",
                   "--p-max", "31"])
        assert rc == 2

    def test_run_and_write(self, tmp_path, capsys):
        csv_path = tmp_path / "hits.csv"
        jsonl_path = tmp_path / "hits.jsonl"
        rc = main(["search", "--target", "maximal-fp2", "--p-min", "11",
                   "--p-max", "11", "--max-candidates", "100000",
                   "--max-hits", "3", "--seed", "1",
                   "--out", str(csv_path), "--jsonl", str(jsonl_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 hit(s)" in out
        header = csv_path.read_text().splitlines()[0]
        assert header == "p,alpha1,alpha2,a1,a2,a3,a4,a5,a6,b5,b6"
        assert len(jsonl_path.read_text().splitlines()) == 3

    def test_quiet_suppresses_rows(self, capsys):
        rc = main(["search", "--target", "maximal-fp2", "--p-min", "11",
                   "--p-max", "11", "--max-candidates", "20000",
                   "--max-hits", "2", "--seed", "1", "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "alpha1=" not in out.split("search ")[0]

    def test_fix_option(self, capsys):
        rc = main(["search", "--target", "maximal-fp2", "--p-min", "11",
                   "--p-max", "11", "--max-candidates", "100000",
                   "--max-hits", "1", "--seed", "0", "--fix", "a1=9", "--quiet"])
        assert rc == 0

    def test_bad_fix_slot(self):
        # rejected while parsing, before any search machinery runs
        with pytest.raises(SystemExit) as exc:
            main(["search", "--target", "maximal-fp2", "--p-min", "11",
                  "--p-max", "11", "--fix", "a6=3"])
        assert exc.value.code == 2


class TestSelftestAndParser:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        assert "checks passed" in capsys.readouterr().out

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_parser_prog_name(self):
        assert build_parser().prog == "howe5"
