"""End-to-end checks of the command line interface through main()."""

import gc
import hashlib
import json
import re
import tracemalloc
from importlib import resources

import pytest

from howe5 import cli, tables
from howe5.errors import DecompositionMismatch
from howe5.cli import build_parser, main
from howe5.curve_models import count_points
from howe5.field_arith import PRIME_CAP
from howe5.hasse_serre import LegendreCurve

# the least prime past the cap
PAST_CAP = 1048583
PAST_CAP_ERR = f"error: modulus {PAST_CAP} exceeds the cap {PRIME_CAP}\n"


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

    def test_row_below_the_least_prime_fails(self, tmp_path, capsys):
        """A valid row at p = 11, below serre-fp's least prime 17, where the
        predicate decides nothing: table 1 cannot hold it."""
        rows = tmp_path / "t1.csv"
        rows.write_text(",".join(tables.EXPECTED_HEADER) + "\n11,4,6,5,3,10,7,6,8,9,2\n")
        assert main(["verify-tables", "1", "--data", str(rows)]) == 1
        out = capsys.readouterr().out
        assert "  p=11: FAIL bound predicate over F_p\n" in out
        assert "1 row(s) FAILED" in out

    def test_missing_data_dir(self):
        assert main(["verify-tables", "1", "--data", "/nonexistent/dir"]) == 2

    @pytest.mark.parametrize("args,err", [
        (["--data", "{dir}/t.csv"], "verify-tables --data needs the table number the rows claim"),
        (["1", "--data", "{dir}/none.csv"], "[Errno 2] No such file or directory: '{dir}/none.csv'"),
        (["1", "--data", "{dir}/t.csv"], "{dir}/t.csv:1: bad header ['p', 'alpha1', 'nope']"),
        (["1", "--data", "{dir}"], "[Errno 21] Is a directory: '{dir}'"),
    ], ids=["usage", "missing-file", "bad-header", "directory"])
    def test_usage_errors_print_one_line_and_exit_2(self, tmp_path, capsys, args, err):
        (tmp_path / "t.csv").write_text("p,alpha1,nope\n1,2,3\n")
        args = [a.format(dir=tmp_path) for a in args]
        assert main(["verify-tables", *args]) == 2
        assert capsys.readouterr().err == f"error: {err.format(dir=tmp_path)}\n"

    def test_row_past_the_prime_cap_exits_2(self, tmp_path, capsys):
        """Like every other bad row, a prime past the cap names its line."""
        rows = tmp_path / "rows.csv"
        rows.write_text(",".join(tables.EXPECTED_HEADER) + f"\n{PRIME_CAP},1,1,0,1,2,3,4,5,6,7\n")
        assert main(["verify-tables", "2", "--data", str(rows)]) == 2
        assert capsys.readouterr().err == (
            f"error: {rows}:2: modulus {PRIME_CAP} exceeds the cap {PRIME_CAP}\n")

    def test_data_needs_table_number(self, capsys):
        """Rows read with --data are checked against one claimed target,
        never against all three."""
        rows = resources.files("howe5.data") / "table2.csv"
        assert main(["verify-tables", "--data", str(rows)]) == 2
        assert "table number" in capsys.readouterr().err

    @pytest.mark.parametrize("text,err", [
        ("", "{path}: empty table"),
        ("{header}\n11,4,6,5,3,10,7,6,8,9\n", "{path}:2: need 11 values per row, got 10"),
    ], ids=["empty", "ten-values"])
    def test_malformed_data_exits_2(self, tmp_path, capsys, text, err):
        rows = tmp_path / "rows.csv"
        rows.write_text(text.format(header=",".join(tables.EXPECTED_HEADER)))
        assert main(["verify-tables", "2", "--data", str(rows)]) == 2
        assert capsys.readouterr().err == f"error: {err.format(path=rows)}\n"

    def test_blank_data_lines_are_skipped(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        row = "11,4,6,5,3,10,7,6,8,9,2"
        rows.write_text(",".join(tables.EXPECTED_HEADER) + f"\n{row}\n\n  \n{row}\n")
        assert main(["verify-tables", "2", "--data", str(rows)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("table 2 (maximal-fp2): 2 rows\n")
        assert out.count("-> PASS") == 2

    def test_invalid_rows_name_their_violations(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        rows.write_text(",".join(tables.EXPECTED_HEADER)
                        + "\n11,1,1,0,1,2,3,5,6,8,9\n11,0,1,0,1,2,3,4,4,8,9\n")
        assert main(["verify-tables", "2", "--data", str(rows)]) == 1
        assert capsys.readouterr().out == (
            "table 2 (maximal-fp2): 2 rows\n"
            "  p=11: FAIL invalid (NonSquareObstruction; NonSquareObstruction)\n"
            "  p=11: FAIL invalid (Degenerate; Degenerate)\n"
            "2 row(s) FAILED\n")

    def test_a_mathematical_failure_exits_1(self, monkeypatch, capsys):
        """A Howe5Error raised while a row is counted fails that row, exit 1,
        never the usage code 2."""
        def mismatch(split):
            raise DecompositionMismatch("quotient counts disagree")

        monkeypatch.setattr(cli, "howe_counts", mismatch)
        assert main(["verify-tables", "1"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[1:] == ["  p=499: FAIL quotient counts disagree",
                           "  p=599: FAIL quotient counts disagree",
                           "  p=1187: FAIL quotient counts disagree",
                           "3 row(s) FAILED"]


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

    @pytest.mark.parametrize("blob,err", [
        ({"p": 11, "alpha1": 4, "a": [5, 3, 10, 7, 6, 8], "b": [9, 2]},
         "parameters lack the key 'alpha2'"),
        ([11, 4, 6], "parameters must be a JSON object with integers p, alpha1, "
                     "alpha2 and integer lists a, b"),
        ({"p": 11, "alpha1": 4, "alpha2": 6, "a": [5.5, 3, 10, 7, 6, 8], "b": [9, 2]},
         "parameters must be a JSON object with integers p, alpha1, "
         "alpha2 and integer lists a, b"),
    ], ids=["missing-key", "not-an-object", "float-root"])
    def test_bad_json_is_usage_error(self, tmp_path, capsys, blob, err):
        f = tmp_path / "params.json"
        f.write_text(json.dumps(blob))
        assert main(["decompose", "--from-json", str(f)]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

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

    def test_prime_past_the_cap_exits_2(self, capsys):
        assert main(["decompose", "--p", str(PAST_CAP), "--alpha1", "1", "--alpha2", "1",
                     "--a", "0,1,2,3,4,5", "--b", "6,7"]) == 2
        assert capsys.readouterr().err == PAST_CAP_ERR

    def test_from_json_prime_past_the_cap_exits_2(self, tmp_path, capsys):
        f = tmp_path / "params.json"
        f.write_text(json.dumps({"p": PAST_CAP, "alpha1": 1, "alpha2": 1,
                                 "a": [0, 1, 2, 3, 4, 5], "b": [6, 7]}))
        assert main(["decompose", "--from-json", str(f)]) == 2
        assert capsys.readouterr().err == PAST_CAP_ERR

    def test_missing_flags_usage_error(self, capsys):
        rc = main(["decompose", "--p", "11"])
        assert rc == 2

    @pytest.mark.parametrize("flag,value,err", [
        ("--a", "5,3,x,7,6,8", "--a: expected integers, got '5,3,x,7,6,8'"),
        ("--a", "5,3,10,7,6", "--a: expected 6 values, got 5"),
        ("--b", "9,2,1", "--b: expected 2 values, got 3"),
    ], ids=["a-not-integers", "a-count", "b-count"])
    def test_bad_root_list_is_usage_error(self, capsys, flag, value, err):
        args = list(self.ARGS)
        args[args.index(flag) + 1] = value
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert f"error: argument {flag}: {err}\n" in capsys.readouterr().err

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

    @pytest.mark.parametrize("curve,err", [
        (["--theta", "8"], "count needs both --theta and --lambda"),
        (["--lambda", "6"], "count needs both --theta and --lambda"),
        (["--alpha", "4"], "count needs both --alpha and --roots"),
        (["--roots", "0,1,2"], "count needs both --alpha and --roots"),
        (["--alpha", "4", "--roots", "0,x,2"], "--roots: expected integers, got '0,x,2'"),
    ], ids=["theta-only", "lambda-only", "alpha-only", "roots-only", "bad-roots"])
    def test_incomplete_curve_is_usage_error(self, capsys, curve, err):
        assert main(["count", "--p", "11", *curve]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize("curve", [["--theta", "1", "--lambda", "5"],
                                       ["--alpha", "1", "--roots", "0,1,2"]],
                             ids=["legendre", "general"])
    def test_prime_past_the_cap_exits_2(self, capsys, curve):
        """A prime past the cap is a usage error; a count past the element
        cap (below) is a failure."""
        assert main(["count", "--p", str(PAST_CAP), *curve]) == 2
        assert capsys.readouterr().err == PAST_CAP_ERR

    def test_genus2_over_cap_fails(self, capsys):
        rc = main(["count", "--p", "3307", "--alpha", "1",
                   "--roots", "0,1,2,3,4,5", "--ext", "2"])
        assert rc == 1
        assert "cap" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("p, theta, lam", [(11, 8, 6), (11, 3, 10), (13, 2, 5), (13, 1, 12)])
    @pytest.mark.parametrize("j", [2, 3])
    def test_genus1_extension_is_lifted(self, capsys, p, theta, lam, j):
        """Below the cap the lifted genus-1 count equals the direct count."""
        assert main(["count", "--p", str(p), "--theta", str(theta), "--lambda", str(lam),
                     "--ext", str(j)]) == 0
        out = capsys.readouterr().out
        direct = count_points(LegendreCurve.from_ints(p, theta, lam).model(), j).count
        assert out.startswith(f"#C(F_{p}^{j}) = {direct}  (genus 1, ")
        assert "recovered from the F_p trace" in out

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

    @pytest.mark.parametrize("cap", [["--max-hits", "-1"], ["--max-hits", "0"],
                                     ["--max-candidates", "-5"], ["--time-budget", "-1"],
                                     ["--time-budget", "nan"]])
    def test_non_positive_cap_is_usage_error(self, capsys, cap):
        rc = main(["search", "--target", "maximal-fp2", "--p-min", "11",
                   "--p-max", "11", *cap])
        assert rc == 2
        assert "bad search configuration" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flag", ["--out", "--jsonl"])
    def test_output_path_is_a_directory(self, tmp_path, capsys, flag):
        rc = main(["search", "--target", "maximal-fp2", "--p-min", "11",
                   "--p-max", "11", "--max-hits", "1", "--quiet", flag, str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_unwritable_output_fails_before_the_search(self, monkeypatch, capsys):
        def unreachable(config, stats):
            raise AssertionError("the search ran")

        monkeypatch.setattr(cli, "enumerate_hits", unreachable)
        rc = main(["search", "--target", "maximal-fp2", "--p-min", "11", "--p-max", "11",
                   "--quiet", "--out", "/nonexistent/x.csv"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("jsonl", ["hits.csv", "./sub/../hits.csv", "link.csv"])
    def test_out_and_jsonl_on_one_file_fails_before_the_search(
            self, tmp_path, monkeypatch, capsys, jsonl):
        # the same file by name, by another spelling and through a symlink;
        # both writers on it used to leave a corrupt file and exit 0
        def unreachable(config, stats):
            raise AssertionError("the search ran")

        monkeypatch.setattr(cli, "enumerate_hits", unreachable)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.csv").symlink_to(tmp_path / "hits.csv")
        rc = main(["search", "--target", "maximal-fp2", "--p-min", "11", "--p-max", "11",
                   "--quiet", "--out", "hits.csv", "--jsonl", jsonl])
        assert rc == 2
        assert capsys.readouterr().err == "error: --out and --jsonl name the same file: hits.csv\n"
        assert not (tmp_path / "hits.csv").exists()

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

    def test_a5_pinned_equal_to_a1_is_counted(self, capsys):
        # 14 = 3 mod 11: the one chunk a1 = 3 has no probe, so the prime is
        # counted, not scanned
        rc = main(["search", "--target", "maximal-fp2", "--p-min", "11", "--p-max", "11",
                   "--fix", "a1=3", "--fix", "a5=14"])
        assert rc == 0
        assert "0 hit(s), 0 probes" in capsys.readouterr().out

    @pytest.mark.parametrize("fix,err", [
        ("a1", "--fix takes slot=value, got 'a1'"),
        ("a1=x", "--fix a1: bad integer 'x'"),
    ], ids=["no-value", "not-an-integer"])
    def test_malformed_fix_is_usage_error(self, capsys, fix, err):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--target", "maximal-fp2", "--p-min", "11", "--p-max", "11",
                  "--fix", fix])
        assert exc.value.code == 2
        assert f"error: argument --fix: {err}\n" in capsys.readouterr().err

    def test_readme_search_output_is_pinned(self, tmp_path, capsys, monkeypatch):
        """The README's search: its CSV, JSON lines and stdout, the elapsed
        time masked, are fixed bytes, written hit by hit as the search
        finds them."""
        monkeypatch.chdir(tmp_path)
        rc = main(["search", "--target", "maximal-fp2", "--p-min", "3", "--p-max", "13",
                   "--max-candidates", "1000000", "--max-hits", "20", "--seed", "7",
                   "--out", "hits.csv", "--jsonl", "hits.jsonl"])
        assert rc == 0
        out = re.sub(r"[0-9]+\.[0-9]+s\n$", "Xs\n", capsys.readouterr().out)
        assert out.endswith("search maximal-fp2 p in [3, 13]: 20 hit(s), 157352 probes, "
                            "0 confirm failure(s), truncated, Xs\n")
        digests = [hashlib.sha256(blob).hexdigest() for blob in (
            (tmp_path / "hits.csv").read_bytes(), (tmp_path / "hits.jsonl").read_bytes(),
            out.encode())]
        assert digests == [
            "15c76041560bccbd4af48ef750a2caf003375e67cc365321d902fd5bf0d2a444",
            "1989a6dac9fcfdb9388521b5850e169370d312e98979121673fa48fed6c4c743",
            "f91ceb7486be137f2b44fb1618e4392fb131fa3c3b9a410d23b5bd42bbc30914",
        ]

    def test_memory_stays_flat_as_hits_grow(self, tmp_path, capsys):
        """Hits are written as they are found, not listed first.  maximal-fp2
        at p = 31 with 2000 probes a chunk writes 500 hits with --max-hits
        500, which stops it after a third of its chunks, and 1361 without:
        listing the 861 more would take about 0.5 MB at the tracemalloc
        peak, yet the peaks are within 0.1 MB.  An uncapped run beforehand
        builds the per-prime tables and fills the interpreter's free lists,
        and the collector is off while a run is traced, so that a
        collection (which empties the free lists) lands in neither."""
        def run(*cap, traced=True):
            gc.disable()
            if traced:
                tracemalloc.start()
            try:
                assert main(["search", "--target", "maximal-fp2", "--p-min", "31",
                             "--p-max", "31", "--max-candidates", "62000", "--quiet", *cap,
                             "--out", str(tmp_path / "hits.csv"),
                             "--jsonl", str(tmp_path / "hits.jsonl")]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                gc.enable()
            return peak, len((tmp_path / "hits.jsonl").read_text().splitlines())

        run(traced=False)
        (small, few), (large, many) = run("--max-hits", "500"), run()
        capsys.readouterr()
        assert (few, many) == (500, 1361)
        assert large - small < 100_000, (small, large)

    def test_bad_fix_slot(self):
        # rejected while parsing, before any search machinery runs
        with pytest.raises(SystemExit) as exc:
            main(["search", "--target", "maximal-fp2", "--p-min", "11",
                  "--p-max", "11", "--fix", "a6=3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("extra", [
        ["--p-max", "11", "--fix", "a1=2", "--fix", "a1=3"],
        ["--p-max", str(2 ** 21)],
    ], ids=["slot-pinned-twice", "p-max-past-cap"])
    def test_config_error_exits_2(self, capsys, extra):
        rc = main(["search", "--target", "maximal-fp2", "--p-min", "11", *extra])
        assert rc == 2
        assert "bad search configuration" in capsys.readouterr().err


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
