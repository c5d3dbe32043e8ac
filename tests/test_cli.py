import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import dilates.backend
import dilates.cli
import dilates.search
from dilates.cli import main

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload(out):
    return json.loads(out)


class TestSum:
    def test_example(self, capsys):
        code, out, _ = run_cli(capsys, "sum", "--set", "0,1,3", "--coeffs", "2,3")
        assert code == 0
        data = payload(out)
        assert data["command"] == "sum"
        assert data["results"]["size"] == 8
        assert data["results"]["elements"] == [0, 2, 3, 5, 6, 9, 11, 15]

    def test_duplicate_elements_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sum", "--set", "0,1,1", "--coeffs", "2,3")
        assert code == 2
        assert "--set" in err

    def test_bad_integers(self, capsys):
        for text in ("0,x", "1,x", "1,,2", "1,"):
            code, out, err = run_cli(capsys, "sum", "--set", text, "--coeffs", "2,3")
            assert code == 2
            assert out == ""
            assert "--set expects comma-separated integers" in err

    def test_zero_coefficient(self, capsys):
        code, _, err = run_cli(capsys, "sum", "--set", "0,1", "--coeffs", "0,3")
        assert code == 2

    def test_range_error_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "sum", "--set", "9223372036854775807", "--coeffs", "2"
        )
        assert code == 3
        assert "64-bit" in err

    def test_negative_first_values_need_equals(self, capsys):
        # argparse reads "-5,1" as an option, so it needs the "=" form.
        code, out, err = run_cli(capsys, "sum", "--set", "-5,1", "--coeffs", "2,3")
        assert (code, out) == (2, "")
        assert "argument --set: expected one argument" in err
        code, out, _ = run_cli(capsys, "sum", "--set=-5,1", "--coeffs=-3,2")
        assert code == 0
        assert payload(out) == {
            "command": "sum",
            "params": {"set": [-5, 1], "coeffs": [-3, 2]},
            "results": {"size": 4, "elements": [-13, -1, 5, 17]},
        }


class TestCheck:
    def test_holds_and_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--set", "0,1,2", "--k", "3")
        assert code == 0
        reports = payload(out)["results"]["reports"]
        assert reports
        assert all(r["verdict"] in ("holds", "not-applicable") for r in reports)

    def test_invalid_k(self, capsys):
        code, _, err = run_cli(capsys, "check", "--set", "0,1,2", "--k", "4")
        assert code == 2
        assert "odd prime" in err

    def test_csv_json_numeric_identity(self, capsys):
        code, out_json, _ = run_cli(capsys, "check", "--set", "0,1,3", "--k", "3")
        assert code == 0
        code, out_csv, _ = run_cli(
            capsys, "check", "--set", "0,1,3", "--k", "3", "--csv"
        )
        assert code == 0
        from_json = [
            (
                r["statement_id"],
                r["hypotheses_met"],
                r["lhs"],
                r["rhs"],
                r["slack"],
                r["verdict"],
            )
            for r in payload(out_json)["results"]["reports"]
        ]
        rows = list(csv.DictReader(io.StringIO(out_csv)))
        from_csv = [
            (
                r["statement_id"],
                r["hypotheses_met"] == "True",
                int(r["lhs"]) if r["lhs"] else None,
                int(r["rhs"]) if r["rhs"] else None,
                int(r["slack"]) if r["slack"] else None,
                r["verdict"],
            )
            for r in rows
        ]
        assert from_csv == from_json

    def test_byte_identical_payloads(self, capsys):
        _, first, _ = run_cli(capsys, "check", "--set", "0,1,2,5", "--k", "3")
        _, second, _ = run_cli(capsys, "check", "--set", "0,1,2,5", "--k", "3")
        assert first == second


class TestSearch:
    def test_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--coeffs", "2,3", "--n", "3", "--range", "12"
        )
        assert code == 0
        data = payload(out)
        assert list(data["params"]) == [
            "coeffs", "n", "range", "reflection_quotient", "threads",
        ]
        results = data["results"]
        assert results["minimum"] == 8
        assert results["witnesses"][0] == [0, 1, 3]
        assert results["caveats"] == []

    def test_flags(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "search",
            "--coeffs",
            "2,3",
            "--n",
            "3",
            "--range",
            "12",
            "--no-reflect",
            "--threads",
            "2",
        )
        assert code == 0
        data = payload(out)
        assert data["params"]["reflection_quotient"] is False
        assert data["params"]["threads"] == 2
        assert data["results"]["minimum"] == 8

    def test_removed_flag_refused(self, capsys):
        for argv in (
            ["search", "--coeffs", "2,3", "--n", "3", "--range", "12", "--no-prune"],
            ["check", "--set", "0,1,2", "--k", "3", "--json"],
            ["probe", "--coeffs", "2,3", "--n-from", "2", "--n-to", "3", "--range", "12",
             "--json"],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert out == ""
            assert "unrecognized arguments" in err

    def test_range_touch_caveat(self, capsys):
        # the only canonical pair is {0,1}, which touches range_max=1
        code, out, _ = run_cli(
            capsys, "search", "--coeffs", "2,3", "--n", "2", "--range", "1"
        )
        assert code == 0
        assert payload(out)["results"]["caveats"]

    def test_caveat_from_unlisted_witness(self, monkeypatch, capsys):
        # 1,780 of the 68,630 witnesses end at 100, none of the 64 listed.
        argv = ["search", "--coeffs", "2", "--n", "4", "--range", "100"]
        caveat = [
            "a witness touches range_max=100; the minimum is relative to "
            "[0, range_max] and may drop for larger ranges"
        ]
        code, out, _ = run_cli(capsys, *argv)
        results = payload(out)["results"]
        assert code == 0
        assert max(w[-1] for w in results["witnesses"]) < 100
        assert results["caveats"] == caveat
        monkeypatch.setattr(dilates.search, "WITNESS_CAP", 1)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert payload(out)["results"]["caveats"] == caveat

    def test_invalid_config(self, capsys):
        code, _, err = run_cli(
            capsys, "search", "--coeffs", "2,3", "--n", "4", "--range", "2"
        )
        assert code == 2

    def test_threads_must_be_positive(self, capsys):
        code, out, err = run_cli(
            capsys,
            "search", "--coeffs", "2,3", "--n", "3", "--range", "12", "--threads", "0",
        )
        assert code == 2
        assert out == ""
        assert "--threads" in err


class TestProbe:
    def test_json_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "probe",
            "--coeffs",
            "2,3",
            "--n-from",
            "2",
            "--n-to",
            "3",
            "--range",
            "12",
        )
        assert code == 0
        rows = payload(out)["results"]["rows"]
        assert [(r["n"], r["minimum"], r["deficiency"]) for r in rows] == [
            (2, 4, 6),
            (3, 8, 7),
        ]

    def test_caveat_when_witness_touches_range(self, capsys):
        code, out, _ = run_cli(
            capsys, "probe", "--coeffs", "2,3", "--n-from", "3", "--n-to", "3", "--range", "2"
        )
        assert code == 0
        assert payload(out)["results"]["caveats"] == ["witness for n=3 touches range_max=2"]

    def test_csv_caveat_goes_to_stderr(self, capsys):
        args = ["probe", "--coeffs", "2,3", "--n-from", "3", "--n-to", "3", "--range", "2"]
        code, out, err = run_cli(capsys, *args, "--csv")
        assert code == 0
        assert out == "n,minimum,deficiency,witness\r\n3,9,6,0 1 2\r\n"
        assert err == "caveat: witness for n=3 touches range_max=2\n"
        # without a caveat, stderr stays empty
        code, _, err = run_cli(capsys, *args[:-1], "12", "--csv")
        assert (code, err) == (0, "")

    def test_caveat_from_later_witness(self, capsys):
        # The row's first witness is {0, 1, 2}; a later one ends at 5.
        code, out, _ = run_cli(
            capsys, "probe", "--coeffs", "1", "--n-from", "3", "--n-to", "3", "--range", "5"
        )
        assert code == 0
        results = payload(out)["results"]
        assert results["rows"][0]["witness"] == [0, 1, 2]
        assert results["caveats"] == ["witness for n=3 touches range_max=5"]

    def test_csv_matches_json(self, capsys):
        args = ["probe", "--coeffs", "2,3", "--n-from", "1", "--n-to", "4",
                "--range", "12"]
        code, out_json, _ = run_cli(capsys, *args)
        assert code == 0
        code, out_csv, _ = run_cli(capsys, *args, "--csv")
        assert code == 0
        json_rows = [
            (r["n"], r["minimum"], r["deficiency"], r["witness"])
            for r in payload(out_json)["results"]["rows"]
        ]
        csv_rows = [
            (
                int(r["n"]),
                int(r["minimum"]),
                int(r["deficiency"]),
                [int(x) for x in r["witness"].split()],
            )
            for r in csv.DictReader(io.StringIO(out_csv))
        ]
        assert csv_rows == json_rows

    # sha256 of the stdout payloads as printed before the probe cut its
    # prefixes by its own finished rows; the rows carry no counters, so
    # the payloads stay byte-identical.
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["--n-to", "8", "--range", "26"],
                "2667572ac86d987dc051803a5b9e135b8d6a0c999041fe1f8a3184f5eff054e1",
            ),
            (
                ["--n-to", "14", "--range", "30", "--csv"],
                "cf3e0433ac6adbad55b5c05e0c933511a40f5704646c5ca18dd31d190216762e",
            ),
        ],
    )
    def test_payload_bytes_pinned(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, "probe", "--coeffs", "2,3", "--n-from", "2", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "n_from, n_to, range_max, message",
        [
            ("2", "40", "26", "range_max 26 cannot hold 28 elements"),
            ("2", "100000000", "26", "range_max 26 cannot hold 28 elements"),
            ("0", "100000000", "26", "cardinality must be >= 1, got 0"),
            ("1", "100000000", "100000000", "search masks need up to weight*range"),
        ],
    )
    def test_refuses_before_building_range(self, monkeypatch, capsys,
                                           n_from, n_to, range_max, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("reached after an impossible cardinality")

        monkeypatch.setattr(dilates.search, "min_dilate_sum", unreachable)
        code, out, err = run_cli(
            capsys, "probe", "--coeffs", "2,3", "--n-from", n_from,
            "--n-to", n_to, "--range", range_max,
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")

    def test_bad_range_order(self, capsys):
        code, _, err = run_cli(
            capsys,
            "probe", "--coeffs", "2,3", "--n-from", "4", "--n-to", "2",
            "--range", "12",
        )
        assert code == 2
        assert "--n-from" in err


class TestAp:
    def test_valid_progression(self, capsys):
        code, out, _ = run_cli(capsys, "ap", "--n", "40", "--k", "3")
        assert code == 0
        results = payload(out)["results"]
        assert results == {"value": 194, "recomputed": 194, "matches": True}

    # A singleton, a pair, the n**2 regime 2 < n < k, and n = k, where both
    # closed forms agree; test_valid_progression holds n > k.
    @pytest.mark.parametrize("n, k, value", [(1, 3, 1), (2, 7, 4), (3, 5, 9), (5, 5, 25)])
    def test_each_regime_matches_fold(self, capsys, n, k, value):
        code, out, _ = run_cli(capsys, "ap", "--n", str(n), "--k", str(k))
        assert code == 0
        results = payload(out)["results"]
        assert results == {"value": value, "recomputed": value, "matches": True}

    def test_invalid_k(self, capsys):
        code, _, err = run_cli(capsys, "ap", "--n", "4", "--k", "9")
        assert code == 2

    def test_int64_refusal_exits_three(self, capsys):
        code, out, err = run_cli(capsys, "ap", "--n", "10000000000000000000", "--k", "3")
        assert (code, out) == (3, "")
        assert "exceeds the signed 64-bit range" in err

    def test_merge_refusal_exits_two(self, monkeypatch, capsys):
        monkeypatch.setattr(dilates.backend, "BITSET_SPAN_LIMIT", 10)
        monkeypatch.setattr(dilates.backend, "MERGE_PAIR_LIMIT", 16)

        def no_build(*args):
            raise AssertionError("a refused progression was built")

        monkeypatch.setattr(dilates.backend, "_dilated", no_build)
        monkeypatch.setattr(dilates.backend._impl, "sumset_elements", no_build)
        code, out, err = run_cli(capsys, "ap", "--n", "5", "--k", "3")
        assert (code, out) == (2, "")
        assert err == "error: merge of 5 x 5 elements would form 25 sums, above the limit of 16\n"


# sha256 of stdout payloads that must stay byte-identical: `check` in both
# formats, `ap` where the paper's closed form is exact (n >= k), `sum`, and
# `search` with and without a caveat. The one-sign search 2,3 n=5 R=12
# changed once on purpose: the monotone floor lowered its nodes_visited
# (see test_one_sign_search_payload_moves_only_nodes_visited).
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["check", "--set", "0,1,2,5", "--k", "3"],
            "93b07f4608d55aaed51ff05b99688b330891ee8476ffc6dabb4e584baf832589",
        ),
        (
            ["check", "--set=-7,0,3,4,11,20", "--k", "5", "--csv"],
            "97662a4adeaf117221fcda73cca00229ef17acacf91ad3460bbb9437d3527549",
        ),
        (
            ["ap", "--n", "40", "--k", "3"],
            "6c6e0a178a7b9b288fa19bdd6677e70a62a0d53ce6df908d19dfec811a39056a",
        ),
        (
            ["ap", "--n", "7", "--k", "7"],
            "0b71f308f214691c477b71fd42e93538e0348aac92cb7f5e7dc605d300b518f7",
        ),
        (
            ["sum", "--set", "0,1,3", "--coeffs", "2,3"],
            "4dee58969659a5e28a877085e32ebab607b4b2ff2c49f78f5558ae07233e07f3",
        ),
        (
            ["sum", "--set=-5,1,4", "--coeffs=-3,2,7"],
            "2bfca1f4a0da91b42323be7d3da8fbc9644476665eba3ecb8cb98c05d265568b",
        ),
        (
            ["search", "--coeffs", "2,3", "--n", "5", "--range", "12"],
            "b836df759667ac4d2f7cc6cccff51187fc72743fcc807b5e35c7302097eceb72",
        ),
        (
            ["search", "--coeffs=-3,2", "--n", "4", "--range", "10", "--no-reflect"],
            "980695a900145a95ea02829aba9278d0eb326997935fea45900312311ad7208d",
        ),
        (
            ["search", "--coeffs", "2,3", "--n", "3", "--range", "2"],
            "6668fadea5c5be5e0eae1553a032c4d3cc31976115498a865306259802db307e",
        ),
    ],
)
def test_payload_bytes_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_one_sign_search_payload_moves_only_nodes_visited(capsys):
    # The payload as printed before the monotone floor, which skips 78
    # children that the walk used to visit and then reject or cut.
    before = {
        "command": "search",
        "params": {"coeffs": [2, 3], "n": 5, "range": 12,
                   "reflection_quotient": True, "threads": 1},
        "results": {"minimum": 18, "witnesses": [[0, 1, 3, 4, 6]],
                    "total_witnesses": 1, "nodes_visited": 338, "nodes_pruned": 33,
                    "caveats": []},
    }
    code, out, _ = run_cli(capsys, "search", "--coeffs", "2,3", "--n", "5", "--range", "12")
    assert code == 0
    after = payload(out)
    assert after["results"].pop("nodes_visited") == 260
    before["results"].pop("nodes_visited")
    assert after == before


class TestArgparse:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["sum", "--set", "0,1", "--coeffs", "2", "--bogus"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_parser_reused_after_a_failed_parse(self, capsys):
        # main() builds its parser once per process; a parse that fails
        # must leave nothing behind for the next call.
        argv = ["search", "--coeffs", "2,3", "--n", "5", "--range", "12"]
        assert main(["search", "--coeffs", "2,3", "--n", "x", "--range", "12"]) == 2
        capsys.readouterr()
        code, out, _ = run_cli(capsys, *argv)
        assert dilates.cli._build_parser() is dilates.cli._build_parser()
        fresh = subprocess.run(
            [sys.executable, "-m", "dilates", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert code == fresh.returncode == 0
        assert out == fresh.stdout


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "dilates", "sum", "--set", "0,1", "--coeffs", "2,3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["size"] == 4


def test_check_exit_code_contract(monkeypatch, capsys):
    """Exit 1 is reserved for a checker that actually fails. The library's
    checkers verify true statements, so the command is run on a stubbed
    check_suite that returns a failing report."""
    from dilates.bounds import BoundReport

    failing = BoundReport(
        statement_id="basic_bound",
        hypotheses_met=True,
        lhs=1,
        rhs=2,
    )
    assert failing.verdict == "fails"
    assert (failing.slack, failing.holds) == (-1, False)
    holding = BoundReport(
        statement_id="basic_bound",
        hypotheses_met=True,
        lhs=2,
        rhs=2,
    )
    assert (holding.slack, holding.holds) == (0, True)
    na = BoundReport(
        statement_id="basic_bound",
        hypotheses_met=False,
        lhs=None,
        rhs=None,
    )
    assert (na.slack, na.holds) == (None, None)
    argv = ["check", "--set", "0,1", "--k", "3"]
    for reports, expected in (([holding, na, failing], 1), ([holding, na], 0)):
        monkeypatch.setattr(dilates.cli, "check_suite", lambda a, k: reports)
        assert run_cli(capsys, *argv)[0] == expected
        assert run_cli(capsys, *argv, "--csv")[0] == expected
