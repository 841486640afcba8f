"""CLI subcommands: outputs, exit codes, JSON round-trips, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import unchoosing_solve

import covergame
from covergame import CoverCertificate, LpSolution, lp
from covergame.cli import main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCover:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "cover", DATA / "triangle.g")
        assert code == 0
        assert "weight: 2" in out and "kind: integral" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "cover", DATA / "k13.g", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["weight"] == "3"
        assert len(payload["entries"]) == 3

    def test_cap_exceeded_exits_2(self, capsys):
        code, out, err = run(capsys, "cover", DATA / "triangle.g", "--cap", "1")
        assert code == 2
        assert "cap" in err and out == ""


class TestFracCover:
    def test_triangle(self, capsys):
        code, out, _ = run(capsys, "frac-cover", DATA / "triangle.g")
        assert code == 0
        assert "weight: 3/2" in out
        assert out.count("= 1/2") == 3

    def test_canonical_prints_cycles(self, capsys):
        code, out, _ = run(capsys, "frac-cover", DATA / "triangle.g", "--canonical")
        assert code == 0
        assert "fractional cycles:" in out and "0-1-2-0" in out

    def test_canonical_bipartite_has_no_cycles(self, capsys):
        code, out, _ = run(capsys, "frac-cover", DATA / "c4.g", "--canonical")
        assert code == 0
        assert "fractional cycles: none" in out

    def test_canonical_json(self, capsys):
        code, out, _ = run(capsys, "frac-cover", DATA / "c5.g", "--canonical", "--format", "json")
        payload = json.loads(out)
        assert payload["weight"] == "5/2"
        assert payload["fractional_cycles"] == [[0, 1, 2, 3, 4, 0]]

    @pytest.mark.parametrize(
        "graph, expected",
        [
            ("c4.g", "kind: half-integral\nweight: 2\ncover:\n  0-3 = 1\n  1-2 = 1\n"
             "fractional cycles: none\n"),
            ("c5.g", "kind: half-integral\nweight: 5/2\ncover:\n  0-1 = 1/2\n  0-4 = 1/2\n"
             "  1-2 = 1/2\n  2-3 = 1/2\n  3-4 = 1/2\nfractional cycles:\n  0-1-2-3-4-0\n"),
        ],
        ids=["c4", "c5"],
    )
    def test_canonical_solves_two_lps(self, capsys, monkeypatch, graph, expected):
        # half_integral_cover solves the covering LP and the packing LP of
        # its dual witness; the rounding takes the optimum from that
        # certificate instead of solving the packing LP a third time.
        real, senses = lp.solve, []
        monkeypatch.setattr(
            lp, "solve", lambda program, trace=None: senses.append(program.sense) or real(program, trace)
        )
        assert run(capsys, "frac-cover", DATA / graph, "--canonical") == (0, expected, "")
        assert senses == ["min", "max"]

    def test_canonical_rejecting_the_certified_cover_exits_4(self, capsys, monkeypatch):
        # The all-ones cover is feasible but weighs 3, not the certified
        # optimum 3/2 the rounding is given, so the rounding rejects it; the
        # handler had certified it, so that is a bug.
        def all_ones(g):
            return CoverCertificate("half-integral", {e: 1 for e in g.edges}, Fraction(3, 2))

        monkeypatch.setattr("covergame.covers.half_integral_cover", all_ones)
        code, out, err = run(capsys, "frac-cover", DATA / "triangle.g", "--canonical")
        assert (code, out) == (4, "")
        assert err == "error: internal: vector is not an optimal fractional cover\n"


class TestGap:
    def test_c5(self, capsys):
        code, out, _ = run(capsys, "gap", DATA / "c5.g")
        assert code == 0
        assert "ell: 5" in out and "rho: 6/5" in out

    def test_house_has_triangle(self, capsys):
        code, out, _ = run(capsys, "gap", DATA / "house.g")
        assert "ell: 3" in out and "rho: 4/3" in out

    def test_bipartite(self, capsys):
        code, out, _ = run(capsys, "gap", DATA / "c4.g")
        assert "ell: none" in out and "rho: 1" in out and "cycle: none" in out


class TestAllocate:
    def test_triangle_text(self, capsys):
        code, out, _ = run(capsys, "allocate", DATA / "triangle.g")
        assert code == 0
        for line in ("alpha: 3/4", "total: 3/2", "grand cost: 2", "ratio: 3/4"):
            assert line in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "allocate", DATA / "c5.g", "--format", "json")
        payload = json.loads(out)
        assert payload["alpha"] == "5/6"
        assert payload["allocation"] == ["1/2"] * 5

    def test_cap_marks_fields_unavailable(self, capsys):
        code, out, _ = run(capsys, "allocate", DATA / "triangle.g", "--cap", "1")
        assert code == 0
        assert "grand cost: unavailable (cap exceeded)" in out
        assert "ratio: unavailable" in out


class TestCost:
    def test_pair(self, capsys):
        code, out, _ = run(capsys, "cost", DATA / "path3.g", "--coalition", "0,2")
        assert code == 0
        assert "cost: 4" in out

    def test_single(self, capsys):
        code, out, _ = run(capsys, "cost", DATA / "path3.g", "--coalition", "0")
        assert "cost: 1" in out

    def test_bad_coalition_exits_1(self, capsys):
        code, _, err = run(capsys, "cost", DATA / "path3.g", "--coalition", "0,x")
        assert code == 1 and "coalition" in err

    def test_out_of_range_exits_1(self, capsys):
        code, _, err = run(capsys, "cost", DATA / "path3.g", "--coalition", "9")
        assert code == 1

    @pytest.mark.parametrize("coalition", ["0_1", "+1", "0,\u0661"])
    def test_non_ascii_digit_coalition_exits_1(self, capsys, coalition):
        code, out, err = run(capsys, "cost", DATA / "path3.g", "--coalition", coalition)
        assert code == 1 and out == "" and "coalition" in err

    def test_spaced_coalition(self, capsys):
        code, out, _ = run(capsys, "cost", DATA / "path3.g", "--coalition", "0, 2")
        assert code == 0 and "cost: 4" in out

    @pytest.mark.parametrize("command", ["cover", "allocate", "cost"])
    def test_negative_cap_is_usage_error(self, capsys, command):
        extra = ("--coalition", "0") if command == "cost" else ()
        code, out, err = run(capsys, command, DATA / "path3.g", *extra, "--cap", "-1")
        assert code == 1 and out == ""
        assert err == "error: argument --cap: expected a nonnegative integer, not '-1'\n"

    @pytest.mark.parametrize("value", ["+5", "0_5", " 7", "\u0661\u0662", "-1"])
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("cover", DATA / "path3.g"), "--cap"),
            (("allocate", DATA / "path3.g"), "--cap"),
            (("cost", DATA / "path3.g", "--coalition", "0"), "--cap"),
            (("verify", DATA / "triangle.g", DATA / "triangle.good.alloc"), "--oracle-vertices"),
            (("verify", DATA / "triangle.g", DATA / "triangle.good.alloc"), "--oracle-edges"),
        ],
        ids=["cover", "allocate", "cost", "verify-vertices", "verify-edges"],
    )
    def test_numeric_flags_take_ascii_digits_only(self, capsys, argv, flag, value):
        code, out, err = run(capsys, *argv, flag, value)
        assert code == 1 and out == ""
        assert err == f"error: argument {flag}: expected a nonnegative integer, not {value!r}\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", ["cost", "cover"])
    def test_results_beyond_int_str_digit_limit(self, tmp_path, capsys, command, fmt):
        # Each weight token has 3000 digits, under the 4300-digit limit on
        # reading; the cost 1/p + 1/q = (p + q)/(pq) has about 6000.
        p, q = 10**2999, 3**6287
        graph = tmp_path / "big.g"
        graph.write_text(f"3 2\n0 1 1/{p}\n1 2 1/{q}\n")
        extra = ("--coalition", "0,1,2") if command == "cost" else ()
        code, out, err = run(capsys, command, graph, *extra, "--format", fmt)
        assert (code, err) == (0, "")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = f"{p + q}/{p * q}"
        finally:
            sys.set_int_max_str_digits(limit)
        key = "cost" if command == "cost" else "weight"
        if fmt == "json":
            assert json.loads(out)[key] == expected
        else:
            assert f"\n{key}: {expected}\n" in out


class TestHelp:
    @pytest.mark.parametrize(
        "command", [None, "cover", "frac-cover", "gap", "allocate", "cost", "verify"]
    )
    def test_help_text_is_pinned(self, capsys, monkeypatch, command):
        # argparse wraps help to the COLUMNS width.
        monkeypatch.setenv("COLUMNS", "80")
        argv = [command, "--help"] if command else ["--help"]
        with pytest.raises(SystemExit) as exited:
            main(argv)
        name = f"covergame-{command}" if command else "covergame"
        pinned = (DATA / "help" / f"{name}.txt").read_text(encoding="utf-8")
        assert (exited.value.code, capsys.readouterr().out) == (0, pinned)


class TestVerify:
    def test_good_allocation(self, capsys):
        code, out, _ = run(capsys, "verify", DATA / "triangle.g", DATA / "triangle.good.alloc")
        assert code == 0
        assert "verdict: core property holds" in out

    def test_bad_allocation_exits_3_with_witness(self, capsys):
        code, out, _ = run(capsys, "verify", DATA / "triangle.g", DATA / "triangle.bad.alloc")
        assert code == 3
        assert "star check: violated at star v=0 T=1" in out
        assert "dual check: violated at edge 0-1" in out
        assert "verdict: core property violated" in out

    def test_exhaustive_oracle(self, capsys):
        code, out, _ = run(
            capsys, "verify", DATA / "triangle.g", DATA / "triangle.good.alloc", "--exhaustive"
        )
        assert code == 0
        assert "oracle check: ok" in out

    def test_exhaustive_budget_exits_2(self, capsys):
        code, _, err = run(
            capsys, "verify", DATA / "triangle.g", DATA / "triangle.good.alloc",
            "--exhaustive", "--oracle-vertices", "2",
        )
        assert code == 2

    def test_json_round_trip_reproduces_verdicts(self, capsys):
        args = ("verify", DATA / "triangle.g", DATA / "triangle.bad.alloc",
                "--exhaustive", "--format", "json")
        code1, out1, _ = run(capsys, *args)
        payload = json.loads(out1)
        assert code1 == 3
        assert payload["ok"] is False
        assert payload["stars"] == {"ok": False, "vertex": 0, "members": [1]}
        assert payload["oracle"]["coalition"] == [0, 1]
        code2, out2, _ = run(capsys, *args)
        assert (code1, out1) == (code2, out2)


class TestErrorsAndDeterminism:
    def test_missing_file_exits_1(self, capsys):
        code, _, err = run(capsys, "cover", DATA / "missing.g")
        assert code == 1 and "error" in err

    def test_malformed_graph_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.g"
        bad.write_text("2 1\n0 0 1\n")
        code, _, err = run(capsys, "cover", bad)
        assert code == 1 and "loop" in err

    def test_malformed_allocation_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.alloc"
        bad.write_text("0 0.5\n1 0\n2 0\n")
        code, _, err = run(capsys, "verify", DATA / "triangle.g", bad)
        assert code == 1 and "bad rational" in err

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("0_2 1\n0 1 1\n", "bad-header: expected integers 'n m' (line 1)"),
            ("2 1\n0 +1 1\n", "malformed: vertex ids must be integers (line 2)"),
            ("2 1\n0 1 \u0663\n", "malformed: bad weight '\u0663' (line 2)"),
        ],
    )
    def test_non_ascii_digit_graph_exits_1(self, tmp_path, capsys, text, expected):
        bad = tmp_path / "bad.g"
        bad.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "frac-cover", bad)
        assert (code, out, err) == (1, "", f"error: {expected}\n")

    def test_non_ascii_digit_allocation_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.alloc"
        bad.write_text("0_1 1/2\n1 1/2\n2 1/2\n")
        code, out, err = run(capsys, "verify", DATA / "triangle.g", bad)
        assert code == 1 and out == "" and "bad vertex id '0_1'" in err

    @pytest.mark.parametrize(
        "token, graph, allocation, extra, message",
        [
            ("1" * 200_000, "2 1\n0 1 {}\n", None, ("--coalition", "0"),
             "malformed: bad weight {} (line 2)"),
            ("1" * 200_000, "2 1\n0 1 1\n", "{} 1\n1 1\n", (), "line 1: bad vertex id {}"),
            ("x" * 200_000, "2 1\n0 1 1\n", "0 1\n1 {}\n", (), "line 2: bad rational {}"),
            ("0,x" * 50_000, "2 1\n0 1 1\n", None, ("--coalition", "{}"),
             "bad coalition {}; expected comma-separated vertex ids"),
            ("9" * 200_000 + "x", "2 1\n0 1 1\n", None, ("--coalition", "0", "--cap", "{}"),
             "argument --cap: expected a nonnegative integer, not {}"),
            ("9" * 5000, "2 1\n0 1 1\n", None, ("--coalition", "0", "--cap", "{}"),
             "argument --cap: expected a nonnegative integer, not {}"),
        ],
        ids=["weight", "allocation-vertex", "allocation-value", "coalition", "cap", "cap-digits"],
    )
    def test_long_bad_tokens_are_cut(
        self, tmp_path, capsys, token, graph, allocation, extra, message
    ):
        path = tmp_path / "long.g"
        path.write_text(graph.format(token))
        if allocation is not None:
            alloc = tmp_path / "long.alloc"
            alloc.write_text(allocation.format(token))
            argv = ("verify", path, alloc)
        else:
            argv = ("cost", path, *(arg.format(token) for arg in extra))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        echo = repr(token[:40]) + "\u2026"  # the first 40 characters, then an ellipsis
        assert err == f"error: {message.format(echo)}\n"

    @pytest.mark.parametrize(
        "token, graph, allocation, extra, message",
        [
            ("9" * 4200, "2 1\n0 {} 1\n", None, ("--coalition", "0"),
             "vertex-range: edge (0, {}) is out of range (line 2)"),
            ("-" + "9" * 4200, "2 1\n0 1 {}\n", None, ("--coalition", "0"),
             "negative-weight: edge 0-1 has weight {} (line 2)"),
            ("9" * 4200, "1" + "0" * 4200 + " 1\n{0} {0} 1\n", None, ("--coalition", "0"),
             "loop: loop at vertex {} (line 2)"),
            ("9" * 4200, "1" + "0" * 4200 + " 2\n0 {0} 1\n0 {0} 1\n", None, ("--coalition", "0"),
             "duplicate-edge: edge 0-{} appears twice (line 3)"),
            ("9" * 4200, "2 1\n0 1 1\n", "0 1\n{} 1\n", (), "line 2: vertex {} is out of range"),
            ("9" * 4200, "2 1\n0 1 1\n", None, ("--coalition", "0,{}"),
             "coalition member {} is not a vertex"),
            ("9" * 4200, "0 {}\n", None, ("--coalition", "0"),
             "bad-header: invalid sizes n=0, m={} (line 1)"),
            ("9" * 4200, "2 {}\n0 1 1\n", None, ("--coalition", "0"),
             "malformed: expected {} edge lines, found 1 (line 1)"),
        ],
        ids=["vertex-range", "negative-weight", "loop", "duplicate-edge", "allocation-vertex",
             "coalition-member", "header-sizes", "header-edge-count"],
    )
    def test_long_parsed_numbers_are_cut(
        self, tmp_path, capsys, token, graph, allocation, extra, message
    ):
        # Every token is under the 4300-digit limit, so it parses; the
        # message repeats the number, cut like a bad token but unquoted.
        path = tmp_path / "long.g"
        path.write_text(graph.format(token))
        if allocation is not None:
            alloc = tmp_path / "long.alloc"
            alloc.write_text(allocation.format(token))
            argv = ("verify", path, alloc)
        else:
            argv = ("cost", path, *(arg.format(token) for arg in extra))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        echo = token[:40] + "\u2026"  # the first 40 characters, then an ellipsis
        assert err == f"error: {message.format(echo)}\n"

    @pytest.mark.parametrize("command", ["cover", "cost"])
    def test_search_deeper_than_recursion_limit_exits_2(self, tmp_path, capsys, command):
        # The exact search recurses once per chosen edge, well over the
        # default limit of 1000 levels on a 2500-vertex unit path.
        n = 2500
        path = tmp_path / "path.g"
        path.write_text(f"{n} {n - 1}\n" + "".join(f"{i} {i + 1} 1\n" for i in range(n - 1)))
        extra = ("--coalition", ",".join(map(str, range(n)))) if command == "cost" else ()
        code, out, err = run(capsys, command, path, *extra, "--cap", "100000")
        assert (code, out) == (2, "")
        assert err == "error: exact search is deeper than the recursion limit\n"

    def test_leading_byte_order_marks(self, tmp_path, capsys):
        graph, allocation = tmp_path / "bom.g", tmp_path / "bom.alloc"
        graph.write_text((DATA / "triangle.g").read_text(), encoding="utf-8-sig")
        allocation.write_text((DATA / "triangle.good.alloc").read_text(), encoding="utf-8-sig")
        assert run(capsys, "verify", graph, allocation) == run(
            capsys, "verify", DATA / "triangle.g", DATA / "triangle.good.alloc"
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_closed_stdout_exits_141_quietly(self, fmt):
        # The pipe's read end is closed before the child starts, so its
        # first flush of stdout fails with EPIPE.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.run(
                [sys.executable, "-m", "covergame.cli", "gap", DATA / "triangle.g", "--format", fmt],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": str(Path(covergame.__file__).parents[1])},
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (child.returncode, child.stderr) == (141, b"")

    def test_unknown_subcommand_exits_1(self, capsys):
        code, _, err = run(capsys, "explode")
        assert code == 1

    def test_internal_certificate_failure_exits_4(self, capsys, monkeypatch):
        real_iterate = lp._iterate

        def skewed_iterate(tableau, basis, z, trace, phase):
            status = real_iterate(tableau, basis, z, trace, phase)
            if phase == 2:  # the reduced cost of row 0's slack, and so its dual, is off by one
                z[len(z) - 1 - len(tableau)] += 1
            return status

        monkeypatch.setattr(lp, "_iterate", skewed_iterate)
        code, out, err = run(capsys, "allocate", DATA / "triangle.g")
        assert code == 4 and out == ""
        assert err == "error: internal: solver objective does not match the returned primal and dual\n"

    def test_bipartite_cover_corrupted_after_solving_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(lp, "solve", unchoosing_solve(lp.solve))
        code, out, err = run(capsys, "frac-cover", DATA / "c4.g")
        assert (code, out) == (4, "")
        assert err == "error: internal: folded cover weight disagrees with the covering LP optimum\n"

    @pytest.mark.parametrize(
        "argv", [("frac-cover", "c4.g"), ("frac-cover", "triangle.g"), ("allocate", "triangle.g")]
    )
    def test_lp_without_optimum_exits_4(self, capsys, monkeypatch, argv):
        # c4 is bipartite and solved directly, the triangle through its
        # double; allocate solves the packing LP.
        monkeypatch.setattr(lp, "solve", lambda program, trace=None: LpSolution("infeasible", None, None))
        code, out, err = run(capsys, argv[0], DATA / argv[1])
        assert (code, out) == (4, "")
        assert err.startswith("error: internal: ") and err.count("\n") == 1
        assert "ended with status infeasible" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_byte_identical_runs(self, capsys, fmt):
        commands = [
            ("cover", DATA / "triangle.g"),
            ("cover", DATA / "house.g"),
            ("frac-cover", DATA / "c5.g", "--canonical"),
            ("frac-cover", DATA / "edge52.g"),
            ("gap", DATA / "house.g"),
            ("allocate", DATA / "c5.g"),
            ("cost", DATA / "k13.g", "--coalition", "1,2"),
            ("verify", DATA / "triangle.g", DATA / "triangle.good.alloc", "--exhaustive"),
            ("verify", DATA / "triangle.g", DATA / "triangle.bad.alloc"),
        ]
        for command in commands:
            first = run(capsys, *command, "--format", fmt)
            second = run(capsys, *command, "--format", fmt)
            assert first == second


# Every subcommand on every fixture, in both formats: the argv with file
# names relative to the data directory, then the exit code and stdout.
_GOLDEN_COMMANDS = (
    ("cover",),
    ("frac-cover",),
    ("frac-cover", "--canonical"),
    ("gap",),
    ("allocate",),
    ("cost", "--coalition", "0,1"),
)
_GOLDEN_VERIFY = (
    ("verify", "triangle.g", "triangle.good.alloc", "--exhaustive"),
    ("verify", "triangle.g", "triangle.bad.alloc"),
)
# sha256 over those runs; any change to it is a change of CLI output bytes.
CLI_GOLDEN_SHA256 = "cdc10b29149fa13c88b6787e29f0dd6047e3d58ce3c6ab5cb6fb7f2951eb34c6"


def _golden_argvs() -> list[tuple[str, ...]]:
    runs = [
        (command[0], graph.name, *command[1:])
        for graph in sorted(DATA.glob("*.g"))
        for command in _GOLDEN_COMMANDS
    ]
    runs += _GOLDEN_VERIFY
    return [(*argv, "--format", fmt) for argv in runs for fmt in ("text", "json")]


class TestGoldenOutputs:
    def test_every_subcommand_output_is_pinned(self, capsys, monkeypatch):
        monkeypatch.chdir(DATA)
        argvs = _golden_argvs()
        digest = hashlib.sha256()
        for argv in argvs:
            code, out, _ = run(capsys, *argv)
            digest.update(repr((argv, code, out)).encode("utf-8"))
        assert len(argvs) == 88
        assert digest.hexdigest() == CLI_GOLDEN_SHA256
