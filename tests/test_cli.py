import os
import re
import subprocess
import sys

import pytest

import cli_equivalence
from gordian import cli, obstruct, seifert
from gordian.cli import main
from gordian.verify import SUITES

TREFOIL_TEXT = "-1 1\n0 -1\n"


@pytest.fixture
def trefoil_file(tmp_path):
    path = tmp_path / "trefoil.txt"
    path.write_text(TREFOIL_TEXT)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAlex:
    def test_trefoil(self, capsys, trefoil_file):
        code, out, _ = run(capsys, ["alex", "--matrix", trefoil_file])
        assert code == 0
        assert out == "t-1+t^-1\n"

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code, out, _ = run(capsys, ["alex", "--matrix", str(path)])
        assert code == 0
        assert out == "1\n"

    def test_odd_size_exit_2(self, capsys, tmp_path):
        path = tmp_path / "odd.txt"
        path.write_text("1\n")
        code, _, err = run(capsys, ["alex", "--matrix", str(path)])
        assert code == 2
        assert "even" in err

    def test_invalid_determinant_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0\n0 0\n")
        code, _, err = run(capsys, ["alex", "--matrix", str(path)])
        assert code == 2
        assert "det(V - V^T)" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, ["alex", "--matrix", str(tmp_path / "nope.txt")])
        assert code == 2

    def test_missing_flag_exit_1(self, capsys):
        code, _, err = run(capsys, ["alex"])
        assert code == 1


class TestInvariants:
    def test_trefoil(self, capsys, trefoil_file):
        code, out, _ = run(capsys, ["invariants", "--matrix", trefoil_file])
        assert code == 0
        assert out == "delta: t-1+t^-1\nsigma: -2\ndeterminant: 3\n"

    def test_empty(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code, out, _ = run(capsys, ["invariants", "--matrix", str(path)])
        assert code == 0
        assert out == "delta: 1\nsigma: 0\ndeterminant: 1\n"

    def test_figure_eight_type(self, capsys, tmp_path):
        path = tmp_path / "fig8.txt"
        path.write_text("1 1\n0 -1\n")
        code, out, _ = run(capsys, ["invariants", "--matrix", str(path)])
        assert code == 0
        assert "sigma: 0" in out
        assert "determinant: 5" in out


class TestBlanchfield:
    def test_trefoil_entries(self, capsys, trefoil_file):
        code, out, _ = run(capsys, ["blanchfield", "--matrix", trefoil_file])
        assert code == 0
        assert "beta[1][1]: t^2-2t+1 / t^2-t+1" in out
        assert out.count("beta[") == 4


class TestQuadform:
    def test_witness(self, capsys):
        code, out, _ = run(capsys, ["quadform", "1", "3"])
        assert code == 0
        assert "outcome: witness" in out
        assert "x: 1" in out and "y: 1" in out

    def test_refuted(self, capsys):
        code, out, _ = run(capsys, ["quadform", "1", "2"])
        assert code == 0
        assert "outcome: refuted" in out

    def test_invalid_h(self, capsys):
        code, _, err = run(capsys, ["quadform", "0", "2"])
        assert code == 2

    @pytest.mark.parametrize("bound", ["-3", "0"])
    def test_bound_below_one_is_a_usage_error(self, bound):
        argv = ["quadform", "-1", "2", "--bound", bound]
        code, out, err = cli_equivalence.outcome(argv)
        assert (code, out) == (1, "")
        assert err == f"usage error: argument --bound: must be at least 1, got {bound}\n"
        assert cli_equivalence.outcome(argv, full=True) == (code, out, err)


class TestObstruct:
    def test_ua_one_with_a_non_cyclic_double_cover_exit_2(self, capsys, tmp_path):
        # V + V^T = 0 mod 3: H1 of the double cover is Z/3 + Z/3, so u_a >= 2
        path = tmp_path / "v.txt"
        path.write_text("3 -1\n-2 0\n")
        argv = ["obstruct", "--matrix1", str(path), "--delta2", "t-1+t^-1", "--ua1", "1"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "not cyclic" in err

    def test_ua_zero_with_a_polynomial_other_than_one_exit_2(self, capsys):
        # u_a = 0 once gave dga_upper: 1 here
        argv = ["obstruct", "--delta1", "t-1+t^-1", "--ua1", "0", "--delta2", "-2t+5-2t^-1", "--ua2", "1"]
        code, out, err = run(capsys, argv + ["--bound", "1"])
        assert (code, out) == (2, "")
        assert "u_a = 0 is impossible for t-1+t^-1: its Alexander polynomial is not 1" in err
        code, out, _ = run(capsys, ["obstruct", "--delta1", "1", "--ua1", "0", "--delta2", "t-1+t^-1", "--ua2", "1"])
        assert code == 0
        assert "dga_upper: 1\n" in out

    def test_nonzero_ua_with_polynomial_one_exit_2(self, capsys):
        # Alexander polynomial 1 means u_a = 0, so the unknot is no modulus
        code, out, err = run(capsys, ["obstruct", "--delta1", "1", "--ua1", "1", "--delta2", "t-1+t^-1"])
        assert (code, out) == (2, "")
        assert "u_a = 1 is impossible for 1: its Alexander polynomial is 1" in err

    @pytest.mark.parametrize("bound", ["-1", "0"])
    def test_bound_below_one_is_a_usage_error(self, bound):
        argv = ["obstruct", "--delta1", "4t-7+4t^-1", "--delta2", "-4t+9-4t^-1", "--ua1", "1"]
        argv += ["--bound", bound]
        code, out, err = cli_equivalence.outcome(argv)
        assert (code, out) == (1, "")
        assert "--bound: must be at least 1" in err
        assert cli_equivalence.outcome(argv, full=True) == (code, out, err)

    @pytest.mark.parametrize(
        "delta, complaint",
        [("2", "evaluate to 1 at t = 1"), ("t^2-t+1", "symmetric"), ("-t+1-t^-1", "evaluate to 1")],
    )
    def test_non_alexander_polynomial_rejected(self, capsys, tmp_path, delta, complaint):
        for argv in (
            ["obstruct", "--delta1", delta, "--delta2", "t-1+t^-1"],
            ["obstruct", "--delta1", "t-1+t^-1", "--delta2", delta],
        ):
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: Alexander polynomial must") and complaint in err
        manifest = tmp_path / "pairs.txt"
        manifest.write_text(f"t-1+t^-1 | {delta}\n")
        code, _, err = run(capsys, ["obstruct", "--manifest", str(manifest)])
        assert code == 2
        assert err.startswith("error: Alexander polynomial must") and complaint in err

    def test_bundled_pair(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "obstruct",
                "--delta1",
                "t-1+t^-1",
                "--delta2",
                "-3t^2+12t-17+12t^-1-3t^-2",
                "--ua1",
                "1",
                "--ua2",
                "1",
            ],
        )
        assert code == 0
        assert "rho_lower: 2" in out
        assert "rho_upper: 2" in out
        assert "dga_lower: 2" in out
        assert "dga_upper: 2" in out
        assert "dg_lower: 2" in out

    def test_identical(self, capsys):
        code, out, _ = run(
            capsys, ["obstruct", "--delta1", "t-1+t^-1", "--delta2", "t-1+t^-1"]
        )
        assert code == 0
        assert "rho_lower: 0" in out
        assert "rho_upper: 0" in out

    def test_matrix_inputs(self, capsys, trefoil_file, tmp_path):
        other = tmp_path / "fig8.txt"
        other.write_text("1 1\n0 -1\n")
        code, out, _ = run(
            capsys,
            ["obstruct", "--matrix1", trefoil_file, "--matrix2", str(other)],
        )
        assert code == 0
        assert "criterion: signature" in out
        assert "rho_lower: 2" in out

    def test_both_inputs_rejected(self, capsys, trefoil_file):
        code, _, err = run(
            capsys,
            [
                "obstruct",
                "--delta1",
                "t",
                "--matrix1",
                trefoil_file,
                "--delta2",
                "1",
            ],
        )
        assert code == 1

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(
            capsys, ["obstruct", "--delta1", "t^", "--delta2", "t-1+t^-1"]
        )
        assert code == 2

    def test_manifest_batch(self, capsys, tmp_path, trefoil_file):
        manifest = tmp_path / "pairs.txt"
        manifest.write_text(
            "# two pairs\n"
            f"{trefoil_file} | -3t^2+12t-17+12t^-1-3t^-2\n"
            "t-1+t^-1 | t-1+t^-1\n"
        )
        code, out, _ = run(capsys, ["obstruct", "--manifest", str(manifest)])
        assert code == 0
        assert "pair: 1" in out and "pair: 2" in out
        first, second = out.split("pair: 2")
        assert "rho_lower: 2" in first
        assert "rho_lower: 0" in second

    def test_each_polynomial_is_checked_once(self, monkeypatch, capsys, tmp_path, trefoil_file):
        # count the check under every name a gordian module binds it to
        calls = []
        real = seifert.check_alexander

        def counting(delta):
            calls.append(str(delta))
            return real(delta)

        for module in (seifert, obstruct, cli):
            if hasattr(module, "check_alexander"):
                monkeypatch.setattr(module, "check_alexander", counting)
        code, _, _ = run(capsys, ["obstruct", *cli_equivalence.BUNDLED])
        assert code == 0
        assert calls == ["t-1+t^-1", "-3t^2+12t-17+12t^-1-3t^-2"]
        calls.clear()
        manifest = tmp_path / "pairs.txt"
        manifest.write_text(f"{trefoil_file} | -3t^2+12t-17+12t^-1-3t^-2\nt-1+t^-1 | -t+3-t^-1\n")
        code, _, _ = run(capsys, ["obstruct", "--manifest", str(manifest)])
        assert code == 0
        assert calls == ["-3t^2+12t-17+12t^-1-3t^-2", "t-1+t^-1", "-t+3-t^-1"]

    def test_missing_input_wins_over_an_invalid_polynomial(self, capsys):
        # the CLI only parses; the polynomial check comes with the report
        code, out, err = run(capsys, ["obstruct", "--delta1", "2"])
        assert (code, out) == (1, "")
        assert err == "usage error: provide exactly one of --delta2 or --matrix2\n"

    def test_manifest_line_without_a_bar(self, capsys, tmp_path):
        manifest = tmp_path / "pairs.txt"
        manifest.write_text("t-1+t^-1 | t-1+t^-1\nt-1+t^-1 -t+3-t^-1\n")
        code, out, err = run(capsys, ["obstruct", "--manifest", str(manifest)])
        assert code == 2
        assert out.startswith("pair: 1\n") and "pair: 2" not in out
        assert err == "error: manifest line needs two inputs separated by |: 't-1+t^-1 -t+3-t^-1'\n"

    @pytest.mark.parametrize(
        "extra, complaint",
        [
            # a manifest has no place for u_a, so the value would be dropped
            (["--ua1", "1"], "--ua1 or --ua2"),
            (["--ua2", "1"], "--ua1 or --ua2"),
            # an empty inline input is an input too
            (["--delta1", ""], "inline inputs"),
        ],
    )
    def test_manifest_rejects_other_inputs(self, capsys, tmp_path, extra, complaint):
        manifest = tmp_path / "pairs.txt"
        manifest.write_text("t-1+t^-1 | -t+3-t^-1\n")
        code, out, err = run(capsys, ["obstruct", "--manifest", str(manifest), *extra])
        assert (code, out) == (1, "")
        assert err == f"usage error: --manifest cannot be combined with {complaint}\n"


class TestVerify:
    def test_suite_runs(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "--suite", "ring-axioms", "--seed", "42", "--iters", "40"]
        )
        assert code == 0
        assert "passes: 40" in out
        assert "failures: 0" in out

    def test_unknown_suite_exit_1(self):
        # a usage error that names every suite, on both parsers
        argv = ["verify", "--suite", "nope"]
        code, out, err = cli_equivalence.outcome(argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: argument --suite: invalid choice: ")
        assert "nope" in err
        assert all(name in err for name in SUITES)
        assert cli_equivalence.outcome(argv, full=True) == (code, out, err)

    def test_deterministic_output(self, capsys):
        argv = ["verify", "--suite", "eq5", "--seed", "7", "--iters", "5"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    @pytest.mark.parametrize("iters", ["-5", "-1"])
    def test_negative_iters_is_a_usage_error(self, iters):
        argv = ["verify", "--suite", "eq5", "--iters", iters]
        code, out, err = cli_equivalence.outcome(argv)
        assert (code, out) == (1, "")
        assert err == f"usage error: argument --iters: must be at least 1, got {iters}\n"
        assert cli_equivalence.outcome(argv, full=True) == (code, out, err)

    def test_zero_iters_is_a_usage_error(self):
        # a run of no case would report a vacuous pass
        argv = ["verify", "--suite", "eq5", "--iters", "0"]
        code, out, err = cli_equivalence.outcome(argv)
        assert (code, out) == (1, "")
        assert err == "usage error: argument --iters: must be at least 1, got 0\n"
        assert cli_equivalence.outcome(argv, full=True) == (code, out, err)


class TestTable:
    def test_list(self, capsys):
        code, out, _ = run(capsys, ["table", "list"])
        assert code == 0
        for label in ("3_1", "4_1", "9_25"):
            assert label in out

    def test_show_matrix_entry(self, capsys):
        code, out, _ = run(capsys, ["table", "show", "3_1"])
        assert code == 0
        assert "-1 1" in out
        assert "delta: t-1+t^-1" in out
        assert "sigma: -2" in out

    def test_show_polynomial_entry(self, capsys):
        code, out, _ = run(capsys, ["table", "show", "9_25"])
        assert code == 0
        assert "no Seifert matrix bundled" in out
        assert "determinant: 47" in out

    def test_unknown_label_exit_1(self, capsys):
        code, _, err = run(capsys, ["table", "show", "10_139"])
        assert code == 1
        assert "unknown label" in err

    def test_import(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("5_2, 2t-3+2t^-1, -2, 7\n")
        code, out, _ = run(capsys, ["table", "import", str(path)])
        assert code == 0
        assert "5_2" in out and "determinant=7" in out

    def test_import_bad_row_exit_2(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("5_2, 2t-3+2t^-1, -2, 9\n")
        code, _, err = run(capsys, ["table", "import", str(path)])
        assert code == 2


class TestInputFiles:
    """Matrix files, manifests and table CSVs share one line rule, blank
    lines and # comments skipped, and one message for an unreadable file."""

    COMMANDS = {"matrix": ["alex", "--matrix"], "manifest": ["obstruct", "--manifest"], "csv": ["table", "import"]}

    @pytest.mark.parametrize("kind", COMMANDS)
    def test_unreadable_file_exit_2(self, capsys, tmp_path, kind):
        path = str(tmp_path / "nope.txt")
        code, out, err = run(capsys, [*self.COMMANDS[kind], path])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: ")

    @pytest.mark.parametrize(
        "kind, first, second",
        [
            ("matrix", "-1 1", "0 -1"),
            ("manifest", "t-1+t^-1 | -t+3-t^-1", "t-1+t^-1 | t-1+t^-1"),
            ("csv", "5_2, 2t-3+2t^-1, -2, 7", "4_1, -t+3-t^-1, 0, 5"),
        ],
    )
    def test_blank_and_comment_lines_between_content(self, capsys, tmp_path, kind, first, second):
        plain, commented = tmp_path / "plain.txt", tmp_path / "commented.txt"
        plain.write_text(f"{first}\n{second}\n")
        commented.write_text(f"# head\n{first}\n\n   # between\n\t\n{second}\n# tail\n")
        expected = run(capsys, [*self.COMMANDS[kind], str(plain)])
        assert expected[0] == 0 and expected[1]
        assert run(capsys, [*self.COMMANDS[kind], str(commented)]) == expected

    @pytest.mark.parametrize(
        "kind, bad, message",
        [
            ("matrix", "1 x", "line 3: entries must be integers"),
            ("csv", "5_2, 2t-3+2t^-1, -2", "line 3: expected label,polynomial,signature,determinant"),
        ],
    )
    def test_line_numbers_count_skipped_lines(self, capsys, tmp_path, kind, bad, message):
        path = tmp_path / "input.txt"
        path.write_text(f"# head\n\n{bad}\n")
        assert run(capsys, [*self.COMMANDS[kind], str(path)]) == (2, "", f"error: {message}\n")


class TestOutputStability:
    def test_identical_invocations_identical_output(self, capsys, trefoil_file):
        argv = [
            "obstruct",
            "--delta1",
            "t-1+t^-1",
            "--delta2",
            "-3t^2+12t-17+12t^-1-3t^-2",
            "--ua1",
            "1",
            "--ua2",
            "1",
        ]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


class TestUsage:
    def test_no_command_exit_1(self, capsys):
        code, _, err = run(capsys, [])
        assert code == 1

    def test_unknown_flag_exit_1(self, capsys, trefoil_file):
        code, _, err = run(capsys, ["alex", "--matrix", trefoil_file, "--frob"])
        assert code == 1


class TestParsers:
    """main builds one parser for a known command; the full parser is for
    help, unknown commands and no command, and both read argv alike."""

    def test_known_command_builds_one_parser(self, monkeypatch, capsys, trefoil_file):
        built = []
        init = cli._Parser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        argvs = {
            "alex": ["alex", "--matrix", trefoil_file],
            "invariants": ["invariants", "--matrix", trefoil_file],
            "blanchfield": ["blanchfield", "--matrix", trefoil_file],
            "quadform": ["quadform", "1", "3"],
            "obstruct": ["obstruct", "--delta1", "t-1+t^-1", "--delta2", "-t+3-t^-1"],
            "verify": ["verify", "--suite", "eq5", "--iters", "2"],
            "table": ["table", "list"],
        }
        assert set(argvs) == set(cli._COMMANDS)
        cli._command_parser.cache_clear()
        for name, argv in argvs.items():
            built.clear()
            assert main(argv) == 0
            assert built == [f"gordian {name}"]
            # the second call reuses the parser of the first
            built.clear()
            assert main(argv) == 0
            assert built == []
        for argv in ([], ["frob"], ["--matrix", trefoil_file]):
            for _ in range(2):
                built.clear()
                assert main(argv) == 1
                assert len(built) == 1 + len(cli._COMMANDS)
        assert cli._command_parser.cache_info().currsize == len(cli._COMMANDS)
        capsys.readouterr()

    def test_reused_parser_keeps_no_state(self, tmp_path):
        # the corpus forward and then in reverse, in one process: every
        # argv reads the same whichever calls came before it
        argvs = cli_equivalence.corpus(cli_equivalence.write_inputs(str(tmp_path)))
        forward = [cli_equivalence.outcome(argv) for argv in argvs]
        backward = [cli_equivalence.outcome(argv) for argv in reversed(argvs)]
        assert forward == backward[::-1]

    @pytest.mark.parametrize(
        "rejected, valid",
        [
            (
                ["obstruct", "--delta1", "t-1+t^-1", "--delta2", "-t+3-t^-1", "--bound", "0"],
                ["obstruct", "--delta1", "t-1+t^-1", "--delta2", "-t+3-t^-1"],
            ),
            (
                ["verify", "--suite", "eq5", "--iters", "0"],
                ["verify", "--suite", "ring-axioms", "--seed", "5", "--iters", "3"],
            ),
        ],
    )
    def test_rejected_call_leaves_no_state(self, rejected, valid):
        cli._command_parser.cache_clear()
        alone = cli_equivalence.outcome(valid)
        assert alone[0] == 0
        cli._command_parser.cache_clear()
        code, out, err = cli_equivalence.outcome(rejected)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: ")
        assert cli_equivalence.outcome(valid) == alone

    def test_import_builds_no_parser(self):
        # setup time is spent on first use, not at import
        script = "from gordian import cli; print(cli._command_parser.cache_info().currsize)"
        # the child imports the same gordian as this process
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=package_root)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout == "0\n"

    def test_same_outcome_as_full_parser(self, tmp_path):
        argvs = cli_equivalence.corpus(cli_equivalence.write_inputs(str(tmp_path)))
        assert len(argvs) > 90
        assert cli_equivalence.mismatches(argvs) == []

    def test_value_flags_are_the_options_of_every_command(self):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        options = set()
        for parser in sub.choices.values():
            for action in parser._actions:
                if action.option_strings and action.nargs != 0:
                    options.update(action.option_strings)
        assert cli._VALUE_FLAGS == options
        assert cli._KNOWN_FLAGS == options | {"-h", "--help"}

    def test_every_option_takes_a_value_starting_with_minus(self):
        positionals = {"quadform": ["1", "3"], "table": ["list"]}
        refused = {cli._positive_int: "must be at least 1"}
        for name in cli._COMMANDS:
            parser, _ = cli._parser_for([name])
            options = [a for a in parser._actions if a.option_strings and a.nargs != 0]
            required = [a for a in options if a.required]
            for action in options:
                numeric = action.type is int or action.type in refused
                value, expected = ("-3", -3) if numeric else ("-t+3-t^-1", "-t+3-t^-1")
                argv = [name, *positionals.get(name, [])]
                for other in required:
                    if other is not action:
                        argv += [other.option_strings[0], next(iter(other.choices)) if other.choices else "x"]
                argv += [action.option_strings[0], value]
                parser, rest = cli._parser_for(cli._merge_option_values(argv))
                if action.choices:
                    # the value reaches the option, which names it as no choice
                    with pytest.raises(cli.UsageError, match=re.escape(f"invalid choice: {value!r}")):
                        parser.parse_args(rest)
                    continue
                if action.type in refused:
                    # the value reaches the option's type, which refuses it
                    with pytest.raises(cli.UsageError, match=f"{refused[action.type]}, got -3"):
                        parser.parse_args(rest)
                    continue
                args = parser.parse_args(rest)
                assert getattr(args, action.dest) == expected, argv

    def test_negative_values_run(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "eq5", "--seed", "-3", "--iters", "2"])
        assert code == 0
        assert "seed: -3" in out
        code, out, _ = run(capsys, ["obstruct", "--delta1", "-t+3-t^-1", "--delta2", "t-1+t^-1"])
        assert code == 0
        assert out.startswith("input1: -t+3-t^-1\n")
        # parsed as a value, then refused by the report rather than the parser
        code, _, err = run(
            capsys, ["obstruct", "--delta1", "-t+3-t^-1", "--delta2", "t-1+t^-1", "--ua1", "-1"]
        )
        assert code == 2
        assert "nonnegative" in err
