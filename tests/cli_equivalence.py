"""The command line read by one command's parser against the full parser.

``main`` parses a known command with a parser holding that command's
arguments alone, and everything else with the full parser of every
command.  ``outcome`` runs ``main`` either way on the same argv and
records (exit code, stdout, stderr), so the two can be compared on the
running interpreter, whatever its argparse version.

Runs without pytest as well:

    PYTHONPATH=src python3 tests/cli_equivalence.py

prints each argv whose outcomes differ and exits 1 if any did.
"""

from __future__ import annotations

import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from gordian import cli

TREFOIL = "-1 1\n0 -1\n"
FIGURE_EIGHT = "1 1\n0 -1\n"
BUNDLED = ["--delta1", "t-1+t^-1", "--delta2", "-3t^2+12t-17+12t^-1-3t^-2"]


def write_inputs(directory: str) -> dict:
    """The input files the corpus reads, written into directory."""
    files = {
        "trefoil": TREFOIL,
        "fig8": FIGURE_EIGHT,
        "empty": "",
        "odd": "1\n",
        "singular": "0 0\n0 0\n",
        "words": "a b\nc d\n",
        "rows.csv": "5_2, 2t-3+2t^-1, -2, 7\n",
        "bad.csv": "5_2, 2t-3+2t^-1, -2, 9\n",
    }
    paths = {}
    for name, text in files.items():
        paths[name] = os.path.join(directory, name)
        with open(paths[name], "w", encoding="utf-8") as handle:
            handle.write(text)
    paths["manifest"] = os.path.join(directory, "pairs.txt")
    with open(paths["manifest"], "w", encoding="utf-8") as handle:
        handle.write(f"# two pairs\n{paths['trefoil']} | -t+3-t^-1\nt-1+t^-1 | t-1+t^-1\n")
    paths["missing"] = os.path.join(directory, "missing.txt")
    return paths


def corpus(paths: dict) -> list:
    """argv lists for every command: valid runs, help, bad choices,
    missing and malformed arguments, and values that begin with ``-``."""
    tre, fig = paths["trefoil"], paths["fig8"]
    argvs = [[], ["-h"], ["--help"], ["frob"], ["--matrix", tre], ["-x"], ["--", "alex"]]
    for name in ("alex", "invariants", "blanchfield"):
        argvs += [
            [name, "--matrix", tre],
            [name, f"--matrix={fig}"],
            [name, "--mat", tre],
            [name, "-h"],
            [name],
            [name, "--matrix"],
            [name, "--matrix", paths["missing"]],
            [name, "--matrix", paths["empty"]],
            [name, "--matrix", paths["odd"]],
            [name, "--matrix", paths["singular"]],
            [name, "--matrix", paths["words"]],
            [name, "--matrix", tre, "--frob"],
            [name, "--matrix", tre, "extra"],
            [name, "--matrix", "-t"],
        ]
    argvs += [
        ["quadform", "1", "3"],
        ["quadform", "1", "2"],
        ["quadform", "-1", "2", "--bound", "40"],
        ["quadform", "3", "-5", "--bound", "-2"],
        ["quadform", "0", "2"],
        ["quadform", "x", "3"],
        ["quadform", "1"],
        ["quadform", "1", "3", "--bound", "x"],
        ["quadform", "1", "3", "--bound"],
        ["quadform", "-h"],
        ["quadform", "1", "3", "4"],
        ["obstruct", *BUNDLED],
        ["obstruct", *BUNDLED, "--ua1", "1", "--ua2", "1"],
        ["obstruct", "--delta1", "-t+3-t^-1", "--delta2", "t-1+t^-1", "--ua1", "-1"],
        ["obstruct", "--delta1=-t+3-t^-1", "--delta2", "t-1+t^-1", "--bound", "1"],
        ["obstruct", "--matrix1", tre, "--matrix2", fig],
        ["obstruct", "--matrix1", tre, "--delta2", "-t+3-t^-1", "--bound", "-2"],
        ["obstruct", "--delta1", "t", "--matrix1", tre, "--delta2", "1"],
        ["obstruct", "--delta1", "t-1+t^-1"],
        ["obstruct"],
        ["obstruct", "--delta1", "t^", "--delta2", "t-1+t^-1"],
        ["obstruct", *BUNDLED, "--ua1", "x"],
        ["obstruct", *BUNDLED, "--ua2"],
        ["obstruct", "--manifest", paths["manifest"]],
        ["obstruct", "--manifest", paths["manifest"], "--delta1", "t-1+t^-1"],
        ["obstruct", "--manifest", paths["missing"]],
        ["obstruct", "--delta1", "-h"],
        ["obstruct", "-h"],
        ["verify", "--suite", "eq5", "--seed", "-3", "--iters", "3"],
        ["verify", "--suite", "ring-axioms", "--iters", "4"],
        ["verify", "--suite", "nope"],
        ["verify", "--suite", "-eq5"],
        ["verify"],
        ["verify", "--suite", "eq5", "--iters", "x"],
        ["verify", "--suite", "eq5", "--seed", "1.5"],
        ["verify", "--suite", "eq5", "--iters", "-1"],
        ["verify", "--suite", "eq5", "--seed", "--iters", "2"],
        ["verify", "-h"],
        ["table", "list"],
        ["table", "show", "3_1"],
        ["table", "show", "9_25"],
        ["table", "show"],
        ["table", "show", "10_139"],
        ["table", "import", paths["rows.csv"]],
        ["table", "import", paths["bad.csv"]],
        ["table", "import"],
        ["table", "bogus"],
        ["table"],
        ["table", "list", "extra", "more"],
        ["table", "-h"],
    ]
    return argvs


def _full_parser(argv):
    return cli.build_parser(), argv


def outcome(argv, full: bool = False):
    """(exit code, stdout, stderr) of main(argv); full parses with
    build_parser() alone, as main did before it built one parser per
    command.  Help exits through SystemExit, whose code is kept."""
    out, err = io.StringIO(), io.StringIO()
    saved = cli._parser_for
    if full:
        cli._parser_for = _full_parser
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = ("exit", exc.code)
    finally:
        cli._parser_for = saved
    return code, out.getvalue(), err.getvalue()


def mismatches(argvs) -> list:
    return [argv for argv in argvs if outcome(argv) != outcome(argv, full=True)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        argvs = corpus(write_inputs(directory))
        bad = mismatches(argvs)
    for argv in bad:
        print(f"differs: {argv}")
    print(f"python {sys.version.split()[0]}: {len(argvs) - len(bad)} of {len(argvs)} argv agree")
    sys.exit(1 if bad else 0)
