"""Command line surface.

One table, ``_COMMANDS``, maps each command name to its help text, its
arguments and its handler.  ``main`` parses with a single parser for the
command named by the first argument, holding that command's arguments
only; each command's parser is built on its first use and then reused for
the rest of the process.  The full parser, with one subparser per command,
is built afresh only for ``-h``, an unknown command or no command, so help
and usage errors read the same on both paths.  The set of flags that take a
value, which lets a value begin with ``-``, comes from the same table.

Exit codes: 0 success, 1 usage error, 2 invalid input, 3 verification
suite failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .laurent import LaurentPoly, PolyParseError
from .obstruct import QuadFormVerdict, SearchBounds, build_report, quadform_represents
from .seifert import (
    InvalidMatrixError,
    KnotInvariants,
    SeifertMatrix,
    alexander,
    parse_matrix_text,
)
from .blanchfield import gram_matrix
from .tables import load_entries, parse_table_csv
from .verify import SUITES, run_suite


# the text of gordian -h
_DESCRIPTION = """Command line surface.

Exit codes: 0 success, 1 usage error, 2 invalid input, 3 verification
suite failure.
"""


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_matrix(path: str) -> SeifertMatrix:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    return parse_matrix_text(text)


def _print_invariants(inv: KnotInvariants, out):
    print(f"delta: {inv.alexander}", file=out)
    print(f"sigma: {inv.signature}", file=out)
    print(f"determinant: {inv.determinant}", file=out)


def cmd_alex(args, out) -> int:
    print(alexander(_load_matrix(args.matrix)), file=out)
    return 0


def cmd_invariants(args, out) -> int:
    _print_invariants(KnotInvariants.from_matrix(_load_matrix(args.matrix)), out)
    return 0


def cmd_blanchfield(args, out) -> int:
    V = _load_matrix(args.matrix)
    gram = gram_matrix(V)
    for i, row in enumerate(gram, start=1):
        for j, entry in enumerate(row, start=1):
            print(f"beta[{i}][{j}]: {entry}", file=out)
    return 0


def _positive_int(text: str) -> int:
    """The argparse type of --bound and --iters: an integer of at least 1.
    A smaller count or bound would search nothing and report a vacuous
    result."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def cmd_quadform(args, out) -> int:
    verdict: QuadFormVerdict = quadform_represents(args.h, args.d, args.bound)
    print(f"form: {args.h * args.h}x^2 + ({2 * args.h - 1})xy + y^2 = +-({args.d})", file=out)
    print(f"outcome: {verdict.outcome}", file=out)
    if verdict.outcome == "witness":
        print(f"x: {verdict.x}", file=out)
        print(f"y: {verdict.y}", file=out)
        print(f"sign: {verdict.sign:+d}", file=out)
    elif verdict.outcome == "inconclusive":
        print(f"searched_bound: {verdict.searched_bound}", file=out)
    return 0


def _obstruct_input(delta_text, matrix_path, which):
    if (delta_text is None) == (matrix_path is None):
        raise UsageError(f"provide exactly one of --delta{which} or --matrix{which}")
    if delta_text is not None:
        return LaurentPoly.parse(delta_text)
    return _load_matrix(matrix_path)


def _bounds_from_args(args) -> SearchBounds:
    if args.bound is None:
        return SearchBounds()
    # one knob scales both bounded searches; the breadth window stays fixed
    return SearchBounds(cc_max_coeff=args.bound, quadform_bound=args.bound)


def _parse_manifest_token(token: str):
    token = token.strip()
    if os.path.exists(token):
        return _load_matrix(token)
    return LaurentPoly.parse(token)


def cmd_obstruct(args, out) -> int:
    bounds = _bounds_from_args(args)
    if args.manifest is not None:
        if any(v is not None for v in (args.delta1, args.delta2, args.matrix1, args.matrix2)):
            raise UsageError("--manifest cannot be combined with inline inputs")
        if args.ua1 is not None or args.ua2 is not None:
            raise UsageError("--manifest cannot be combined with --ua1 or --ua2")
        with open(args.manifest, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        pair_no = 0
        for raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            left, sep, right = line.partition("|")
            if not sep:
                raise ValueError(f"manifest line needs two inputs separated by |: {line!r}")
            pair_no += 1
            report = build_report(
                _parse_manifest_token(left),
                _parse_manifest_token(right),
                bounds=bounds,
            )
            if pair_no > 1:
                print(file=out)
            print(f"pair: {pair_no}", file=out)
            print(report.format(), file=out)
        return 0
    first = _obstruct_input(args.delta1, args.matrix1, 1)
    second = _obstruct_input(args.delta2, args.matrix2, 2)
    report = build_report(first, second, ua1=args.ua1, ua2=args.ua2, bounds=bounds)
    print(report.format(), file=out)
    return 0


def cmd_verify(args, out) -> int:
    result = run_suite(args.suite, args.seed, args.iters)
    print(f"suite: {args.suite}", file=out)
    print(f"seed: {result.seed}", file=out)
    print(f"iterations: {result.iterations}", file=out)
    print(f"passes: {result.iterations - result.failures}", file=out)
    print(f"failures: {result.failures}", file=out)
    if not result.passed:
        print(f"counterexample: {result.counterexample}", file=out)
        return 3
    return 0


def _entry_line(entry) -> str:
    inv = entry.invariants
    line = (
        f"{entry.label}: delta={inv.alexander} sigma={inv.signature} "
        f"determinant={inv.determinant}"
    )
    if entry.note:
        line += f" ({entry.note})"
    return line


def cmd_table(args, out) -> int:
    entries = load_entries()
    if args.action == "list":
        for label in entries:
            print(_entry_line(entries[label]), file=out)
        return 0
    if args.action == "show":
        if args.label is None:
            raise UsageError("table show needs a label")
        if args.label not in entries:
            print(f"error: unknown label {args.label!r}", file=sys.stderr)
            return 1
        entry = entries[args.label]
        print(f"label: {entry.label}", file=out)
        if entry.matrix is not None:
            print("matrix:", file=out)
            for row in entry.matrix.rows:
                print("  " + " ".join(str(x) for x in row), file=out)
        else:
            print("matrix: no Seifert matrix bundled", file=out)
        _print_invariants(entry.invariants, out)
        return 0
    # import
    if args.label is None:
        raise UsageError("table import needs a csv file")
    with open(args.label, "r", encoding="utf-8") as handle:
        imported = parse_table_csv(handle.read())
    for entry in imported:
        print(_entry_line(entry), file=out)
    return 0


# name -> (help, arguments, handler); each argument is (flags, keywords) for
# add_argument.  Both the parsers and the option flags come from this table.
_MATRIX = (("--matrix",), {"required": True})
_COMMANDS = {
    "alex": ("print the Alexander polynomial of a matrix file", (_MATRIX,), cmd_alex),
    "invariants": (
        "print Alexander polynomial, signature, determinant",
        (_MATRIX,),
        cmd_invariants,
    ),
    "blanchfield": (
        "print the pairing matrix of the standard generators",
        (_MATRIX,),
        cmd_blanchfield,
    ),
    "quadform": (
        "decide h^2 x^2 + (2h-1)xy + y^2 = +-d",
        (
            (("h",), {"type": int}),
            (("d",), {"type": int}),
            (("--bound",), {"type": _positive_int, "default": SearchBounds().quadform_bound}),
        ),
        cmd_quadform,
    ),
    "obstruct": (
        "run the obstruction battery on a pair of inputs",
        (
            (("--delta1",), {}),
            (("--matrix1",), {}),
            (("--delta2",), {}),
            (("--matrix2",), {}),
            (("--ua1",), {"type": int}),
            (("--ua2",), {"type": int}),
            (("--bound",), {"type": _positive_int}),
            (("--manifest",), {"help": "batch mode: one pair per line, inputs separated by |"}),
        ),
        cmd_obstruct,
    ),
    "verify": (
        "run a seeded randomized verification suite",
        (
            (("--suite",), {"required": True, "choices": SUITES}),
            (("--seed",), {"type": int, "default": 0}),
            (("--iters",), {"type": _positive_int, "default": None}),
        ),
        cmd_verify,
    ),
    "table": (
        "bundled example knots",
        (
            (("action",), {"choices": ("list", "show", "import")}),
            (("label",), {"nargs": "?", "metavar": "label-or-file"}),
        ),
        cmd_table,
    ),
}


def _add_arguments(parser: _Parser, name: str) -> _Parser:
    _, arguments, handler = _COMMANDS[name]
    for flags, keywords in arguments:
        parser.add_argument(*flags, **keywords)
    parser.set_defaults(func=handler)
    return parser


def build_parser() -> _Parser:
    """The full parser: every command as a subparser.  main needs it only
    for help, an unknown command or no command at all."""
    parser = _Parser(prog="gordian", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, (help_text, _, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


@functools.lru_cache(maxsize=None)
def _command_parser(name: str) -> _Parser:
    """The parser of one command, built on first use.  parse_args keeps no
    state between calls, so one parser serves every call in the process;
    the cache holds at most one parser per key of _COMMANDS."""
    return _add_arguments(_Parser(prog=f"gordian {name}"), name)


def _parser_for(argv):
    """The parser for argv and the arguments it should parse: the
    command's parser, built on its first use and then reused in the
    process, when argv starts with a command, else the full one."""
    if argv and argv[0] in _COMMANDS:
        return _command_parser(argv[0]), argv[1:]
    return build_parser(), argv


# every option here takes a value
_VALUE_FLAGS = frozenset(
    flag
    for _, arguments, _ in _COMMANDS.values()
    for flags, _ in arguments
    for flag in flags
    if flag.startswith("-")
)
_KNOWN_FLAGS = _VALUE_FLAGS | {"-h", "--help"}


def _merge_option_values(argv):
    """Join ``--flag value`` into ``--flag=value`` when the value starts
    with ``-``; polynomials can begin with a minus sign."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok in _VALUE_FLAGS
            and nxt is not None
            and nxt.startswith("-")
            and nxt not in _KNOWN_FLAGS
        ):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_option_values(list(argv))
    try:
        parser, argv = _parser_for(argv)
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise UsageError("a subcommand is required")
        return args.func(args, sys.stdout)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (PolyParseError, InvalidMatrixError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
