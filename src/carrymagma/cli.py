"""Command-line front end.

Every verb maps to exactly one library operation; results print as
canonical set literals (or JSON with --json) on stdout, with nothing
else on the success stream.  Exit codes: 0 success, 1 domain/range
error or stdout closed early, 2 usage or parse error.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import adder, explorer
from .bitset import decode, encode, format, parse
from .errors import DIGIT_LIMIT, MAX_DIGITS, RangeError, SetLiteralError, shown
from .magma import invert, oplus, solve, stretch

EXIT_OK = 0
EXIT_RANGE = 1
EXIT_USAGE = 2


def _natural(text: str) -> int:
    if len(text) > MAX_DIGITS:
        raise argparse.ArgumentTypeError(
            f"{text[:12]!r}... has {len(text)} characters: integers are "
            f"capped at {MAX_DIGITS} digits")
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a decimal natural number")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carrymagma",
        description="One-round carry-approximation algebra on finite sets "
                    "of naturals.")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="emit a JSON object instead of plain text")
        return p

    p = add("oplus", "combine two sets with one carry round")
    p.add_argument("a", metavar="A")
    p.add_argument("b", metavar="B")

    p = add("invert", "the set X with A oplus X = {}")
    p.add_argument("a", metavar="A")

    p = add("solve", "the set X with A oplus X = B")
    p.add_argument("a", metavar="A")
    p.add_argument("b", metavar="B")

    p = add("stretch", "length of the run of members of A ending at N")
    p.add_argument("a", metavar="A")
    p.add_argument("n", metavar="N", type=_natural)

    p = add("orbit", "left-iterates A, A+A, (A+A)+A, ... under oplus")
    p.add_argument("a", metavar="A")
    p.add_argument("--iterations", type=_natural, required=True, metavar="K",
                   help="number of iterates to print")

    p = add("assoc", "compare the two association orders of a triple")
    p.add_argument("a", metavar="A")
    p.add_argument("b", metavar="B")
    p.add_argument("c", metavar="C")

    p = add("scan-assoc", "exhaustive associativity scan over a universe")
    p.add_argument("--bound", type=_natural, required=True, metavar="N",
                   help="universe is the power set of [0, N)")

    # the two verbs that always print JSON take no --json
    p = sub.add_parser("search-subgroups",
                       help="classify subsets containing {} (JSON lines)")
    p.add_argument("--bound", type=_natural, required=True, metavar="N",
                   help="universe is the power set of [0, N)")
    p.add_argument("--max-size", type=_natural, default=None, metavar="M",
                   help="largest candidate size (default: whole universe)")

    p = sub.add_parser("adder-stats",
                       help="exhaustive one-round adder statistics")
    p.add_argument("width", type=_natural, metavar="WIDTH",
                   help="operands range over [0, 2**WIDTH)")

    p = add("encode", "the set as a binary integer (sum of 2**n)")
    p.add_argument("a", metavar="A")

    p = add("decode", "the set of bit positions set in an integer")
    p.add_argument("m", metavar="M", type=_natural)

    return parser


def _emit(args, plain: str, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(plain)


def _emit_result(args, value) -> None:
    """Print one set literal or number, plain or as {"result": value}."""
    _emit(args, str(value), {"result": value})


def _run_verb(args) -> int:
    verb = args.verb
    if verb == "oplus":
        _emit_result(args, format(oplus(parse(args.a), parse(args.b))))
    elif verb == "invert":
        _emit_result(args, format(invert(parse(args.a))))
    elif verb == "solve":
        _emit_result(args, format(solve(parse(args.a), parse(args.b))))
    elif verb == "stretch":
        _emit_result(args, stretch(parse(args.a), args.n))
    elif verb == "orbit":
        texts = [format(s) for s in explorer.orbit(parse(args.a),
                                                   args.iterations)]
        _emit(args, "\n".join(texts), {"result": texts})
    elif verb == "assoc":
        witness = explorer.assoc_witness(parse(args.a), parse(args.b),
                                         parse(args.c))
        if witness is None:
            _emit(args, "associative", {"associative": True, "witness": None})
        else:
            _emit(args,
                  f"non-associative left={format(witness.left)} "
                  f"right={format(witness.right)}",
                  {"associative": False,
                   "witness": explorer.witness_as_dict(witness)})
    elif verb == "scan-assoc":
        scan = explorer.scan_associativity(args.bound)
        witness = (None if scan.first_witness is None
                   else explorer.witness_as_dict(scan.first_witness))
        plain = [f"total_triples: {scan.total_triples}",
                 f"failing_triples: {scan.failing_triples}"]
        if witness is not None:
            plain.append("first_witness: " + " ".join(
                f"{key}={value}" for key, value in witness.items()))
        _emit(args, "\n".join(plain),
              {"bound": args.bound, "total_triples": scan.total_triples,
               "failing_triples": scan.failing_triples,
               "first_witness": witness})
    elif verb == "search-subgroups":
        reports = explorer.search_closed_subsets(args.bound, args.max_size)
        for report in reports:
            print(json.dumps(explorer.report_as_dict(report)))
        print(json.dumps(explorer.search_summary(reports)))
    elif verb == "adder-stats":
        stats = adder.approx_stats(args.width)
        print(json.dumps(asdict(stats)))
    elif verb == "encode":
        value = encode(parse(args.a))
        if value >= DIGIT_LIMIT:
            raise RangeError(f"the integer {shown(value)} does not print "
                             f"within {MAX_DIGITS} digits")
        _emit_result(args, value)
    elif verb == "decode":
        _emit_result(args, format(decode(args.m)))
    else:  # pragma: no cover - argparse rejects unknown verbs first
        raise AssertionError(f"unhandled verb {verb!r}")
    return EXIT_OK


def run(argv: list[str]) -> int:
    """Parse argv, dispatch, print, and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _run_verb(args)
    except SetLiteralError as exc:
        print(parser.format_usage().rstrip(), file=sys.stderr)
        print(f"carrymagma {args.verb}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RangeError as exc:
        print(f"carrymagma {args.verb}: {exc}", file=sys.stderr)
        return EXIT_RANGE


def main() -> None:
    """The console script: run() under the fixed digit limit, ending
    quietly with EXIT_RANGE when a reader closes stdout early."""
    if hasattr(sys, "set_int_max_str_digits"):  # Python 3.10.7 and later
        sys.set_int_max_str_digits(MAX_DIGITS)
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe must fail inside the try
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; send that to
        # devnull so the closed pipe raises nothing more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_RANGE
    sys.exit(code)


if __name__ == "__main__":
    main()
