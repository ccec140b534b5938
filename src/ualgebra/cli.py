"""The `ua` command-line front end.

Exit codes: 0 = positive result, 1 = negative mathematical result (invalid
term, not a homomorphism, not a model), 2 = usage, I/O, or parse failure.
Reports go to stdout, diagnostics to stderr, and identical inputs produce
byte-identical reports.  A reader that closes stdout early gets exit 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebras import FiniteAlgebra, check_homomorphism
from .equations import DEFAULT_BUDGET, Theory, check_model
from .errors import FormatError, UAlgebraError, _capped, _shown
from .oplist import Ok, parse_oplist, status_of
from .signature import SANITY_LIMIT, Signature
from .syntax import parse_term
from .terms import ENUM_LIMIT, depth, enumerate_terms, format_term

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2

# Longest argparse message shown in full: room for its own lists, such as
# the subcommands or the missing options, but not for a long argument.
_ARGPARSE_LIMIT = 200


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bytes that are not UTF-8 and integers
        # past the interpreter's digit limit
        raise FormatError(f"{_capped(path)}: {exc}") from None


def _signature(args) -> Signature:
    return Signature.from_json(_read_json(args.sig), limit=args.max_arity)


def _emit(report: dict):
    print(json.dumps(report))


def cmd_check(args) -> int:
    sig = _signature(args)
    checked = []
    for text in args.terms:
        ops = parse_oplist(sig, text)
        checked.append((text, ops, status_of(sig, ops)))
    all_ok = all(status == Ok(1) for _, _, status in checked)
    if args.json:
        results = []
        for text, ops, status in checked:
            if isinstance(status, Ok):
                status_json = {"kind": "ok", "terms": status.terms}
            else:
                status_json = {"kind": status.kind, "position": status.position}
            results.append(
                {
                    "input": text,
                    "ops": list(ops),
                    "is_term": status == Ok(1),
                    "status": status_json,
                }
            )
        _emit({"command": "check", "all_ok": all_ok, "results": results})
    else:
        for _, _, status in checked:
            if status == Ok(1):
                print("ok")
            elif isinstance(status, Ok):
                print(f"not a term: {status.terms} complete terms")
            else:
                print(f"{status.kind} at position {status.position}")
    return EXIT_OK if all_ok else EXIT_NEGATIVE


def cmd_depth(args) -> int:
    sig = _signature(args)
    term = parse_term(sig, args.term)
    result = depth(term)
    if args.json:
        _emit({"command": "depth", "term": format_term(term), "depth": result})
    else:
        print(result)
    return EXIT_OK


def cmd_eval(args) -> int:
    sig = _signature(args)
    algebra = FiniteAlgebra.from_json(sig, _read_json(args.alg))
    term = parse_term(sig, args.term)
    value = algebra.evaluate(term)
    if args.json:
        _emit({"command": "eval", "term": format_term(term), "value": value})
    else:
        print(value)
    return EXIT_OK


def _parse_map(text: str, size: int) -> list[int]:
    mapping: dict[int, int] = {}
    parts = text.split(",")
    for part in parts:
        piece = part.strip()
        try:
            key, _, value = piece.partition(":")
            mapping[int(key)] = int(value)
        except ValueError:
            raise FormatError(f"bad --map entry {_shown(piece)}, expected SRC:DST") from None
    if len(parts) != size or set(mapping) != set(range(size)):
        raise FormatError(
            f"--map must assign each of 0..{_shown(size - 1)} exactly once"
        )
    return [mapping[x] for x in range(size)]


def cmd_hom(args) -> int:
    sig = _signature(args)
    source = FiniteAlgebra.from_json(sig, _read_json(args.source_path))
    target = FiniteAlgebra.from_json(sig, _read_json(args.target_path))
    mapping = _parse_map(args.map, source.carrier_size)
    violation = check_homomorphism(source, target, mapping)
    if args.json:
        report = {"command": "hom", "is_homomorphism": violation is None}
        if violation is not None:
            report["counterexample"] = {
                "symbol": violation.symbol.name,
                "args": list(violation.args),
                "lhs": violation.lhs,
                "rhs": violation.rhs,
            }
        _emit(report)
    elif violation is None:
        print("ok")
    else:
        spot = f"{violation.symbol.name}({','.join(map(str, violation.args))})"
        print(f"counterexample: {spot}: {violation.lhs} != {violation.rhs}")
    return EXIT_OK if violation is None else EXIT_NEGATIVE


def cmd_sat(args) -> int:
    sig = _signature(args)
    algebra = FiniteAlgebra.from_json(sig, _read_json(args.alg))
    theory = Theory.from_json(sig, _read_json(args.theory))
    failure = check_model(algebra, theory, budget=args.budget)
    if args.json:
        report = {
            "command": "sat",
            "theory": theory.name,
            "is_model": failure is None,
        }
        if failure is not None:
            report["failed_label"] = failure.label
            report["counterexample"] = list(failure.assignment)
        _emit(report)
    elif failure is None:
        print("model")
    else:
        assignment = f"({','.join(map(str, failure.assignment))})"
        print(f"fails {failure.label} at {assignment}")
    return EXIT_OK if failure is None else EXIT_NEGATIVE


def cmd_enum(args) -> int:
    sig = _signature(args)
    terms = enumerate_terms(sig, args.max_len, limit=args.limit)
    if args.json:
        _emit(
            {
                "command": "enum",
                "max_len": args.max_len,
                "count": len(terms),
                "terms": [
                    {"text": format_term(t), "ops": list(t.ops)} for t in terms
                ],
            }
        )
    else:
        sys.stdout.writelines(f"{format_term(t)}\n" for t in terms)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # an argparse error is one bounded stderr line, without the usage lines
    def error(self, message):
        message = _capped(message, _ARGPARSE_LIMIT)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--sig", required=True, metavar="FILE", help="signature JSON file")
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument(
        "--max-arity",
        type=int,
        default=SANITY_LIMIT,
        metavar="N",
        help="sanity cap on arity and symbol count in input files",
    )

    parser = _Parser(
        prog="ua", description="universal algebra kernel over finite signatures"
    )
    # not required: argparse would report a missing command before an
    # unknown option (`ua --nope`), so `main` checks for one after parsing
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("check", parents=[common], help="validate oplists")
    p.add_argument(
        "terms",
        nargs="+",
        metavar="TERM",
        help="oplist as whitespace-separated symbol names, e.g. 's s z'",
    )
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("depth", parents=[common], help="depth of a term")
    p.add_argument("term", metavar="TERM", help="term in functional notation")
    p.set_defaults(handler=cmd_depth)

    p = sub.add_parser("eval", parents=[common], help="evaluate a term in an algebra")
    p.add_argument("--alg", required=True, metavar="FILE", help="algebra JSON file")
    p.add_argument("term", metavar="TERM", help="term in functional notation")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("hom", parents=[common], help="check a homomorphism candidate")
    p.add_argument("--from", dest="source_path", required=True, metavar="FILE")
    p.add_argument("--to", dest="target_path", required=True, metavar="FILE")
    p.add_argument(
        "--map", required=True, metavar="MAP", help="carrier map as '0:0,1:1,...'"
    )
    p.set_defaults(handler=cmd_hom)

    p = sub.add_parser("sat", parents=[common], help="check a theory against an algebra")
    p.add_argument("--alg", required=True, metavar="FILE", help="algebra JSON file")
    p.add_argument("--theory", required=True, metavar="FILE", help="theory JSON file")
    p.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        metavar="N",
        help="max assignments per equation",
    )
    p.set_defaults(handler=cmd_sat)

    p = sub.add_parser("enum", parents=[common], help="enumerate terms by length")
    p.add_argument("--max-len", type=int, required=True, metavar="N")
    p.add_argument(
        "--limit",
        type=int,
        default=ENUM_LIMIT,
        metavar="N",
        help="cap on --max-len",
    )
    p.set_defaults(handler=cmd_enum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.error("the following arguments are required: command")
    except SystemExit as exc:
        # argparse already printed its error or help; normalize --help's exit 0
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe then fails here, not at exit
        return code
    except UAlgebraError as exc:
        print(f"ua: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader closed stdout early (`ua enum ... | head`): not an
        # error; send what is still buffered to devnull at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except OSError as exc:
        message = str(exc)
        if exc.filename is not None:
            # what str(exc) gives, with a long path capped
            message = f"[Errno {exc.errno}] {exc.strerror}: {_shown(exc.filename)}"
        print(f"ua: error: {message}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
