"""Batch front end: table transforms, convolutions, partition dumps and the
verification suites.

All numeric output is exact-rational strings; identical configurations
produce byte-identical output.  Exit codes: 0 success, 1 verification
failure, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable
from contextlib import nullcontext
from itertools import islice

from .errors import ShuffleCalcError, DomainError, quoted

MAX_TRUNCATION = 12
# The cumulant kinds of transform and convolve; each names the functions
# cumulants.<kind>_cumulants, moments_from_<kind> and convolve_<kind>.
_KINDS = ["free", "boolean", "monotone", "cfree"]
# Lines joined into one write by ``enumerate``.
_LINES_PER_WRITE = 1024


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shufflecalc",
        description="Exact cumulant calculus on the word Hopf algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="convert between moment and cumulant tables")
    p.add_argument("--input", required=True, help="input table JSON path ('-' for stdin)")
    p.add_argument("--output", default="-", help="output path (default stdout)")
    direction = p.add_mutually_exclusive_group(required=True)
    direction.add_argument("--to", choices=_KINDS, help="moments -> cumulants of this kind")
    direction.add_argument("--from", dest="from_", metavar="FROM", choices=_KINDS,
                           help="cumulants of this kind -> moments")

    p = sub.add_parser("convolve", help="convolve two states or state pairs")
    p.add_argument("--kind", required=True, choices=_KINDS)
    p.add_argument("--input", required=True)
    p.add_argument("--input2", required=True)
    p.add_argument("--output", default="-")

    p = sub.add_parser("enumerate", help="dump partition families")
    p.add_argument("--family", required=True, choices=["nc", "boolean", "nc-irr"])
    p.add_argument("--n", required=True, type=int)
    output = p.add_mutually_exclusive_group()
    output.add_argument("--counts", action="store_true", help="print a JSON count summary only")
    output.add_argument("--details", action="store_true",
                        help="annotate each partition with block classes, nesting forest and "
                             "tree factorial")
    p.add_argument("--output", default="-")

    p = sub.add_parser("verify", help="run the named identity suites")
    p.add_argument("--max-len", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alphabet", default="a,b", help="comma-separated letter names")
    p.add_argument("--only", action="append", default=None,
                   help="run only these checks (repeatable or comma-separated)")
    p.add_argument("--corrupt-oracle", action="store_true",
                   help="self-test: corrupt the free oracle so verification must fail")
    p.add_argument("--output", default="-")
    return parser


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError;
        # RecursionError is raised for deeply nested JSON.
        raise DomainError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        if path == "-":
            sys.stdout.write(text)
        else:
            with open(path, "w") as fh:
                fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def cmd_transform(args) -> int:
    from . import cumulants
    from .cumulants import StatePair
    from .tables import CumulantTable, MomentTable

    # Each op is read off the module when the command runs, so that a
    # rebinding of cumulants.<name> (as by a tracer) sees the call.
    op = getattr(cumulants, f"{args.to}_cumulants" if args.to else f"moments_from_{args.from_}")
    obj = _read_json(args.input)
    if args.to == "cfree":
        _check_headers(obj, "phi", "psi")
        inputs = (StatePair.from_json(obj),)
    elif args.from_ == "cfree":
        try:
            r_obj, psi_obj = obj["cumulants"], obj["psi"]
        except (KeyError, TypeError):
            raise DomainError(
                "--from cfree expects JSON {\"cumulants\": <table>, \"psi\": <table>}"
            ) from None
        _check_headers(obj, "cumulants", "psi")
        inputs = (CumulantTable.from_json(r_obj), MomentTable.from_json(psi_obj))
    else:
        _check_headers(obj)
        inputs = ((MomentTable if args.to else CumulantTable).from_json(obj),)
    _write_text(args.output, _dump_json(op(*inputs).to_json()))
    return 0


def cmd_convolve(args) -> int:
    from . import cumulants
    from .cumulants import StatePair
    from .tables import MomentTable

    op = getattr(cumulants, f"convolve_{args.kind}")
    a = _read_json(args.input)
    b = _read_json(args.input2)
    parts = ("phi", "psi") if args.kind == "cfree" else ()
    _check_headers(a, *parts)
    _check_headers(b, *parts)
    parse = StatePair.from_json if args.kind == "cfree" else MomentTable.from_json
    _write_text(args.output, _dump_json(op(parse(a), parse(b)).to_json()))
    return 0


def _check_headers(obj, *parts: str) -> None:
    """Refuse an out-of-range ``max_len`` in the header of each table of a
    read input, ``obj`` itself or its ``parts``, before any of their values
    are parsed.  A missing or malformed header is left for ``from_json`` to
    report."""
    if parts:
        tables = [obj.get(part) for part in parts] if isinstance(obj, dict) else []
    else:
        tables = [obj]
    for table in tables:
        n = table.get("max_len") if isinstance(table, dict) else None
        if isinstance(n, int) and not isinstance(n, bool):
            _check_truncation(n)


def cmd_enumerate(args) -> int:
    from . import partitions

    if args.counts:
        count = partitions.family_count(args.family, args.n)
        _write_text(args.output, _dump_json({"family": args.family, "n": args.n,
                                             "count": count}))
        return 0
    _write_lines(args.output, partitions.json_lines(args.family, args.n, args.details))
    return 0


def _write_lines(path: str, lines: Iterable[str]) -> None:
    """Write each line and a newline, ``_LINES_PER_WRITE`` lines per write,
    so that a long iterator is neither held whole nor written line by line
    (stdout may be unbuffered)."""
    lines = iter(lines)
    try:
        with open(path, "w") if path != "-" else nullcontext(sys.stdout) as fh:
            while chunk := list(islice(lines, _LINES_PER_WRITE)):
                fh.write("\n".join(chunk) + "\n")
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc


def cmd_verify(args) -> int:
    # The suites run the bar-word engine; only this subcommand imports it.
    from .verify import VerifyConfig, run_checks

    alphabet = tuple(x for x in args.alphabet.split(",") if x)
    if not alphabet:
        raise DomainError("alphabet must contain at least one letter")
    if len(set(alphabet)) != len(alphabet):
        raise DomainError(f"alphabet letters must be distinct, got {quoted(args.alphabet)}")
    _check_truncation(args.max_len)
    only = None
    if args.only:
        only = [name for chunk in args.only for name in chunk.split(",") if name]
    config = VerifyConfig(
        alphabet=alphabet, max_len=args.max_len, seed=args.seed,
        corrupt=args.corrupt_oracle,
    )
    results = run_checks(config, only=only)
    lines = []
    for result in results:
        if result.passed:
            lines.append(f"PASS {result.name}")
        else:
            lines.append(f"FAIL {result.name}: {result.detail}")
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0 if all(r.passed for r in results) else 1


def _check_truncation(n: int) -> None:
    if not 1 <= n <= MAX_TRUNCATION:
        raise DomainError(f"truncation degree must be in [1, {MAX_TRUNCATION}], got {n}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "transform": cmd_transform,
        "convolve": cmd_convolve,
        "enumerate": cmd_enumerate,
        "verify": cmd_verify,
    }[args.command]
    try:
        return handler(args)
    except ShuffleCalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
