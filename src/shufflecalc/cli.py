"""Batch front end: table transforms, convolutions, partition dumps and the
verification suites.

All numeric output is exact-rational strings; identical configurations
produce byte-identical output.  Exit codes: 0 success, 1 verification
failure, 2 usage or input errors, each reported as one ``error: ...`` line
on stderr.

Every call is a fresh process, so this module imports only what each
subcommand runs.  The command line is read from the ``_COMMANDS`` table
(no ``argparse``); ``transform`` and ``convolve`` load the kernel in
``cumulants`` and ``tables``, ``enumerate`` loads only ``enumeration``,
and only ``verify`` loads the bar-word engine.  ``json`` is imported by
the two functions that read and write it, so ``enumerate`` never loads it.

A table-shaped input is read by ``_read_tables`` in one order: the JSON,
its members, each table's header and degree, then the values.  The table
and pair schema is checked in ``tables``; this module sees only the
degree.  Every output goes through ``_write``, which reports a failed
write as one line.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from contextlib import nullcontext, suppress
from itertools import islice
from types import SimpleNamespace

from .errors import ShuffleCalcError, DomainError, quoted

MAX_TRUNCATION = 12
# The cumulant kinds of transform and convolve; each names the functions
# cumulants.<kind>_cumulants, moments_from_<kind> and convolve_<kind>.
_KINDS = ("free", "boolean", "monotone", "cfree")
# The members of a state pair's JSON object.
_PAIR = ("phi", "psi")
# Lines joined into one write by ``enumerate``.
_LINES_PER_WRITE = 1024

_USAGE = """\
usage: shufflecalc {transform,convolve,enumerate,verify} [OPTIONS]

Exact cumulant calculus on the word Hopf algebra.

  transform   convert between moment and cumulant tables
  convolve    convolve two states or state pairs
  enumerate   dump partition families
  verify      run the named identity suites

Run 'shufflecalc COMMAND --help' for the options of a command.
"""
# Each subcommand: its options, the pair of options of which at most one
# may be given (with True, exactly one) and its ``--help`` text.  An option
# maps to (kind, default): a kind is "flag", "int", "str", "list" (a
# repeatable str) or a tuple of choices, and a default of ... marks a
# required option.  The destination of "--max-len" is "max_len", and of
# "--from" "from_".
_COMMANDS = {
    "transform": ({
        "--input": ("str", ...),
        "--to": (_KINDS, None),
        "--from": (_KINDS, None),
        "--output": ("str", "-"),
    }, ("--to", "--from", True), """\
usage: shufflecalc transform --input PATH (--to KIND | --from KIND) [--output PATH]

Convert between moment and cumulant tables.

  --input PATH   input table JSON ('-' for stdin)
  --to KIND      moments -> cumulants of this kind
  --from KIND    cumulants of this kind -> moments
  --output PATH  output path (default '-', stdout)

KIND is one of {free,boolean,monotone,cfree}.
"""),
    "convolve": ({
        "--kind": (_KINDS, ...),
        "--input": ("str", ...),
        "--input2": ("str", ...),
        "--output": ("str", "-"),
    }, None, """\
usage: shufflecalc convolve --kind KIND --input PATH --input2 PATH [--output PATH]

Convolve two states, or two state pairs for cfree.

  --kind KIND     the cumulants that add: {free,boolean,monotone,cfree}
  --input PATH    first table JSON ('-' for stdin)
  --input2 PATH   second table JSON ('-' for stdin)
  --output PATH   output path (default '-', stdout)
"""),
    "enumerate": ({
        "--family": (("nc", "boolean", "nc-irr"), ...),
        "--n": ("int", ...),
        "--counts": ("flag", False),
        "--details": ("flag", False),
        "--output": ("str", "-"),
    }, ("--counts", "--details", False), """\
usage: shufflecalc enumerate --family FAMILY --n N [--counts | --details] [--output PATH]

Print the partitions of a family, one JSON line each.

  --family FAMILY  {nc,boolean,nc-irr}
  --n N            the order, in [1, 14]
  --counts         print a JSON count summary only
  --details        annotate each partition with block classes, nesting
                   forest and tree factorial
  --output PATH    output path (default '-', stdout)
"""),
    "verify": ({
        "--max-len": ("int", 4),
        "--seed": ("int", 0),
        "--alphabet": ("str", "a,b"),
        "--only": ("list", None),
        "--corrupt-oracle": ("flag", False),
        "--output": ("str", "-"),
    }, None, """\
usage: shufflecalc verify [--max-len N] [--seed N] [--alphabet LETTERS] [--only NAMES]
                          [--corrupt-oracle] [--output PATH]

Run the identity suites; exit 1 if one fails.

  --max-len N         truncation degree (default 4)
  --seed N            random seed (default 0)
  --alphabet LETTERS  comma-separated letter names (default a,b)
  --only NAMES        run only these checks (repeatable or comma-separated)
  --corrupt-oracle    self-test: corrupt the free oracle so verification must fail
  --output PATH       output path (default '-', stdout)
"""),
}
_HELP = ("-h", "--help")


def _parse(argv: list[str]):
    """The command line as a namespace of ``command`` and the destination
    of each of its options, or the text to print for ``-h``/``--help``.
    Options are ``--name value`` or ``--name=value``, in any order; a value
    may start with ``-``, and a repeated option keeps its last value."""
    names = ", ".join(_COMMANDS)
    if not argv:
        raise DomainError(f"missing subcommand: choose one of {names}")
    command, *rest = argv
    if command in _HELP:
        return _USAGE
    if command not in _COMMANDS:
        raise DomainError(f"unknown subcommand {quoted(command)}: choose one of {names}")
    options, exclusive, usage = _COMMANDS[command]
    given: dict = {}
    rest = iter(rest)
    for arg in rest:
        if arg in _HELP:
            return usage
        name, eq, value = arg.partition("=")
        if name not in options:
            raise DomainError(f"unknown option {quoted(name)} for {command}")
        kind = options[name][0]
        if kind == "flag":
            if eq:
                raise DomainError(f"option {name} takes no value")
            value = True
        elif not eq:
            value = next(rest, None)
            if value is None:
                raise DomainError(f"option {name} needs a value")
        if kind == "int":
            # ASCII [+-]?[0-9]+ only: int() also takes "1_0", " 3" and
            # non-ASCII digits
            digits = value[1:] if value[:1] in ("+", "-") else value
            try:
                if not (digits.isascii() and digits.isdigit()):
                    raise ValueError
                value = int(value)
            except ValueError:
                raise DomainError(f"option {name} needs an integer, got {quoted(value)}") from None
        elif kind == "list":
            value = given.get(name, []) + [value]
        elif isinstance(kind, tuple) and value not in kind:
            raise DomainError(f"option {name} must be one of {', '.join(kind)}, "
                              f"got {quoted(value)}")
        given[name] = value
    for name, (_, default) in options.items():
        if default is ... and name not in given:
            raise DomainError(f"option {name} is required")
    if exclusive:
        first, second, required = exclusive
        if first in given and second in given:
            raise DomainError(f"options {first} and {second} exclude each other")
        if required and first not in given and second not in given:
            raise DomainError(f"one of the options {first} and {second} is required")
    values = {name[2:].replace("-", "_").replace("from", "from_"): given.get(name, default)
              for name, (_, default) in options.items()}
    return SimpleNamespace(command=command, **values)


def _read_json(path: str):
    import json

    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError;
        # RecursionError is raised for deeply nested JSON.
        raise DomainError(f"cannot read {path}: {exc}") from exc


def _write(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks to ``path`` ('-' for stdout) and flush, so that a
    failed write to stdout is reported here as one line; stdout is then
    closed, since the text it still holds cannot be written, and the
    interpreter's flush at exit would fail on it again."""
    try:
        with open(path, "w") if path != "-" else nullcontext(sys.stdout) as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
    except OSError as exc:
        if path == "-":
            with suppress(OSError):
                sys.stdout.close()
        raise DomainError(f"cannot write {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    _write(path, (text,))


def _write_lines(path: str, lines: Iterable[str]) -> None:
    """Write each line and a newline, ``_LINES_PER_WRITE`` lines per write,
    so that a long iterator is neither held whole nor written line by line
    (stdout may be unbuffered)."""
    lines = iter(lines)
    _write(path, ("\n".join(chunk) + "\n"
                  for chunk in iter(lambda: list(islice(lines, _LINES_PER_WRITE)), [])))


def _dump_json(obj) -> str:
    import json

    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _read_tables(path: str, classes: tuple, members: tuple[str, ...] = ()) -> list:
    """The tables of the JSON input at ``path``: the whole of it as
    ``classes[0]``, or its ``members`` as the ``classes`` in turn.  Checked
    in order: the JSON, the members, each table's header and degree, then
    the values."""
    from .tables import _header, _members

    obj = _read_json(path)
    objs = _members(obj, members, path) if members else [obj]
    for table in objs:
        _check_truncation(_header(table)[1])
    return [cls.from_json(table) for cls, table in zip(classes, objs)]


def cmd_transform(args) -> int:
    from . import cumulants
    from .tables import CumulantTable, MomentTable

    # Each op is read off the module when the command runs, so that a
    # rebinding of cumulants.<name> (as by a tracer) sees the call.
    op = getattr(cumulants, f"{args.to}_cumulants" if args.to else f"moments_from_{args.from_}")
    if args.to == "cfree":
        inputs = [cumulants.StatePair(*_read_tables(args.input, (MomentTable,) * 2, _PAIR))]
    elif args.from_ == "cfree":
        inputs = _read_tables(args.input, (CumulantTable, MomentTable), ("cumulants", "psi"))
    else:
        inputs = _read_tables(args.input, (MomentTable if args.to else CumulantTable,))
    _write_text(args.output, _dump_json(op(*inputs).to_json()))
    return 0


def cmd_convolve(args) -> int:
    from . import cumulants
    from .tables import MomentTable

    op = getattr(cumulants, f"convolve_{args.kind}")
    members = _PAIR if args.kind == "cfree" else ()
    inputs = []
    for path in (args.input, args.input2):
        tables = _read_tables(path, (MomentTable,) * 2, members)
        inputs.append(cumulants.StatePair(*tables) if members else tables[0])
    _write_text(args.output, _dump_json(op(*inputs).to_json()))
    return 0


def cmd_enumerate(args) -> int:
    # Neither the partition oracles nor ``json``: the count object and the
    # lines are written as the text that ``json.dumps`` gives.  Both are
    # read off the module when the command runs, as in ``cmd_transform``.
    from . import enumeration

    if args.counts:
        count = enumeration.family_count(args.family, args.n)
        _write_text(args.output, f'{{\n  "count": {count},\n  "family": "{args.family}",\n'
                                 f'  "n": {args.n}\n}}\n')
        return 0
    _write_lines(args.output, enumeration.json_lines(args.family, args.n, args.details))
    return 0


def cmd_verify(args) -> int:
    # The suites run the bar-word engine; only this subcommand imports it.
    # The letters are checked before any suite runs, by the rule every
    # table alphabet passes.
    from .tables import _letters
    from .verify import VerifyConfig, run_checks

    alphabet = tuple(x for x in args.alphabet.split(",") if x)
    if len(set(alphabet)) != len(alphabet):
        raise DomainError(f"alphabet letters must be distinct, got {quoted(args.alphabet)}")
    _check_truncation(args.max_len)
    _letters(alphabet, args.max_len)
    only = None
    if args.only:
        only = [name for chunk in args.only for name in chunk.split(",") if name]
    config = VerifyConfig(
        alphabet=alphabet, max_len=args.max_len, seed=args.seed,
        corrupt=args.corrupt_oracle,
    )
    results = run_checks(config, only=only)
    _write_lines(args.output, (f"PASS {r.name}" if r.passed else f"FAIL {r.name}: {r.detail}"
                               for r in results))
    return 0 if all(r.passed for r in results) else 1


def _check_truncation(n: int) -> None:
    if not 1 <= n <= MAX_TRUNCATION:
        raise DomainError(f"truncation degree must be in [1, {MAX_TRUNCATION}], got {n}")


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        if isinstance(args, str):
            _write_text("-", args)
            return 0
        return globals()[f"cmd_{args.command}"](args)
    except ShuffleCalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
