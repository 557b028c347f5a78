import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import shufflecalc
from shufflecalc import CumulantTable, MomentTable, StatePair, cumulants, free_cumulants, tables
from shufflecalc.cli import _COMMANDS, _dump_json, main
from shufflecalc.enumeration import family_count
from shufflecalc.errors import DomainError, quoted
from shufflecalc.words import Word, words_up_to

CORPUS = Path(__file__).parent / "data" / "cli_corpus"


def write_json(path, obj):
    path.write_text(json.dumps(obj))


def moments_json(seed, alphabet=("a", "b"), max_len=3):
    return MomentTable.random(alphabet, max_len, random.Random(seed)).to_json()


class TestTransform:
    @pytest.mark.parametrize("kind", ["free", "boolean", "monotone"])
    def test_roundtrip_through_files(self, tmp_path, kind):
        src = tmp_path / "in.json"
        mid = tmp_path / "cumulants.json"
        back = tmp_path / "out.json"
        write_json(src, moments_json(1))
        assert main(["transform", "--input", str(src), "--to", kind,
                     "--output", str(mid)]) == 0
        assert main(["transform", "--input", str(mid), "--from", kind,
                     "--output", str(back)]) == 0
        assert json.loads(back.read_text()) == json.loads(src.read_text())

    def test_free_matches_library(self, tmp_path):
        src = tmp_path / "in.json"
        out = tmp_path / "out.json"
        table = MomentTable.random(["a"], 3, random.Random(2))
        write_json(src, table.to_json())
        main(["transform", "--input", str(src), "--to", "free", "--output", str(out)])
        got = CumulantTable.from_json(json.loads(out.read_text()))
        assert got == free_cumulants(table)

    def test_cfree_roundtrip(self, tmp_path):
        src = tmp_path / "pair.json"
        mid = tmp_path / "r.json"
        back = tmp_path / "phi.json"
        pair = StatePair(
            MomentTable.random(["a"], 3, random.Random(3)),
            MomentTable.random(["a"], 3, random.Random(4)),
        )
        write_json(src, pair.to_json())
        assert main(["transform", "--input", str(src), "--to", "cfree",
                     "--output", str(mid)]) == 0
        write_json(
            tmp_path / "combo.json",
            {"cumulants": json.loads(mid.read_text()), "psi": pair.psi.to_json()},
        )
        assert main(["transform", "--input", str(tmp_path / "combo.json"),
                     "--from", "cfree", "--output", str(back)]) == 0
        assert MomentTable.from_json(json.loads(back.read_text())) == pair.phi

    def test_output_is_deterministic(self, tmp_path):
        src = tmp_path / "in.json"
        write_json(src, moments_json(5))
        outs = []
        for name in ("one.json", "two.json"):
            out = tmp_path / name
            main(["transform", "--input", str(src), "--to", "monotone",
                  "--output", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        src = tmp_path / "bad.json"
        src.write_text("{not json")
        assert main(["transform", "--input", str(src), "--to", "free"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["transform", "--input", str(tmp_path / "nope.json"),
                     "--to", "free"]) == 2

    def test_cfree_from_requires_both_tables(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        write_json(src, moments_json(6))
        assert main(["transform", "--input", str(src), "--from", "cfree"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {src}: expected a JSON object with members 'cumulants' and 'psi'\n"

    @pytest.mark.parametrize("override", [
        {"max_len": "1"},
        {"values": []},
        {"alphabet": "ab"},
        {"max_len": True},
        {"alphabet": ["a", "a", "b"]},
    ], ids=["max_len-string", "values-list", "alphabet-string", "max_len-bool",
            "alphabet-repeated-letter"])
    def test_mistyped_table_fields_exit_2(self, tmp_path, capsys, override):
        src = tmp_path / "in.json"
        write_json(src, {**moments_json(15, max_len=1), **override})
        assert main(["transform", "--input", str(src), "--to", "free"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("scalar", ["1.5", "1e3", "1_000", " 7 ", "1e2000000"])
    def test_scalars_outside_the_grammar_exit_2(self, tmp_path, capsys, scalar):
        src = tmp_path / "in.json"
        table = moments_json(16, max_len=1)
        write_json(src, {**table, "values": {**table["values"], "a": scalar}})
        assert main(["transform", "--input", str(src), "--to", "free"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("content", [
        b"\xff\xfe",
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["not-utf8", "nested-100000-deep"])
    def test_unreadable_json_exits_2(self, tmp_path, capsys, content):
        src = tmp_path / "in.json"
        src.write_bytes(content)
        assert main(["transform", "--input", str(src), "--to", "free"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.fixture
def int_str_limit():
    """Python's default limit on int-string conversion digits, set for the
    test and restored after it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("argv", [
    ["transform", "--to", "free", "--input", "{src}"],
    ["convolve", "--kind", "free", "--input", "{src}", "--input2", "{src}"],
], ids=lambda argv: argv[0])
def test_results_beyond_the_int_string_limit_exit_2(tmp_path, capsys, int_str_limit, argv):
    # Each input value has 4,000 digits, within the limit; products of
    # them in the results do not fit it.
    src = tmp_path / "in.json"
    big = "1" + "0" * 3999
    write_json(src, {"alphabet": ["a"], "max_len": 3,
                     "values": {"a": big, "a.a": big, "a.a.a": big}})
    assert main([arg.format(src=src) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "digits" in err and len(err) < 200


@pytest.mark.parametrize("key, value, named", [
    ("a", "1" * 5000 + "x", "malformed scalar '1111"),
    ("." + "b" * 5000, "1", "table entry '.bbbb"),
    ("b" * 5000, "1", "out-of-domain entries: [Word(bbbb"),
], ids=["value", "key-letter", "key-domain"])
def test_long_bad_input_is_echoed_short(tmp_path, capsys, key, value, named):
    src = tmp_path / "in.json"
    write_json(src, {"alphabet": ["a"], "max_len": 1, "values": {"a": "1", key: value}})
    assert main(["transform", "--to", "free", "--input", str(src)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert named in err and "chars)" in err and len(err) < 200


@pytest.mark.parametrize("value", ["1" * 5000, "1/" + "1" * 5000],
                         ids=["numerator", "denominator"])
def test_scalar_beyond_the_int_string_limit_exits_2(tmp_path, capsys, int_str_limit, value):
    # in the grammar, but with more digits than int() converts
    src = tmp_path / "in.json"
    write_json(src, {"alphabet": ["a"], "max_len": 1, "values": {"a": value}})
    assert main(["transform", "--to", "free", "--input", str(src)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: table entry 'a': malformed scalar '{value[:39]}... "
                   f"({len(value) + 2} chars)\n")


def test_line_break_in_bad_input_is_echoed_escaped(tmp_path, capsys):
    src = tmp_path / "in.json"
    write_json(src, {"alphabet": ["a"], "max_len": 1, "values": {"a": "1", "\n": "0"}})
    assert main(["transform", "--to", "free", "--input", str(src)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: table has out-of-domain entries: [Word(\\n)]\n"


@pytest.mark.parametrize("argv, op", [
    (["transform", "--to", "free"], "free_cumulants"),
    (["convolve", "--kind", "free", "--input2", "{src}"], "convolve_free"),
])
def test_truncation_is_checked_before_any_compute(tmp_path, monkeypatch, capsys, argv, op):
    src = tmp_path / "deep.json"
    write_json(src, MomentTable.zeros(["a"], 13).to_json())

    def forbidden(*_):
        pytest.fail(f"{op} ran before the truncation check")

    monkeypatch.setattr(cumulants, op, forbidden)
    argv = [arg.format(src=src) for arg in argv] + ["--input", str(src)]
    assert main(argv) == 2
    assert "truncation degree" in capsys.readouterr().err


@pytest.mark.parametrize("argv, members", [
    (["transform", "--to", "cfree", "--input", "{bad}"], ("phi", "psi")),
    (["transform", "--from", "cfree", "--input", "{bad}"], ("cumulants", "psi")),
    (["convolve", "--kind", "cfree", "--input", "{bad}", "--input2", "{good}"], ("phi", "psi")),
    (["convolve", "--kind", "cfree", "--input", "{good}", "--input2", "{bad}"], ("phi", "psi")),
], ids=["to-cfree", "from-cfree", "convolve-input", "convolve-input2"])
@pytest.mark.parametrize("shape", ["list", "no-psi"])
def test_pair_input_without_its_members_is_one_line(tmp_path, capsys, argv, members, shape):
    """A pair-shaped input that is not an object, or lacks a member, is
    refused with one line that names the input and both members."""
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    table = moments_json(17)
    write_json(bad, [table, table] if shape == "list" else {members[0]: table})
    write_json(good, {"phi": table, "psi": table})
    assert main([arg.format(bad=bad, good=good) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {bad}: expected a JSON object with members "
                   f"{members[0]!r} and {members[1]!r}\n")


HUGE_HEADER = {"alphabet": ["a"], "max_len": 100000000, "values": {"a": "1"}}
SMALL_TABLE = {"alphabet": ["a"], "max_len": 1, "values": {"a": "1"}}


TABLE_MEMBERS = ("malformed table JSON: expected a JSON object with members "
                 "'alphabet', 'max_len' and 'values'")


@pytest.mark.parametrize("table", [[1], {}, {"alphabet": ["a"], "max_len": 1}],
                         ids=["list", "empty", "no-values"])
@pytest.mark.parametrize("argv, wrap, member", [
    (["transform", "--to", "free"], lambda table: table, ""),
    (["transform", "--to", "cfree"], lambda table: {"phi": table, "psi": SMALL_TABLE}, "phi: "),
], ids=["to", "to-cfree-phi"])
def test_table_that_is_not_a_table_object_is_one_line(tmp_path, capsys, argv, wrap, member,
                                                      table):
    """The line names the member of a pair that is not a table."""
    src = tmp_path / "in.json"
    write_json(src, wrap(table))
    assert main(argv + ["--input", str(src)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {member}{TABLE_MEMBERS}\n"


def test_every_header_is_checked_before_any_value(tmp_path, capsys):
    """A pair whose phi has a malformed value and whose psi has a malformed
    header is refused for psi's header."""
    src = tmp_path / "pair.json"
    write_json(src, {"phi": {**SMALL_TABLE, "values": {"a": "x"}},
                     "psi": {**SMALL_TABLE, "max_len": "1"}})
    assert main(["transform", "--to", "cfree", "--input", str(src)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: psi: malformed table JSON: max_len must be an integer, got '1'\n"


@pytest.mark.parametrize("argv, pair, line", [
    (["transform", "--from", "cfree"],
     {"cumulants": {**SMALL_TABLE, "values": {"a": "x"}}, "psi": SMALL_TABLE},
     "cumulants: table entry 'a': malformed scalar 'x'"),
    (["transform", "--to", "cfree"],
     {"phi": SMALL_TABLE, "psi": {**SMALL_TABLE, "values": {"a": "1", "b": "2"}}},
     "psi: table has out-of-domain entries: [Word(b)]"),
    (["transform", "--to", "cfree"],
     {"phi": {**SMALL_TABLE, "values": {}}, "psi": SMALL_TABLE},
     "phi: table is missing a value for 'a'"),
], ids=["cumulants-entry", "psi-domain", "phi-missing"])
def test_value_errors_in_a_pair_name_their_member(tmp_path, capsys, argv, pair, line):
    src = tmp_path / "pair.json"
    write_json(src, pair)
    assert main(argv + ["--input", str(src)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {line}\n"


@pytest.mark.parametrize("argv, table, member", [
    (["transform", "--to", "free"], HUGE_HEADER, ""),
    (["transform", "--to", "cfree"], {"phi": SMALL_TABLE, "psi": HUGE_HEADER}, "psi: "),
    (["transform", "--from", "cfree"], {"cumulants": SMALL_TABLE, "psi": HUGE_HEADER}, "psi: "),
    (["convolve", "--kind", "monotone", "--input2", "{small}"], HUGE_HEADER, ""),
    (["convolve", "--kind", "cfree", "--input2", "{small}"],
     {"phi": HUGE_HEADER, "psi": SMALL_TABLE}, "phi: "),
], ids=["to", "to-cfree", "from-cfree", "convolve", "convolve-cfree"])
def test_truncation_is_checked_before_any_value_is_parsed(tmp_path, monkeypatch, capsys,
                                                          argv, table, member):
    """A table header's degree is refused before its values are read: the
    error names the truncation (and the member of a pair), not a missing
    value."""
    src, small = tmp_path / "huge.json", tmp_path / "small.json"
    write_json(src, table)
    write_json(small, {"phi": SMALL_TABLE, "psi": SMALL_TABLE} if "cfree" in argv
               else SMALL_TABLE)

    def forbidden(obj):
        pytest.fail(f"the scalar {obj!r} was parsed before the truncation check")

    # the table reader parses each value with tables._rational
    monkeypatch.setattr(tables, "_rational", forbidden)
    argv = [arg.format(small=small) for arg in argv] + ["--input", str(src)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {member}truncation degree must be in [1, 12], got 100000000\n"


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
@pytest.mark.parametrize("argv", [
    ["transform", "--to", "free", "--input", "{src}"],
    ["convolve", "--kind", "free", "--input", "{src}", "--input2", "{src}"],
    ["enumerate", "--family", "nc", "--n", "3"],
    ["verify", "--max-len", "2", "--only", "counit"],
], ids=lambda argv: argv[0])
def test_unwritable_output_exits_2(tmp_path, capsys, argv, target):
    src = tmp_path / "in.json"
    write_json(src, moments_json(1, max_len=2))
    output = tmp_path / "no-such-dir" / "out.json" if target == "missing-dir" else tmp_path
    argv = [arg.format(src=src) for arg in argv] + ["--output", str(output)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot write") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["transform", "--to", "free", "--input", "{src}"],
    ["enumerate", "--family", "nc", "--n", "9", "--details"],
    ["enumerate", "--family", "nc", "--n", "3", "--counts"],
    ["verify", "--max-len", "2", "--only", "counit"],
], ids=lambda argv: "-".join(a.strip("-") for a in argv[:1] + argv[-1:]))
def test_failed_write_to_buffered_stdout_exits_2(tmp_path, argv):
    # with stdout buffered, as it is unless PYTHONUNBUFFERED is set, the
    # write fails when the buffer is flushed, which must happen before the
    # interpreter's own flush at exit
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    src = tmp_path / "in.json"
    write_json(src, moments_json(1, max_len=2))
    env = {**os.environ, "PYTHONPATH": str(Path(shufflecalc.__file__).resolve().parent.parent)}
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "shufflecalc.cli",
                               *(arg.format(src=src) for arg in argv)],
                              env=env, stdout=full, stderr=subprocess.PIPE, text=True,
                              check=False)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: cannot write -: ")
    assert proc.stderr.count("\n") == 1, proc.stderr


# Each usage error: its argv and a word its one error line must hold.
USAGE_ERRORS = {
    "no-subcommand": ([], "subcommand"),
    "unknown-subcommand": (["frobnicate"], "'frobnicate'"),
    "unknown-option": (["transform", "--to", "free", "--input", "x", "--bogus", "1"],
                       "'--bogus'"),
    "short-option": (["verify", "-x"], "'-x'"),
    "missing-value": (["transform", "--to", "free", "--input"], "--input"),
    "bad-choice": (["convolve", "--kind", "nope", "--input", "x", "--input2", "y"], "--kind"),
    "bad-int": (["enumerate", "--family", "nc", "--n", "x"], "--n"),
    # int() would read these as 10, 3 and 3
    "int-underscore": (["enumerate", "--family", "nc", "--n", "1_0", "--counts"], "'1_0'"),
    "int-space": (["enumerate", "--family", "nc", "--n", " 3", "--counts"], "' 3'"),
    "int-non-ascii": (["enumerate", "--family", "nc", "--n", "\u0663", "--counts"], "--n"),
    "flag-with-value": (["enumerate", "--family", "nc", "--n=3", "--counts=yes"], "--counts"),
    "missing-required": (["transform", "--to", "free"], "--input"),
    "to-and-from": (["transform", "--to", "free", "--from", "free", "--input", "x"], "--from"),
    "neither-to-nor-from": (["transform", "--input", "x"], "--to"),
    "counts-and-details": (["enumerate", "--family", "nc", "--n", "3", "--counts",
                            "--details"], "--details"),
}


@pytest.mark.parametrize("case", list(USAGE_ERRORS))
def test_usage_errors_are_one_line(capsys, case):
    argv, named = USAGE_ERRORS[case]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert named in err


@pytest.mark.parametrize("command", [None, *_COMMANDS])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_names_every_option_and_exits_0(capsys, command, flag):
    assert main([command, flag] if command else [flag]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if command is None:
        assert all(name in out for name in _COMMANDS)
        return
    assert out.startswith(f"usage: shufflecalc {command}")
    for name, (kind, _) in _COMMANDS[command][0].items():
        assert name in out
        if isinstance(kind, tuple):
            assert "{" + ",".join(kind) + "}" in out


def test_help_lists_the_options_argparse_had(capsys):
    # the options and choices of the argparse parser this reader replaced
    options = {
        "transform": "--input --output --to --from",
        "convolve": "--kind --input --input2 --output",
        "enumerate": "--family --n --counts --details --output",
        "verify": "--max-len --seed --alphabet --only --corrupt-oracle --output",
    }
    assert {c: sorted(o) for c, (o, _, _) in _COMMANDS.items()} == {
        c: sorted(o.split()) for c, o in options.items()}
    assert main(["enumerate", "--help"]) == 0
    assert "{nc,boolean,nc-irr}" in capsys.readouterr().out
    assert main(["convolve", "--help"]) == 0
    assert "{free,boolean,monotone,cfree}" in capsys.readouterr().out


def test_option_values_may_follow_an_equals_sign_or_start_with_a_dash(tmp_path, capsys):
    src = tmp_path / "in.json"
    write_json(src, moments_json(1))
    assert main(["transform", "--to", "free", "--input", str(src)]) == 0
    spaced = capsys.readouterr().out
    assert main(["transform", f"--input={src}", "--to=free"]) == 0
    assert capsys.readouterr().out == spaced
    assert main(["verify", "--max-len", "2", "--only", "counit", "--seed", "-1"]) == 0
    assert capsys.readouterr().out == "PASS counit\n"


def test_integer_options_may_be_signed(capsys):
    assert main(["enumerate", "--family", "nc", "--n", "3", "--counts"]) == 0
    plain = capsys.readouterr().out
    assert main(["enumerate", "--family", "nc", "--n", "+03", "--counts"]) == 0
    assert capsys.readouterr().out == plain
    assert main(["enumerate", "--family", "nc", "--n", "-3", "--counts"]) == 2
    assert capsys.readouterr().err == "error: order must be in [1, 14], got -3\n"


def test_prefixes_of_options_are_refused(capsys):
    assert main(["verify", "--max", "2", "--only", "counit"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: unknown option '--max' for verify\n"


# Arbitrary input files for transform and convolve.  ``HUGE`` stands for a
# 5,000-digit integer literal, beyond what ``json`` parses by default, which
# ``json.dumps`` cannot write itself.  The strategies are built once, at
# import: building them per example costs more than running the CLI.
HUGE = "@huge-integer@"
SCALARS = st.one_of(
    st.integers(-10**40, 10**40),
    st.sampled_from(["1/2", "-3/7", "0", "+5", "1/0", "1.5", "9" * 5000, HUGE]),
    st.text(max_size=6), st.floats(), st.booleans(), st.none(),
)
JSON = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=8)
VALUES = st.integers(-10**40, 10**40) | st.sampled_from(["1/2", "-3/7"])
ENTRY_KEYS = st.sampled_from(["a", "b.a", "a.a.a", "c", "a.a.a.a"]) | st.text(max_size=4)
FIELDS = st.sampled_from(["alphabet", "max_len", "values"])
CHANGES = st.lists(st.sampled_from(["field", "entry", "drop", "all"]), max_size=2)
# (argv, the members of each input that hold a table, number of inputs)
PROPERTY_COMMANDS = st.sampled_from(
    [(["transform", "--to", k], (), 1) for k in ("free", "boolean", "monotone")]
    + [(["transform", "--from", k], (), 1) for k in ("free", "boolean", "monotone")]
    + [(["transform", "--to", "cfree"], ("phi", "psi"), 1),
       (["transform", "--from", "cfree"], ("cumulants", "psi"), 1)]
    + [(["convolve", "--kind", k], (), 2) for k in ("free", "boolean", "monotone")]
    + [(["convolve", "--kind", "cfree"], ("phi", "psi"), 2)]
)


def arbitrary_table(draw, alphabet, max_len, scalars=VALUES):
    """A complete table on the shared header, with values drawn from
    ``scalars`` and up to two of its fields or entries replaced by
    arbitrary JSON, a field dropped, or the whole object arbitrary JSON."""
    values = {".".join(w): draw(scalars)
              for n in range(1, max_len + 1) for w in product(sorted(alphabet), repeat=n)}
    table = {"alphabet": alphabet, "max_len": max_len, "values": values}
    for change in draw(CHANGES):
        if change == "field":
            table[draw(FIELDS)] = draw(JSON | st.integers(-10**30, 10**30))
        elif change == "entry":
            values[draw(ENTRY_KEYS)] = draw(SCALARS)
        elif change == "drop":
            table.pop(draw(FIELDS), None)
        else:
            return draw(JSON)
    return table


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_arbitrary_json_input_exits_0_or_2_without_traceback(tmp_path_factory, data):
    draw = data.draw
    argv, parts, count = draw(PROPERTY_COMMANDS)
    alphabet = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=2, unique=True))
    max_len = draw(st.integers(1, 3))
    directory = tmp_path_factory.mktemp("arbitrary-json")
    for i, flag in enumerate(["--input", "--input2"][:count]):
        if parts:
            obj = {part: arbitrary_table(draw, alphabet, max_len) for part in parts}
        else:
            obj = arbitrary_table(draw, alphabet, max_len)
        path = directory / f"in{i}.json"
        path.write_text(json.dumps(obj).replace(json.dumps(HUGE), "9" * 5000))
        argv = argv + [flag, str(path)]
    out, err = io.StringIO(), io.StringIO()
    # an exception escaping main would be a traceback from the console script
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    if code == 0:
        assert err.getvalue() == "" and json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


# The Fraction/Word table reader and writer that the coded ones replaced,
# kept as the reference they are held to: every value, every error line
# and every byte written must agree.

def reference_scalar(obj) -> Fraction:
    if isinstance(obj, bool):
        raise DomainError(f"not a scalar: {quoted(obj)}")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        if re.fullmatch(r"[+-]?[0-9]+(?:/[0-9]+)?", obj) is None:
            raise DomainError(f"malformed scalar {quoted(obj)}")
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"malformed scalar {quoted(obj)}") from exc
    raise DomainError(f"not a scalar: {quoted(obj)}")


def reference_read(obj):
    """``(alphabet, max_len, {Word: Fraction})`` in ``words_up_to`` order."""
    alphabet, max_len, raw = reference_header(obj)
    return reference_table(alphabet, max_len, reference_entries(raw))


def reference_header(obj):
    if not isinstance(obj, dict) or not {"alphabet", "max_len", "values"} <= obj.keys():
        raise DomainError("malformed table JSON: expected a JSON object with members "
                          "'alphabet', 'max_len' and 'values'")
    alphabet, max_len, raw = obj["alphabet"], obj["max_len"], obj["values"]
    if not isinstance(alphabet, list) or not all(isinstance(x, str) for x in alphabet):
        raise DomainError("malformed table JSON: alphabet must be a list of strings")
    if len(set(alphabet)) != len(alphabet):
        raise DomainError("malformed table JSON: alphabet letters must be distinct, "
                          f"got {quoted(alphabet)}")
    if not isinstance(max_len, int) or isinstance(max_len, bool):
        raise DomainError(f"malformed table JSON: max_len must be an integer, got {quoted(max_len)}")
    if not isinstance(raw, dict):
        raise DomainError("malformed table JSON: values must be an object")
    return alphabet, max_len, raw


def reference_entries(raw) -> dict:
    values = {}
    for k, v in raw.items():
        try:
            values[Word.parse(k)] = reference_scalar(v)
        except DomainError as exc:
            raise DomainError(f"table entry {quoted(k)}: {exc}") from None
    return values


def reference_table(alphabet, max_len, values):
    """The checks of the dict constructor on a ``{Word: Fraction}`` dict."""
    alphabet = tuple(sorted(set(alphabet)))
    if not alphabet:
        raise DomainError("alphabet must be nonempty")
    if max_len < 1:
        raise DomainError("max_len must be >= 1")
    ordered = {}
    for w in words_up_to(alphabet, max_len):
        if w not in values:
            raise DomainError(f"table is missing a value for {quoted(w.dotted())}")
        ordered[w] = values[w]
    if len(ordered) != len(values):
        extra = set(values) - ordered.keys()
        raise DomainError(f"table has out-of-domain entries: {quoted(sorted(extra)[:3])}")
    return alphabet, max_len, ordered


def reference_write(alphabet, max_len, values) -> dict:
    return {"alphabet": list(alphabet), "max_len": max_len,
            "values": {w.dotted(): str(v) for w, v in values.items()}}


def _outcome(read, obj):
    try:
        return read(obj), None
    except DomainError as exc:
        return None, str(exc)


def drop_an_entry(draw, table):
    """The table, or, when it has values, the table without one of them."""
    values = table.get("values") if isinstance(table, dict) else None
    if isinstance(values, dict) and values and draw(st.booleans()):
        del values[draw(st.sampled_from(sorted(values)))]
    return table


# Non-reduced and signed spellings, two malformed ones, and values that
# are all zero.
READER_VALUES = VALUES | st.sampled_from(["2/4", "-0", "+3", "007", "-6/4", "+0/7", "-007/014",
                                           "1/0", "1.5"])
ZERO_VALUES = st.sampled_from([0, "0", "-0", "+0", "0/7", "000"])
# Letter names that a Word refuses; a header holding one is read to an error.
BAD_LETTERS = st.sampled_from(["", "a.a", "b.c", "c."])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_coded_reader_and_writer_match_the_reference(data):
    """The coded ``from_json`` reads the values and reports the error line
    of the reference reader, and ``to_json`` writes its bytes, for single
    tables and both pair shapes; and the dict constructor reports the
    reference's error line on the entries of a single table."""
    draw = data.draw
    alphabet = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    if draw(st.integers(0, 3)) == 0:
        alphabet.append(draw(BAD_LETTERS))
    max_len = draw(st.integers(1, 3))
    scalars = draw(st.sampled_from([READER_VALUES, ZERO_VALUES]))
    parts = draw(st.sampled_from([(), ("phi", "psi"), ("cumulants", "psi")]))
    if parts:
        obj = {part: drop_an_entry(draw, arbitrary_table(draw, alphabet, max_len, scalars))
               for part in parts}
    else:
        obj = drop_an_entry(draw, arbitrary_table(draw, alphabet, max_len, scalars))
    obj = json.loads(json.dumps(obj))
    if not parts:
        try:
            header, entries = reference_header(obj), reference_entries(obj["values"])
        except DomainError:
            pass
        else:
            built = _outcome(lambda v: CumulantTable(header[0], header[1], v), entries)
            assert built[1] == _outcome(lambda v: reference_table(header[0], header[1], v),
                                        entries)[1]
    if parts == ("phi", "psi"):
        got, error = _outcome(StatePair.from_json, obj)
        expected, expected_error = _outcome(lambda o: [reference_read(o[p]) for p in parts], obj)
        if expected and expected[0][:2] != expected[1][:2]:
            (a1, n1, _), (a2, n2, _) = expected
            expected, expected_error = None, (f"incompatible tables: alphabet/max_len "
                                              f"({quoted(a1)}, {n1}) vs ({quoted(a2)}, {n2})")
        got = got and [got.phi, got.psi]
    else:
        tables_json = [obj[p] for p in parts] if parts else [obj]
        got, error = _outcome(lambda objs: [CumulantTable.from_json(o) for o in objs], tables_json)
        expected, expected_error = _outcome(lambda objs: [reference_read(o) for o in objs],
                                            tables_json)
    assert error == expected_error
    if got is None:
        return
    for table, (alphabet, max_len, values) in zip(got, expected):
        assert (table.alphabet, table.max_len) == (alphabet, max_len)
        assert list(table.values.items()) == list(values.items())
        assert _dump_json(table.to_json()) == _dump_json(reference_write(alphabet, max_len, values))
        # a table built from the reference's dict is the same table
        assert type(table)(alphabet, max_len, values) == table


@pytest.mark.parametrize("alphabet, max_len, values", [
    (["a", "b"], 3, {}),
    (["a"], 0, {}),
    ([], 1, {}),
    ([], 0, {"a": "1"}),
    (["a"], 100000000, {"a": "1"}),
    (["a"], 2, {"a": "1", "a.a": "1/0", "a..a": "1"}),
    (["a"], 2, {"a..a": "1", "a": "1/0"}),
    (["b", "a"], 1, {"b": "-0/4", "a": "+6/4"}),
    ([""], 1, {"": "1"}),
    ([""], 1, {}),
    (["a", "a.a"], 1, {"a": "1", "a.a": "2"}),
    (["a.a", "b"], 1, {"b": "1"}),
    (["a", "b.c"], 2, {"b.c": "1"}),
    (["a", "b.c"], 1, {"a": "1", "b.c": "x"}),
], ids=["no-values", "max_len-0", "no-letters", "no-letters-max_len-0", "deep-header",
        "bad-scalar-first", "bad-key-first", "unsorted-alphabet", "empty-letter",
        "empty-letter-no-values", "dotted-letter", "dotted-letter-first",
        "missing-before-dotted-letter", "bad-scalar-before-dotted-letter"])
def test_coded_reader_matches_the_reference_on_edge_tables(alphabet, max_len, values):
    obj = {"alphabet": alphabet, "max_len": max_len, "values": values}
    got, error = _outcome(CumulantTable.from_json, obj)
    expected, expected_error = _outcome(reference_read, obj)
    assert error == expected_error
    if got is not None:
        assert list(got.values.items()) == list(expected[2].items())
        assert _dump_json(got.to_json()) == _dump_json(reference_write(*expected))


class TestConvolve:
    def test_free_matches_library(self, tmp_path):
        a, b, out = (tmp_path / n for n in ("a.json", "b.json", "out.json"))
        write_json(a, moments_json(7))
        write_json(b, moments_json(8))
        assert main(["convolve", "--kind", "free", "--input", str(a),
                     "--input2", str(b), "--output", str(out)]) == 0
        from shufflecalc import convolve_free

        expected = convolve_free(
            MomentTable.from_json(json.loads(a.read_text())),
            MomentTable.from_json(json.loads(b.read_text())),
        )
        assert MomentTable.from_json(json.loads(out.read_text())) == expected

    def test_cfree_pairs(self, tmp_path):
        a, b, out = (tmp_path / n for n in ("a.json", "b.json", "out.json"))
        write_json(a, {"phi": moments_json(9), "psi": moments_json(10)})
        write_json(b, {"phi": moments_json(11), "psi": moments_json(12)})
        assert main(["convolve", "--kind", "cfree", "--input", str(a),
                     "--input2", str(b), "--output", str(out)]) == 0
        got = json.loads(out.read_text())
        assert set(got) == {"phi", "psi"}

    def test_incompatible_tables_exit_2(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json(a, moments_json(13, max_len=2))
        write_json(b, moments_json(14, max_len=3))
        assert main(["convolve", "--kind", "free", "--input", str(a),
                     "--input2", str(b)]) == 2


class TestEnumerate:
    def test_counts(self, tmp_path, capsys):
        assert main(["enumerate", "--family", "nc", "--n", "5", "--counts"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 42

    def test_listing(self, capsys):
        assert main(["enumerate", "--family", "boolean", "--n", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert [[1, 2, 3]] in [json.loads(l) for l in lines]

    def test_details(self, capsys):
        assert main(["enumerate", "--family", "nc-irr", "--n", "4",
                     "--details"]) == 0
        rows = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert len(rows) == 5
        nested = next(r for r in rows if r["blocks"] == [[1, 4], [2, 3]])
        assert nested["classes"] == ["outer", "inner"]
        assert nested["parents"] == [-1, 0]
        assert nested["tree_factorial"] == 2

    def test_out_of_range_exits_2(self):
        assert main(["enumerate", "--family", "nc", "--n", "0", "--counts"]) == 2

    def test_counts_and_details_exclude_each_other(self, capsys):
        assert main(["enumerate", "--family", "nc", "--n", "5", "--counts", "--details"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: options --counts and --details exclude each other\n"

    def test_counts_are_the_json_dumps_text(self, capsys):
        for family, n in product(["nc", "nc-irr", "boolean"], range(1, 15)):
            assert main(["enumerate", "--family", family, "--n", str(n), "--counts"]) == 0
            count = family_count(family, n)
            expected = json.dumps({"family": family, "n": n, "count": count},
                                  sort_keys=True, indent=2) + "\n"
            assert capsys.readouterr().out == expected, (family, n)

    def test_out_of_range_lines_write_nothing(self, capsys):
        # the order is checked before the first line is written
        assert main(["enumerate", "--family", "nc", "--n", "15", "--details"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


# SHA-256 of the stdout of ``enumerate``, recorded before generated
# partitions skipped re-validation and each --details line read its nesting
# forest once; do not regenerate them from the code under test.
ENUMERATE_DIGESTS = {
    "nc-9-details": (["--family", "nc", "--n", "9", "--details"],
                     "fb7592161079f27ef92d3b4c74b98e33c3b01059922d9495c8541e3bdded0110"),
    "nc-irr-10-details": (["--family", "nc-irr", "--n", "10", "--details"],
                          "3515d39db6d9fa8c816345678c5d382973dbca262a06d4df98594eed7c14e7d5"),
    "boolean-12-details": (["--family", "boolean", "--n", "12", "--details"],
                           "7ccf8c88cc7bba69313efb59cdd76ceec9ca9505b2fd16404554802f3157177a"),
    "nc-9": (["--family", "nc", "--n", "9"],
             "643a00f61835a02297b1e92a48623137fdd91ddb926abefe1de8f79270faecaf"),
}


@pytest.mark.parametrize("case", sorted(ENUMERATE_DIGESTS))
def test_enumerate_matches_recorded_digests(case, capsys):
    argv, digest = ENUMERATE_DIGESTS[case]
    assert main(["enumerate", *argv]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_enumerate_writes_stdout_in_chunks(monkeypatch):
    # 4,862 lines in a handful of writes: stdout may be unbuffered
    argv, digest = ENUMERATE_DIGESTS["nc-9-details"]
    stdout = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["enumerate", *argv]) == 0
    assert 2 <= stdout.writes <= 10
    assert hashlib.sha256(stdout.getvalue().encode()).hexdigest() == digest


class TestVerify:
    def test_default_run_passes(self, tmp_path):
        out = tmp_path / "report.txt"
        assert main(["verify", "--max-len", "3", "--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines and all(l.startswith("PASS ") for l in lines)

    def test_only_filter(self, capsys):
        assert main(["verify", "--max-len", "3", "--only", "nc-counts,counit"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["PASS counit", "PASS nc-counts"]

    def test_unknown_check_exits_2(self, capsys):
        assert main(["verify", "--only", "nope"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "free-oracle" in err

    @pytest.mark.parametrize("only", [",", ""])
    def test_empty_only_exits_2(self, capsys, only):
        assert main(["verify", "--max-len", "2", "--only", only]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_corrupt_oracle_exits_1(self, tmp_path):
        out = tmp_path / "report.txt"
        assert main(["verify", "--max-len", "3", "--corrupt-oracle",
                     "--output", str(out)]) == 1
        assert out.read_bytes() == (CORPUS / "verify-corrupt.out").read_bytes()

    def test_truncation_guard(self):
        assert main(["verify", "--max-len", "0"]) == 2
        assert main(["verify", "--max-len", "13"]) == 2

    def test_empty_alphabet_exits_2(self):
        assert main(["verify", "--alphabet", ""]) == 2

    def test_repeated_letter_exits_2(self, capsys):
        assert main(["verify", "--alphabet", "a,b,a,b", "--max-len", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, line", [
        # nc-counts reads no letter; the letters are checked before it runs
        (["--alphabet", "a.b", "--only", "nc-counts"], "invalid letter name: 'a.b'"),
        (["--alphabet", ","], "alphabet must be nonempty"),
        # distinct letters, then the degree, then the letter names
        (["--alphabet", "a.b,a.b", "--max-len", "0"],
         "alphabet letters must be distinct, got 'a.b,a.b'"),
        (["--alphabet", "a.b", "--max-len", "0"], "truncation degree must be in [1, 12], got 0"),
    ], ids=["bad-letter", "no-letter", "repeated-first", "degree-before-names"])
    def test_letters_are_checked_before_any_suite(self, capsys, argv, line):
        assert main(["verify", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {line}\n")


# Expected stdout per case, stored as ``<case>.out`` next to the inputs in
# tests/data/cli_corpus (2 letters, max_len 4).  The files were recorded
# with the bar-word engine routes of the cumulant layer, before the
# words-only kernel replaced them; do not regenerate them from the code
# under test.
GOLDEN_CASES = {
    **{f"transform-to-{k}": ["transform", "--to", k, "--input", "moments1.json"]
       for k in ("free", "boolean", "monotone")},
    "transform-to-cfree": ["transform", "--to", "cfree", "--input", "pair1.json"],
    **{f"transform-from-{k}": ["transform", "--from", k, "--input", "cumulants.json"]
       for k in ("free", "boolean", "monotone")},
    "transform-from-cfree": ["transform", "--from", "cfree", "--input", "cfree_cumulants.json"],
    **{f"convolve-{k}": ["convolve", "--kind", k, "--input", "moments1.json",
                         "--input2", "moments2.json"]
       for k in ("free", "boolean", "monotone")},
    "convolve-cfree": ["convolve", "--kind", "cfree", "--input", "pair1.json",
                       "--input2", "pair2.json"],
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_stdout_matches_recorded_corpus(case):
    src = str(Path(shufflecalc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "shufflecalc.cli", *GOLDEN_CASES[case]],
                          cwd=CORPUS, env=env, capture_output=True, check=False)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (CORPUS / f"{case}.out").read_bytes()


def test_stdin_input_matches_recorded_corpus():
    src = str(Path(shufflecalc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "shufflecalc.cli", "transform", "--to", "free",
                           "--input", "-"], input=(CORPUS / "moments1.json").read_bytes(),
                          env=env, capture_output=True, check=False)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (CORPUS / "transform-to-free.out").read_bytes()


# SHA-256 of the stdout of every ``transform`` and ``convolve`` op at the
# benchmark's kernel sizes, on inputs seeded per domain.  Recorded with the
# word-by-word kernel, before it moved to coded per-length lists; do not
# regenerate them from the code under test.
KERNEL_OPS = {
    **{f"transform-to-{k}": ["transform", "--to", k, "--input", "{m1}"]
       for k in ("free", "boolean", "monotone")},
    "transform-to-cfree": ["transform", "--to", "cfree", "--input", "{p1}"],
    **{f"transform-from-{k}": ["transform", "--from", k, "--input", "{k}"]
       for k in ("free", "boolean", "monotone")},
    "transform-from-cfree": ["transform", "--from", "cfree", "--input", "{r}"],
    **{f"convolve-{k}": ["convolve", "--kind", k, "--input", "{m1}", "--input2", "{m2}"]
       for k in ("free", "boolean", "monotone")},
    "convolve-cfree": ["convolve", "--kind", "cfree", "--input", "{p1}", "--input2", "{p2}"],
}

KERNEL_DIGESTS = {
    (("a", "b"), 7): {
        "transform-to-free":
            "0887e3303e55fdecb8900672d740f803a697b11cba6c275057bf7fd415707f64",
        "transform-to-boolean":
            "86ed3d79fa2e85001f26c263f1a7cd45f52a9f34838577dfa71c9702c1ba5a68",
        "transform-to-monotone":
            "a0d489a4dd1533bd737ebb81046f911df18a84ce4a751eeb2313344538815904",
        "transform-to-cfree":
            "7672b88eb7bdb5cfedfb05d3b68b001b2fe60913549a89897b8d3f57dd984fed",
        "transform-from-free":
            "43f9eca9953fd7cc35bd3095c8bac8c8ef86e38dbe6b849b7a0fdb1bf2f0fb1d",
        "transform-from-boolean":
            "1abdeaaf42be6fe84705dfba6b8d64571588a574714122f37508aba274539e74",
        "transform-from-monotone":
            "846de2dbf58ba7b2c4842028d1caf14c30f2715e697a44b0a6bbc7ea3d67ab4f",
        "transform-from-cfree":
            "4e84e0e212aac3ff54cad206bc11eb27866e4fb9c306a270dd7e449a2ed640d5",
        "convolve-free":
            "5073a873085dbe3aa1f55306ef0844a88411417c10f38d5bc498f2407e2e9e47",
        "convolve-boolean":
            "d2054c63db5854ff370053166ea3fa32662acb563704d99f55876753520ab7b2",
        "convolve-monotone":
            "d8fdf772ad966d43b965cfc0affbd2fd04267bc2f21458b0e3398890a163c961",
        "convolve-cfree":
            "418fe2e489a3743399302b1d2fb5595e084115ef767fbf4c541ef80bc04b4beb",
    },
    (("a", "b", "c"), 5): {
        "transform-to-free":
            "e58e61368b547cd0ffafa99cd587da2b7e9311088220ab8552a912b0a51b14f8",
        "transform-to-boolean":
            "a5b3904c0a7f3d894430190e68a86a590c35184793ea4d836e4aae1e24030dfb",
        "transform-to-monotone":
            "d74587f34c3a0be48584eaad0dcb409182ea2b833d41dce282f513f115eaa10a",
        "transform-to-cfree":
            "bf56d2052662abb89a80fa4fbbdf46cff149228a8272f44592956608632c0360",
        "transform-from-free":
            "fdca8f24b9411c00ff3c1672a30e9c245631666f4fab85d75bc675dc6a97c71d",
        "transform-from-boolean":
            "06475c848dd3c9f6233e650527d01dbab2fec5894a19fb8378a23c4d47e0403f",
        "transform-from-monotone":
            "2da85826e53de10eafb47d35309844958dc4fa7beba2bdd1b4e9287d588c7a13",
        "transform-from-cfree":
            "7372d2830b99033fefbcdd755da454c9a93664d1fc130790e48d72e948dec203",
        "convolve-free":
            "752d2309dc42395eec2b6de07ce5e02631e9bda943ecb91f2888cc7c774447fa",
        "convolve-boolean":
            "edfd6a3dd1971962cf3d348087c286f82e40e15e15af3d4485f64d3ad356a352",
        "convolve-monotone":
            "5fc2b9162e65ba74c21cc339b62fa766605c59df32b0458eb794e7f29fea8445",
        "convolve-cfree":
            "47e506c0e9699543b59cb82f20e8951a7292eb9027b5306722e5741305b71d1d",
    },
}


def _kernel_op_inputs(directory, alphabet, max_len):
    """Seeded input files for ``KERNEL_OPS``: two states, a cumulant table,
    two state pairs and a c-free cumulant table with its second state."""
    rng = random.Random(f"kernel-digests:{''.join(alphabet)}:{max_len}")
    m1, m2, psi1, psi2 = (MomentTable.random(alphabet, max_len, rng).to_json()
                          for _ in range(4))
    k = CumulantTable.random(alphabet, max_len, rng).to_json()
    inputs = {"m1": m1, "m2": m2, "k": k, "p1": {"phi": m1, "psi": psi1},
              "p2": {"phi": m2, "psi": psi2}, "r": {"cumulants": k, "psi": psi1}}
    paths = {}
    for name, obj in inputs.items():
        paths[name] = directory / f"{name}.json"
        write_json(paths[name], obj)
    return paths


@pytest.mark.parametrize("alphabet, max_len", sorted(KERNEL_DIGESTS),
                         ids=[f"{''.join(a)}-{n}" for a, n in sorted(KERNEL_DIGESTS)])
def test_kernel_ops_match_recorded_digests(tmp_path, capsys, alphabet, max_len):
    paths = _kernel_op_inputs(tmp_path, alphabet, max_len)
    got = {}
    for name, argv in KERNEL_OPS.items():
        assert main([arg.format(**paths) for arg in argv]) == 0, name
        got[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == KERNEL_DIGESTS[alphabet, max_len]
