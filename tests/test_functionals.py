import math
import random
from fractions import Fraction

import pytest

from shufflecalc import (
    BarWord,
    CumulantTable,
    DomainError,
    MomentTable,
    TruncationError,
    UNIT,
    Word,
    character,
    conv,
    factorize_left,
    factorize_right,
    free_cumulants,
    half_left,
    half_right,
    infinitesimal,
    inverse,
    is_character,
    is_infinitesimal,
    materialize,
    prelie,
    unit,
    unit_state,
)
from shufflecalc.functionals import barwords_up_to, functionals_agree
from shufflecalc.tables import ValueTable, _format
from shufflecalc.words import words_up_to
from test_series import LIE_SIDE, _guarded_nodes


def B(*texts):
    return BarWord([Word(t) for t in texts])


def read_scalar(obj):
    """The value that a one-word JSON table with the entry ``obj`` holds."""
    table = ValueTable.from_json({"alphabet": ["a"], "max_len": 1, "values": {"a": obj}})
    return table.values[Word("a")]


class TestScalars:
    def test_parse_fraction_strings(self):
        assert read_scalar("2/3") == Fraction(2, 3)
        assert read_scalar("-7") == Fraction(-7)
        assert read_scalar(4) == Fraction(4)

    def test_rejects_junk(self):
        for bad in ("1.5x", "1/0", None, True, 1.5):
            with pytest.raises(DomainError):
                read_scalar(bad)

    @pytest.mark.parametrize("bad", ["1.5", "1e3", "1_000", " 7 ", "7\n", "1e2000000",
                                     "+-1", "1/-2", "1/+2", "/2", "1/", "", "\u0663"])
    def test_rejects_forms_outside_the_grammar(self, bad):
        with pytest.raises(DomainError):
            read_scalar(bad)

    def test_accepts_the_grammar(self):
        assert read_scalar("+3") == 3
        assert read_scalar("-0012/0030") == Fraction(-2, 5)
        assert read_scalar(10**30) == 10**30

    def test_format_roundtrip(self):
        q = Fraction(-3, 7)
        assert read_scalar(_format(q.numerator, q.denominator)) == q


class TestWordEnumeration:
    def test_words_up_to_counts(self):
        assert sum(1 for _ in words_up_to(["a", "b"], 3)) == 2 + 4 + 8

    def test_barwords_up_to_counts(self):
        # compositions of n with 2^k words per part of size k
        assert sum(1 for _ in barwords_up_to(["a", "b"], 3)) == 2 + 8 + 32

    def test_barwords_exclude_unit(self):
        assert UNIT not in set(barwords_up_to(["a"], 3))


class TestValueTable:
    def test_requires_total_domain(self):
        with pytest.raises(DomainError):
            ValueTable(["a"], 2, {Word("a"): Fraction(1)})

    def test_rejects_out_of_domain_entries(self):
        values = {w: Fraction(0) for w in words_up_to(["a"], 2)}
        values[Word("aaa")] = Fraction(1)
        with pytest.raises(DomainError):
            ValueTable(["a"], 2, values)

    def test_rejects_empty_alphabet_and_bad_truncation(self):
        with pytest.raises(DomainError):
            ValueTable([], 2, {})
        with pytest.raises(DomainError):
            ValueTable(["a"], 0, {})

    @pytest.mark.parametrize("value", [0.5, True, "x"], ids=repr)
    def test_rejects_values_that_are_not_rationals(self, value):
        values = dict.fromkeys(words_up_to(["a", "b"], 2), Fraction(1))
        values[Word("ab")] = value
        with pytest.raises(DomainError) as exc:
            ValueTable(["a", "b"], 2, values)
        kind = "malformed scalar" if isinstance(value, str) else "not a scalar:"
        assert str(exc.value) == f"table entry 'a.b': {kind} {value!r}"

    def test_alphabet_may_be_any_iterable(self):
        assert ValueTable(iter("ba"), 1, {Word("a"): 1, Word("b"): 2}).alphabet == ("a", "b")
        # a refused table walks its domain again, to name the first missing word
        with pytest.raises(DomainError, match="missing a value for 'a'"):
            ValueTable(iter("a"), 1, {})

    def test_lookup_beyond_truncation(self):
        t = ValueTable.zeros(["a"], 2)
        with pytest.raises(TruncationError):
            t.lookup(Word("aaa"))

    def test_json_roundtrip(self):
        t = ValueTable.random(["a", "b"], 3, random.Random(1))
        assert ValueTable.from_json(t.to_json()) == t

    def test_json_is_graded_and_stringly_rational(self):
        t = ValueTable.random(["a", "b"], 2, random.Random(2))
        obj = t.to_json()
        keys = [Word.parse(k) for k in obj["values"]]
        assert keys == sorted(keys)
        assert all(isinstance(v, str) for v in obj["values"].values())

    def test_addition_and_negation(self):
        t = ValueTable.random(["a"], 2, random.Random(3))
        s = t + (-t)
        assert s == ValueTable.zeros(["a"], 2)

    def test_incompatible_addition(self):
        with pytest.raises(DomainError):
            ValueTable.zeros(["a"], 2) + ValueTable.zeros(["a"], 3)

    def test_random_is_seed_deterministic(self):
        t1 = ValueTable.random(["a", "b"], 3, random.Random(7))
        t2 = ValueTable.random(["a", "b"], 3, random.Random(7))
        assert t1 == t2


class TestAtomicFunctionals:
    def test_unit_functional(self):
        e = unit()
        assert e(UNIT) == 1
        assert e(B("a")) == 0

    def test_character_is_multiplicative(self, moments):
        phi = character(moments)
        assert phi(UNIT) == 1
        assert phi(B("ab", "a")) == moments.lookup(Word("ab")) * moments.lookup(Word("a"))
        assert is_character(phi, ["a", "b"], 3)

    def test_infinitesimal_vanishes_on_bar_products(self, cumulants_table):
        k = infinitesimal(cumulants_table)
        assert k(UNIT) == 0
        assert k(B("a", "b")) == 0
        assert k(B("ab")) == cumulants_table.lookup(Word("ab"))
        assert is_infinitesimal(k, ["a", "b"], 3)

    def test_classifier_negatives(self, moments, cumulants_table):
        assert not is_character(infinitesimal(cumulants_table), ["a", "b"], 2)
        assert not is_infinitesimal(character(moments), ["a", "b"], 2)


class TestProducts:
    def test_convolution_unit_laws(self, moments):
        phi = character(moments)
        for side in (conv(unit(), phi), conv(phi, unit())):
            for b in barwords_up_to(["a", "b"], 3):
                assert side(b) == phi(b)

    def test_half_shuffle_unit_rules(self, moments):
        phi = character(moments)
        for b in barwords_up_to(["a", "b"], 3):
            assert half_left(phi, unit())(b) == phi(b)   # f < e = f
            assert half_right(phi, unit())(b) == 0       # f > e = 0
            assert half_left(unit(), phi)(b) == 0        # e < f = 0
            assert half_right(unit(), phi)(b) == phi(b)  # e > f = f

    def test_half_products_vanish_on_unit(self, moments):
        phi = character(moments)
        assert half_left(phi, phi)(UNIT) == 0
        assert half_right(phi, phi)(UNIT) == 0

    def test_halves_sum_to_convolution(self, moments, cumulants_table):
        f = character(moments)
        g = infinitesimal(cumulants_table)
        split = half_left(f, g) + half_right(f, g)
        product = conv(f, g)
        for b in barwords_up_to(["a", "b"], 4):
            assert split(b) == product(b)

    def test_prelie_definition(self, moments, cumulants_table):
        f = character(moments)
        g = infinitesimal(cumulants_table)
        expected = half_right(f, g) - half_left(g, f)
        lhs = prelie(f, g)
        for b in barwords_up_to(["a", "b"], 3):
            assert lhs(b) == expected(b)

    def test_scalar_action_and_linear_ops(self, cumulants_table):
        k = infinitesimal(cumulants_table)
        b = B("ab")
        assert (2 * k)(b) == 2 * k(b)
        assert (k * Fraction(1, 3))(b) == k(b) / 3
        assert (k + k - k)(b) == k(b)
        assert (-k)(b) == -k(b)


class TestInverse:
    def test_requires_unit_value_one(self, cumulants_table):
        with pytest.raises(DomainError):
            inverse(infinitesimal(cumulants_table))

    def test_unit_value_is_checked_by_the_group_side_rule(self):
        line = "^inverse requires a functional equal to 1 on the unit$"
        with pytest.raises(DomainError, match=line):
            inverse(2 * unit())

    def test_two_sided_inverse(self, moments):
        phi = character(moments)
        for side in (conv(phi, inverse(phi)), conv(inverse(phi), phi)):
            assert side(UNIT) == 1
            for b in barwords_up_to(["a", "b"], 4):
                assert side(b) == 0

    def test_inverse_of_unit(self):
        inv = inverse(unit())
        assert inv(UNIT) == 1
        assert inv(B("a")) == 0


class TestIntegerComparison:
    """The checks compare numerators cross-multiplied by the denominators of
    each degree; a counterexample carries the two values as Fractions."""

    def test_equal_values_over_different_denominators_agree(self, moments):
        f = character(moments)
        g = Fraction(1, 2) * f + Fraction(1, 2) * f
        assert all(g.den(d) == 2 * f.den(d) for d in range(5))
        assert functionals_agree(f, g, ["a", "b"], 4) is None
        assert functionals_agree(g, f, ["a", "b"], 4) is None
        assert is_character(g, ["a", "b"], 4)

    @pytest.mark.parametrize("changed", [Fraction(4, 11), Fraction(0)])
    def test_first_counterexample_in_enumeration_order(self, moments, changed):
        values = dict(moments.values)
        values[Word("ab")] = changed
        f, g = character(moments), character(MomentTable(["a", "b"], 4, values))
        expected = next(b for b in barwords_up_to(["a", "b"], 4) if f(b) != g(b))
        bad = functionals_agree(f, g, ["a", "b"], 4)
        assert bad == (expected, f(expected), g(expected))
        assert all(type(v) is Fraction for v in bad[1:])
        assert expected == B("ab")

    def test_first_counterexample_on_a_bar_product(self, cumulants_table):
        # k + e and character(k + 1) - (1 on every word) agree on the unit and
        # on single words, and first differ on a|a
        shifted = {w: v + 1 for w, v in cumulants_table.values.items()}
        ones = CumulantTable(["a", "b"], 4, dict.fromkeys(shifted, Fraction(1)))
        f = infinitesimal(cumulants_table) + unit()
        g = character(MomentTable(["a", "b"], 4, shifted)) - infinitesimal(ones)
        b = B("a", "a")
        assert g(b) != 0
        assert functionals_agree(f, g, ["a", "b"], 4) == (b, 0, g(b))

    def test_unit_is_checked_when_included(self, moments):
        f = character(moments)
        g = f + Fraction(1, 3) * unit()
        assert functionals_agree(f, g, ["a", "b"], 3) == (UNIT, 1, Fraction(4, 3))
        assert functionals_agree(f, g, ["a", "b"], 3, include_unit=False) is None
        assert functionals_agree(f, g, ["a", "b"], 0) == (UNIT, 1, Fraction(4, 3))
        assert not is_character(g, ["a", "b"], 3)
        assert not is_infinitesimal(infinitesimal(moments) + unit(), ["a", "b"], 3)


def test_materialize_freezes_word_values(moments):
    phi = character(moments)
    table = materialize(phi, moments.alphabet, moments.max_len, MomentTable)
    assert table == moments
    assert isinstance(table, MomentTable)


_TABLE_MAKERS = {
    "dict": lambda max_len: MomentTable(["a"], max_len, {Word("a"): Fraction(1)}),
    "zeros": lambda max_len: MomentTable.zeros(["a"], max_len),
    "random": lambda max_len: MomentTable.random(["a"], max_len, random.Random(0)),
    "unit_state": lambda max_len: unit_state(["a"], max_len),
}


@pytest.mark.parametrize("max_len, line", [
    *((m, f"max_len must be an integer, got {m!r}") for m in (2.5, "3", None, True)),
    (0, "max_len must be >= 1"),
])
@pytest.mark.parametrize("make", _TABLE_MAKERS)
def test_table_max_len_must_be_a_positive_integer(make, max_len, line):
    with pytest.raises(DomainError) as err:
        _TABLE_MAKERS[make](max_len)
    assert str(err.value) == line


def test_moment_and_cumulant_tables_are_value_tables():
    assert issubclass(MomentTable, ValueTable)
    assert issubclass(CumulantTable, ValueTable)


_EXHAUSTIVE_CHECKS = {
    "functionals_agree": lambda f, degree, alphabet=("a", "b"):
        functionals_agree(f, f, alphabet, degree),
    "is_character": lambda f, degree, alphabet=("a", "b"): is_character(f, alphabet, degree),
    "is_infinitesimal": lambda f, degree, alphabet=("a", "b"):
        is_infinitesimal(f, alphabet, degree),
    "factorize_left": lambda f, degree, alphabet=("a", "b"):
        factorize_left(f - unit(), f - unit(), alphabet, degree),
    "factorize_right": lambda f, degree, alphabet=("a", "b"):
        factorize_right(f - unit(), f - unit(), alphabet, degree),
}


@pytest.mark.parametrize("degree", [2.5, True, -1, "2", None])
@pytest.mark.parametrize("check", _EXHAUSTIVE_CHECKS)
def test_exhaustive_checks_refuse_a_degree_that_is_no_natural_number(moments, check, degree):
    """Before any work: a float or a bool no longer runs, and a negative
    degree no longer passes every functional."""
    with pytest.raises(DomainError) as err:
        _EXHAUSTIVE_CHECKS[check](character(moments), degree)
    assert str(err.value) == f"max_degree must be an integer >= 0, got {degree!r}"


@pytest.mark.parametrize("alphabet, line", [
    ([], "alphabet must be nonempty"),
    ((), "alphabet must be nonempty"),
    (["a", "b.c"], "invalid letter name: 'b.c'"),
    (["", "a"], "invalid letter name: ''"),
    ([3], "invalid letter name: 3"),
])
@pytest.mark.parametrize("degree", [0, 3])
@pytest.mark.parametrize("check", _EXHAUSTIVE_CHECKS)
def test_exhaustive_checks_refuse_an_alphabet_no_table_has(moments, check, degree, alphabet,
                                                           line):
    """Before any work, by the rule table alphabets pass: an empty alphabet
    no longer passes every pair of functionals."""
    with pytest.raises(DomainError) as err:
        _EXHAUSTIVE_CHECKS[check](character(moments), degree, alphabet)
    assert str(err.value) == line


def test_exhaustive_checks_read_a_repeated_letter_once(moments):
    """On the domain of the letters, not on one with a letter twice."""
    other = MomentTable.random(["a", "b"], 3, random.Random(7))
    once = functionals_agree(character(moments), character(other), ["a"], 3)
    assert once is not None
    for alphabet in (["a", "a"], iter("aa")):
        f, g = character(moments), character(other)
        assert functionals_agree(f, g, alphabet, 3) == once
        assert {letters for letters, _ in f._lists} == {("a",)}
    f = character(moments)
    assert is_character(f, ["a", "a"], 3) and not is_infinitesimal(f, ["a", "a"], 3)


def test_exhaustive_checks_run_at_degree_0(moments):
    f = character(moments)
    assert functionals_agree(f, f + unit(), ["a", "b"], 0) == (UNIT, 1, 2)
    assert is_character(f, ["a", "b"], 0)
    assert not is_character(f + unit(), ["a", "b"], 0)
    assert is_infinitesimal(f - unit(), ["a", "b"], 0)
    assert not is_infinitesimal(f, ["a", "b"], 0)


def reference_is_character(f, alphabet, max_degree):
    """The per-factor definition: 1 on the unit, and on every bar-word the
    product of the values on its factors."""
    return f(UNIT) == 1 and all(
        f(b) == math.prod(f(BarWord.of(w)) for w in b.factors)
        for b in barwords_up_to(alphabet, max_degree))


def reference_is_infinitesimal(f, alphabet, max_degree):
    """The per-factor definition: 0 on the unit and on every bar-word of two
    or more factors."""
    return f(UNIT) == 0 and all(
        f(b) == 0 for b in barwords_up_to(alphabet, max_degree) if len(b.factors) > 1)


class TestMembershipChecks:
    """``is_character`` and ``is_infinitesimal`` compare f with the extension
    of its own word values, so they must still see a functional that is
    right on the unit and on every word but wrong on a bar-product."""

    def test_a_defect_on_a_bar_product_only(self, moments, cumulants_table):
        # the pair of test_first_counterexample_on_a_bar_product: it agrees
        # on the unit and on single words, and first differs on a|a
        shifted = {w: v + 1 for w, v in cumulants_table.values.items()}
        ones = CumulantTable(["a", "b"], 4, dict.fromkeys(shifted, Fraction(1)))
        gap = (infinitesimal(cumulants_table) + unit()
               - (character(MomentTable(["a", "b"], 4, shifted)) - infinitesimal(ones)))
        h = character(moments) + gap
        k = infinitesimal(cumulants_table) + gap
        assert gap(B("a", "a")) != 0
        for degree in range(5):
            expected = degree <= 1
            assert is_character(h, ["a", "b"], degree) is expected
            assert is_infinitesimal(k, ["a", "b"], degree) is expected
            assert reference_is_character(h, ["a", "b"], degree) is expected
            assert reference_is_infinitesimal(k, ["a", "b"], degree) is expected

    @pytest.mark.parametrize("alphabet, degree", [(["a", "b"], 5), (["a", "b", "c"], 4)])
    def test_checks_match_the_per_factor_definitions(self, alphabet, degree):
        nodes = _guarded_nodes(alphabet, degree)

        def passing(check):
            return {name for name, f in nodes.items() if check(f, alphabet, degree)}

        assert passing(is_character) == passing(reference_is_character) == {
            "exp_left", "exp_right", "exp_conv"}
        assert passing(is_infinitesimal) == passing(reference_is_infinitesimal) == {
            "log_conv", "log_left", "log_right", *LIE_SIDE}


def test_table_order_is_canonical():
    """A table holds its words in ``words_up_to`` order whatever order it
    was given them in, and that order is its JSON form's."""
    table = MomentTable.random(["a", "b"], 3, random.Random(8))
    reversed_table = MomentTable(["b", "a"], 3, dict(reversed(table.values.items())))
    order = list(words_up_to(["a", "b"], 3))
    assert list(reversed_table.values) == list(table.values) == order
    assert reversed_table.to_json() == table.to_json()
    assert list(reversed_table.to_json()["values"]) == [w.dotted() for w in order]
    cumulants = free_cumulants(reversed_table)
    assert cumulants == free_cumulants(table)
    assert list(cumulants.values) == order
