import math
import random
from collections import Counter
from decimal import Decimal
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
from shufflecalc import coalgebra, functionals
from shufflecalc.errors import quoted
from shufflecalc.functionals import _check_domain, _domain, barwords_up_to, functionals_agree
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

    @pytest.mark.parametrize("scalar", ["1/3", "x", 0.1, True, 1j, None, Decimal("0.1")],
                             ids=["str", "junk-str", "float", "bool", "complex", "None",
                                  "Decimal"])
    def test_a_scalar_that_is_not_rational_is_refused(self, scalar):
        line = f"a functional's scalar must be rational, got {quoted(scalar)}"
        for scale in (lambda: unit() * scalar, lambda: scalar * unit()):
            with pytest.raises(DomainError) as excinfo:
                scale()
            assert str(excinfo.value) == line


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


@pytest.mark.parametrize("alphabet, line", [
    ([3, "a"], "invalid letter name: 3"),
    (["a", ["b"]], "invalid letter name: ['b']"),
    (["b", 2.5, "a"], "invalid letter name: 2.5"),
])
def test_a_letter_that_is_no_string_gives_one_line(alphabet, line):
    """Refused before the letters are sorted or hashed, by tables, the
    table makers and materialize alike."""
    for make in (lambda: MomentTable(alphabet, 1, {}),
                 lambda: CumulantTable.random(alphabet, 2, random.Random(1)),
                 lambda: ValueTable.zeros(alphabet, 2),
                 lambda: materialize(unit(), alphabet, 2)):
        with pytest.raises(DomainError) as err:
            make()
        assert str(err.value) == line


@pytest.mark.parametrize("alphabet, max_len, line", [
    (["a"], "3", "max_len must be an integer, got '3'"),
    ([], 10**6, "alphabet must be nonempty"),
    (["a.b"], 2, "invalid letter name: 'a.b'"),
])
def test_materialize_checks_its_domain_before_evaluating(alphabet, max_len, line):
    """The table's domain is checked first, with the line a table gives: a
    string max_len no longer escapes as a ``TypeError``, and an empty
    alphabet is refused before any length is walked, whatever max_len."""
    with pytest.raises(DomainError) as err:
        materialize(unit(), alphabet, max_len)
    assert str(err.value) == line


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
    ([3, "a"], "invalid letter name: 3"),
    (["a", ["b"]], "invalid letter name: ['b']"),
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


# --- the exhaustive path's fast paths against the expressions they replace


def _leaves(alphabet, degree, seed=0):
    """A character and an infinitesimal on random tables over the
    alphabet, given in that order, up to the degree."""
    rng = random.Random(seed)
    return (character(MomentTable.random(alphabet, degree, rng)),
            infinitesimal(CumulantTable.random(alphabet, degree, rng)))


@pytest.mark.parametrize("alphabet, degree", [
    (["a"], 7), (["a", "b"], 5), (["a", "b", "c"], 4), (["c", "a", "b"], 4)])
def test_leaf_lists_read_from_coded_lists_match_the_per_bar_word_values(alphabet, degree):
    """A table leaf's degree list, read from its table's coded lists, is
    ``_num`` on every bar-word of the degree in domain order."""
    domain = _domain(_check_domain(alphabet, degree))
    for leaf in _leaves(alphabet, degree):
        for d in range(degree + 1):
            assert leaf._coded(domain, d) is not None
            assert leaf._degree(domain, d) == list(map(leaf._num, domain.bars(d)))


def test_leaf_lists_fall_back_where_the_table_does_not_hold_the_domain():
    """On a domain over other letters, or above the table's degree, a leaf
    takes the per-bar-word path: over fewer letters it gives their values,
    over more letters or a longer word it raises that word's
    ``TruncationError``."""
    fewer = _domain(_check_domain(["a"], 3))
    more = _domain(_check_domain(["a", "b", "c"], 3))
    same = _domain(_check_domain(["a", "b"], 4))
    for leaf in _leaves(["a", "b"], 3):
        for d in range(4):
            assert leaf._coded(fewer, d) is None
            assert leaf._degree(fewer, d) == list(map(leaf._num, fewer.bars(d)))
        assert leaf._coded(more, 1) is None and leaf._coded(same, 4) is None
        with pytest.raises(TruncationError) as excinfo:
            functionals_agree(leaf, leaf, ["a", "b", "c"], 2)
        assert str(excinfo.value) == (
            "word 'c' exceeds the table domain (alphabet ('a', 'b'), max_len 3)")
        with pytest.raises(TruncationError) as excinfo:
            functionals_agree(leaf, leaf, ["a", "b"], 4)
        assert str(excinfo.value) == (
            "word 'a.a.a.a' exceeds the table domain (alphabet ('a', 'b'), max_len 3)")


_INDEXED_SPLITS = (coalgebra.coproduct, coalgebra.half_coproduct_left,
                   coalgebra.half_coproduct_right)


def _indexed_terms(domain, d, parts_of):
    """Per bar-word of degree d, the Counter of ``(k, l, r, c)`` items that
    the parts ``parts_of(k)`` hold for it, a missing coefficient list read
    as 1s.  Each k is checked to lay out its terms of coefficient 1 and
    its others as ``_Domain.split_index`` says: one part with coefficients
    if there are both and fewer than twice as many of coefficient 1 as
    there are bar-words, else a part for each kind there is, the first
    with no coefficients."""
    found = [Counter() for _ in domain.bars(d)]
    for k in range(d + 1):
        parts = parts_of(k)
        if parts is None:
            continue
        kinds = []
        for left, right, coeffs, bounds in parts:
            assert left and len(left) == len(right) == bounds[-1]
            assert len(bounds) == len(found) + 1
            assert coeffs is None or len(coeffs) == len(left)
            kinds.append("ones" if coeffs is None else "mixed" if 1 in coeffs else "others")
            for i, terms in enumerate(found):
                for j in range(bounds[i], bounds[i + 1]):
                    terms[k, left[j], right[j], 1 if coeffs is None else coeffs[j]] += 1
        ones = sum(n for terms in found for (j, *_, c), n in terms.items() if j == k and c == 1)
        others = sum(n for terms in found for (j, *_, c), n in terms.items() if j == k and c != 1)
        if ones and others and ones < 2 * len(found):
            assert kinds == ["mixed"]
        else:
            assert kinds == [kind for kind, n in (("ones", ones), ("others", others)) if n]
    return found


@pytest.mark.parametrize("split", _INDEXED_SPLITS, ids=lambda split: split.__name__)
@pytest.mark.parametrize("alphabet", [("a",), ("a", "b"), ("a", "b", "c")])
def test_split_index_parts_hold_exactly_the_split_terms(split, alphabet):
    """The parts of each left-leg degree hold together the ``(position of
    l, position of r, c)`` terms of ``split(b).pairs()`` for each bar-word
    b, and so do their restrictions to the terms whose legs sit at or after
    given positions, both laid out by the rule ``_indexed_terms`` checks.
    Both layouts occur: {a} has too few terms of coefficient 1 at degree 4
    for a part of their own, {a, b} and {a, b, c} have some."""
    domain = functionals._Domain(alphabet)
    for d in range(1 if split is not coalgebra.coproduct else 0, 5):
        index = domain.split_index(split, d)
        positions = [{b: i for i, b in enumerate(domain.bars(k))} for k in range(d + 1)]
        expected = [Counter((l.degree, positions[l.degree][l], positions[d - l.degree][r], c)
                            for (l, r), c in split(b).pairs())
                    for b in domain.bars(d)]
        assert _indexed_terms(domain, d, index.__getitem__) == expected
        for lstart, rstart in ((1, 0), (0, 2), (3, 1)):
            restricted = _indexed_terms(domain, d, lambda k: index[k] and domain.split_terms(
                split, d, k, lstart, rstart))
            assert restricted == [Counter({t: n for t, n in terms.items()
                                           if t[1] >= lstart and t[2] >= rstart})
                                  for terms in expected]
    assert any(len(parts) == 2 for parts in domain.split_index(split, 4) if parts) is (
        len(alphabet) > 1)


def _cross_multiplied_agree(f, g, alphabet, max_degree):
    """``functionals_agree`` as every degree's cross-multiplied comparison:
    the first bar-word b with ``f.num(b) * g.den(d) != g.num(b) *
    f.den(d)``, with both values."""
    domain = _domain(_check_domain(alphabet, max_degree))
    for d in range(max_degree + 1):
        fden, gden = f.den(d), g.den(d)
        for b, x, y in zip(domain.bars(d), f._degree(domain, d), g._degree(domain, d)):
            if x * gden != y * fden:
                return b, Fraction(x, fden), Fraction(y, gden)
    return None


@pytest.mark.parametrize("word", ["ba", "bb"])
def test_comparisons_report_the_cross_multiplied_first_counterexample(moments, word):
    """Pairs over equal and over unequal denominators, agreeing and not,
    give the counterexample of the cross-multiplied comparison; they first
    differ inside a degree, or on its last bar-word."""
    changed = dict(moments.values)
    changed[Word(word)] += Fraction(1, moments.base)
    f, g = character(moments), character(MomentTable(["a", "b"], 4, changed))
    half = Fraction(1, 2) * f + Fraction(1, 2) * g
    pairs = [(f, g, True), (f, f + 0 * g, True), (f, half, False), (half, g, False),
             (f, Fraction(1, 2) * f + Fraction(1, 2) * f, False)]
    for lhs, rhs, equal_dens in pairs:
        assert all((lhs.den(d) == rhs.den(d)) is equal_dens for d in range(1, 5))
        expected = _cross_multiplied_agree(lhs, rhs, ["a", "b"], 4)
        assert functionals_agree(lhs, rhs, ["a", "b"], 4) == expected
        assert functionals_agree(rhs, lhs, ["a", "b"], 4) == (
            None if expected is None else (expected[0], expected[2], expected[1]))
    assert [_cross_multiplied_agree(lhs, rhs, ["a", "b"], 4) is None
            for lhs, rhs, _ in pairs] == [False, True, False, False, True]
