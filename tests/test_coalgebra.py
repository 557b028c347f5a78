from collections import Counter
from itertools import combinations, product

import pytest

from shufflecalc import (
    BarWord,
    DomainError,
    TensorSum,
    UNIT,
    Word,
    complement_components,
    coproduct,
    coproduct_word,
    half_coproduct_left,
    half_coproduct_right,
    reduced_coproduct,
    reduced_half_left,
    reduced_half_right,
    subword,
)
from shufflecalc import coalgebra
from shufflecalc.functionals import barwords_up_to


def W(text):
    return Word(text)


def B(*texts):
    return BarWord([Word(t) for t in texts])


def terms(tensor_sum):
    return Counter({(l, r): c for l, r, c in tensor_sum.items()})


class TestWordCoproduct:
    def test_single_letter(self):
        assert terms(coproduct_word(W("a"))) == Counter(
            {(B("a"), UNIT): 1, (UNIT, B("a")): 1}
        )

    def test_two_letters(self):
        assert terms(coproduct_word(W("ab"))) == Counter({
            (B("ab"), UNIT): 1,
            (UNIT, B("ab")): 1,
            (B("a"), B("b")): 1,
            (B("b"), B("a")): 1,
        })

    def test_three_letters(self):
        # the complement of the middle letter splits into two components
        assert terms(coproduct_word(W("abc"))) == Counter({
            (B("abc"), UNIT): 1,
            (UNIT, B("abc")): 1,
            (B("a"), B("bc")): 1,
            (B("b"), B("a", "c")): 1,
            (B("c"), B("ab")): 1,
            (B("ab"), B("c")): 1,
            (B("ac"), B("b")): 1,
            (B("bc"), B("a")): 1,
        })

    def test_six_letters_spot_terms(self):
        got = terms(coproduct_word(W("abcdef")))
        assert got[(B("ace"), B("b", "d", "f"))] == 1
        assert got[(B("cde"), B("ab", "f"))] == 1
        assert got[(B("cf"), B("ab", "de"))] == 1
        assert got[(B("def"), B("abc"))] == 1
        assert sum(got.values()) == 64


class TestHalfCoproducts:
    def test_left_three_letters(self):
        b = B("abc")
        assert terms(half_coproduct_left(b)) == Counter({
            (B("abc"), UNIT): 1,
            (B("a"), B("bc")): 1,
            (B("ab"), B("c")): 1,
            (B("ac"), B("b")): 1,
        })

    def test_right_three_letters(self):
        b = B("abc")
        assert terms(half_coproduct_right(b)) == Counter({
            (UNIT, B("abc")): 1,
            (B("b"), B("a", "c")): 1,
            (B("c"), B("ab")): 1,
            (B("bc"), B("a")): 1,
        })

    def test_halves_sum_to_full(self):
        for b in (B("abc"), B("ab", "c"), B("a", "b", "a")):
            assert half_coproduct_left(b) + half_coproduct_right(b) == coproduct(b)

    def test_undefined_on_unit(self):
        with pytest.raises(DomainError):
            half_coproduct_left(UNIT)
        with pytest.raises(DomainError):
            half_coproduct_right(UNIT)


class TestBarWordCoproduct:
    def test_unit(self):
        assert terms(coproduct(UNIT)) == Counter({(UNIT, UNIT): 1})

    def test_multiplicative_on_bar_products(self):
        b1, b2 = B("ab"), B("c", "a")
        assert coproduct(b1.concat(b2)) == coproduct(b1).product(coproduct(b2))

    def test_grading(self):
        b = B("ab", "ca")
        for l, r, _ in coproduct(b).items():
            assert l.degree + r.degree == b.degree

    def test_counit(self):
        b = B("ab", "c")
        left_unit = [(r, c) for l, r, c in coproduct(b).items() if l.is_unit]
        right_unit = [(l, c) for l, r, c in coproduct(b).items() if r.is_unit]
        assert left_unit == [(b, 1)]
        assert right_unit == [(b, 1)]


def triple_left(b):
    out = Counter()
    for l, r, c in coproduct(b).items():
        for l2, r2, c2 in coproduct(l).items():
            out[(l2, r2, r)] += c * c2
    return out


def triple_right(b):
    out = Counter()
    for l, r, c in coproduct(b).items():
        for l2, r2, c2 in coproduct(r).items():
            out[(l, l2, r2)] += c * c2
    return out


def test_coassociativity_samples():
    for b in (B("a"), B("abab"), B("ab", "c"), B("a", "b", "c"), B("abc", "ab")):
        assert triple_left(b) == triple_right(b)


class TestReducedVariants:
    def test_reduced_coproduct_drops_primitive_part(self):
        b = B("ab")
        assert terms(reduced_coproduct(b)) == Counter({
            (B("a"), B("b")): 1,
            (B("b"), B("a")): 1,
        })

    def test_reduced_halves(self):
        b = B("ab")
        assert terms(reduced_half_left(b)) == Counter({(B("a"), B("b")): 1})
        assert terms(reduced_half_right(b)) == Counter({(B("b"), B("a")): 1})

    def test_reduced_undefined_on_unit(self):
        with pytest.raises(DomainError):
            reduced_coproduct(UNIT)


class TestTensorSum:
    def test_normalization_merges_and_drops_zeros(self):
        s = TensorSum([(UNIT, B("a"), 1), (UNIT, B("a"), -1), (B("a"), UNIT, 2)])
        assert terms(s) == Counter({(B("a"), UNIT): 2})

    def test_arithmetic(self):
        s = TensorSum([(B("a"), UNIT, 1)])
        t = TensorSum([(UNIT, B("a"), 1)])
        assert terms(s + t) == Counter({(B("a"), UNIT): 1, (UNIT, B("a")): 1})
        assert terms(s - s) == Counter()
        assert terms(3 * s) == Counter({(B("a"), UNIT): 3})

    def test_product_concatenates_componentwise(self):
        s = TensorSum([(B("a"), B("b"), 1)])
        t = TensorSum([(B("c"), UNIT, 1)])
        assert terms(s.product(t)) == Counter({(B("a", "c"), B("b")): 1})

    def test_product_drops_a_pair_whose_coefficients_cancel(self):
        # (1 + a) (1 - a) = 1 - a|a: the two a-terms meet and cancel
        s = TensorSum([(B("a"), UNIT, 1), (UNIT, UNIT, 1)])
        t = TensorSum([(UNIT, UNIT, 1), (B("a"), UNIT, -1)])
        assert terms(s.product(t)) == Counter({(UNIT, UNIT): 1, (B("a", "a"), UNIT): -1})

    def test_terms_are_canonically_ordered(self):
        s = coproduct_word(W("ab"))
        listed = s.terms()
        assert listed == sorted(listed, key=lambda t: (t[0]._key(), t[1]._key()))


def cache_entries():
    """Entries over every module-level dict of ``coalgebra`` holding splits."""
    return sum(len(v) for v in vars(coalgebra).values()
               if isinstance(v, dict) and v
               and all(isinstance(x, TensorSum) for x in v.values()))


class TestSharedCache:
    def test_word_coproduct_is_the_one_factor_barword_coproduct(self):
        w = W("abca")
        assert coproduct_word(w) is coproduct(BarWord.of(w))

    def test_repeated_calls_return_the_cached_object(self):
        for split in (coproduct, half_coproduct_left, half_coproduct_right):
            for b in (B("cab"), B("cab", "ab"), B("ca", "cab", "b")):
                first = split(b)
                size = cache_entries()
                assert split(b) is first
                assert cache_entries() == size

    def test_unit(self):
        coproduct(UNIT)
        size = cache_entries()
        assert terms(coproduct(UNIT)) == Counter({(UNIT, UNIT): 1})
        assert cache_entries() == size


def direct_split(b, keep_first):
    """The split of ``b`` as a direct sum over one position set per factor:
    the first factor's set holds position 1 (``keep_first`` True), avoids it
    (False) or either (None)."""
    choices = []
    for i, factor in enumerate(b.factors):
        n = len(factor)
        sets = [S for k in range(n + 1) for S in combinations(range(1, n + 1), k)]
        if i == 0 and keep_first is not None:
            sets = [S for S in sets if (1 in S) == keep_first]
        choices.append(sets)
    out = Counter()
    for picked in product(*choices):
        left = right = UNIT
        for factor, S in zip(b.factors, picked):
            sub = subword(factor, S)
            left = left.concat(sub if sub is UNIT else BarWord.of(sub))
            right = right.concat(complement_components(factor, S))
        out[(left, right)] += 1
    return out


@pytest.mark.parametrize("b", [
    B("aba", "a", "ba"), B("aa", "aa"), B("a", "aba"), B("abab", "b", "a"),
])
def test_multi_factor_splits_with_repeated_letters(b):
    assert terms(half_coproduct_left(b)) == direct_split(b, True)
    assert terms(half_coproduct_right(b)) == direct_split(b, False)
    assert terms(coproduct(b)) == direct_split(b, None)


@pytest.mark.parametrize("alphabet, degree", [("abc", 4), ("ab", 5), ("a", 7)])
def test_plan_splits_match_the_direct_sums(alphabet, degree):
    """Every split kind on every bar-word, and the word splits read from the
    length's mask plan, against the sums over position sets."""
    for b in barwords_up_to(alphabet, degree):
        assert terms(half_coproduct_left(b)) == direct_split(b, True)
        assert terms(half_coproduct_right(b)) == direct_split(b, False)
        assert terms(coproduct(b)) == direct_split(b, None)
        if len(b.factors) == 1:
            for keep_first in (True, False, None):
                split = coalgebra._word_split(b.factors[0], keep_first)
                assert terms(split) == direct_split(b, keep_first)


def chained_split(b, split):
    """A multi-factor split as one product per further factor: the first
    factor's split times the full coproduct of each later factor in turn."""
    first, *rest = b.factors
    result = split(BarWord.of(first))
    for factor in rest:
        result = result.product(coproduct(BarWord.of(factor)))
    return result


@pytest.mark.parametrize("alphabet, degree", [("ab", 5), ("abc", 4), ("a", 7)])
def test_tail_products_match_the_per_factor_product_chain(alphabet, degree):
    """Every split kind of every multi-factor bar-word, made as the first
    factor's split times the coproduct of the others, is the chain of one
    product per factor."""
    for b in barwords_up_to(alphabet, degree):
        if len(b.factors) > 1:
            for split in (coproduct, half_coproduct_left, half_coproduct_right):
                assert split(b) == chained_split(b, split)
