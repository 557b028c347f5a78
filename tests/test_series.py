import gc
import hashlib
import random
import weakref
from fractions import Fraction
from functools import partial
from itertools import accumulate, islice
from math import factorial
from operator import add, mul, sub

import pytest

from shufflecalc import (
    BarWord,
    CumulantTable,
    DomainError,
    Functional,
    MomentTable,
    Word,
    bch,
    character,
    conv,
    exp_conv,
    exp_left,
    exp_right,
    factorize_left,
    factorize_right,
    infinitesimal,
    inverse,
    log_conv,
    log_left,
    log_right,
    magnus,
    magnus_inverse,
    sharp,
    ad_lower,
    ad_upper,
    unit,
)
from shufflecalc import coalgebra, functionals
from shufflecalc.functionals import (
    _Product,
    _domain,
    barwords_up_to,
    functionals_agree,
    half_left,
    half_right,
    is_character,
    is_infinitesimal,
    prelie,
)
from shufflecalc.series import _Series, bernoulli
from shufflecalc.verify import VerifyConfig, run_checks
from shufflecalc.words import words_up_to

ALPHABET = ["a", "b"]
N = 4


def rand_lie(seed, alphabet=ALPHABET, max_len=N):
    rng = random.Random(seed)
    return infinitesimal(CumulantTable.random(alphabet, max_len, rng))


def rand_char(seed, alphabet=ALPHABET, max_len=N):
    rng = random.Random(seed)
    return character(MomentTable.random(alphabet, max_len, rng))


def agree(f, g, alphabet=ALPHABET, degree=N):
    return functionals_agree(f, g, alphabet, degree) is None


def test_bernoulli_values():
    expected = [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 6),
        Fraction(0),
        Fraction(-1, 30),
        Fraction(0),
        Fraction(1, 42),
    ]
    assert [bernoulli(m) for m in range(7)] == expected


def test_bernoulli_refuses_a_negative_index():
    """A negative index would read the cache from its end, so its value
    would depend on which Bernoulli numbers were computed before."""
    bernoulli(4)
    for m in (-1, -5):
        with pytest.raises(DomainError, match=f"got {m}$"):
            bernoulli(m)


@pytest.mark.parametrize("m", [2.5, "3", True, None, Fraction(2)])
def test_bernoulli_refuses_a_non_integer_index(m):
    """Only an int other than a bool is an index: a float or a string would
    escape as a bare TypeError, and True would read B_1."""
    with pytest.raises(DomainError) as info:
        bernoulli(m)
    assert str(info.value) == f"bernoulli requires an integer m >= 0, got {m!r}"


class TestExponentialClosedForms:
    """Univariate word values of the three exponentials at low degree."""

    def setup_method(self):
        rng = random.Random(99)
        self.k = CumulantTable.random(["a"], 3, rng)
        self.k1 = self.k.lookup(Word("a"))
        self.k2 = self.k.lookup(Word("aa"))
        self.k3 = self.k.lookup(Word("aaa"))

    def values(self, f):
        return [f(BarWord.of(Word("a" * n))) for n in (1, 2, 3)]

    def test_left_exponential(self):
        k1, k2, k3 = self.k1, self.k2, self.k3
        assert self.values(exp_left(infinitesimal(self.k))) == [
            k1, k2 + k1**2, k3 + 3 * k1 * k2 + k1**3,
        ]

    def test_right_exponential(self):
        k1, k2, k3 = self.k1, self.k2, self.k3
        assert self.values(exp_right(infinitesimal(self.k))) == [
            k1, k2 + k1**2, k3 + 2 * k1 * k2 + k1**3,
        ]

    def test_convolution_exponential(self):
        k1, k2, k3 = self.k1, self.k2, self.k3
        assert self.values(exp_conv(infinitesimal(self.k))) == [
            k1, k2 + k1**2, k3 + Fraction(5, 2) * k1 * k2 + k1**3,
        ]


class TestInversePairs:
    def test_half_exponential_convolution_inverse(self):
        a = rand_lie(1)
        assert agree(inverse(exp_left(a)), exp_right(-a))

    def test_log_exp_roundtrips(self):
        a = rand_lie(2)
        phi = rand_char(3)
        assert agree(log_left(exp_left(a)), a)
        assert agree(log_right(exp_right(a)), a)
        assert agree(log_conv(exp_conv(a)), a)
        assert agree(exp_left(log_left(phi)), phi)
        assert agree(exp_right(log_right(phi)), phi)
        assert agree(exp_conv(log_conv(phi)), phi)

    def test_exponentials_are_unit_normalized(self):
        a = rand_lie(4)
        for f in (exp_left(a), exp_right(a), exp_conv(a)):
            assert f(BarWord()) == 1


class TestFixedPoints:
    """``E<``, ``E>`` and the inverse solve their fixed-point equations, and
    ``exp*``, ``log*`` and the Magnus pair are Horner chains; hold them to
    the power series they unfold into, built here from the binary products
    alone as towers of powers ``p_{n+1} = step(p_n)``."""

    @staticmethod
    def power_sum(first, step, degree, coeff=lambda n: 1):
        """``sum_{n=1..degree} coeff(n) p_n`` with ``p_1 = first`` and
        ``p_{n+1} = step(p_n)``: the series truncates by grading at the
        checked degree."""
        total, power = 0 * unit(), first
        for n in range(1, degree + 1):
            total = total + coeff(n) * power
            power = step(power)
        return total

    @classmethod
    def cases(cls, alphabet, degree):
        """``(name, node, reference)`` for every fixed point and series, on
        fresh nodes over seeded tables."""
        a = rand_lie(30, alphabet, degree)
        f = rand_char(31, alphabet, degree)
        g = unit() + rand_lie(32, alphabet, degree)  # not multiplicative
        power_sum = partial(cls.power_sum, degree=degree)
        yield "exp_left", exp_left(a), unit() + power_sum(a, lambda p: half_left(a, p))
        yield "exp_right", exp_right(a), unit() + power_sum(a, lambda p: half_right(p, a))
        by_factorial = lambda n: Fraction(1, factorial(n))
        by_log = lambda n: Fraction((-1) ** (n - 1), n)
        yield ("exp_conv", exp_conv(a),
               unit() + power_sum(a, lambda p: conv(p, a), coeff=by_factorial))
        for name, h in (("character", f), ("group-like", g)):
            x = h - unit()
            yield (f"inverse of a {name}", inverse(h),
                   unit() + power_sum(x, lambda p: conv(p, x), coeff=lambda n: (-1) ** n))
            yield (f"log_conv of a {name}", log_conv(h),
                   power_sum(x, lambda p: conv(p, x), coeff=by_log))
        yield ("magnus_inverse", magnus_inverse(a),
               power_sum(a, lambda p: prelie(a, p), coeff=by_factorial))
        w = magnus(a)
        yield "magnus", w, power_sum(a, lambda p: prelie(w, p),
                                     coeff=lambda n: bernoulli(n - 1) / factorial(n - 1))

    @pytest.mark.parametrize("alphabet, degree", [("a", 7), ("ab", 5), ("abc", 4)])
    def test_match_explicit_power_series(self, alphabet, degree):
        """By the exhaustive check, and by point queries on fresh nodes."""
        alphabet = list(alphabet)
        domain = [BarWord(), *barwords_up_to(alphabet, degree)]
        for name, node, reference in self.cases(alphabet, degree):
            assert agree(node, reference, alphabet, degree), name
        for name, node, reference in self.cases(alphabet, degree):
            assert [node(b) for b in domain] == [reference(b) for b in domain], name

    def test_nodes_are_freed_by_reference_counting(self):
        a, f = rand_lie(33), rand_char(34)
        gc.disable()
        try:
            for make, arg in (
                (exp_left, a), (exp_right, a), (inverse, f),
                (exp_conv, a), (log_conv, f), (magnus, a), (magnus_inverse, a),
            ):
                node = make(arg)
                for b in barwords_up_to(ALPHABET, N):
                    node(b)
                refs = [weakref.ref(node)] + _series_refs(make, node)
                del node
                assert [ref() for ref in refs] == [None] * len(refs), make.__name__
        finally:
            gc.enable()


    def test_checked_nodes_are_freed_by_reference_counting(self):
        """The exhaustive checks keep per-degree lists in the nodes and split
        indexes in the domain; neither holds a node in a cycle."""
        a, f = rand_lie(33), rand_char(34)
        gc.disable()
        try:
            for make, arg in (
                (exp_left, a), (exp_right, a), (inverse, f),
                (exp_conv, a), (log_conv, f), (magnus, a), (magnus_inverse, a),
                (lambda x: bch(x, x), a), (lambda x: ad_lower(x, x), a),
            ):
                node, other = make(arg), make(arg)
                assert functionals_agree(node, other, ALPHABET, N) is None
                is_character(node, ALPHABET, N)
                is_infinitesimal(node, ALPHABET, N)
                refs = [weakref.ref(node), weakref.ref(other)]
                refs += _series_refs(make, node) + _series_refs(make, other)
                del node, other
                assert [ref() for ref in refs] == [None] * len(refs), make
        finally:
            gc.enable()


def _chain(series) -> list:
    """The Horner chain ``H_0, H_1, ...`` of a series node, as far as it is
    made: each ``H_{j+1}`` is the other leg of ``H_j``'s tail."""
    chain = [series]
    while chain[-1].tail is not None:
        chain.append(chain[-1].tail.other)
    return chain


def _series_refs(make, node) -> list:
    """Weak references to the chain nodes past ``H_0`` of the four series,
    and to the unit seed of the two that start at the counit, all of which
    must be freed with their series."""
    if make not in (exp_conv, log_conv, magnus, magnus_inverse):
        return []
    chain = _chain(node)
    assert len(chain) > 1
    refs = [weakref.ref(h) for h in chain[1:]]
    if make in (exp_conv, log_conv):
        assert type(node.seed) is type(unit())
        refs.append(weakref.ref(node.seed))
    return refs


class TestMagnus:
    def test_magnus_equals_convolution_log_of_left_exponential(self):
        a = rand_lie(5)
        assert agree(magnus(a), log_conv(exp_left(a)))

    def test_magnus_pair_are_mutually_inverse(self):
        a = rand_lie(6)
        assert agree(magnus_inverse(magnus(a)), a)
        assert agree(magnus(magnus_inverse(a)), a)

    def test_transforming_relations(self):
        a = rand_lie(7)
        target = exp_conv(a)
        assert agree(exp_left(magnus_inverse(a)), target)
        assert agree(exp_right(-magnus_inverse(-a)), target)


class TestSharpAndBch:
    def test_sharp_neutral_element(self):
        b = rand_lie(8)
        assert agree(sharp(0 * unit(), b), b)
        assert agree(sharp(b, 0 * unit()), b)

    def test_sharp_transports_the_group_product(self):
        a, b = rand_lie(9), rand_lie(10)
        assert agree(conv(exp_left(a), exp_left(b)), exp_left(sharp(a, b)))

    def test_bch_matches_sharp_through_magnus(self):
        a, b = rand_lie(11), rand_lie(12)
        assert agree(bch(magnus(a), magnus(b)), magnus(sharp(a, b)))

    def test_bch_antisymmetry(self):
        a, b = rand_lie(13), rand_lie(14)
        assert agree(bch(a, b), -bch(-b, -a))


class TestAdjoints:
    def test_mutual_inverses(self):
        x, y = rand_lie(15), rand_lie(16)
        assert agree(ad_upper(x, ad_lower(x, y)), y)
        assert agree(ad_lower(x, ad_upper(x, y)), y)

    def test_composition_reverses_through_sharp(self):
        x, y, z = rand_lie(17), rand_lie(18), rand_lie(19)
        assert agree(
            ad_lower(x, ad_lower(y, z)), ad_lower(sharp(y, x), z), degree=3
        )

    def test_sharp_absorbs_lower_adjoint(self):
        a, b = rand_lie(20), rand_lie(21)
        assert agree(sharp(a, ad_lower(a, b)), a + b)

    def test_right_exponential_counterpart(self):
        # transported form of the E> factorisation: -((-b) # -(a^{-b})) = a + b
        a, b = rand_lie(22), rand_lie(23)
        assert agree(-sharp(-b, -ad_lower(-b, a)), a + b)

    def test_low_degree_fixed_points(self):
        x, y = rand_lie(24), rand_lie(25)
        lower = ad_lower(x, y)
        for text in ("a", "b", "aa", "ab", "ba", "bb"):
            assert lower(BarWord.of(Word(text))) == y(BarWord.of(Word(text)))


class TestFactorizations:
    def test_left(self):
        ok, lhs, rhs, bad = factorize_left(rand_lie(26), rand_lie(27), ALPHABET, N)
        assert ok and bad is None
        assert agree(lhs, rhs, degree=2)

    def test_right(self):
        ok, _, _, bad = factorize_right(rand_lie(28), rand_lie(29), ALPHABET, N)
        assert ok and bad is None


class TestDomainChecks:
    def test_lie_side_guards(self, moments):
        phi = character(moments)
        for op in (exp_left, exp_right, exp_conv, magnus, magnus_inverse):
            with pytest.raises(DomainError):
                op(phi)
        with pytest.raises(DomainError, match="^sharp requires"):
            sharp(phi, phi)
        with pytest.raises(DomainError):
            ad_lower(phi, phi)

    def test_group_side_guards(self, cumulants_table):
        k = infinitesimal(cumulants_table)
        for op in (log_left, log_right, log_conv):
            with pytest.raises(DomainError):
                op(k)

    def test_unit_is_group_sided(self):
        assert agree(log_conv(unit()), 0 * unit())


def _guarded_nodes(alphabet, degree):
    """The nodes the value digests below cover, on seeded tables over the
    alphabet up to the degree."""
    rng = random.Random(6000 + len(alphabet))
    x = infinitesimal(CumulantTable.random(alphabet, degree, rng))
    y = infinitesimal(CumulantTable.random(alphabet, degree, rng))
    f = character(MomentTable.random(alphabet, degree, rng))
    return {
        "exp_left": exp_left(x),
        "exp_right": exp_right(x),
        "exp_conv": exp_conv(x),
        "log_conv": log_conv(f),
        "log_left": log_left(f),
        "log_right": log_right(f),
        "magnus": magnus(x),
        "magnus_inverse": magnus_inverse(x),
        "bch": bch(x, y),
        "sharp": sharp(x, y),
        "ad_lower": ad_lower(x, y),
        "ad_upper": ad_upper(x, y),
        "conv_mixed": conv(f, x - Fraction(1, 2) * y),
    }


def _evaluated_nodes(highest_first: bool = False):
    """Yield ``(name, node, domain)`` for fresh guarded nodes over the unit
    and every bar-word of degree <= 5 over {a, b} and <= 4 over {a, b, c},
    each node evaluated cold on its whole domain: lowest degree first, or
    highest degree first so that nearly every value is reached through the
    miss path of a parent's inline memo read."""
    for alphabet, degree in ((["a", "b"], 5), (["a", "b", "c"], 4)):
        domain = [BarWord(), *barwords_up_to(alphabet, degree)]
        order = domain[::-1] if highest_first else domain
        for name, node in _guarded_nodes(alphabet, degree).items():
            for b in order:
                node(b)
            yield name, node, domain


def value_digests(evaluated=None) -> dict[str, str]:
    """SHA-256 of each guarded node's ``repr(bar-word) value`` lines, in
    domain order, over what ``evaluated`` yields (by default
    ``_evaluated_nodes()``)."""
    lines: dict[str, list[str]] = {}
    for name, node, domain in evaluated or _evaluated_nodes():
        lines.setdefault(name, []).extend(f"{b!r} {node(b)}" for b in domain)
    return {name: hashlib.sha256("\n".join(text).encode()).hexdigest()
            for name, text in lines.items()}


# Recorded with the Fraction-valued engine that preceded the integer one.
VALUE_DIGESTS = {
    "exp_left":
        "4588e5f74f21607a1bcfd9ef3dcfe3365924d866a3b50d3ea1b5c603d6d66f04",
    "exp_right":
        "14538e777045da31aae666744e99ca4fa774a81ed006121bd1aff44c98b6cbef",
    "exp_conv":
        "68d635ecbf0d75115e328c41c82157c2f4410e31f57a9f5139d1499138dec0a1",
    "log_conv":
        "d2234dc8f881ee38e98168d7225717c73d06637486c936a637218b0d2c0161b4",
    "log_left":
        "f9c1e3246f6abcb6c0b1b8d8ce955d1e00b3f8fc02f09e9bc554d1b2a75cae3d",
    "log_right":
        "8c9ce3647d5bf561809a9bc03c46f29171370eed2dfb8529e0af3f0ae76edd65",
    "magnus":
        "2156132618ea3453715da92c86e14e276605b5584ed8636941dc4a4aca00cc83",
    "magnus_inverse":
        "bba6ad06d5584082c5583dc3c623fc5c7fea08cab9aa24a549ceaec5075f9b0a",
    "bch":
        "c960cdfdc4d9644d0e4e46ab7885196614988aea978389e4581ec8d776f53fb8",
    "sharp":
        "478969a69c706bb5396eb71da18e57a7c2f950607563c0df043e7ca933fb2b94",
    "ad_lower":
        "67a02a7c9d983c565a06524ea2c48865d08f3070b9eef286bc13cf436b424d45",
    "ad_upper":
        "ab2f67f0cb11f70d851787d5341a525ff49528933bfb9459173ec187bad769b1",
    "conv_mixed":
        "4c5bdf6d09a3ad76ab4d09a3a3ece0803eaa424fc9ca928be6f09024cd503604",
}


def test_values_match_recorded_digests():
    assert value_digests() == VALUE_DIGESTS


# Infinitesimal (Lie-side) nodes: 0 on every bar-word of two or more factors.
LIE_SIDE = ("magnus", "magnus_inverse", "bch", "sharp", "ad_lower", "ad_upper")


def test_cold_evaluation_order_keeps_values(monkeypatch):
    """Evaluating the guarded nodes cold, highest degree first or lowest
    first, gives the recorded values either way.  Memos legitimately hold
    0 (the Lie-side nodes on multi-factor bar-words), and no memo read
    takes a stored 0 for a miss: ``num`` is never entered for a value its
    memo already holds, except from ``__call__``."""
    num = Functional.num
    recomputed = []

    def checked_num(self, b):
        if b in self._memo:
            recomputed.append((type(self).__name__, b))
        return num(self, b)

    monkeypatch.setattr(Functional, "num", checked_num)
    monkeypatch.setattr(Functional, "__call__",
                        lambda self, b: Fraction(num(self, b), self.den(b.degree)))
    zeros = set()

    def highest_first():
        for name, node, domain in _evaluated_nodes(highest_first=True):
            if name in LIE_SIDE and any(
                    v == 0 for b, v in node._memo.items() if len(b.factors) > 1):
                zeros.add(name)
            yield name, node, domain

    assert value_digests(highest_first()) == value_digests() == VALUE_DIGESTS
    assert zeros == set(LIE_SIDE)
    assert recomputed == []


def test_memos_hold_integer_numerators():
    """Below ``__call__`` the engine runs in integers: every memo of every
    node under the guarded ones holds ``int``s, the chain nodes of every
    series node included."""
    nodes = list(_guarded_nodes(["a", "b"], 3).values())
    for node in nodes:
        for b in barwords_up_to(["a", "b"], 3):
            node(b)
    seen = set()
    chain_values = 0
    while nodes:
        node = nodes.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        assert all(type(v) is int for v in node._memo.values()), node
        if isinstance(node, _Series) and node.j:
            chain_values += len(node._memo)
        fields = list(vars(node).values())
        while fields:
            value = fields.pop()
            if type(value) in weakref.ProxyTypes:
                # a series read by its own chain, reached from its owner
                continue
            if isinstance(value, tuple):
                fields.extend(value)
            elif isinstance(value, Functional):
                # a series' seed and tail, and the tail's other leg H_{j+1}
                nodes.append(value)
    assert len(seen) > 30
    assert chain_values > 0


def _lazy_nums(node, alphabet, degree):
    """``num(b)`` one bar-word at a time, by the point-query path."""
    return [node.num(b) for b in [BarWord(), *barwords_up_to(alphabet, degree)]]


def _batched_nums(node, alphabet, degree):
    """The numerators the exhaustive checks compare, one degree at a time."""
    domain = _domain(tuple(alphabet))
    return [x for d in range(degree + 1) for x in node._degree(domain, d)]


def _agreeing_tables(cls, alphabet, degree, rng):
    """Two tables of ``cls`` whose values agree on the words of length up
    to 2 and differ on every longer word."""
    values = {w: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for w in words_up_to(alphabet, degree)}
    shifted = {w: v + (Fraction(rng.randint(1, 9), rng.randint(1, 9)) if len(w) > 2 else 0)
               for w, v in values.items()}
    return cls(alphabet, degree, values), cls(alphabet, degree, shifted)


def _skip_legs(alphabet, degree):
    """Two legs whose degree lists the batch path skips by value:
    ``zero_to_2``, a difference of infinitesimal characters, is 0 on every
    bar-word of degree 1 and 2 and on every multi-factor bar-word, but not
    on the words of degree 3; ``flat_at_3``, a difference of characters, is
    0 on every multi-factor bar-word of degree 3 but not of degree 4."""
    rng = random.Random(8000 + len(alphabet))
    first, second = _agreeing_tables(CumulantTable, alphabet, degree, rng)
    zero_to_2 = infinitesimal(first) - infinitesimal(second)
    first, second = _agreeing_tables(MomentTable, alphabet, degree, rng)
    return zero_to_2, character(first) - character(second)


_SPLITS = {"conv": coalgebra.coproduct, "half_left": coalgebra.half_coproduct_left,
           "half_right": coalgebra.half_coproduct_right}


def _split_product(split, known, other, known_left):
    """The one-term ``_Product`` that pairs ``known`` and ``other`` through
    ``split``, the known leg on the left or the right."""
    on_unit = None if split is coalgebra.coproduct else 0
    return _Product(((1, split, known, known_left),), other, on_unit=on_unit)


def _batch_cases(alphabet, degree):
    """The guarded nodes plus a sum with a zero part, the inverse, both
    half-shuffles and ``E>``, whose known factor sits on the right; and the
    two ``_skip_legs`` through each split, as the known leg on either side
    and as the other leg, ``zero_to_2`` beside a character and
    ``flat_at_3`` beside an infinitesimal character."""
    nodes = _guarded_nodes(alphabet, degree)
    rng = random.Random(7000 + len(alphabet))
    x = infinitesimal(CumulantTable.random(alphabet, degree, rng))
    f = character(MomentTable.random(alphabet, degree, rng))
    nodes.update({
        "sum_with_zero_part": 0 * f + x - Fraction(2, 3) * f,
        "inverse": inverse(f),
        "half_left": half_left(f, x),
        "half_right": half_right(x, f),
        "exp_right_alone": exp_right(x),
    })
    zero_to_2, flat_at_3 = _skip_legs(alphabet, degree)
    for leg, leg_name, partner in ((zero_to_2, "zero_to_2", f), (flat_at_3, "flat_at_3", x)):
        for split_name, split in _SPLITS.items():
            for known_left in (True, False):
                side = "left" if known_left else "right"
                nodes[f"{split_name}_{leg_name}_known_{side}"] = _split_product(
                    split, leg, partner, known_left)
                nodes[f"{split_name}_{leg_name}_other_known_{side}"] = _split_product(
                    split, partner, leg, known_left)
    return nodes


@pytest.mark.parametrize("alphabet, degree", [("a", 7), ("ab", 5), ("abc", 4)])
def test_degree_batches_match_point_queries(alphabet, degree):
    alphabet = list(alphabet)
    lazy = _batch_cases(alphabet, degree)
    batched = _batch_cases(alphabet, degree)
    assert lazy.keys() == batched.keys()
    for name in lazy:
        expected = _lazy_nums(lazy[name], alphabet, degree)
        assert _batched_nums(batched[name], alphabet, degree) == expected, name
        assert any(expected[1:]), name


@pytest.mark.parametrize("alphabet, degree", [("ab", 5), ("abc", 4)])
def test_skip_legs_have_their_zero_patterns(alphabet, degree):
    """Where the batch path finds each ``_skip_legs`` list to start: None for
    an all-zero list, past the multi-factor bar-words for a flat one."""
    domain = _domain(tuple(alphabet))
    zero_to_2, flat_at_3 = _skip_legs(list(alphabet), degree)

    def starts(node):
        return [domain.start(node._degree(domain, d), d) for d in range(degree + 1)]

    def multi(d):
        return len(domain.bars(d)) - len(alphabet) ** d

    assert starts(zero_to_2) == [None, None, None] + [multi(d) for d in range(3, degree + 1)]
    assert starts(flat_at_3)[:5] == [None, None, None, multi(3), 0]


def test_an_all_zero_known_leg_leaves_the_other_leg_unread():
    """The batch path reads the known leg's degree list first and skips a
    left-leg degree where it is all 0 without reading the other leg."""
    alphabet = ["a", "b"]
    domain = _domain(tuple(alphabet))
    zero_to_2, _ = _skip_legs(alphabet, 4)
    other = rand_char(91)
    node = conv(zero_to_2, other)
    assert not any(node._degree(domain, 2))
    assert other._lists == {}
    assert any(node._degree(domain, 3))
    assert list(other._lists) == [(domain.alphabet, 0)]


@pytest.mark.parametrize("split_name", _SPLITS)
@pytest.mark.parametrize("known_left", [True, False])
def test_a_batch_leaves_its_legs_lists_unchanged(split_name, known_left):
    """A split sum folds each weight into a new list: the children's degree
    lists read the same after their parent's batch as before it.  The legs
    have the bases 2 and 3, so the weights ``den(d) / (den_known(k) *
    den_other(d - k))`` are other than 1 and -1."""
    alphabet, degree = ["a", "b"], 4
    domain = _domain(tuple(alphabet))
    words = list(words_up_to(alphabet, degree))
    known = character(MomentTable(alphabet, degree, {
        w: Fraction(2 * i + 1, 2) for i, w in enumerate(words)}))
    other = infinitesimal(CumulantTable(alphabet, degree, {
        w: Fraction(3 * i + 1, 3) for i, w in enumerate(words)}))
    node = _split_product(_SPLITS[split_name], known, other, known_left)
    legs = (known, other)
    for leg in legs:
        for d in range(degree + 1):
            leg._degree(domain, d)
    before = [{key: list(values) for key, values in leg._lists.items()} for leg in legs]
    for d in range(degree + 1):
        node._degree(domain, d)
    assert [leg._lists for leg in legs] == before
    assert any(abs(w) > 1 for d in range(degree + 1) for w in node._scale(d)[1][0])


def _unfiltered_split_sum(domain, split, d, weights, left, right, total):
    """``functionals._split_sum`` before terms were skipped by the legs'
    values: every term of every part of every k with a nonzero weight, with
    ``left`` and ``right`` the two legs' degree lists, added into zeros
    when ``total`` is None."""
    if total is None:
        total = [0] * len(domain.bars(d))
    for k, parts in enumerate(domain.split_index(split, d)):
        weight = weights[k]
        if not weight or parts is None:
            continue
        for lpos, rpos, coeffs, bounds in parts:
            products = map(mul, map(left(domain, k).__getitem__, lpos),
                           map(right(domain, d - k).__getitem__, rpos))
            if coeffs is not None:
                products = map(mul, coeffs, products)
            sums = list(accumulate(products, initial=0))
            per_bar = map(sub, map(sums.__getitem__, islice(bounds, 1, None)),
                          map(sums.__getitem__, bounds))
            total = list(map(add, total, map(weight.__mul__, per_bar)))
    return total


def test_split_sums_match_the_unfiltered_sum_on_every_suite(monkeypatch):
    """Every batch split sum that the 27 verify suites make over {a, b} up
    to degree 3 equals the sum over all of its terms, and the suites
    still pass; some of those sums skip terms by a flat leg."""
    fast = functionals._split_sum
    calls = []

    def checked(domain, split, d, weights, known, other, known_left, total):
        got = fast(domain, split, d, weights, known, other, known_left, total)
        left, right = (known, other) if known_left else (other, known)
        expected = _unfiltered_split_sum(domain, split, d, weights, left, right, total)
        # None: no term summed into no total
        assert (got if got is not None else [0] * len(domain.bars(d))) == expected
        calls.append(domain)
        return got

    monkeypatch.setattr(functionals, "_split_sum", checked)
    _domain.cache_clear()  # so that the restricted indexes below are this run's
    results = run_checks(VerifyConfig(("a", "b"), 3))
    assert [r.name for r in results if not r.passed] == []
    assert len(results) == 27 and calls
    assert any(len(key) == 5 for key in calls[0]._indexes), "no term was skipped by a flat leg"


def test_a_series_inside_a_sum_keeps_its_values():
    """A series node is a sum of its seed and its tail, made per degree; a
    sum that holds one keeps it whole as a part, by point queries and by degree
    batches alike."""
    a = rand_lie(41)
    domain = [BarWord(), *barwords_up_to(ALPHABET, 4)]
    e, w, v = exp_conv(a), magnus(a), magnus_inverse(-a)
    expected = {
        "2 * exp_conv(a)": [2 * e(b) for b in domain],
        "magnus(a) - a": [w(b) - a(b) for b in domain],
        "-magnus_inverse(-a)": [-v(b) for b in domain],
    }

    def combined():
        return {"2 * exp_conv(a)": 2 * exp_conv(a), "magnus(a) - a": magnus(a) - a,
                "-magnus_inverse(-a)": -magnus_inverse(-a)}

    for name, node in combined().items():
        assert [node(b) for b in domain] == expected[name], name
    for name, node in combined().items():
        nums = _batched_nums(node, ALPHABET, 4)
        values = [Fraction(x, node.den(b.degree)) for b, x in zip(domain, nums)]
        assert values == expected[name], name


@pytest.mark.parametrize("alphabet, degree", [("a", 7), ("ab", 5), ("abc", 4)])
@pytest.mark.parametrize("make", [exp_conv, log_conv, magnus, magnus_inverse],
                         ids=lambda make: make.__name__)
def test_chain_node_j_is_read_up_to_degree_d_minus_j(make, alphabet, degree):
    """A series is evaluated in Horner form: after an exhaustive check to
    degree D, its chain is ``H_0 .. H_{D - low}``, ``H_j`` holds degree
    lists up to ``D - j`` only, and its tail ``L(H_{j+1})`` from ``1 +
    low``, where it first can be nonzero.  So a degree costs the series one
    split pass per term of L, not one per power."""
    alphabet = list(alphabet)
    arg = (rand_char if make is log_conv else rand_lie)(50, alphabet, degree)
    node = make(arg)
    assert functionals_agree(node, make(arg), alphabet, degree) is None
    low = 0 if make in (exp_conv, log_conv) else 1
    chain = _chain(node)
    assert [h.j for h in chain] == list(range(degree - low + 1))
    for j, h in enumerate(chain):
        assert sorted(d for _, d in h._lists) == list(range(low if j else 0, degree - j + 1))
        if j < len(chain) - 1:
            assert sorted(d for _, d in h.tail._lists) == list(range(1 + low, degree - j + 1))
    assert chain[-1].tail is None


@pytest.mark.parametrize("include_unit", [True, False])
def test_first_counterexample_on_a_degree_4_bar_product(include_unit):
    """g differs from f by ``char(T) - e - inf(T)``, with T vanishing on
    letters: 0 on the unit, on single words and on every bar-word with a
    one-letter factor, so the first difference is a product of two words
    of length 2.  The batched check reports the bar-word and values that a
    scan by point queries finds first."""
    alphabet = ["a", "b"]
    rng = random.Random(71)
    values = {w: Fraction(rng.randint(1, 9), rng.randint(1, 9))
              for w in words_up_to(alphabet, 4)}
    values.update(dict.fromkeys(words_up_to(alphabet, 1), Fraction(0)))

    def pair():
        f = exp_left(rand_lie(72))
        h = character(MomentTable(alphabet, 4, values)) - unit() \
            - infinitesimal(CumulantTable(alphabet, 4, values))
        return f, f + h

    f, g = pair()
    domain = [BarWord(), *barwords_up_to(alphabet, 4)][0 if include_unit else 1:]
    first = next(b for b in domain if f(b) != g(b))
    assert first.degree == 4 and len(first.factors) == 2
    bad = functionals_agree(*pair(), alphabet, 4, include_unit=include_unit)
    assert bad == (first, f(first), g(first))
