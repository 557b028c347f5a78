"""Linear forms on the word Hopf algebra with exact rational values.

A ``Functional`` is a node in an immutable expression tree (unit, character,
infinitesimal character, sums, convolution, half-shuffles, pre-Lie product,
and the fixed points of ``X = e + g . X`` that give the convolution inverse
and the half-shuffle exponentials).

The coproduct and both half-coproducts preserve degree, so every node is
homogeneous: its values on the bar-words of degree d share one positive
integer denominator ``den(d)``, derived from the denominators of its
children (``D^d`` for a table whose values have the common denominator D).
Below the public boundary everything is integer arithmetic: ``num(b)`` is
the numerator of the value on b over ``den(b.degree)``, memoized per node,
and a parent reads its children's numerators, rescaled by integer
multipliers precomputed per degree.  ``__call__`` builds a ``Fraction``;
the exhaustive checks at the end of this module compare cross-multiplied
numerators and build ``Fraction``s only for a counterexample they report.
The same table reused under different operations lives in different nodes
and therefore different memos.

A parent reads a child's memo dict directly: a hit is one ``dict.get``,
and only a miss (``None``) calls the child's ``num``, which computes and
stores the value.  Memos hold 0 for values that vanish, so a read tests
``is None``, never truthiness.

Unit rules for the half-shuffles follow the convention that both
half-products vanish on the unit bar-word, so the splitting
``f*g = f<g + f>g`` is asserted on nonunit bar-words only.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import attrgetter
from typing import Iterable, Iterator

from . import coalgebra
from .errors import DomainError
from .tables import ONE, CumulantTable, MomentTable, ValueTable, words_over, words_up_to
from .words import UNIT, BarWord, Word


def barwords_up_to(alphabet: Iterable[str], max_degree: int) -> Iterator[BarWord]:
    """All bar-words of degree 1..max_degree, unit excluded."""
    alphabet = sorted(alphabet)
    for n in range(1, max_degree + 1):
        for comp in _compositions(n):
            factor_choices = [list(words_over(alphabet, k)) for k in comp]
            for factors in itertools.product(*factor_choices):
                yield BarWord(factors)


@lru_cache(maxsize=8)
def _domain(alphabet: tuple[str, ...], max_degree: int) -> tuple:
    """``(d, bar-words of degree d)`` for d = 0 (the unit alone) up to
    max_degree, in ``barwords_up_to`` order: the domain of the exhaustive
    checks below, built once for the few domains a run checks."""
    groups = [(0, (UNIT,))]
    for d, bars in itertools.groupby(barwords_up_to(alphabet, max_degree),
                                     key=attrgetter("degree")):
        groups.append((d, tuple(bars)))
    return tuple(groups)


def _compositions(n: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


class Functional:
    """Base class: a lazily evaluated linear form on bar-words.

    Subclasses give ``_num(b)``, the integer numerator of the value on b,
    and ``_rescale(d)``, the pair ``(den(d), weights)`` where ``weights``
    holds whatever integer multipliers ``_num`` needs at degree d.  Both
    are memoized here.
    """

    def __init__(self):
        self._memo: dict[BarWord, int] = {}
        self._scales: dict[int, tuple] = {}

    def __call__(self, b: BarWord) -> Fraction:
        return Fraction(self.num(b), self.den(b.degree))

    def num(self, b: BarWord) -> int:
        """The value on b times ``den(b.degree)``.  Parents that read the
        memo inline call this on a miss only, so it looks up with ``get``
        rather than paying for a ``KeyError``."""
        value = self._memo.get(b)
        if value is None:
            value = self._memo[b] = self._num(b)
        return value

    def den(self, d: int) -> int:
        """The denominator shared by the values on bar-words of degree d."""
        return self._scale(d)[0]

    def _scale(self, d: int) -> tuple:
        value = self._scales.get(d)
        if value is None:
            value = self._scales[d] = self._rescale(d)
        return value

    def _num(self, b: BarWord) -> int:
        raise NotImplementedError

    def _rescale(self, d: int) -> tuple:
        return 1, None

    # Linear structure.  `*` between functionals is convolution; with a
    # scalar it rescales.
    def __add__(self, other: "Functional") -> "Functional":
        return _Sum(((ONE, self), (ONE, other)))

    def __sub__(self, other: "Functional") -> "Functional":
        return _Sum(((ONE, self), (-ONE, other)))

    def __neg__(self) -> "Functional":
        return _Sum(((-ONE, self),))

    def __mul__(self, other):
        if isinstance(other, Functional):
            return conv(self, other)
        return _Sum(((Fraction(other), self),))

    def __rmul__(self, other):
        return _Sum(((Fraction(other), self),))


class _Unit(Functional):
    """The counit e: 1 on the unit bar-word, 0 elsewhere."""

    def _num(self, b: BarWord) -> int:
        return 0 if b.factors else 1


class _TableFunctional(Functional):
    """A node read from a table: ``den(d) = D^d`` with D the lcm of the
    table's denominators, so a word's value scales to an integer once."""

    def __init__(self, table: ValueTable):
        super().__init__()
        self.table = table
        self._base = lcm(*(v.denominator for v in table.values.values()))

    def _word_num(self, w: Word) -> int:
        v = self.table.lookup(w)
        return v.numerator * (self._base ** len(w.letters) // v.denominator)

    def _rescale(self, d: int) -> tuple:
        return self._base ** d, None


class CharacterFunctional(_TableFunctional):
    """Multiplicative extension of a moment table: the product of the table
    values of the factors; 1 on the unit."""

    def _num(self, b: BarWord) -> int:
        value = 1
        for factor in b.factors:
            value *= self._word_num(factor)
        return value


class InfinitesimalFunctional(_TableFunctional):
    """Extension of a cumulant table: vanishes on the unit and on bar-words
    of two or more factors."""

    def _num(self, b: BarWord) -> int:
        if len(b.factors) != 1:
            return 0
        return self._word_num(b.factors[0])


class _Sum(Functional):
    """``sum c_i f_i``: ``den(d)`` is the lcm of ``c_i.denominator *
    den_i(d)``, and each part has one integer weight per degree, kept
    beside the part's memo and ``num`` so ``_num`` reads the memo inline."""

    def __init__(self, parts: Iterable[tuple[Fraction, Functional]]):
        super().__init__()
        flat: list[tuple[Fraction, Functional]] = []
        for coeff, f in parts:
            if isinstance(f, _Sum):
                flat.extend((coeff * c, g) for c, g in f.parts)
            else:
                flat.append((coeff, f))
        self.parts = tuple(flat)

    def _rescale(self, d: int) -> tuple:
        scaled = [(c.numerator, c.denominator * f.den(d), f) for c, f in self.parts if c]
        den = lcm(*(x for _, x, _ in scaled))
        return den, [(n * (den // x), f._memo, f.num) for n, x, f in scaled]

    def _num(self, b: BarWord) -> int:
        total = 0
        for w, memo, num in self._scale(b.degree)[1]:
            x = memo.get(b)
            if x is None:
                x = num(b)
            total += w * x
        return total


class _Convolution(Functional):
    """``sum coeff * f(left) * g(right)`` over the ``(left, right, coeff)``
    terms of ``split``: ``coalgebra.coproduct`` for the convolution,
    ``half_coproduct_left``/``_right`` for the half-shuffles (``half``),
    which vanish on the unit.  ``den(d)`` is the lcm over the left-leg
    degree k of ``den_f(k) * den_g(d - k)``, with one multiplier per k; f
    is the known factor of ``_known_first``."""

    def __init__(self, f: Functional, g: Functional, split, half: bool):
        super().__init__()
        self.f = f
        self.g = g
        self.split = split
        self.half = half

    def _rescale(self, d: int) -> tuple:
        f, g = self.f, self.g
        return _multipliers(d, [(1, True, {k: f.den(k) * g.den(d - k) for k in range(d + 1)})])

    def _num(self, b: BarWord) -> int:
        if self.half and not b.factors:
            return 0
        weights = self._scale(b.degree)[1][0]
        g = self.g
        return _known_first(self.split(b), self.f, g._memo, g.num, weights, True)


class _FixedPoint(Functional):
    """Solution of ``X = e + g . X`` (``g_left``) or ``X = e + X . g``, where
    ``.`` pairs the legs of ``split``: ``coalgebra.coproduct`` for the
    convolution, ``half_coproduct_left``/``_right`` for the half-shuffles.

    ``g`` must vanish on the unit, so on degree d the g leg has a degree k
    in ``1..d`` and the X leg a degree below d: ``den(0) = 1`` and
    ``den(d)`` is the lcm over k of ``den_g(k) * den_X(d - k)``.  Earlier
    values and denominators are read from ``self``; no child node refers
    back to it, so reference counting alone frees it.
    """

    def __init__(self, g: Functional, split, g_left: bool):
        super().__init__()
        self.g = g
        self.split = split
        self.g_left = g_left

    def _rescale(self, d: int) -> tuple:
        if d == 0:
            return 1, None
        dens = {k: self.g.den(k) * self.den(d - k) for k in range(1, d + 1)}
        return _multipliers(d, [(1, self.g_left, dens)])

    def _num(self, b: BarWord) -> int:
        if not b.factors:
            return 1
        weights = self._scale(b.degree)[1][0]
        return _known_first(self.split(b), self.g, self._memo, self.num, weights, self.g_left)


def _multipliers(d: int, terms) -> tuple:
    """``(den, weights)`` for a sum of ``(sign, known_left, dens)`` split
    terms at degree d, where ``dens`` maps the known leg's degree k to
    ``den_known(k) * den_unknown(d - k)``.  ``den`` is the lcm of all of
    them, and each term's weights, indexed by the degree of the left leg,
    are ``sign * den // dens[k]``, and 0 for every k that ``dens`` leaves
    out."""
    den = lcm(*(x for _, _, dens in terms for x in dens.values()))
    weights = []
    for sign, known_left, dens in terms:
        row = [0] * (d + 1)
        for k, x in dens.items():
            row[k if known_left else d - k] = sign * (den // x)
        weights.append(row)
    return den, weights


def _known_first(terms, known: Functional, memo: dict, miss, weights, known_left: bool) -> int:
    """``sum coeff * weights[deg left] * known(k) * unknown(u)`` over the
    ``(l, r, coeff)`` terms of a split, in numerators, where ``k`` is the left
    leg if ``known_left`` and the right leg otherwise.  The unknown leg's
    numerators are read from ``memo``, and ``miss(u)`` computes (and
    memoizes) one that is not there yet; ``known``'s memo is read the same
    way, so a hit on either leg costs one ``dict.get`` and no call.

    A term whose weight is 0 is skipped, and ``known`` is evaluated before
    ``unknown`` and zero terms are skipped, so weights that vanish outside
    the degrees where both legs can be nonzero keep ``unknown`` below the
    degree of the split bar-word.  Each orientation has its own loop, so no
    pair is rebuilt per term."""
    kmemo = known._memo
    knum = known.num
    total = 0
    if known_left:
        for (l, r), coeff in terms.pairs():
            weight = weights[l.degree]
            if weight:
                x = kmemo.get(l)
                if x is None:
                    x = knum(l)
                if x:
                    y = memo.get(r)
                    if y is None:
                        y = miss(r)
                    total += coeff * weight * x * y
    else:
        for (l, r), coeff in terms.pairs():
            weight = weights[l.degree]
            if weight:
                x = kmemo.get(r)
                if x is None:
                    x = knum(r)
                if x:
                    y = memo.get(l)
                    if y is None:
                        y = miss(l)
                    total += coeff * weight * x * y
    return total


_UNIT_FUNCTIONAL = _Unit()


def unit() -> Functional:
    return _UNIT_FUNCTIONAL


def character(table: MomentTable) -> Functional:
    return CharacterFunctional(table)


def infinitesimal(table: CumulantTable) -> Functional:
    return InfinitesimalFunctional(table)


def conv(f: Functional, g: Functional) -> Functional:
    """Convolution: pair the coproduct legs with f and g."""
    return _Convolution(f, g, coalgebra.coproduct, half=False)


def half_left(f: Functional, g: Functional) -> Functional:
    """Left half-shuffle ``f < g``; vanishes on the unit bar-word."""
    return _Convolution(f, g, coalgebra.half_coproduct_left, half=True)


def half_right(f: Functional, g: Functional) -> Functional:
    """Right half-shuffle ``f > g``; vanishes on the unit bar-word."""
    return _Convolution(f, g, coalgebra.half_coproduct_right, half=True)


def prelie(f: Functional, g: Functional) -> Functional:
    """Left pre-Lie product ``f |> g = f > g - g < f``."""
    return half_right(f, g) - half_left(g, f)


def inverse(f: Functional) -> Functional:
    """Convolution inverse of a functional normalized to 1 on the unit: the
    solution of ``X = e + (e - f) * X``."""
    if f(UNIT) != ONE:
        raise DomainError("only functionals with value 1 on the unit are invertible")
    return _FixedPoint(unit() - f, coalgebra.coproduct, g_left=True)


def is_character(f: Functional, alphabet: Iterable[str], max_degree: int) -> bool:
    """Exhaustively check unitality and multiplicativity on all bar-words of
    degree <= max_degree over the alphabet, in numerators: ``num(b)`` times
    the denominators of b's factors against the product of their numerators
    times ``den(b.degree)``, which on the unit reads ``num(1) == den(0)``."""
    for d, bars in _domain(tuple(sorted(alphabet)), max_degree):
        den = f.den(d)
        for b in bars:
            product = scale = 1
            for factor in b.factors:
                one = BarWord.of(factor)
                product *= f.num(one)
                scale *= f.den(one.degree)
            if f.num(b) * scale != product * den:
                return False
    return True


def is_infinitesimal(f: Functional, alphabet: Iterable[str], max_degree: int) -> bool:
    """Exhaustively check vanishing on the unit and on proper bar-products,
    on all bar-words of degree <= max_degree over the alphabet."""
    for _, bars in _domain(tuple(sorted(alphabet)), max_degree):
        for b in bars:
            if len(b.factors) != 1 and f.num(b):
                return False
    return True


def materialize(f: Functional, alphabet: Iterable[str], max_len: int, cls=ValueTable):
    """Evaluate f on all single-factor bar-words up to max_len and freeze the
    values into a table."""
    values = {w: f(BarWord.of(w)) for w in words_up_to(alphabet, max_len)}
    return cls(alphabet, max_len, values)


def functionals_agree(
    f: Functional,
    g: Functional,
    alphabet: Iterable[str],
    max_degree: int,
    include_unit: bool = True,
):
    """Return None if f and g agree on all bar-words of degree <= max_degree,
    else the first counterexample as (bar-word, f-value, g-value).  Values
    are compared as cross-multiplied numerators, ``f.num(b) * g.den(d)``
    against ``g.num(b) * f.den(d)``."""
    groups = _domain(tuple(sorted(alphabet)), max_degree)
    for d, bars in groups if include_unit else groups[1:]:
        fden, gden = f.den(d), g.den(d)
        for b in bars:
            if f.num(b) * gden != g.num(b) * fden:
                return (b, f(b), g(b))
    return None
