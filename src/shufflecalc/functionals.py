"""Linear forms on the word Hopf algebra with exact rational values.

A ``Functional`` is a node in an immutable expression tree.  Its leaves are
the unit, characters and infinitesimal characters read from tables; its
inner nodes are sums and split products.  A split product (``_Product``)
pairs the two legs of the coproduct or of a half-coproduct with a known
factor and another node: that one node gives the convolution, both
half-shuffles (and so the pre-Lie product, a sum of two), the fixed points
of ``X = e + g . X`` behind the convolution inverse and the half-shuffle
exponentials, and each step ``L(H_{j+1})`` of the Horner chains by which
``series`` evaluates its power series.

The coproduct and both half-coproducts preserve degree, so every node is
homogeneous: its values on the bar-words of degree d share one positive
integer denominator ``den(d)``, derived from the denominators of its
children (``D^d`` for a table whose values have the common denominator D).
Below the public boundary everything is integer arithmetic: ``num(b)`` is
the numerator of the value on b over ``den(b.degree)``, memoized per node,
and a parent reads its children's numerators, rescaled by integer
multipliers precomputed per degree.  ``__call__`` builds a ``Fraction``;
the exhaustive checks at the end of this module compare numerators,
cross-multiplied where the two denominators differ, and build
``Fraction``s only for a counterexample they report.
The same table reused under different operations lives in different nodes
and therefore different memos.

Every node has two evaluation paths over the same ``den(d)`` and the same
integer weights, so both give the same numerators.

- Point queries (``__call__``, ``num``, ``materialize`` and the word
  oracles) read only the bar-words they need.  A parent reads a child's
  memo dict directly: a hit is one ``dict.get``, and only a miss
  (``None``) calls the child's ``num``, which computes and stores the
  value.  Memos hold 0 for values that vanish, so a read tests ``is None``,
  never truthiness.  A split product runs one loop over the terms of its
  splits, whichever leg is the known one, and skips a term whose known
  leg is 0, so a query that reads few bar-words stays cheap.
- The exhaustive check ``functionals_agree`` reads every bar-word of each
  degree, and ``is_character`` and ``is_infinitesimal`` are that check
  against the character or the infinitesimal extension of f's own word
  values.  So each node gives it all its numerators on one degree d of a
  ``_Domain`` (the bar-words of d and the split indexes over them) at once
  (``_degree``), kept as one list per degree beside the memo.  A table
  leaf reads its list off the table's coded lists: a character's block
  for a composition of d is the outer product of the coded lists of its
  parts, and an infinitesimal's list is 0 on the multi-factor bar-words,
  then ``coded[d]``; a domain over other letters than the table's, or
  above its degree, takes the per-bar-word path.  A parent builds its
  list from its children's over flat split indexes (``_split_sum``),
  which hold each left-leg degree's terms in one part, or in two, those
  of coefficient 1, where they number at least twice the bar-words, and
  the others: per part, a few C-level passes over its terms (gather both
  legs, multiply, by the coefficients unless the part has none, take
  running sums) and one gather of those sums at the bar-words' bounds;
  per call, one difference per bar-word.  The first term or part starts
  the list, and a sum's part of weight 1 is added unscaled.  A degree
  holds thousands of split terms, where one bar-word holds about ten, too
  few for C-level passes to pay.  Lists, not memo
  entries, keep the extra memory small.  As the point path skips a zero
  known leg, ``_split_sum`` skips the terms that are 0 by the legs'
  values, read from the lists and never from the type of a node (the
  checks exist to test which nodes are infinitesimal): a left-leg degree
  where either leg's list is all 0, the known leg's read first, and, where
  a leg's list is 0 on every multi-factor bar-word of its degree, as the
  Lie side's is, the terms whose leg on that side has more than one
  factor.

The caller picks the path by what it asks for; there is no switch.

Unit rules for the half-shuffles follow the convention that both
half-products vanish on the unit bar-word, so the splitting
``f*g = f<g + f>g`` is asserted on nonunit bar-words only.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress, islice, starmap
from math import lcm
from numbers import Rational
from operator import add, itemgetter, mul, ne, sub
from typing import Iterable, Iterator

from . import coalgebra
from .errors import DomainError, is_int, quoted
from .tables import CumulantTable, MomentTable, ValueTable, _letters
from .words import UNIT, BarWord, Word, words_over, words_up_to

ZERO = Fraction(0)
ONE = Fraction(1)


def barwords_up_to(alphabet: Iterable[str], max_degree: int) -> Iterator[BarWord]:
    """All bar-words of degree 1..max_degree, unit excluded."""
    alphabet = sorted(alphabet)
    for n in range(1, max_degree + 1):
        yield from _barwords_of_degree(alphabet, n)


def _barwords_of_degree(alphabet: list[str], n: int) -> Iterator[BarWord]:
    """The bar-words of degree n, by composition of n and then by word:
    the unit alone for n = 0."""
    for comp in _compositions(n):
        factor_choices = [list(words_over(alphabet, k)) for k in comp]
        for factors in itertools.product(*factor_choices):
            yield BarWord(factors)


def _compositions(n: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


class _Domain:
    """The domain of the exhaustive checks over one alphabet, one degree at
    a time: the bar-words of degree d in ``barwords_up_to`` order (the unit
    alone at d = 0), and for each split kind the index ``_split_sum``
    reads, with its restrictions to the terms whose legs can be nonzero.
    Each part is built on first use and kept; ``_domain`` keeps the domains
    of the last few alphabets."""

    def __init__(self, alphabet: tuple[str, ...]):
        self.alphabet = alphabet
        self._bars: dict[int, tuple[BarWord, ...]] = {}
        self._indexes: dict[tuple, list | tuple | None] = {}

    def bars(self, d: int) -> tuple[BarWord, ...]:
        bars = self._bars.get(d)
        if bars is None:
            bars = self._bars[d] = tuple(_barwords_of_degree(list(self.alphabet), d))
        return bars

    def split_index(self, split, d: int) -> list:
        """The terms of ``split`` on the bar-words of degree d, one entry per
        left-leg degree k: None if no term has a left leg of degree k, else
        a tuple of one or two parts.  A part is flat lists of the left leg's
        position in degree k, the right leg's position in degree d - k and
        the coefficient (the list None in a part whose coefficients are all
        1), one item per term, and ``bounds``, where the part's terms of the i-th bar-word are items
        ``bounds[i]`` to ``bounds[i + 1]``.  A second part costs one more
        gather at the bounds and one more add over the bar-words, where it
        saves a multiplication per term: so the terms of coefficient 1 get
        a part of their own, with no coefficients, where they number at
        least twice the bar-words, and stay with the others elsewhere."""
        key = (split, d)
        index = self._indexes.get(key)
        if index is None:
            positions = [{b: i for i, b in enumerate(self.bars(k))} for k in range(d + 1)]
            ones = [([], [], None, [0]) for _ in range(d + 1)]
            others = [([], [], [], [0]) for _ in range(d + 1)]
            for b in self.bars(d):
                for (l, r), c in split(b).pairs():
                    k = l.degree
                    if c == 1:
                        left, right, _, _ = ones[k]
                    else:
                        left, right, coeffs, _ = others[k]
                        coeffs.append(c)
                    left.append(positions[k][l])
                    right.append(positions[d - k][r])
                for left, _, _, bounds in itertools.chain(ones, others):
                    bounds.append(len(left))
            index = self._indexes[key] = [_split_parts(*parts) for parts in zip(ones, others)]
        return index

    def start(self, values: list[int], n: int) -> int | None:
        """None if the degree-n list ``values`` is all 0; else the position
        from which on it can be nonzero: past its multi-factor bar-words if
        it is 0 on all of them, else 0.  In ``_compositions`` order the
        single-factor bar-words are the last ``K^n`` of a degree."""
        multi = len(values) - len(self.alphabet) ** n
        if any(islice(values, multi)):
            return 0
        return multi if any(islice(values, multi, None)) else None

    def split_terms(self, split, d: int, k: int, left_start: int, right_start: int):
        """The item ``split_index(split, d)[k]`` restricted to the terms whose
        left leg sits at ``left_start`` or later in degree k and whose right
        leg at ``right_start`` or later in degree d - k, in the same form;
        None if no term is left.  Built once, by filtering each part of the
        full item; two parts are then laid out again by ``_split_parts``."""
        key = (split, d, k, left_start, right_start)
        if key not in self._indexes:
            parts = []
            for left, right, coeffs, bounds in self.split_index(split, d)[k]:
                keep = [l >= left_start and r >= right_start for l, r in zip(left, right)]
                kept = list(accumulate(keep, initial=0))
                parts.append((list(compress(left, keep)), list(compress(right, keep)),
                              None if coeffs is None else list(compress(coeffs, keep)),
                              list(map(kept.__getitem__, bounds))))
            self._indexes[key] = _split_parts(*parts)
        return self._indexes[key]


def _split_parts(*parts: tuple) -> tuple | None:
    """The item of one left-leg degree of ``_Domain.split_index`` from its
    terms in one part, or in two, those of coefficient 1 and the others:
    the nonempty ones of the parts, once the first of two is merged into
    the second, bar-word by bar-word, where it holds fewer than twice as
    many terms as there are bar-words."""
    if len(parts) == 2:
        (l1, r1, _, b1), (l2, r2, c2, b2) = parts
        if l1 and l2 and len(l1) < 2 * (len(b1) - 1):
            left, right, coeffs, bounds = [], [], [], [0]
            for s1, e1, s2, e2 in zip(b1, islice(b1, 1, None), b2, islice(b2, 1, None)):
                left += l1[s1:e1] + l2[s2:e2]
                right += r1[s1:e1] + r2[s2:e2]
                coeffs += [1] * (e1 - s1) + c2[s2:e2]
                bounds.append(len(left))
            return ((left, right, coeffs, bounds),)
    return tuple(part for part in parts if part[0]) or None


@lru_cache(maxsize=8)
def _domain(alphabet: tuple[str, ...]) -> _Domain:
    return _Domain(alphabet)


class Functional:
    """Base class: a lazily evaluated linear form on bar-words.

    Subclasses (the table leaves, ``_Sum`` and ``_Product``) give
    ``_num(b)``, the integer numerator of the value on b, and
    ``_rescale(d)``, the pair ``(den(d), weights)`` where ``weights`` holds
    whatever integer multipliers ``_num`` needs at degree d.  Both are
    memoized here.  For the exhaustive checks, ``_batch(domain, d)`` gives
    the numerators on every bar-word of degree d of a domain at once, from
    the same weights; ``_degree`` keeps them, apart from the memo.
    """

    def __init__(self):
        self._memo: dict[BarWord, int] = {}
        self._scales: dict[int, tuple] = {}
        self._lists: dict[tuple[tuple[str, ...], int], list[int]] = {}

    def __call__(self, b: BarWord) -> Fraction:
        return Fraction(self.num(b), self.den(b.degree))

    def num(self, b: BarWord) -> int:
        """The value on b times ``den(b.degree)``.  ``_Sum._num`` and
        ``_Product._num`` read their children's memos inline and call this
        on a miss only, so it looks up with ``get`` rather than paying for a
        ``KeyError``."""
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

    def _degree(self, domain: _Domain, d: int) -> list[int]:
        """``num(b)`` for every bar-word b of degree d of the domain, in
        domain order."""
        key = (domain.alphabet, d)
        values = self._lists.get(key)
        if values is None:
            values = self._lists[key] = self._batch(domain, d)
        return values

    def _num(self, b: BarWord) -> int:
        raise NotImplementedError

    def _batch(self, domain: _Domain, d: int) -> list[int]:
        """One ``_num`` per bar-word: the unit, and a table leaf whose
        table's coded lists do not hold the domain's values."""
        return list(map(self._num, domain.bars(d)))

    def _rescale(self, d: int) -> tuple:
        return 1, None

    # Linear structure.  `*` by a scalar rescales; `conv` is convolution.
    def __add__(self, other: "Functional") -> "Functional":
        return _Sum(((ONE, self), (ONE, other)))

    def __sub__(self, other: "Functional") -> "Functional":
        return _Sum(((ONE, self), (-ONE, other)))

    def __neg__(self) -> "Functional":
        return _Sum(((-ONE, self),))

    def __mul__(self, other):
        if isinstance(other, bool) or not isinstance(other, Rational):
            raise DomainError(f"a functional's scalar must be rational, got {quoted(other)}")
        return _Sum(((Fraction(other), self),))

    __rmul__ = __mul__


class _Unit(Functional):
    """The counit e: 1 on the unit bar-word, 0 elsewhere."""

    def _num(self, b: BarWord) -> int:
        return 0 if b.factors else 1


class _TableFunctional(Functional):
    """A node read from a table: ``den(d) = D^d`` with D the table's base,
    the lcm of its denominators, so each word's value is the table's coded
    integer.  Point queries read a ``Word -> int`` dict of those integers,
    built on the first one; a degree batch reads ``table.coded`` directly
    (``_coded``)."""

    def __init__(self, table: ValueTable):
        super().__init__()
        self.table = table
        self._base = table.base
        self._words = None

    def _word_num(self, w: Word) -> int:
        words = self._words
        if words is None:
            table = self.table
            words = self._words = dict(zip(words_up_to(table.alphabet, table.max_len),
                                           itertools.chain.from_iterable(table.coded)))
        value = words.get(w)
        # a word outside the table: its lookup raises TruncationError
        return self.table.lookup(w) if value is None else value

    def _coded(self, domain: _Domain, d: int) -> list | None:
        """``table.coded`` if it holds every word a bar-word of degree d of
        the domain has, in the domain's letter order: the same letters and
        d <= max_len.  None otherwise, and the batch then takes the
        per-bar-word path, which raises a word's ``TruncationError``."""
        table = self.table
        return table.coded if domain.alphabet == table.alphabet and d <= table.max_len else None

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

    def _batch(self, domain: _Domain, d: int) -> list[int]:
        """Per composition of d, in the domain's order, the outer product of
        the coded lists of its parts: for a first part f, that of
        ``coded[f]`` with each block of ``K^(d - f)`` values of the degree
        ``d - f`` list, one block per composition of the rest."""
        coded = self._coded(domain, d)
        if coded is None:
            return super()._batch(domain, d)
        if not d:
            return [1]
        values = []
        for first in range(1, d + 1):
            rest, size = self._degree(domain, d - first), len(domain.alphabet) ** (d - first)
            for start in range(0, len(rest), size):
                values += starmap(mul, itertools.product(coded[first], rest[start:start + size]))
        return values


class InfinitesimalFunctional(_TableFunctional):
    """Extension of a cumulant table: vanishes on the unit and on bar-words
    of two or more factors."""

    def _num(self, b: BarWord) -> int:
        if len(b.factors) != 1:
            return 0
        return self._word_num(b.factors[0])

    def _batch(self, domain: _Domain, d: int) -> list[int]:
        """0 on the multi-factor bar-words and the unit, then ``coded[d]``
        on the single-factor ones, the last of the degree."""
        coded = self._coded(domain, d)
        if coded is None:
            return super()._batch(domain, d)
        return [0] * (len(domain.bars(d)) - len(coded[d])) + coded[d]


class _Sum(Functional):
    """``sum c_i f_i``: ``den(d)`` is the lcm of ``c_i.denominator *
    den_i(d)``, and each part has one integer weight per degree, kept
    beside the part's memo and ``num`` so ``_num`` reads the memo inline.
    ``_parts(d)`` gives the parts that degree d reads."""

    def __init__(self, parts: Iterable[tuple[Fraction, Functional]]):
        super().__init__()
        flat: list[tuple[Fraction, Functional]] = []
        for coeff, f in parts:
            # Only a plain sum is flattened: a subclass gives its parts
            # through ``_parts``.
            if type(f) is _Sum:
                flat.extend((coeff * c, g) for c, g in f.parts)
            else:
                flat.append((coeff, f))
        self.parts = tuple(flat)

    def _parts(self, d: int):
        return self.parts

    def _rescale(self, d: int) -> tuple:
        scaled = [(c.numerator, c.denominator * f.den(d), f) for c, f in self._parts(d) if c]
        den = lcm(*(x for _, x, _ in scaled))
        return den, [(n * (den // x), f._memo, f) for n, x, f in scaled]

    def _num(self, b: BarWord) -> int:
        total = 0
        for w, memo, f in self._scale(b.degree)[1]:
            x = memo.get(b)
            if x is None:
                x = f.num(b)
            total += w * x
        return total

    def _batch(self, domain: _Domain, d: int) -> list[int]:
        total = None
        for w, _, f in self._scale(d)[1]:
            values = f._degree(domain, d)
            if w != 1:
                values = map(w.__mul__, values)
            total = list(values) if total is None else list(map(add, total, values))
        return [0] * len(domain.bars(d)) if total is None else total


class _Product(Functional):
    """``sum sign * (known . other)`` (``known_left``) or ``sign * (other .
    known)`` over ``(sign, split, known, known_left)`` terms, where ``.``
    pairs the legs of ``split``: ``coalgebra.coproduct`` for the
    convolution, ``half_coproduct_left``/``_right`` for the half-shuffles.
    ``other is None`` stands for the node itself, which makes it the fixed
    point ``X = e + known . X`` (or ``X = e + X . known``); earlier values
    and denominators are then read from ``self``, and no child refers back
    to it, so reference counting alone frees it.

    On degree d the known leg's degree k runs over ``low..d - skip`` only,
    where both legs can be nonzero; this keeps a fixed point below its own
    degree.  ``den(d)`` is the lcm over the terms and k of ``den_known(k) *
    den_other(d - k)``, and each term has one multiplier per left-leg
    degree, 0 outside that range.  ``on_unit``, if not None, is the value
    on the unit bar-word: 0 for the half-shuffles, 1 for a fixed point.

    ``_num`` runs over the ``(l, r)`` legs of each term's split, with k the
    known leg and u the other.  A term whose weight is 0 is skipped, and
    the known leg is read before u and a zero skips the term, so weights
    that vanish outside the degrees where both legs can be nonzero keep u
    below the degree of the split bar-word.
    """

    def __init__(self, terms, other: Functional | None, low: int = 0, skip: int = 0,
                 on_unit: int | None = None):
        super().__init__()
        self.terms = terms
        self.other = other
        self.low = low
        self.skip = skip
        self.on_unit = on_unit

    def _rescale(self, d: int) -> tuple:
        other = self if self.other is None else self.other
        dens = [{k: known.den(k) * other.den(d - k) for k in range(self.low, d - self.skip + 1)}
                for _, _, known, _ in self.terms]
        den = lcm(*(x for row in dens for x in row.values()))
        weights = []
        for (sign, _, _, known_left), row in zip(self.terms, dens):
            ws = [0] * (d + 1)
            for k, x in row.items():
                ws[k if known_left else d - k] = sign * (den // x)
            weights.append(ws)
        return den, weights

    def _num(self, b: BarWord) -> int:
        if self.on_unit is not None and not b.factors:
            return self.on_unit
        other = self if self.other is None else self.other
        umemo, unum = other._memo, other.num
        total = 0
        for (_, split, known, known_left), weights in zip(self.terms, self._scale(b.degree)[1]):
            kmemo, knum = known._memo, known.num
            for (l, r), coeff in split(b).pairs():
                weight = weights[l.degree]
                if weight:
                    k, u = (l, r) if known_left else (r, l)
                    x = kmemo.get(k)
                    if x is None:
                        x = knum(k)
                    if x:
                        y = umemo.get(u)
                        if y is None:
                            y = unum(u)
                        total += coeff * weight * x * y
        return total

    def _batch(self, domain: _Domain, d: int) -> list[int]:
        if self.on_unit is not None and not d:
            return [self.on_unit]
        other = (self if self.other is None else self.other)._degree
        total = None
        for (_, split, known, known_left), weights in zip(self.terms, self._scale(d)[1]):
            total = _split_sum(domain, split, d, weights, known._degree, other, known_left, total)
        return [0] * len(domain.bars(d)) if total is None else total


def _split_sum(domain: _Domain, split, d: int, weights, known, other, known_left: bool,
               total) -> list[int] | None:
    """The batched ``_Product._num``: ``total`` (None for none) plus, for
    every bar-word b of degree d of the domain, ``sum coeff * weights[k] *
    left(k)[l] * right(d - k)[r]`` over the ``(l, r, coeff)`` terms of
    ``split(b)``, where k is the degree of l and ``left``, ``right`` are
    ``known``, ``other`` if ``known_left`` and the other way round if not.
    ``known`` and ``other`` give the numerators of a leg on one degree, as
    ``Functional._degree`` does.  None if no term is summed and ``total``
    is None.

    The terms of one left-leg degree k are summed in a few C-level passes
    over each part of ``domain.split_index``: fold ``weights[k]`` into the
    shorter leg's list (a new list; the child's is never scaled), gather
    both legs, multiply, by the coefficients unless the part has none, and
    take running sums S.  The sum over the
    i-th bar-word's terms of a part is ``S[bounds[i + 1]] - S[bounds[i]]``,
    so only ``S`` at ``bounds`` is kept, added into ``marks`` across the
    parts and the k; the per-bar-word differences are taken once per call,
    at the end.  Terms that are 0 by the legs' values are skipped, as the
    point path skips a zero known leg:
    - a k whose weight is 0 is skipped and its legs are never read, which
      keeps a fixed point or a series off its own values on degree d;
    - if the known leg's list is all 0, k is skipped without reading the
      other leg; then if the other leg's list is all 0, k is skipped;
    - if a leg's list is 0 on every multi-factor bar-word of its degree,
      as an infinitesimal character's is, only the terms whose leg on that
      side has one factor are summed (``domain.split_terms``)."""
    marks = None
    for k, parts in enumerate(domain.split_index(split, d)):
        weight = weights[k]
        if not weight or parts is None:
            continue
        kdegree, odegree = (k, d - k) if known_left else (d - k, k)
        kvalues = known(domain, kdegree)
        kstart = domain.start(kvalues, kdegree)
        if kstart is None:
            continue
        ovalues = other(domain, odegree)
        ostart = domain.start(ovalues, odegree)
        if ostart is None:
            continue
        if known_left:
            left, right, lstart, rstart = kvalues, ovalues, kstart, ostart
        else:
            left, right, lstart, rstart = ovalues, kvalues, ostart, kstart
        if lstart or rstart:
            parts = domain.split_terms(split, d, k, lstart, rstart)
            if parts is None:
                continue
        if weight != 1:
            # folded into a new list, never the child's own
            if len(left) <= len(right):
                left = list(map(weight.__mul__, left))
            else:
                right = list(map(weight.__mul__, right))
        for lpos, rpos, coeffs, bounds in parts:
            products = map(mul, _gather(left, lpos), _gather(right, rpos))
            if coeffs is not None:
                products = map(mul, coeffs, products)
            # bounds holds one more item than the bar-words, so at least two
            at = itemgetter(*bounds)(list(accumulate(products, initial=0)))
            marks = at if marks is None else list(map(add, marks, at))
    if marks is None:
        return total
    sums = map(sub, islice(marks, 1, None), marks)
    return list(sums) if total is None else list(map(add, total, sums))


def _gather(values: list[int], positions: list[int]):
    """``values`` at ``positions``, in order."""
    if len(positions) == 1:
        return (values[positions[0]],)
    return itemgetter(*positions)(values)


def unit() -> Functional:
    """A new counit node, freed with the expression that holds it."""
    return _Unit()


def character(table: MomentTable) -> Functional:
    return CharacterFunctional(table)


def infinitesimal(table: CumulantTable) -> Functional:
    return InfinitesimalFunctional(table)


def conv(f: Functional, g: Functional) -> Functional:
    """Convolution: pair the coproduct legs with f and g."""
    return _Product(((1, coalgebra.coproduct, f, True),), g)


def half_left(f: Functional, g: Functional) -> Functional:
    """Left half-shuffle ``f < g``; vanishes on the unit bar-word."""
    return _Product(((1, coalgebra.half_coproduct_left, f, True),), g, on_unit=0)


def half_right(f: Functional, g: Functional) -> Functional:
    """Right half-shuffle ``f > g``; vanishes on the unit bar-word."""
    return _Product(((1, coalgebra.half_coproduct_right, f, True),), g, on_unit=0)


def prelie(f: Functional, g: Functional) -> Functional:
    """Left pre-Lie product ``f |> g = f > g - g < f``."""
    return half_right(f, g) - half_left(g, f)


def _require_lie(a: Functional, what: str) -> None:
    if a(UNIT) != ZERO:
        raise DomainError(f"{what} requires a functional vanishing on the unit")


def _require_group(f: Functional, what: str) -> None:
    if f(UNIT) != ONE:
        raise DomainError(f"{what} requires a functional equal to 1 on the unit")


def _check_domain(alphabet: Iterable[str], max_degree) -> tuple[str, ...]:
    """The sorted letters of an exhaustive check's domain, once max_degree
    is an integer >= 0 and the alphabet passes what a table's alphabet
    passes (``tables._letters``), each refused with one line before any
    work."""
    if not is_int(max_degree) or max_degree < 0:
        raise DomainError(f"max_degree must be an integer >= 0, got {quoted(max_degree)}")
    return _letters(alphabet, max(max_degree, 1))


def inverse(f: Functional) -> Functional:
    """Convolution inverse of a functional normalized to 1 on the unit: the
    solution of ``X = e + (e - f) * X``."""
    _require_group(f, "inverse")
    return _Product(((1, coalgebra.coproduct, unit() - f, True),), None, low=1, on_unit=1)


def is_character(f: Functional, alphabet: Iterable[str], max_degree: int) -> bool:
    """Exhaustively check that f is a character on all bar-words of degree
    <= max_degree over the alphabet: that it agrees with the character of
    its own word values, which is 1 on the unit and multiplicative."""
    letters = _check_domain(alphabet, max_degree)
    moments = materialize(f, letters, max(max_degree, 1), MomentTable)
    return functionals_agree(f, character(moments), letters, max_degree) is None


def is_infinitesimal(f: Functional, alphabet: Iterable[str], max_degree: int) -> bool:
    """Exhaustively check that f is an infinitesimal character on all
    bar-words of degree <= max_degree over the alphabet: that it agrees
    with the infinitesimal extension of its own word values, which vanishes
    on the unit and on proper bar-products."""
    letters = _check_domain(alphabet, max_degree)
    cumulants = materialize(f, letters, max(max_degree, 1), CumulantTable)
    return functionals_agree(f, infinitesimal(cumulants), letters, max_degree) is None


def materialize(f: Functional, alphabet: Iterable[str], max_len: int, cls=ValueTable):
    """Evaluate f on all single-factor bar-words up to max_len and freeze the
    values into a table."""
    letters = _letters(alphabet, max_len)
    values = {w: f(BarWord.of(w)) for w in words_up_to(letters, max_len)}
    return cls(letters, max_len, values)


def functionals_agree(
    f: Functional,
    g: Functional,
    alphabet: Iterable[str],
    max_degree: int,
    include_unit: bool = True,
):
    """Return None if f and g agree on all bar-words of degree <= max_degree,
    else the first counterexample as (bar-word, f-value, g-value).  Values
    are compared one whole degree at a time, as cross-multiplied
    numerators, ``f.num(b) * g.den(d)`` against ``g.num(b) * f.den(d)``, or
    as the numerators themselves where the two denominators are equal."""
    domain = _domain(_check_domain(alphabet, max_degree))
    for d in range(0 if include_unit else 1, max_degree + 1):
        fden, gden = f.den(d), g.den(d)
        fnums, gnums = f._degree(domain, d), g._degree(domain, d)
        if fden == gden:
            differ = list(map(ne, fnums, gnums))
        else:
            differ = list(map(ne, map(gden.__mul__, fnums), map(fden.__mul__, gnums)))
        if True in differ:
            i = differ.index(True)
            return (domain.bars(d)[i], Fraction(fnums[i], fden), Fraction(gnums[i], gden))
    return None
