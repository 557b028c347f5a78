"""The subset-extraction coproduct, its half-coproduct splitting and
reduced variants, extended multiplicatively to bar-words.

The coproduct of a word ``a_1...a_n`` sums, over all subsets S of the
positions, the extracted subword tensored with the connected components of
the complement.  The left half keeps the subsets containing position 1, the
right half the subsets avoiding it.  On a bar-word the first factor uses the
half-coproduct and the remaining factors the full coproduct; the product in
the tensor square is componentwise bar-concatenation.  A word is split as
the one-factor bar-word ``BarWord.of(w)``.

``_split`` computes every split, memoized since the same subwords recur
heavily: one cache per kind, keyed by bar-word (``_full_cache``,
``_left_cache``, ``_right_cache``).  The unit is left uncached, as its
coproduct is the constant ``_UNIT_SUM`` and its halves are undefined.
Bar-words are interned (see ``words``), so the keys of these caches and the
legs of their terms are shared, not copied.  The caches are never cleared.

A one-factor bar-word is split from a letter-free plan of its length
(``_plan``): per mask over the positions, in mask order, the extracted
positions and the complement's runs.  One plan serves all three kinds, the
halves being its rows that hold or avoid position 1.  The legs are found
through the intern tables ``_WORDS`` and ``_BARWORDS`` before anything is
constructed.  A multi-factor bar-word multiplies the split of its first
factor by the full coproducts of the others, with ``BarWord.concat``.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

from .errors import DomainError
from .words import _BARWORDS, _WORDS, UNIT, BarWord, Word


class TensorSum:
    """An integer-coefficient formal sum of (left, right) bar-word pairs.

    Normalized eagerly: equal pairs are merged and zero coefficients
    dropped.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        acc: dict[tuple[BarWord, BarWord], int] = {}
        for left, right, coeff in terms:
            key = (left, right)
            c = acc.get(key, 0) + coeff
            if c:
                acc[key] = c
            elif key in acc:
                del acc[key]
        self._terms = acc

    def terms(self) -> list[tuple[BarWord, BarWord, int]]:
        """Terms in a canonical order (graded, then lexicographic)."""
        return sorted(
            ((l, r, c) for (l, r), c in self._terms.items()),
            key=lambda t: (t[0]._key(), t[1]._key()),
        )

    def items(self) -> Iterator[tuple[BarWord, BarWord, int]]:
        for (l, r), c in self._terms.items():
            yield l, r, c

    def pairs(self):
        """The ``((left, right), coeff)`` items in insertion order, as a
        view of the underlying dict: the cheap iteration for evaluation."""
        return self._terms.items()

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, TensorSum) and self._terms == other._terms

    def __add__(self, other: "TensorSum") -> "TensorSum":
        return TensorSum(chain(self.items(), other.items()))

    def __sub__(self, other: "TensorSum") -> "TensorSum":
        return self + (-1) * other

    def __rmul__(self, scalar: int) -> "TensorSum":
        out = TensorSum()
        if scalar:
            out._terms = {k: scalar * c for k, c in self._terms.items()}
        return out

    def product(self, other: "TensorSum") -> "TensorSum":
        """Componentwise bar-concatenation product in the tensor square."""
        out = TensorSum()
        acc = out._terms
        for (l1, r1), c1 in self._terms.items():
            for (l2, r2), c2 in other._terms.items():
                key = (l1.concat(l2), r1.concat(r2))
                c = acc.get(key, 0) + c1 * c2
                if c:
                    acc[key] = c
                elif key in acc:
                    del acc[key]
        return out

    def __repr__(self) -> str:
        if not self._terms:
            return "TensorSum(0)"
        parts = [f"{c}*{l!r}(x){r!r}" for l, r, c in self.terms()]
        return "TensorSum(%s)" % " + ".join(parts)


_UNIT_SUM = TensorSum([(UNIT, UNIT, 1)])

_full_cache: dict[BarWord, TensorSum] = {}
_left_cache: dict[BarWord, TensorSum] = {}
_right_cache: dict[BarWord, TensorSum] = {}


# One letter-free plan per word length n: per mask over the positions, in
# mask order, the extracted 0-based positions and the complement's runs as
# indices into the plan's list of ``(start, stop)`` runs.  The rows of odd
# masks hold position 1, those of even masks avoid it.
_plans: dict[int, tuple] = {}


def _plan(n: int) -> tuple:
    plan = _plans.get(n)
    if plan is None:
        runs = [(a, b) for a in range(n) for b in range(a + 1, n + 1)]
        run_index = {run: i for i, run in enumerate(runs)}
        rows = []
        for mask in range(1 << n):
            positions = tuple(x for x in range(n) if mask >> x & 1)
            bounds = (-1, *positions, n)
            rows.append((positions, tuple(run_index[a + 1, b] for a, b in zip(bounds, bounds[1:])
                                          if b > a + 1)))
        plan = _plans[n] = (runs, rows)
    return plan


def _word_split(w: Word, keep_first: bool | None) -> TensorSum:
    """The split of the one-factor bar-word of ``w`` from the plan of its
    length, interning each leg through ``_WORDS``/``_BARWORDS`` lookups
    before constructing anything."""
    letters = w.letters
    runs, rows = _plan(len(letters))
    if keep_first is not None:
        rows = rows[keep_first::2]
    pieces = []
    for a, b in runs:
        sub = letters[a:b]
        pieces.append(_WORDS.get(sub) or Word(sub))
    terms = []
    for positions, parts in rows:
        if positions:
            sub = tuple(map(letters.__getitem__, positions))
            word = _WORDS.get(sub) or Word(sub)
            left = _BARWORDS.get((word,)) or BarWord((word,))
        else:
            left = UNIT
        factors = tuple(map(pieces.__getitem__, parts))
        terms.append((left, _BARWORDS.get(factors) or BarWord(factors), 1))
    return TensorSum(terms)


def _split(b: BarWord, keep_first: bool | None, cache: dict) -> TensorSum:
    """The full coproduct of ``b`` (``keep_first`` None) or its left (True)
    or right (False) half, stored in ``cache``: the first factor's position
    sets hold position 1, avoid it, or either, and each further factor
    multiplies in its full coproduct."""
    factors = b.factors
    if not factors:
        if keep_first is None:
            return _UNIT_SUM
        raise DomainError("the half-coproducts are not defined on the unit")
    first = factors[0]
    if len(factors) == 1:
        result = _word_split(first, keep_first)
    else:
        head = BarWord.of(first)
        result = cache.get(head)
        if result is None:
            result = _split(head, keep_first, cache)
        for factor in factors[1:]:
            result = result.product(coproduct(BarWord.of(factor)))
    cache[b] = result
    return result


def coproduct_word(w: Word) -> TensorSum:
    """Coproduct of a single word: sum over all position subsets S of
    ``subword(w, S) (x) complement_components(w, S)``."""
    return coproduct(BarWord.of(w))


def coproduct(b: BarWord) -> TensorSum:
    """Multiplicative extension of the coproduct to bar-words."""
    cached = _full_cache.get(b)
    return _split(b, None, _full_cache) if cached is None else cached


def half_coproduct_left(b: BarWord) -> TensorSum:
    """Left half-coproduct: position 1 of the first factor is extracted."""
    cached = _left_cache.get(b)
    return _split(b, True, _left_cache) if cached is None else cached


def half_coproduct_right(b: BarWord) -> TensorSum:
    """Right half-coproduct: position 1 of the first factor stays behind."""
    cached = _right_cache.get(b)
    return _split(b, False, _right_cache) if cached is None else cached


def reduced_coproduct(b: BarWord) -> TensorSum:
    if b.is_unit:
        raise DomainError("the reduced coproduct is not defined on the unit")
    primitive = TensorSum([(b, UNIT, 1), (UNIT, b, 1)])
    return coproduct(b) - primitive


def reduced_half_left(b: BarWord) -> TensorSum:
    return half_coproduct_left(b) - TensorSum([(b, UNIT, 1)])


def reduced_half_right(b: BarWord) -> TensorSum:
    return half_coproduct_right(b) - TensorSum([(UNIT, b, 1)])
